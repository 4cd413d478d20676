import copy
import pickle
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copartitions import (
    Copartition,
    CpParams,
    copartition_series,
    count_copartitions,
    crank_distribution,
    distinct_parts_to_hooks,
    enumerate_copartitions,
    hooks_to_distinct_parts,
    self_conjugate_series,
    size_counts,
)
from copartitions import stats
from copartitions.enumeration import _partitions_upto, _walk

from oracles import count_distinct_restricted, progression, reference_triples

WORKED_EXAMPLE = [
    ((5, 2, 2), (), ()),
    ((5,), (3,), (1,)),
    ((2,), (3,), (4,)),
    ((), (), (7, 1, 1)),
    ((), (), (4, 4, 1)),
    ((), (), (4, 1, 1, 1, 1, 1)),
    ((), (), (1,) * 9),
]


def size(cp):
    """The total of a copartition's three parts."""
    return sum(cp.ground) + sum(cp.rectangle) + sum(cp.sky)


def small_instances(max_size=12):
    """Strategy producing copartitions drawn from small enumerations."""
    def build(a, b, m, n, idx):
        found = enumerate_copartitions(CpParams(a, b, m), n)
        if not found:
            found = enumerate_copartitions(CpParams(a, b, m), 0)
        return found[idx % len(found)]
    return st.builds(
        build,
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
        st.integers(0, max_size), st.integers(0, 10 ** 6),
    )


class TestEnumerate:
    def test_worked_example_listing(self):
        got = enumerate_copartitions(CpParams(2, 1, 3), 9)
        assert [(c.ground, c.rectangle, c.sky) for c in got] == WORKED_EXAMPLE

    def test_size_zero(self):
        got = enumerate_copartitions(CpParams(4, 2, 5), 0)
        assert [(c.ground, c.rectangle, c.sky) for c in got] == [((), (), ())]

    def test_small_314_listing(self):
        got = enumerate_copartitions(CpParams(3, 1, 4), 3)
        assert [(c.ground, c.rectangle, c.sky) for c in got] == [
            ((3,), (), ()),
            ((), (), (1, 1, 1)),
        ]

    def test_every_instance_has_the_requested_size(self):
        for cp in enumerate_copartitions(CpParams(2, 3, 4), 17):
            assert size(cp) == 17

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            enumerate_copartitions(CpParams(1, 1, 2), -1)
        with pytest.raises(ValueError):
            count_copartitions(CpParams(1, 1, 2), -3)
        with pytest.raises(ValueError):
            size_counts(CpParams(1, 1, 2), -1)
        with pytest.raises(ValueError):
            crank_distribution(CpParams(1, 1, 2), -2, 5)


class TestCount:
    def test_worked_example(self):
        assert count_copartitions(CpParams(2, 1, 3), 9) == 7

    def test_hand_enumerated_values(self):
        assert count_copartitions(CpParams(1, 1, 2), 4) == 5
        assert count_copartitions(CpParams(5, 1, 6), 5) == 2

    def test_count_equals_listing_length(self):
        for n in range(18):
            params = CpParams(1, 2, 3)
            assert count_copartitions(params, n) == len(enumerate_copartitions(params, n))

    def test_matches_series_on_small_grid(self):
        for a, b, m in [(1, 1, 1), (2, 1, 3), (1, 3, 2), (2, 2, 4)]:
            params = CpParams(a, b, m)
            series = copartition_series(params, 16)
            for n in range(17):
                assert count_copartitions(params, n) == series[n]


class TestWalk:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 18))
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_the_per_size_reference(self, a, b, m, n):
        params = CpParams(a, b, m)
        by_size = [[] for _ in range(n + 1)]
        for size, ground, sky in _walk(params, n):
            by_size[size].append((ground, sky))
        for k in range(n + 1):
            assert sorted(by_size[k]) == reference_triples(params, k), k
        assert size_counts(params, n) == list(copartition_series(params, n).coeffs)

    @pytest.mark.parametrize("a,b,m,n", [(1, 1, 1, 24), (1, 1, 2, 25), (2, 1, 3, 30),
                                         (3, 3, 4, 36), (5, 1, 6, 40), (1, 6, 5, 28)])
    def test_work_is_one_node_per_copartition(self, a, b, m, n):
        # the walk yields once per node it visits: no dead ends, no repeats
        params = CpParams(a, b, m)
        nodes = sum(1 for _ in _walk(params, n))
        assert nodes == sum(copartition_series(params, n).coeffs)
        assert nodes == len(set(_walk(params, n)))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 18))
    @example(2, 3, 4, 0)
    @example(7, 1, 9, 6)                        # a > n and m > n: the skies are 1^k alone
    @example(10 ** 9, 10 ** 9, 10 ** 9, 5)
    @settings(max_examples=100, deadline=None)
    def test_counting_loop_matches_the_walk(self, a, b, m, n):
        # size_counts counts in a loop of its own: the size histogram of _walk
        params = CpParams(a, b, m)
        by_size = [0] * (n + 1)
        for size, _, _ in _walk(params, n):
            by_size[size] += 1
        assert size_counts(params, n) == by_size

    def test_the_recorder_counts_the_partitions_yielded(self):
        # a walk stopped early counts the nodes it yielded, and only those
        with stats.recording() as counts:
            assert len(list(islice(_partitions_upto(30, 1, 1, 0), 10))) == 10
        assert counts == {"partitions_walked": 10}

    def test_counting_loop_never_walks_parts_beyond_n(self):
        assert size_counts(CpParams(10 ** 9, 10 ** 9, 10 ** 9), 5) == [1, 0, 0, 0, 0, 0]
        assert size_counts(CpParams(7, 1, 9), 6) == [1] * 7


class TestCopartitionType:
    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            Copartition((4,), (), CpParams(2, 1, 3))

    def test_rejects_part_below_minimum(self):
        with pytest.raises(ValueError):
            Copartition((), (1,), CpParams(1, 5, 4))

    def test_empty_ground_forces_an_empty_rectangle(self):
        # even with a nonempty sky
        assert Copartition((), (1,), CpParams(2, 1, 3)).rectangle == ()

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 14))
    @example(1, 1, 1, 14)
    @settings(max_examples=60, deadline=None)
    def test_ground_sky_and_params_are_the_whole_record(self, a, b, m, n):
        for cp in enumerate_copartitions(CpParams(a, b, m), n):
            assert Copartition(cp.ground, cp.sky, cp.params) == cp
            forced = (m * len(cp.ground),) * len(cp.sky) if cp.ground and cp.sky else ()
            assert cp.rectangle == forced
            assert cp.conjugate().conjugate() == cp
            assert pickle.loads(pickle.dumps(cp)) == cp and copy.copy(cp) == cp

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Copartition((2, 5), (), CpParams(2, 1, 3))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CpParams(0, 1, 1)


class TestConjugation:
    def test_empty_ground_example(self):
        cp = enumerate_copartitions(CpParams(2, 1, 3), 9)[-1]
        assert cp.sky == (1,) * 9
        conj = cp.conjugate()
        assert (conj.ground, conj.rectangle, conj.sky) == ((1,) * 9, (), ())
        assert conj.params == CpParams(1, 2, 3)
        assert size(conj) == 9

    def test_figure_shape(self):
        # (\{3m+a, 2m+a, 2m+a, a\}, \{4m, 4m\}, \{3m+b, 2m+b\}) at (a,b,m)=(2,1,3)
        cp = Copartition((11, 8, 8, 2), (10, 7), CpParams(2, 1, 3))
        assert cp.rectangle == (12, 12)
        conj = cp.conjugate()
        assert conj.ground == (10, 7)
        assert conj.rectangle == (6, 6, 6, 6)
        assert conj.sky == (11, 8, 8, 2)
        assert size(conj) == size(cp)

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_involution_and_size(self, cp):
        conj = cp.conjugate()
        assert size(conj) == size(cp)
        assert conj.conjugate() == cp
        assert conj.crank() == -cp.crank()

    def test_swapped_family_counts_agree(self):
        for a, b, m in [(1, 2, 3), (3, 1, 4), (2, 3, 5)]:
            for n in range(15):
                assert count_copartitions(CpParams(a, b, m), n) == \
                    count_copartitions(CpParams(b, a, m), n)


class TestSelfConjugate:
    def test_known_fixed_point(self):
        cp = Copartition((1,), (1,), CpParams(1, 1, 2))
        assert cp.is_self_conjugate()

    def test_unequal_parameters_never_fixed(self):
        for cp in enumerate_copartitions(CpParams(2, 1, 3), 9):
            assert not cp.is_self_conjugate()

    def test_empty_is_fixed(self):
        cp = Copartition((), (), CpParams(3, 3, 4))
        assert cp.is_self_conjugate()

    def test_fixed_exactly_when_ground_equals_sky(self):
        for a in range(1, 4):
            for m in range(1, 6):
                for n in range(17):
                    for cp in enumerate_copartitions(CpParams(a, a, m), n):
                        assert (cp.ground == cp.sky) == cp.is_self_conjugate(), cp

    def test_counts_match_series_small(self):
        for a, m in [(1, 2), (2, 3), (1, 4)]:
            series = self_conjugate_series(a, m, 24)
            for n in range(25):
                found = [cp for cp in enumerate_copartitions(CpParams(a, a, m), n)
                         if cp.is_self_conjugate()]
                assert len(found) == series[n]


class TestHookBijection:
    def test_single_hook(self):
        cp = Copartition((1,), (1,), CpParams(1, 1, 2))
        assert hooks_to_distinct_parts(cp) == (4,)
        assert distinct_parts_to_hooks((4,), 1, 2) == cp

    def test_empty(self):
        empty = Copartition((), (), CpParams(1, 1, 2))
        assert hooks_to_distinct_parts(empty) == ()
        assert distinct_parts_to_hooks((), 1, 2) == empty

    def test_rejects_non_self_conjugate(self):
        cp = Copartition((3, 1), (), CpParams(1, 1, 2))
        with pytest.raises(ValueError):
            hooks_to_distinct_parts(cp)

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            distinct_parts_to_hooks((4, 4), 1, 2)      # not distinct
        with pytest.raises(ValueError):
            distinct_parts_to_hooks((6,), 1, 2)        # wrong residue class
        with pytest.raises(ValueError):
            distinct_parts_to_hooks((2,), 2, 2)        # below m + 2a

    def test_size_eight_images_match_series(self):
        fixed = [cp for cp in enumerate_copartitions(CpParams(1, 1, 2), 8)
                 if cp.is_self_conjugate()]
        images = sorted(hooks_to_distinct_parts(cp) for cp in fixed)
        assert images == [(8,)]
        assert len(images) == self_conjugate_series(1, 2, 8)[8]

    def test_round_trip_exhaustive(self):
        for a, m in [(1, 2), (1, 4)]:
            allowed_start = m + 2 * a
            for n in range(31):
                fixed = [cp for cp in enumerate_copartitions(CpParams(a, a, m), n)
                         if cp.is_self_conjugate()]
                seen = set()
                for cp in fixed:
                    parts = hooks_to_distinct_parts(cp)
                    assert sum(parts) == n
                    assert len(set(parts)) == len(parts)
                    assert all(p >= allowed_start and (p - allowed_start) % (2 * m) == 0
                               for p in parts)
                    assert distinct_parts_to_hooks(parts, a, m) == cp
                    seen.add(parts)
                # the images exhaust the distinct-part partitions of n
                assert len(seen) == count_distinct_restricted(
                    n, progression(allowed_start, 2 * m, n))


class TestCrank:
    def test_sky_empty(self):
        cp = Copartition((5, 2, 2), (), CpParams(2, 1, 3))
        assert cp.crank() == 3

    def test_ground_empty(self):
        cp = Copartition((), (1,) * 9, CpParams(2, 1, 3))
        assert cp.crank() == -9

    def test_distribution_size_four(self):
        assert crank_distribution(CpParams(1, 1, 2), 4, 5) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
        cranks = sorted(cp.crank() for cp in enumerate_copartitions(CpParams(1, 1, 2), 4))
        assert cranks == [-4, -2, 0, 2, 4]

    def test_distribution_size_zero(self):
        assert crank_distribution(CpParams(1, 1, 2), 0, 5) == {0: 1}

    def test_distribution_size_nine_uniform(self):
        dist = crank_distribution(CpParams(1, 1, 2), 9, 5)
        assert set(dist) == set(range(5))
        assert len(set(dist.values())) == 1

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            crank_distribution(CpParams(1, 1, 2), 4, 0)
