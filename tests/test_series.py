import copy
import pickle
import tracemalloc
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copartitions import (
    CpParams,
    ExactSeries,
    FactorSpec,
    ParitySeries,
    TWO_SQUARES,
    brute_force_representable,
    copartition_parity,
    copartition_series,
    count_copartitions,
    even_guarantee_314,
    expand_factors,
    expand_factors_mod2,
    is_sum_of_two_squares,
    negated_pochhammer,
    pentagonal_support,
    pochhammer,
    reciprocal,
    reduce_mod2,
    self_conjugate_parity,
    self_conjugate_series,
)
from copartitions import series as series_module
from copartitions import stats
from copartitions.series import copartition_factors

from oracles import (
    copartition_series_by_log_derivative,
    count_distinct_restricted,
    count_restricted,
    expand_factors_chain_reference,
    expand_factors_folded_reference,
    expand_factors_mod2_normal_form_reference,
    expand_factors_mod2_reference,
    expand_factors_reference,
    level_counts,
    mod2_passes,
    mul,
    progression,
    signed_product_coefficient,
    theta_taps,
    triple_product_theta,
    truncated,
)

factor_strategy = st.builds(
    FactorSpec,
    c=st.integers(1, 6),
    m=st.integers(1, 6),
    sign=st.sampled_from(["pochhammer", "reciprocal", "negated-pochhammer"]),
)



@st.composite
def theta_products(draw):
    """(a, m, factors, n) with 1 <= a < m <= 24 and n <= 3000: the factors
    are eq4's (a, m - a, m) product, 1/(1 - q) as one term, or drawn."""
    m = draw(st.integers(2, 24))
    a = draw(st.integers(1, m - 1))
    n = draw(st.integers(0, 3000) | st.sampled_from([0, 1]))
    factors = draw(st.sampled_from([copartition_factors(CpParams(a, m - a, m)),
                                    [reciprocal(1, n + 1)]])
                   | st.lists(factor_strategy, max_size=3))
    return a, m, factors, n


@st.composite
def colliding_factors(draw):
    """Factor lists whose pass exponents collide: one factor repeated up to
    8 times (so counts carry through 3 or more bit-planes), and reciprocal
    chains paired with a Pochhammer factor starting at a multiple of c."""
    repeated = [draw(factor_strategy)] * draw(st.integers(1, 8))
    c, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    j, scale = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 4]))
    paired = [reciprocal(c, m), pochhammer(c * j, m * scale)]
    extra = draw(st.lists(factor_strategy, max_size=3))
    return draw(st.permutations(repeated + paired + extra))


@st.composite
def folding_factors(draw):
    """Factor lists the fold nets per (c, m): up to three (c, m), each scaled
    by 2^s for s in 0..3 and in all three signs, every sign repeated 0 to 7
    times, so a net count of one scale runs from -14 to 7, sets up to four
    bits and puts its sums on levels s to s + 3."""
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3)),
                         min_size=1, max_size=3))
    factors = [FactorSpec(c << s, m << s, sign) for c, m, s in keys
               for sign in ("pochhammer", "reciprocal", "negated-pochhammer")
               for _ in range(draw(st.integers(0, 7)))]
    return draw(st.permutations(factors))


@st.composite
def factors_up_to_2000(draw):
    """n <= 2000 and factors of all three signs: a colliding list, or a few
    factors whose c or m is often above n."""
    n = draw(st.integers(0, 2000))
    around_n = st.integers(1, 6) | st.integers(max(1, n - 2), n + 2)
    wide = st.builds(FactorSpec, c=around_n, m=around_n,
                     sign=st.sampled_from(["pochhammer", "reciprocal", "negated-pochhammer"]))
    return draw(colliding_factors() | st.lists(wide, max_size=4)), n


class TestExpandFactors:
    def test_odd_part_partitions(self):
        # 1/(q;q^2): partitions into odd parts
        got = expand_factors([reciprocal(1, 2)], 4)
        assert got.coeffs == (1, 1, 1, 2, 2)
        oracle = tuple(count_restricted(n, progression(1, 2, n)) for n in range(5))
        assert got.coeffs == oracle

    def test_empty_product_is_one(self):
        assert expand_factors([], 3).coeffs == (1, 0, 0, 0)

    def test_pentagonal_signs(self):
        # (q;q) has pentagonal-number support with signs
        got = expand_factors([pochhammer(1, 1)], 7)
        assert got.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_negated_counts_distinct_parts(self):
        got = expand_factors([negated_pochhammer(2, 3)], 12)
        oracle = tuple(count_distinct_restricted(n, progression(2, 3, n)) for n in range(13))
        assert got.coeffs == oracle

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError):
            expand_factors([], -1)

    def test_factor_with_start_beyond_truncation_is_identity(self):
        assert expand_factors([pochhammer(9, 2)], 5) == ExactSeries((1, 0, 0, 0, 0, 0))

    @given(st.lists(factor_strategy, max_size=4), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_coefficient_recurrence(self, factors, n):
        assert list(expand_factors(factors, n).coeffs) == expand_factors_reference(factors, n)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_then_pochhammer_is_identity(self, c, m, n):
        got = expand_factors([reciprocal(c, m), pochhammer(c, m)], n)
        assert got == ExactSeries((1,) + (0,) * n)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_parity_is_sign_blind(self, c, m, n):
        plain = reduce_mod2(expand_factors([pochhammer(c, m)], n))
        negated = reduce_mod2(expand_factors([negated_pochhammer(c, m)], n))
        assert plain == negated

    @given(st.lists(factor_strategy, max_size=4), st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_packed_parity_expansion_matches_exact(self, factors, n):
        assert expand_factors_mod2(factors, n) == reduce_mod2(expand_factors(factors, n))

    @given(st.one_of(colliding_factors(), folding_factors()), st.integers(0, 2000))
    @example([reciprocal(1, 1)] * 7, 2000)                  # net 7: sums at (1, 1), (2, 2), (4, 4)
    @example([pochhammer(3, 2)] * 3 + [negated_pochhammer(3, 2)] * 3, 999)   # net -6
    @example([reciprocal(2, 3)] * 2 + [pochhammer(2, 3)] * 2, 500)          # net 0: no sum
    @settings(max_examples=100, deadline=None)
    def test_normalised_kernel_matches_per_pass_loop(self, factors, n):
        assert expand_factors_mod2(factors, n) == expand_factors_mod2_reference(factors, n)

    @given(folding_factors(), st.integers(0, 2000))
    @example([reciprocal(2, 4)] + [pochhammer(1, 2)] * 2, 700)     # (1, 2) nets to 0 on level 1
    @example([pochhammer(8, 24), reciprocal(4, 12), reciprocal(1, 3)], 999)   # -8 + 4 + 1: levels 0, 1
    @example([reciprocal(16, 48)] * 7, 2000)                        # levels 4 to 6
    @settings(max_examples=100, deadline=None)
    def test_the_sums_on_their_levels_match_the_normal_form(self, factors, n):
        assert expand_factors_mod2(factors, n) == \
            expand_factors_mod2_normal_form_reference(factors, n)

    def test_factors_of_one_term_net_across_levels(self, monkeypatch):
        # up to q^2000 each factor is one term, whatever its step above n, and mod 2
        # (1 - q^3)^2 = 1 - q^6 cancels 1/(1 - q^6): 1/(1 - q^12) alone is left,
        # the Cauchy sum of (x^3; x^2001) in x = q^4
        ran = []
        real = series_module._sum_factor
        monkeypatch.setattr(series_module, "_sum_factor",
                            lambda rev, *run: ran.append(run) or real(rev, *run))
        factors = [pochhammer(3, 2001), pochhammer(3, 4000), reciprocal(6, 2500),
                   reciprocal(12, 2001)]
        assert expand_factors_mod2(factors, 2000) == expand_factors_mod2_reference(factors, 2000)
        assert ran == [(3, 2001, True)]

    @given(colliding_factors(), st.integers(0, 2000))
    # both division branches (k^2 <= n + 1 and above), cancelling factors, negated terms
    @example([reciprocal(1, 1)] * 2 + [pochhammer(2, 1)], 300)
    @example([reciprocal(2, 3), pochhammer(2, 3), negated_pochhammer(1, 2)], 1999)
    @example([negated_pochhammer(3, 2), reciprocal(4, 5), pochhammer(9, 10)], 1500)
    @settings(max_examples=25, deadline=None)
    def test_the_sums_match_the_chain_kernel(self, factors, n):
        assert expand_factors(factors, n) == expand_factors_chain_reference(factors, n)

    @given(factors_up_to_2000())
    # a sum's first shift c exactly n or n + 1, on the bare 1 and after another sum
    @example(([pochhammer(7, 3)], 7))
    @example(([pochhammer(8, 3)], 7))
    @example(([reciprocal(7, 2)], 7))
    @example(([reciprocal(8, 2)], 7))
    @example(([negated_pochhammer(5, 1)], 5))
    @example(([negated_pochhammer(6, 1)], 5))
    @example(([pochhammer(1, 1), reciprocal(10, 4)], 10))
    @example(([reciprocal(1, 1), reciprocal(11, 4), negated_pochhammer(11, 1)], 10))
    @example(([pochhammer(2000, 1), reciprocal(2001, 1)], 2000))
    # term 2's shift lands on n: Euler 2c + m, Cauchy 2c + 2m
    @example(([pochhammer(3, 4)], 10))
    @example(([reciprocal(3, 2)], 10))
    @example(([reciprocal(3, 2), negated_pochhammer(3, 4)], 11))
    @settings(max_examples=20, deadline=None)
    def test_the_sums_match_the_folded_kernel_and_the_recurrence(self, factors_n):
        factors, n = factors_n
        got = expand_factors(factors, n)
        assert got == expand_factors_folded_reference(factors, n)
        assert list(got.coeffs) == expand_factors_reference(factors, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 151])
    def test_the_sums_match_the_folded_kernel_on_every_family_up_to_6_6_8(self, n):
        for a in range(1, 7):
            for b in range(1, 7):
                for m in range(1, 9):
                    factors = copartition_factors(CpParams(a, b, m))
                    assert expand_factors(factors, n) == \
                        expand_factors_folded_reference(factors, n), (a, b, m)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 80))
    @settings(max_examples=30, deadline=None)
    def test_pochhammer_signed_enumeration(self, c, m, n):
        assert expand_factors([pochhammer(c, m)], n)[n] == signed_product_coefficient(n, c, m)

    def test_factor_spec_validation(self):
        with pytest.raises(ValueError):
            FactorSpec(0, 2, "pochhammer")
        with pytest.raises(ValueError):
            FactorSpec(1, 0, "reciprocal")
        with pytest.raises(ValueError):
            FactorSpec(1, 1, "inverse")


class TestCountingSeries:
    def test_worked_coefficient(self):
        assert copartition_series(CpParams(2, 1, 3), 9)[9] == 7

    def test_constant_term_and_nonnegativity(self):
        for a, b, m in [(1, 1, 1), (2, 1, 3), (3, 1, 4), (5, 1, 6), (2, 2, 4)]:
            s = copartition_series(CpParams(a, b, m), 30)
            assert s[0] == 1
            assert all(c >= 0 for c in s.coeffs)

    def test_remark_even_value(self):
        assert copartition_series(CpParams(5, 1, 6), 5)[5] == 2

    def test_parity_path_agrees(self):
        for a, b, m in [(2, 1, 3), (3, 1, 4), (1, 1, 2)]:
            params = CpParams(a, b, m)
            assert copartition_parity(params, 300) == reduce_mod2(copartition_series(params, 300))


@pytest.fixture
def exact_passes(monkeypatch):
    """(name, exponent) of every pass the exact kernel runs, in order."""
    seen = []

    def counted(name, kernel):
        def run(coeffs, k, *sign):
            seen.append((name, k))
            kernel(coeffs, k, *sign)
        return run

    for name in ("_scaled_add", "_divide"):
        monkeypatch.setattr(series_module, name, counted(name, getattr(series_module, name)))
    return seen


def sum_divides(f, n):
    """The ``_divide`` calls of f's sum through q^n, in closed form: Euler's
    sum runs one per k >= 1 with ck + mk(k-1)/2 <= n, Cauchy's two per k with
    ck + m(k^2 - k) <= n; each top k is the floor of a root of the quadratic."""
    c, m = f.c, f.m
    if f.sign == "reciprocal":
        return 2 * ((isqrt((c - m) ** 2 + 4 * m * n) - (c - m)) // (2 * m))
    return (isqrt((2 * c - m) ** 2 + 8 * m * n) - (2 * c - m)) // (2 * m)


class TestExactPassCount:
    """The kernel runs one sum per factor, and its only pass is ``_divide``."""

    @pytest.mark.parametrize("abm, n, divides", [
        ((1, 1, 3), 780, 86), ((1, 1, 4), 780, 75), ((3, 3, 4), 2000, 118),
        ((1, 1, 1), 45, 32), ((1, 1, 1), 2000, 237)])
    def test_the_divides_of_the_copartition_product(self, exact_passes, abm, n, divides):
        factors = copartition_factors(CpParams(*abm))
        expand_factors(factors, n)
        assert {name for name, _ in exact_passes} == {"_divide"}
        assert len(exact_passes) == divides == sum(sum_divides(f, n) for f in factors)

    @given(st.lists(factor_strategy, max_size=4), st.integers(0, 400))
    @example([pochhammer(5, 3)], 4)                 # c above n: no divide
    @example([reciprocal(5, 3)], 5)                 # Cauchy's term 1 lands on n
    @settings(max_examples=40, deadline=None)
    def test_the_divides_are_the_closed_form(self, factors, n):
        seen = []
        real = series_module._divide

        def counted(coeffs, k):
            seen.append(k)
            real(coeffs, k)

        series_module._divide = counted
        try:
            expand_factors(factors, n)
        finally:
            series_module._divide = real
        assert len(seen) == sum(sum_divides(f, n) for f in factors)

    def test_the_divisors_of_each_sum(self, exact_passes):
        # Euler for (q^5;q^6): 1 - q^(6k) for k = 1..5, as 5k + 3k(k-1) <= 100 up to k = 5;
        # Cauchy for 1/(q^2;q^3): 1 - q^(3k), then 1 - q^(2 + 3(k-1)), while 2k + 3(k^2-k) <= 40
        expand_factors([negated_pochhammer(5, 6)], 100)
        assert exact_passes == [("_divide", 6 * k) for k in range(1, 6)]
        exact_passes.clear()
        expand_factors([reciprocal(2, 3)], 40)
        assert exact_passes == [("_divide", d) for k in range(1, 4) for d in (3 * k, 3 * k - 1)]

    def test_the_pochhammer_sums_run_first(self, exact_passes):
        # the reciprocal's divisors 1, 1, 2, 2, ... follow the Pochhammer's 4, 8, ...
        expand_factors([reciprocal(1, 1), pochhammer(1, 4)], 12)
        assert [k for _, k in exact_passes] == [4, 8, 1, 1, 2, 2, 3, 3]

    def test_cancelled_factors_give_one(self):
        n = 500
        one = ExactSeries((1,) + (0,) * n)
        assert expand_factors([reciprocal(2, 3), pochhammer(2, 3)] * 3, n) == one
        assert expand_factors(copartition_factors(CpParams(2, 2, 2)), n) == \
            expand_factors([reciprocal(2, 2), reciprocal(2, 2), pochhammer(4, 2)], n)


def pass_set(factors, n):
    return ParitySeries(n, mod2_passes(factors, n)).odd_exponents()


@st.composite
def complementary(draw, m_max):
    """(a, m - a, m) with 1 <= a < m <= m_max, the families the theta quotient
    computes; a = m/2 and a common factor of a and m are drawn often."""
    d = draw(st.sampled_from([1, 1, 2, 3]))
    m = d * draw(st.integers(2, m_max // d))
    a = draw(st.sampled_from([m // 2, d * draw(st.integers(1, m // d - 1))]))
    return a, m - a, m


@given(st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 9)),
                 complementary(20)),
       st.integers(0, 400))
@example((3, 3, 6), 400)        # a = m/2: theta repeats each exponent a*k^2 for +k and -k
@example((4, 6, 10), 400)       # gcd(a, m) > 1
@settings(max_examples=40, deadline=None)
def test_three_paths_match_the_log_derivative_recurrence(abm, n):
    a, b, m = abm
    params = CpParams(a, b, m)
    series = copartition_series(params, n)
    assert list(series.coeffs) == copartition_series_by_log_derivative(a, b, m, n)
    assert series == expand_factors(copartition_factors(params), n)
    assert copartition_parity(params, n) == reduce_mod2(series)
    for k in range(min(n, 25) + 1):
        assert count_copartitions(params, k) == series[k], k


@given(complementary(40), st.integers(0, 3000))
@example((5, 5, 10), 3000)
@example((6, 9, 15), 2999)
@settings(max_examples=60, deadline=None)
def test_theta_quotient_parity_matches_the_pass_kernels(abm, n):
    factors = copartition_factors(CpParams(*abm))
    parity = copartition_parity(CpParams(*abm), n)
    assert parity == expand_factors_mod2_normal_form_reference(factors, n)
    assert parity == expand_factors_mod2_reference(factors, n)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 37, 400])
def test_theta_quotient_matches_the_pass_kernels_on_every_small_family(n):
    for m in range(2, 13):
        for a in range(1, m):
            params = CpParams(a, m - a, m)
            factors = copartition_factors(params)
            assert copartition_series(params, n) == expand_factors(factors, n), (a, m)
            assert copartition_parity(params, n) == \
                expand_factors_mod2_normal_form_reference(factors, n), (a, m)


def test_only_the_complementary_families_skip_the_pass_kernels(monkeypatch):
    def refuse(factors, n):
        raise AssertionError("pass kernel called")

    monkeypatch.setattr(series_module, "expand_factors", refuse)
    monkeypatch.setattr(series_module, "expand_factors_mod2", refuse)
    assert copartition_series(CpParams(1, 13, 14), 50)[0] == 1
    assert copartition_parity(CpParams(3, 3, 6), 50).bit(0) == 1
    with pytest.raises(AssertionError, match="pass kernel"):
        copartition_series(CpParams(2, 1, 4), 50)
    with pytest.raises(AssertionError, match="pass kernel"):
        copartition_parity(CpParams(2, 1, 4), 50)


def test_the_collapsed_families_skip_the_pass_kernel(monkeypatch):
    def refuse(factors, n):
        raise AssertionError("pass kernel called")

    monkeypatch.setattr(series_module, "expand_factors", refuse)
    monkeypatch.setattr(series_module, "expand_factors_mod2", refuse)
    assert copartition_parity(CpParams(1, 1, 1), 50).bit(0) == 1
    assert copartition_series(CpParams(1, 1, 1), 50)[50] == 1295971
    assert copartition_parity(CpParams(2, 4, 2), 50).bit(0) == 1
    with pytest.raises(AssertionError, match="pass kernel"):
        copartition_parity(CpParams(2, 1, 4), 50)
    with pytest.raises(AssertionError, match="pass kernel"):
        copartition_series(CpParams(2, 1, 4), 50)


class TestMod2NormalForm:
    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_lacunary_family_passes_are_multiples_of_4a(self, a):
        n = 3000
        factors = copartition_factors(CpParams(a, a, 2 * a))
        assert pass_set(factors, n) == list(range(4 * a, n + 1, 4 * a))

    def test_self_conjugate_product_has_the_same_passes(self):
        n = 1500
        for a in range(1, 4):
            for m in range(1, 7):
                own = pass_set(copartition_factors(CpParams(a, a, m)), n)
                assert own == pass_set([negated_pochhammer(m + 2 * a, 2 * m)], n), (a, m)

    @pytest.mark.parametrize("abm, count", [((1, 1, 2), 8000), ((1, 1, 1), 15999),
                                            ((1, 13, 14), 11427)])
    def test_pass_counts_at_32000(self, abm, count):
        assert mod2_passes(copartition_factors(CpParams(*abm)), 32000).bit_count() == count

    def test_cancelled_product_has_no_passes(self):
        assert mod2_passes([reciprocal(2, 3), pochhammer(2, 3)] * 3, 500) == 0
        assert mod2_passes([negated_pochhammer(1, 1)] * 2, 500) == mod2_passes(
            [pochhammer(2, 2)], 500)
        assert mod2_passes([], 10) == 0

    def test_zero_truncation_is_one(self):
        for factors in ([], [pochhammer(1, 1)], [reciprocal(1, 2), negated_pochhammer(3, 1)]):
            assert expand_factors_mod2(factors, 0) == ParitySeries(0, 1)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 1000])
    def test_pass_at_the_truncation(self, n):
        # (q^n;q^n) runs one pass, at k = n: its shift moves the constant term to q^n
        factors = [pochhammer(n, n)]
        assert mod2_passes(factors, n) == 1 << n
        assert expand_factors_mod2(factors, n) == ParitySeries(n, 1 | 1 << n)
        factors = [reciprocal(1, 1), pochhammer(2, 2)]     # a pass at every 1 <= k <= n
        assert mod2_passes(factors, n) == (1 << (n + 1)) - 2
        assert expand_factors_mod2(factors, n) == expand_factors_mod2_reference(factors, n)

    def test_peak_allocation_at_depth(self):
        tracemalloc.start()
        try:
            copartition_parity(CpParams(1, 2, 3), 100000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024


@st.composite
def level_factors(draw):
    """Factor lists whose passes often sit only on high 2-adic levels: every
    start and step carries a common factor 2^s, s <= 4."""
    scale = 1 << draw(st.integers(0, 4))
    factors = draw(st.lists(factor_strategy, min_size=1, max_size=4))
    return [FactorSpec(f.c * scale, f.m * scale, f.sign) for f in factors]


# n at, just below and just above a power of two: the level widths n >> v
# then end on, or one bit past, a whole number of halvings
boundary_n = st.integers(0, 12).flatmap(lambda j: st.sampled_from([2 ** j - 1, 2 ** j, 2 ** j + 1]))


class TestLevelLoop:
    @given(st.one_of(level_factors(), colliding_factors()), boundary_n)
    @example([reciprocal(8, 16)], 4095)
    @example([reciprocal(8, 16)], 7)         # no pass at or below n
    @example([pochhammer(12, 24)], 4097)
    @example([pochhammer(12, 24), reciprocal(8, 16)], 1025)
    @example([reciprocal(1, 1)], 4096)      # a pass on every level
    @example([reciprocal(8, 16)], 32769)    # levels 0-3 split off, every higher pass at level 4
    @example([pochhammer(12, 24), reciprocal(1, 2)], 16384)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_pass_loop(self, factors, n):
        assert expand_factors_mod2(factors, n) == expand_factors_mod2_reference(factors, n)


sparse_terms = st.lists(st.integers(1, 3000), max_size=40, unique=True).map(sorted)


class TestRecorder:
    def test_counts_nothing_outside_a_block(self):
        assert stats.counts is None
        with pytest.raises(ZeroDivisionError):
            with stats.recording() as counts:
                assert stats.counts is counts
                expand_factors(copartition_factors(CpParams(1, 1, 1)), 45)
                1 // 0
        assert stats.counts is None
        assert counts["exact_passes"] == 32

    def test_a_nested_block_restores_the_outer_counter(self):
        with stats.recording() as outer:
            series_module._divide([1, 2, 3], 1)
            with stats.recording() as inner:
                assert stats.counts is inner is not outer
                series_module._scaled_add([1, 2, 3], 1)
            assert stats.counts is outer
        assert outer == {"exact_passes": 1, "coeff_bits": 3} and inner == {"exact_passes": 1}

    @given(st.integers(1, 1 << 3000), st.integers(1, 4000))
    @example(1, 1)                          # one bit: no pass
    @example(0b1000, 1)                     # width 4: passes at d = 1 and 2
    @example(0b1000, 4)
    def test_the_chain_counts_its_doubling_passes(self, g, d):
        width, passes, k = g.bit_length(), 0, d
        while k < width:
            passes, k = passes + 1, 2 * k
        with stats.recording() as counts:
            series_module._chain_divide(g, d)
        assert (counts["sums_passes"], counts["mod2_bits"]) == (passes, passes * width)

    @given(sparse_terms, sparse_terms, st.integers(0, 12), boundary_n)
    @example([1, 2, 5], [1, 3], 2, 100)     # D reaches level 6; N on level 2, 25 bits wide
    @example([], [1], 0, 0)
    @example([4000], [], 3, 3999)            # no term at or below any level's width
    @settings(max_examples=60, deadline=None)
    def test_the_level_walk_counts_its_sparse_terms(self, steps, numerator, at, n):
        with stats.recording() as counts:
            series_module._level_product(n, steps, numerator, at, ())
        passes, bits = level_counts(n, steps, numerator, at)
        assert (counts["mod2_passes"], counts["mod2_bits"]) == (passes, bits)

    @given(st.integers(2, 13).flatmap(lambda step: st.tuples(st.integers(1, step - 1),
                                                             st.just(step))),
           st.booleans(), st.sampled_from([0, 1, 2, 7, 50, 333]))
    @settings(max_examples=60, deadline=None)
    def test_the_theta_quotient_counts_its_taps(self, c_step, square, n):
        with stats.recording() as counts:
            series_module._theta_quotient(*c_step, square, n)
        assert counts["theta_taps"] == theta_taps(*c_step, n)


def m_divides_a_and_b():
    return [(a, b, m) for m in range(1, 7) for a in range(m, 13, m) for b in range(m, 13, m)]


class TestCollapsedFamilies:
    """With m | a and m | b, B the smaller quotient, the product is
    (q^m;q^m)_(B-1) over E(q^m) and the finite run of (1 - q^(a+tm)), t < B."""

    def test_matches_the_pass_kernel_and_the_exact_series(self):
        exact = {}
        for a, b, m in m_divides_a_and_b():
            params = CpParams(a, b, m)
            key = (min(a, b), max(a, b), m)         # the product is symmetric in a and b
            if key not in exact:
                exact[key] = reduce_mod2(copartition_series(params, 1000))
            for n in (0, 1, 2, 7, 64, 1000):
                parity = copartition_parity(params, n)
                assert parity == expand_factors_mod2_normal_form_reference(
                    copartition_factors(params), n), (a, b, m, n)
                assert parity == truncated(exact[key], n), (a, b, m, n)

    def test_finite_part_of_one_one_one_runs_15_chain_passes(self, monkeypatch):
        seen = []
        real = series_module._chain_divide

        def counted(g, d):
            seen.extend(d << i for i in range(64) if d << i < g.bit_length())
            return real(g, d)

        monkeypatch.setattr(series_module, "_chain_divide", counted)
        copartition_parity(CpParams(1, 1, 1), 32000)
        assert seen == [1 << i for i in range(15)]  # 1/(1 - q): a pass at each 2^i <= 32000


def route(params, mod2):
    """The route ``series._plan`` takes for the family (module docstring, step 4)."""
    head, _, _ = series_module._plan(params, 0, mod2)
    if isinstance(head, tuple):
        return 2 if head[2] else 1
    return 3 if len(head) == 1 else 4


# 0, 1, 2 and 2^j +- 1 up to 4097; the exact kernel is checked up to 129
PLAN_N = sorted({0, 1, 2} | {2 ** j + d for j in range(1, 13) for d in (-1, 1)})
EXACT_TOP = 129


class TestPlan:
    """One plan routes both kernels by the residue coincidences of (a, b, m)."""

    @pytest.mark.parametrize("abm, exact, mod2", [
        ((1, 8, 8), 1, 1), ((8, 1, 8), 1, 1),      # B = 1, m | b alone or m | a alone
        ((4, 12, 4), 1, 1), ((12, 4, 4), 1, 1),    # m divides both, A < B and A > B
        ((1, 1, 1), 1, 1), ((2, 6, 4), 2, 2),      # A = B; a = b mod m, but a + b = 2m first
        ((1, 11, 4), 2, 2), ((11, 1, 4), 2, 2),    # a // m = 0, b // m = 0
        ((1, 3, 4), 2, 2), ((3, 3, 2), 2, 2),      # C = 1; C = 3
        ((3, 3, 4), 4, 3), ((1, 1, 6), 4, 3),      # a = b mod m, k = 0
        ((1, 5, 4), 4, 3), ((9, 1, 4), 4, 3),      # k = 1, k = 2 with a > b
        ((1, 11, 14), 4, 4), ((2, 1, 4), 4, 4)])
    def test_the_route_of_each_example(self, abm, exact, mod2):
        params = CpParams(*abm)
        assert (route(params, False), route(params, True)) == (exact, mod2)

    def test_the_finite_factors_of_each_route(self):
        def finite(abm, n, mod2=False):
            return [list(x) for x in series_module._plan(CpParams(*abm), n, mod2)[1:]]

        # (1, 8, 8) is 1 / (E(q^8) (1 - q)); (12, 4, 4) and (4, 12, 4) are 1 / (E(q^4) (1 - q^12))
        assert finite((1, 8, 8), 50) == [[], [1]]
        assert finite((12, 4, 4), 50) == finite((4, 12, 4), 50) == [[], [12]]
        # (11, 1, 4): theta(3, 4), times (1 - q^3)(1 - q^7) over (1 - q^4)(1 - q^8)
        assert finite((11, 1, 4), 50) == [[3, 7], [4, 8]]
        assert finite((11, 1, 4), 7) == [[3, 7], [4]]       # nothing above n
        # (9, 1, 4) mod 2: (q^22;q^8) times (1 - q^10)(1 - q^14) over (1 - q)(1 - q^5)
        head, up, down = series_module._plan(CpParams(9, 1, 4), 50, True)
        assert (head, list(up), list(down)) == ([pochhammer(22, 8)], [10, 14], [1, 5])

    @pytest.mark.parametrize("abm", [(10 ** 9, 1, 2), (10 ** 9, 10 ** 9, 2),      # route 1
                                     (10 ** 9 + 1, 10 ** 9 + 3, 4), (1, 10 ** 9 + 1, 2),
                                     (1, 10 ** 9 + 1, 5)])                        # route 3
    def test_large_parameters_cost_nothing_past_n(self, abm):
        # every route's finite part stops at n, however large a, b or C are
        params, n = CpParams(*abm), 40
        factors = copartition_factors(params)
        assert copartition_series(params, n) == expand_factors(factors, n)
        assert copartition_parity(params, n) == expand_factors_mod2_normal_form_reference(factors, n)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_the_pass_kernels_on_every_family_up_to_12(self, m):
        for a in range(1, 13):
            for b in range(1, 13):
                params = CpParams(a, b, m)
                factors = copartition_factors(params)
                firsts = set()              # each route's first finite exponent, and one below
                for mod2 in (False, True):
                    for finite in series_module._plan(params, PLAN_N[-1], mod2)[1:]:
                        if finite:
                            firsts |= {min(finite) - 1, min(finite)}
                parity = expand_factors_mod2_normal_form_reference(factors, PLAN_N[-1])
                exact = expand_factors(factors, EXACT_TOP)
                for n in sorted(set(PLAN_N) | firsts):
                    assert copartition_parity(params, n) == truncated(parity, n), (a, b, m, n)
                    if n <= EXACT_TOP:
                        assert copartition_series(params, n) == truncated(exact, n), (a, b, m, n)

    @pytest.mark.parametrize("abm", [(1, 1, 1), (11, 11, 2), (2, 6, 4), (1, 8, 8), (3, 3, 2),
                                     (9, 9, 2), (1, 1, 6), (3, 3, 4), (1, 11, 14), (5, 9, 14),
                                     (2, 2, 12)])
    def test_matches_the_normal_form_at_32000(self, abm):
        # every route, with the finite factors of routes 1 and 2 folded or not
        params, n = CpParams(*abm), 32000
        assert copartition_parity(params, n) == \
            expand_factors_mod2_normal_form_reference(copartition_factors(params), n)

    @pytest.mark.parametrize("abm, n, route_taken", [
        ((1, 11, 14), 22475, 4), ((1, 11, 14), 32000, 4),
        ((3, 3, 4), 15000, 3), ((3, 3, 4), 100000, 3), ((1, 1, 6), 15000, 3),
        ((1, 13, 14), 32000, 2), ((5, 9, 14), 32000, 2), ((1, 11, 12), 32000, 2),
        ((1, 2, 3), 100000, 2), ((1, 1, 2), 32000, 2), ((1, 1, 1), 32000, 1),
        ((11, 11, 2), 2000, 2), ((11, 11, 2), 32000, 2),          # C = 11 and C = 9
        ((9, 9, 2), 2000, 2), ((9, 9, 2), 32000, 2)])
    def test_the_route_of_the_density_scan_families(self, monkeypatch, abm, n, route_taken):
        # one level walk per product; only routes 1 and 2 pass it sparse theta
        # terms, as steps or as the numerator E(q^(2m)) (none in steps when 2a0 = m)
        sparse = []
        real = series_module._level_product

        def spy(n, steps, numerator, at, factors):
            sparse.append(bool(steps or numerator))
            return real(n, steps, numerator, at, factors)

        monkeypatch.setattr(series_module, "_level_product", spy)
        copartition_parity(CpParams(*abm), n)
        assert route(CpParams(*abm), True) == route_taken
        assert sparse == [route_taken <= 2]


def generic(a, b, m):
    """Neither a + b = m nor m | a, m | b: families of every route."""
    return a + b != m and not a % m == 0 == b % m


GENERIC = [(a, b, m) for a in range(1, 13) for b in range(1, 13) for m in range(1, 17)
           if generic(a, b, m)]


@st.composite
def generic_family_at_boundary_n(draw):
    """A generic family and an n at 0, 1 or 2^j +- 1, on a sum's term k (its
    lowest exponent), or just below a factor's first exponent c."""
    a, b, m = draw(st.sampled_from(GENERIC))
    k = draw(st.integers(1, 8))
    terms = [c * k + m * k * (k - 1) for c in (a, b)] + [(a + b) * k + m * k * (k - 1) // 2]
    n = draw(boundary_n | st.sampled_from(terms) | st.sampled_from([a - 1, b - 1, a + b - 1]))
    return (a, b, m), n


class TestSums:
    """Euler's and Cauchy's sums, which routes 3 and 4 take mod 2."""

    @given(generic_family_at_boundary_n())
    @example(((1, 11, 14), 0))
    @example(((1, 11, 14), 2 * 1 + 14 * 2))      # Cauchy's term 2 for c = 1 lands on n
    @example(((12, 12, 16), 11))                 # every c above n
    @example(((3, 3, 4), 4097))
    @settings(max_examples=80, deadline=None)
    def test_the_generic_branch_matches_the_pass_kernel_and_the_exact_series(self, abm_n):
        abm, n = abm_n
        params = CpParams(*abm)
        factors = copartition_factors(params)
        reference = expand_factors_mod2_normal_form_reference(factors, n)
        assert copartition_parity(params, n) == reference
        assert expand_factors_mod2(factors, n) == reference
        assert reference == reduce_mod2(copartition_series(params, n))

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 64, 257])
    def test_every_generic_family_up_to_12_12_16(self, n):
        for a, b, m in GENERIC:
            factors = copartition_factors(CpParams(a, b, m))
            reference = expand_factors_mod2_normal_form_reference(factors, n)
            assert expand_factors_mod2(factors, n) == reference, (a, b, m)
            assert copartition_parity(CpParams(a, b, m), n) == reference, (a, b, m)

    @pytest.mark.parametrize("sign", ["pochhammer", "negated-pochhammer", "reciprocal"])
    def test_both_kernels_divide_by_the_same_schedule(self, monkeypatch, sign):
        # the exact and the GF(2) sum run the same terms: on the bare 1 through
        # q^n, the same divisors in the same order
        exact, mod2 = [], []
        real_divide, real_chain = series_module._divide, series_module._chain_divide

        def divide(coeffs, k):
            exact.append(k)
            real_divide(coeffs, k)

        def chain_divide(g, d):
            mod2.append(d)
            return real_chain(g, d)

        monkeypatch.setattr(series_module, "_divide", divide)
        monkeypatch.setattr(series_module, "_chain_divide", chain_divide)
        cauchy = sign == "reciprocal"
        divisions = 0
        for c in range(1, 12):
            for m in range(1, 12):
                for n in range(60):
                    exact.clear()
                    mod2.clear()
                    series_module._exact_sum_factor([1] + [0] * n, FactorSpec(c, m, sign))
                    series_module._sum_factor(1 << n, c, m, cauchy)
                    assert exact == mod2, (c, m, n)
                    divisions += len(exact)
        assert divisions


@pytest.mark.parametrize("factors, s, n", [
    ([pochhammer(10, 8)], 1, 100000),                  # route 3 of (3, 3, 4)
    ([pochhammer(8, 12)], 2, 15000),                   # route 3 of (1, 1, 6)
    ([pochhammer(16, 24)], 3, 32000),                  # route 3 of (2, 2, 12)
    (copartition_factors(CpParams(1, 1, 2)), 1, 5800),  # the lacunary a = 1 check
])
def test_the_sums_run_on_their_level_width(monkeypatch, factors, s, n):
    # every (c, m) of the product, folded, is a multiple of 2^s: each chain
    # divides a term of the product in x = q^(2^s), through x^(n >> s)
    widths = []
    real = series_module._chain_divide

    def spy(g, d):
        widths.append(g.bit_length())
        return real(g, d)

    monkeypatch.setattr(series_module, "_chain_divide", spy)
    got = expand_factors_mod2(factors, n)
    monkeypatch.setattr(series_module, "_chain_divide", real)
    assert got == expand_factors_mod2_normal_form_reference(factors, n)
    assert widths and max(widths) <= (n >> s) + 1


class TestSelfConjugateSeries:
    def test_distinct_multiples_of_four(self):
        s = self_conjugate_series(1, 2, 12)
        assert s[12] == 2      # {12} and {8,4}
        assert s[4] == 1
        assert s[0] == 1

    def test_against_distinct_part_oracle(self):
        a, m = 2, 3
        s = self_conjugate_series(a, m, 30)
        for n in range(31):
            assert s[n] == count_distinct_restricted(n, progression(m + 2 * a, 2 * m, n))

    def test_parity_variant(self):
        assert self_conjugate_parity(1, 2, 100) == reduce_mod2(self_conjugate_series(1, 2, 100))


class TestThetaSeries:
    def test_small_support_and_signs(self):
        s = triple_product_theta(3, 4, 10)
        nonzero = {n: c for n, c in enumerate(s.coeffs) if c}
        assert nonzero == {0: 1, 1: -1, 3: -1, 6: 1, 10: 1}

    def test_constant_term(self):
        assert triple_product_theta(2, 5, 40)[0] == 1

    def test_product_form_cross_multiplication(self):
        # theta(1,2) = (q;q^2)^2 (q^2;q^2); multiplying back by the
        # reciprocals recovers 1
        n = 7
        theta = triple_product_theta(1, 2, n)
        inverse = expand_factors([reciprocal(1, 2), reciprocal(1, 2), reciprocal(2, 2)], n)
        assert mul(theta, inverse, n) == ExactSeries((1,) + (0,) * n)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_matches_triple_product(self, a, gap, n):
        m = a + gap
        theta = triple_product_theta(a, m, n)
        product = expand_factors(
            [pochhammer(a, m), pochhammer(m - a, m), pochhammer(m, m)], n)
        assert theta == product

    @pytest.mark.parametrize("n", [0, 1, 5, 100, 5000])
    def test_the_odd_steps_are_the_distinct_nonzero_exponents(self, n):
        # the exponents as a set, one k at a time: 2a = m pairs every k with -k
        for m in range(2, 33):
            for a in range(1, m):
                top = isqrt(2 * n // m) + 2
                exponents = {e for k in range(1 - top, top) if (e := a * k + m * k * (k - 1) // 2) <= n}
                expected = [] if 2 * a == m else sorted(exponents - {0})
                assert series_module._odd_steps(a, m, n) == expected, (a, m)

    def test_rejects_a_above_m(self):
        with pytest.raises(ValueError):
            triple_product_theta(5, 2, 10)

    @pytest.mark.parametrize("n", [59, 997, 2000])
    def test_matches_the_defining_sum(self, n):
        # the signed terms the exact theta quotient divides by
        for m in range(1, 25):
            for a in range(1, m + 1):
                coeffs = [0] * (n + 1)
                for e, sign in series_module._signed_terms(a, m, n):
                    coeffs[e] += sign
                assert ExactSeries(tuple(coeffs)) == triple_product_theta(a, m, n), (a, m)

    @given(theta_products())
    @example((3, 6, copartition_factors(CpParams(3, 3, 6)), 500))     # 2a = m: theta is 1 mod 2
    @example((1, 5, copartition_factors(CpParams(1, 4, 5)), 0))
    @example((2, 7, copartition_factors(CpParams(2, 5, 7)), 1))
    @example((3, 8, [reciprocal(1, 3001)], 3000))                      # 1/(1 - q)
    @example((1, 24, [], 3000))
    @settings(max_examples=60, deadline=None)
    def test_theta_times_the_factors_is_the_product(self, a_m_factors_n):
        a, m, factors, n = a_m_factors_n
        theta = reduce_mod2(triple_product_theta(a, m, n))
        assert series_module._theta_times_mod2(a, m, factors, n) == \
            mul(expand_factors_mod2(factors, n), theta, n)


class TestPentagonalSupport:
    def test_scale_two(self):
        assert pentagonal_support(2, 30) == {0, 4, 8, 20, 28}

    def test_zero_window(self):
        assert pentagonal_support(7, 0) == {0}

    def test_scale_four(self):
        assert pentagonal_support(4, 60) == {0, 8, 16, 40, 56}

    @pytest.mark.parametrize("n", [59, 997, 2000])
    def test_matches_the_definition(self, n):
        for scale in range(1, 30):
            expected = {e for k in range(-n - 1, n + 2)
                        if 0 <= (e := scale * k * (3 * k - 1)) <= n}
            assert pentagonal_support(scale, n) == expected, scale

    def test_matches_scaled_pochhammer_parity(self):
        # odd coefficients of (q^(4a);q^(4a)) sit exactly on {2a*n*(3n-1)}
        for a in (1, 2, 3):
            n = 400
            par = reduce_mod2(expand_factors([pochhammer(4 * a, 4 * a)], n))
            assert set(par.odd_exponents()) == pentagonal_support(2 * a, n)


class TestMulAndReduce:
    def test_difference_of_squares(self):
        x = ExactSeries((1, 1, 0))
        y = ExactSeries((1, -1, 0))
        assert mul(x, y, 2).coeffs == (1, 0, -1)

    def test_inverse_pair_parity(self):
        n = 50
        left = expand_factors_mod2([pochhammer(1, 1)], n)
        right = expand_factors_mod2([reciprocal(1, 1)], n)
        assert mul(left, right, n) == ParitySeries(n, 1)

    def test_truncation_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            mul(ExactSeries((1, 0, 0, 0, 0, 0)), ExactSeries((1, 0, 0, 0, 0, 0, 0)), 5)
        with pytest.raises(ValueError):
            mul(ExactSeries((1, 0, 0, 0, 0, 0)), ExactSeries((1, 0, 0, 0, 0, 0)), 6)

    def test_kind_mismatch_is_an_error(self):
        with pytest.raises(TypeError):
            mul(ExactSeries((1, 0, 0, 0, 0, 0)), ParitySeries(5, 1), 5)

    def test_reduce_examples(self):
        assert reduce_mod2(ExactSeries((1, 2, 3))).bits == 0b101
        assert reduce_mod2(copartition_series(CpParams(2, 1, 3), 9)).bit(9) == 1
        assert reduce_mod2(self_conjugate_series(1, 2, 12)).bit(12) == 0

    @given(st.lists(st.integers(-(1 << 90), 1 << 90) | st.integers(-3, 3), min_size=1,
                    max_size=60))
    @example([-1, -2, -3, 4, -(1 << 89) - 1])
    @settings(max_examples=60, deadline=None)
    def test_reduce_is_the_parity_of_each_coefficient(self, coeffs):
        got = reduce_mod2(ExactSeries(tuple(coeffs)))
        assert got.bits == sum((c & 1) << i for i, c in enumerate(coeffs))

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=40),
        st.lists(st.integers(-9, 9), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_commutes_with_mul(self, xs, ys):
        n = max(len(xs), len(ys)) - 1
        xs = xs + [0] * (n + 1 - len(xs))
        ys = ys + [0] * (n + 1 - len(ys))
        x = ExactSeries(tuple(xs))
        y = ExactSeries(tuple(ys))
        assert reduce_mod2(mul(x, y, n)) == mul(reduce_mod2(x), reduce_mod2(y), n)


def _convolution_mod2(x, y, n):
    # per-bit truncated product: coefficient k is sum_i x_i y_(k-i) mod 2
    return sum(
        (sum((x >> i) & (y >> (k - i)) & 1 for i in range(k + 1)) & 1) << k
        for k in range(n + 1))


@st.composite
def ragged_parity_pairs(draw):
    """Two parity series with a common truncation and a product truncation
    n at or below it; bits above n are often set."""
    trunc = draw(st.integers(0, 120))
    n = draw(st.integers(0, trunc))
    top = (1 << (trunc + 1)) - 1
    x, y = (draw(st.integers(0, top) | st.sampled_from([top, 1 << trunc, 1 << n]))
            for _ in range(2))
    return ParitySeries(trunc, x), ParitySeries(trunc, y), n


class TestReversedBits:
    def test_byte_table_reverses_every_byte(self):
        assert series_module._REVERSED == bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))

    @given(st.integers(0, 3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n + 1)) - 1))))
    @example((0, 0))
    @example((0, 1))
    @example((7, 0b10000001))           # n + 1 = 8: no padding
    @example((8, 0b100000001))          # n + 1 = 9: one bit past a byte
    @example((15, 1 << 15))
    @example((16, (1 << 17) - 1))
    @example((3000, 1 << 3000 | 1))
    @settings(max_examples=80)
    def test_reverse_is_an_involution_moving_bit_e_to_n_minus_e(self, n_x):
        n, x = n_x
        rev = series_module._reverse(x, n)
        assert series_module._reverse(rev, n) == x
        assert rev >> (n + 1) == 0
        assert all((rev >> (n - e)) & 1 == (x >> e) & 1 for e in range(n + 1))

    @given(st.integers(0, 3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n + 1)) - 1))))
    @example((0, 0))
    @example((3000, 0))
    @example((9, 0b111111))             # bit 5 would land on 10 > n
    @settings(max_examples=80)
    def test_spread_moves_bit_k_to_2k_through_n(self, n_x):
        n, x = n_x
        spread = sum(1 << 2 * k for k in range(n // 2 + 1) if x >> k & 1)
        assert series_module._spread(x, n) == spread

    @given(ragged_parity_pairs())
    @example((ParitySeries(9, 0b1111111111), ParitySeries(9, 0b1000000000), 3))
    @example((ParitySeries(16, 1 << 16), ParitySeries(16, 1 << 16), 0))
    @settings(max_examples=80, deadline=None)
    def test_parity_mul_is_the_truncated_convolution(self, xyn):
        x, y, n = xyn
        assert mul(x, y, n) == ParitySeries(n, _convolution_mod2(x.bits, y.bits, n))


class TestSeriesTypes:
    def test_exact_series_validation(self):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            ExactSeries(())

    @given(st.lists(st.integers(-(1 << 70), 1 << 70) | st.integers(-3, 3), min_size=1,
                    max_size=40),
           st.integers(0, 30), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.lists(factor_strategy, max_size=3))
    @example([0], 0, 1, 1, 1, [])
    @settings(max_examples=60, deadline=None)
    def test_the_coefficients_are_the_whole_series(self, coeffs, n, a, b, m, factors):
        """The truncation, indexing, equality, hash and copies of an exact
        series follow from its coefficients, and every builder's series at n
        has truncation n."""
        s = ExactSeries(coeffs)
        assert s.coeffs == tuple(coeffs) and s.trunc == len(coeffs) - 1
        for k in (-1, len(coeffs)):
            with pytest.raises(IndexError) as err:
                s[k]
            assert str(err.value) == f"exponent {k} outside the known range 0..{s.trunc}"
        assert s[s.trunc] == coeffs[-1]
        twin = ExactSeries(tuple(coeffs))
        assert twin == s and hash(twin) == hash(s) == hash((tuple(coeffs),))
        assert ExactSeries(coeffs[:-1] + [coeffs[-1] + 1]) != s
        assert ExactSeries(coeffs + [0]) != s            # a longer series knows more exponents
        for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert again == s and again.trunc == s.trunc
        for built in (copartition_series(CpParams(a, b, m), n), expand_factors(factors, n),
                      self_conjugate_series(a, m, n)):
            assert built.trunc == n and len(built.coeffs) == n + 1

    def test_parity_series_validation(self):
        with pytest.raises(ValueError):
            ParitySeries(1, 0b100)
        with pytest.raises(ValueError):
            ParitySeries(1, -1)

    def test_indexing_bounds(self):
        s = ExactSeries((1, 0, 0, 0))
        with pytest.raises(IndexError):
            s[4]
        p = ParitySeries(3, 1)
        with pytest.raises(IndexError):
            p.bit(-1)

    def test_parity_helpers(self):
        p = ParitySeries(6, 0b1010011)
        assert p.odd_exponents() == [0, 1, 4, 6]
        assert p.count_odd(0, 6) == 4
        assert p.count_odd(1, 5) == 2
        assert ParitySeries.from_support([0, 1, 4, 6], 6) == p
        with pytest.raises(ValueError):
            ParitySeries.from_support([7], 6)

    def test_count_odd_never_reads_past_truncation(self):
        p = ParitySeries(4, 0b10011)
        assert p.count_odd(0, 4) == 3
        assert p.count_odd(2, 2) == 0
        for lo, hi in [(0, 5), (-1, 3), (3, 2)]:
            with pytest.raises(ValueError):
                p.count_odd(lo, hi)

    @given(st.integers(0, 3000).flatmap(
        lambda trunc: st.tuples(st.just(trunc), st.integers(0, (1 << (trunc + 1)) - 1))))
    @example((0, 0))
    @example((5, 0b100000))
    @settings(max_examples=40)
    def test_bit_values_are_the_bits(self, trunc_bits):
        p = ParitySeries(*trunc_bits)
        assert list(p.bit_values()) == [p.bit(n) for n in range(p.trunc + 1)]


# the series functions, and the representability predicates behind the
# guarantees, with one argument outside its range, and the refusal's message
REFUSALS = [
    (copartition_series, (CpParams(1, 1, 2), -1), "truncation must be >= 0"),
    (copartition_parity, (CpParams(1, 1, 2), -1), "truncation must be >= 0"),
    (expand_factors_mod2, (copartition_factors(CpParams(1, 1, 2)), -1),
     "truncation must be >= 0"),
    (self_conjugate_series, (0, 2, 5), "need a >= 1 and m >= 1"),
    (self_conjugate_parity, (1, 0, 5), "need a >= 1 and m >= 1"),
    (pentagonal_support, (0, 5), "scale must be >= 1"),
    (is_sum_of_two_squares, (0,), "needs n >= 1"),
    (even_guarantee_314, (-1,), "needs n >= 0"),
    (brute_force_representable, (-1, TWO_SQUARES), "needs n >= 0"),
]


@pytest.mark.parametrize("function, args, message", REFUSALS,
                         ids=[function.__name__ for function, _, _ in REFUSALS])
def test_every_series_function_refuses_an_argument_outside_its_range(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)
