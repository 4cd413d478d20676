"""The CheckResult contract: what each check tested, where it failed, the
rows the CLI prints, and the vacuous verdict of runs that tested nothing."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from functools import cache
from math import gcd, isqrt
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copartitions
from copartitions import (
    CheckResult,
    Copartition,
    CpParams,
    ExactSeries,
    ParitySeries,
    ProgressionFamily,
    X2_PLUS_3Y2,
    andrews_mod5_check,
    both_parities_prefix_check,
    brute_force_representable,
    cli,
    copartition_factors,
    copartition_parity,
    copartition_series,
    enumerate_copartitions,
    even_guarantee_314,
    even_guarantee_516,
    even_guarantee_check,
    expand_factors_mod2,
    form_equivalence_sweep_check,
    lacunary_odd_support_check,
    merge_checks,
    odd_term_count_check,
    oracle_check,
    parity_gf_check,
    progression_check,
    reduce_mod2,
    self_conjugate_check,
    self_conjugate_series,
    theta_product_identity_check,
    verify_even_progression,
)
from copartitions import stats

from oracles import form_values, merge_reference, sweep_reference


def run_json(capsys, *argv):
    code = cli.main(["verify", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def flipped(parity: ParitySeries, k: int) -> ParitySeries:
    return ParitySeries(parity.trunc, parity.bits ^ (1 << k))


def bumped(series: ExactSeries, k: int) -> ExactSeries:
    coeffs = list(series.coeffs)
    coeffs[k] += 1
    return ExactSeries(tuple(coeffs))


class TestCheckResult:
    def test_truth_is_the_verdict(self):
        # passed is derived: a result fails exactly when it names a counterexample
        assert CheckResult(checked=3) and CheckResult(checked=3).passed
        assert not CheckResult(checked=3, counterexample=2)
        assert not CheckResult(checked=1, counterexample=0).passed     # index 0 is real
        assert isinstance(CheckResult.passed, property) and "passed" not in CheckResult.__slots__

    def test_merge_keeps_the_first_counterexample(self):
        ok = CheckResult(checked=4, rows=({"x": 1},))
        bad1 = CheckResult(checked=2, counterexample=7, left=1, right=0, rows=({"x": 2},))
        bad2 = CheckResult(checked=5, counterexample=3, left=0, right=1, rows=({"x": 3},))
        merged = merge_checks([ok, bad1, bad2])
        assert not merged.passed and not merged.vacuous
        assert (merged.counterexample, merged.left, merged.right) == (7, 1, 0)
        assert merged.checked == 11
        assert merged.rows == ({"x": 1}, {"x": 2}, {"x": 3})

    def test_merge_of_nothing_is_vacuous(self):
        merged = merge_checks([])
        assert merged.passed and merged.vacuous and merged.checked == 0
        merged = merge_checks([CheckResult(0), CheckResult(0)])
        assert merged.passed and merged.vacuous

    def test_vacuous_is_nothing_checked(self):
        # the default result checked nothing, so it cannot read as a plain pass
        assert CheckResult().vacuous is True
        assert CheckResult(checked=1).vacuous is False
        # the one status rule: a failure is "fail" even when nothing was checked
        cases = [(0, None), (1, None), (0, 0), (1, 0)]
        assert [CheckResult(checked, bad).status for checked, bad in cases] == \
            ["vacuous", "pass", "fail", "fail"]


# family -> (unit, shift, parameters, C): the guarantee covers k where
# unit*k + shift is not A^2 + C*B^2
GUARANTEES = {"cp314": (24, 5, CpParams(3, 1, 4), 1), "cp516": (6, 1, CpParams(5, 1, 6), 3)}
MASK_TOP = 3000


@cache
def guarantee_parity(family):
    return copartition_parity(GUARANTEES[family][2], MASK_TOP)


@cache
def guarantee_values(family):
    unit, shift, _, coef = GUARANTEES[family]
    return form_values(coef, unit * MASK_TOP + shift)


def result_fields(check):
    return (check.passed, check.checked, check.counterexample, check.left, check.right,
            check.rows)


class TestMaskedComparisons:
    """The guarantee and progression checks compare packed bits under a mask;
    they must report what a sweep over the covered indices, one at a time,
    reports: the same verdict, count, counterexample, values and rows."""

    @given(st.sampled_from(sorted(GUARANTEES)), st.integers(0, MASK_TOP),
           st.sets(st.integers(0, MASK_TOP), max_size=4),
           st.none() | st.integers(0, MASK_TOP),
           st.integers(1, 150).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1)))
           | st.sampled_from([(49, 3), (49, 0), (25, 9)]),
           st.none() | st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_equal_to_the_sweep_over_the_covered_indices(self, family, n, flips, brute_max,
                                                          progression, hit):
        unit, shift, params, _ = GUARANTEES[family]
        modulus, residue = progression
        if hit is not None and residue + modulus * hit <= MASK_TOP:
            flips = flips ^ {residue + modulus * hit}      # a bit the progression covers
        bits = guarantee_parity(family).bits
        for k in flips:
            bits ^= 1 << k
        parity = ParitySeries(MASK_TOP, bits)       # read only through n
        represented = guarantee_values(family).__contains__
        covered = [k for k in range(n + 1) if not represented(unit * k + shift)]
        expected = sweep_reference({"n": n}, covered, parity.bit, lambda k: 0, "guaranteed_even")
        if brute_max is not None:
            values = range(shift, brute_max + 1, unit)
            expected = merge_reference([expected, sweep_reference(
                {"brute_max": brute_max}, values, represented, represented)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(copartitions.parity, "copartition_parity",
                          lambda params, top: ParitySeries(top, parity.bits & ((2 << top) - 1)))
            assert result_fields(even_guarantee_check(family, n, brute_max)) == expected
        expected = sweep_reference({"residue": residue, "n": n}, range(residue, n + 1, modulus),
                                   parity.bit, lambda k: 0)
        check = verify_even_progression(parity, modulus, residue, n)
        assert result_fields(check) == expected


def slice_mask(start, step, n):
    """The mask of start, start + step, ... through n as a byte per exponent,
    set by one slice assignment."""
    flags = bytearray(n + 1)
    flags[start::step] = b"\1" * len(range(start, n + 1, step))
    return flags


def progression_reference(parity, modulus, residue, n):
    # one residue class, its bytearray mask read one index at a time
    indices = [k for k, flag in enumerate(slice_mask(residue, modulus, n)) if flag]
    return sweep_reference({"residue": residue, "n": n}, indices, parity.bit, lambda k: 0)


def lemma13_reference(n_max):
    # each side a set of the values its form represents, read one index at a time
    top = max(n_max, 0)
    coprime = [u for u in range(isqrt(4 * top) + 1) if u % 6 in (1, 5)]
    restricted = {(u * u + 3 * v * v) // 4 for u in coprime for v in coprime}
    return sweep_reference({"n_max": n_max}, range(1, n_max + 1, 6),
                           form_values(3, top).__contains__, restricted.__contains__, "checked")


# family -> primes it takes, small enough for MASK_TOP to cover some residues
PROGRESSION_PRIMES = {"cp314": (7, 11, 19, 23, 31), "cp516": (5, 11, 17, 23, 29)}
progressions = st.sampled_from(sorted(PROGRESSION_PRIMES)).flatmap(
    lambda family: st.tuples(st.just(family), st.sampled_from(PROGRESSION_PRIMES[family])))


class TestPackedProgressions:
    """The progression and lemma13 checks build packed masks; they must report
    what the per-residue bytearray masks and the per-index sets reported."""

    @given(st.integers(0, 400), st.integers(1, 400), st.integers(0, 400))
    @settings(max_examples=200, deadline=None)
    @example(0, 1, 0)
    @example(0, 5, 0)
    @example(1, 6, 0)           # start > n
    @example(9, 3, 4)
    @example(2, 50, 10)         # step > n
    @example(10, 11, 10)        # start == n, step > n
    @example(3, 49, 3000)
    def test_mask_is_the_slice_rule(self, start, step, n):
        bits = copartitions.parity._progression_bits(start, step, n)
        assert bits == ParitySeries.from_values(slice_mask(start, step, n)).bits

    @given(progressions, st.integers(0, MASK_TOP), st.none() | st.tuples(st.integers(0, 40),
                                                                       st.integers(0, 60)))
    @settings(max_examples=60, deadline=None)
    @example(("cp314", 7), 3000, (0, 10))
    @example(("cp516", 5), 20, None)
    @example(("cp516", 5), 8, (0, 0))       # every class vacuous
    def test_progression_check_is_the_per_residue_rule(self, progression, n, flip):
        family, p = progression
        fam = ProgressionFamily(family, p)
        parity = copartition_parity(fam.params, n)
        if flip is not None:                # one bit on a residue class, if it is <= n
            r = fam.residues[flip[0] % len(fam.residues)]
            if (k := r + fam.modulus * flip[1]) <= n:
                parity = flipped(parity, k)
        header = {"family": family, "p": p, "modulus": fam.modulus, "delta": fam.delta,
                  "residues": list(fam.residues)}
        expected = [progression_reference(parity, fam.modulus, r, n) for r in fam.residues]
        for r, want in zip(fam.residues, expected):
            check = verify_even_progression(parity, fam.modulus, r, n)
            assert result_fields(check) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(copartitions.parity, "copartition_parity", lambda *_: parity)
            check = progression_check(family, p, n)
        assert result_fields(check) == merge_reference(
            [(True, 0, None, None, None, (header,))] + expected)

    def test_lemma13_is_the_per_index_rule(self):
        for n_max in range(301):
            assert result_fields(form_equivalence_sweep_check(n_max)) == \
                lemma13_reference(n_max), n_max


class TestCounterexamples:
    def test_flipped_bit_in_a_progression(self):
        params, n = CpParams(3, 1, 4), 2500
        k = 3 + 49 * 10
        check = verify_even_progression(flipped(copartition_parity(params, n), k), 49, 3, n)
        assert not check.passed and not check.vacuous
        assert (check.counterexample, check.left, check.right) == (k, 1, 0)
        assert check.checked == 11
        assert check.rows[0]["status"] == "fail"

    def test_progression_counts_its_indices(self):
        check = verify_even_progression(copartition_parity(CpParams(3, 1, 4), 2500), 49, 3, 2500)
        assert check.passed and check.checked == len(range(3, 2501, 49))
        check = verify_even_progression(copartition_parity(CpParams(3, 1, 4), 10), 49, 45, 10)
        assert check.vacuous and check.checked == 0
        assert check.rows[0]["status"] == "vacuous"

    def test_flipped_bit_under_a_guarantee(self, monkeypatch):
        n = 400
        k = [j for j in range(n + 1) if even_guarantee_314(j)][5]
        true = copartition_parity(CpParams(3, 1, 4), n)
        monkeypatch.setattr(copartitions.parity, "copartition_parity",
                            lambda *args: flipped(true, k))
        check = even_guarantee_check("cp314", n)
        assert not check.passed
        assert (check.counterexample, check.left, check.right) == (k, 1, 0)
        assert check.checked == 6

    def test_guarantee_counts_the_guaranteed_indices(self):
        check = even_guarantee_check("cp314", 400)
        assert check.passed
        assert check.checked == sum(map(even_guarantee_314, range(401)))

    def test_self_conjugate_count_off_by_one(self, monkeypatch):
        a, m, n, k = 1, 2, 20, 12
        true = self_conjugate_series(a, m, n)
        monkeypatch.setattr(copartitions.parity, "self_conjugate_series",
                            lambda *args: bumped(true, k))
        check = self_conjugate_check(a, m, n)
        fixed = sum(cp.is_self_conjugate() for cp in enumerate_copartitions(CpParams(a, a, m), k))
        assert not check.passed and not check.vacuous
        assert (check.counterexample, check.checked) == (k, k + 1)
        assert (check.left, check.right) == (fixed, fixed + 1)
        assert check.rows == ({"a": a, "m": m, "n_max": n, "status": "fail",
                               "counterexample": k},)

    @pytest.mark.parametrize("a, m", [(1, 1), (1, 2), (2, 3), (3, 1), (1, 5)])
    def test_self_conjugate_counts_match_the_full_enumeration(self, monkeypatch, a, m):
        # a bump at the last size makes the check report its own count there
        n = 28
        true = self_conjugate_series(a, m, n)
        check = self_conjugate_check(a, m, n)
        assert check.passed and check.checked == n + 1
        monkeypatch.setattr(copartitions.parity, "self_conjugate_series",
                            lambda *args: bumped(true, n))
        fixed = sum(cp.is_self_conjugate() for cp in enumerate_copartitions(CpParams(a, a, m), n))
        assert self_conjugate_check(a, m, n).left == fixed == true[n]

    def test_oracle_count_off_by_one(self, monkeypatch):
        params, n, k = CpParams(2, 1, 3), 18, 9
        true = copartition_series(params, n)
        monkeypatch.setattr(copartitions.parity, "copartition_series",
                            lambda *args: bumped(true, k))
        check = oracle_check(params, n)
        assert not check.passed and not check.vacuous
        assert (check.counterexample, check.checked) == (k, k + 1)
        assert (check.left, check.right) == (7, 8)      # the 7 copartitions of size 9
        assert check.rows == ({"a": 2, "b": 1, "m": 3, "n_max": n, "status": "fail",
                               "counterexample": k},)

    def test_oracle_flipped_parity_bit(self, monkeypatch):
        # the counts agree, so the packed parity is compared with them mod 2
        params, n, k = CpParams(2, 1, 3), 18, 9
        true = copartition_parity(params, n)
        monkeypatch.setattr(copartitions.parity, "copartition_parity",
                            lambda *args: flipped(true, k))
        check = oracle_check(params, n)
        assert not check.passed and not check.vacuous
        assert (check.counterexample, check.checked) == (k, k + 1)
        assert (check.left, check.right) == (0, 1)      # 7 copartitions of size 9: odd
        assert check.rows == ({"a": 2, "b": 1, "m": 3, "n_max": n, "status": "fail",
                               "counterexample": k},)

    def test_guarantee_refuses_a_negative_n(self, monkeypatch):
        # refused before any series is built
        monkeypatch.setattr(copartitions.parity, "copartition_parity", None)
        with pytest.raises(ValueError, match="needs n >= 0"):
            even_guarantee_check("cp314", -1)

    def test_both_parities_failure_names_n(self):
        # (1, 1, 2) through 28 has 5 odd counts: the scarcer parity, below 6
        check = both_parities_prefix_check(1, 2, 28, 6)
        assert not check.passed and check.checked == 29
        assert (check.counterexample, check.left, check.right) == (28, 5, 6)


class Corruption(NamedTuple):
    """A check run with ``copartitions.parity.<name>`` replaced by ``patched``,
    whose result is wrong at index k: the run must fail at k, with ``checked``,
    ``left`` and ``right`` as the check's docstring defines them, and so must
    ``verify`` with ``argv``, where the check is a CLI target."""
    argv: list[str] | None
    run: Callable
    name: str
    patched: Callable
    k: int
    checked: int
    left: object
    right: object


def wrapped(name, change):
    # the real copartitions.parity.<name>, its result passed through change
    real = getattr(copartitions.parity, name)
    return lambda *args: change(real(*args))


def corrupt_selfconj(draw):
    n = draw(st.integers(0, 30))
    k = draw(st.integers(0, n))
    true = self_conjugate_series(1, 2, n)
    return Corruption(["selfconj", "--amax", "1", "--mmax", "2", "--nmax", str(n)],
                      lambda: self_conjugate_check(1, 2, n), "self_conjugate_series",
                      lambda *_: bumped(true, k), k, k + 1, true[k], true[k] + 1)


def corrupt_parity_gf(draw):
    n = draw(st.integers(0, 300))
    k = draw(st.integers(0, n))
    true = copartition_series(CpParams(1, 1, 2), n)
    return Corruption(["parity-gf", "--amax", "1", "--mmax", "2", "--N", str(n)],
                      lambda: parity_gf_check(1, 2, n), "expand_factors_mod2",
                      wrapped("expand_factors_mod2", lambda s: flipped(s, k)), k, k + 1,
                      (true[k] + 1) % 2, true[k] % 2)


def corrupt_theta_product(argv, check, m):
    # eq4 and lacunary: the product's bit at k flipped; right is the indicator of {m*j*(3j - 1)}
    def corrupt(draw):
        n = draw(st.integers(0, 600))
        k = draw(st.integers(0, n))
        right = int(any(m * j * (3 * j - 1) == k for j in range(-k - 1, k + 2)))
        return Corruption([*argv, "--N", str(n)], lambda: check(n), "_theta_times_mod2",
                          wrapped("_theta_times_mod2", lambda s: flipped(s, k)), k, k + 1,
                          1 - right, right)
    return corrupt


def corrupt_progression(draw):
    fam = ProgressionFamily("cp314", 7)
    r = draw(st.sampled_from(fam.residues))
    n = draw(st.integers(r, 1500))
    j = draw(st.integers(0, (n - r) // fam.modulus))
    k = r + fam.modulus * j
    others = sum(len(range(s, n + 1, fam.modulus)) for s in fam.residues if s != r)
    return Corruption(["progression", "--family", "cp314", "--p", "7", "--N", str(n)],
                      lambda: progression_check("cp314", 7, n), "copartition_parity",
                      wrapped("copartition_parity", lambda s: flipped(s, k)), k,
                      others + j + 1, 1, 0)


def corrupt_lemma13(draw):
    # both sides are built inside the check, so the direct side is flipped on its way to _compare
    n_max = draw(st.integers(1, 600))
    k = draw(st.sampled_from(range(1, n_max + 1, 6)))
    real = copartitions.parity._compare
    right = int(brute_force_representable(k, X2_PLUS_3Y2))
    return Corruption(["lemma13", "--Nmax", str(n_max)],
                      lambda: form_equivalence_sweep_check(n_max), "_compare",
                      lambda left, *rest: real(flipped(left, k), *rest), k, (k - 1) // 6 + 1,
                      1 - right, right)


def corrupt_guarantee(family, guaranteed):
    def corrupt(draw):
        n = draw(st.integers(60, 400))
        covered = [j for j in range(n + 1) if guaranteed(j)]
        k = draw(st.sampled_from(covered))
        return Corruption([f"guarantees-{family[2:]}", "--N", str(n)],
                          lambda: even_guarantee_check(family, n), "copartition_parity",
                          wrapped("copartition_parity", lambda s: flipped(s, k)), k,
                          covered.index(k) + 1, 1, 0)
    return corrupt


def corrupt_both_parities(draw):
    # every count even: the scarcer parity, odd, occurs 0 times, below the default witness_min
    n = draw(st.integers(0, 400))
    return Corruption(["both-parities", "--a", "1", "--m", "4", "--N", str(n)],
                      lambda: both_parities_prefix_check(1, 4, n, 10), "copartition_parity",
                      lambda params, top: ParitySeries(top, 0), n, n + 1, 0, 10)


def corrupt_andrews(draw):
    n = draw(st.integers(4, 600))
    j = draw(st.integers(0, (n - 4) // 5))
    k = 5 * j + 4
    true = copartition_series(CpParams(1, 1, 2), n)
    return Corruption(["andrews", "--N", str(n)], lambda: andrews_mod5_check(n, (4, 9, 14)),
                      "copartition_series", lambda *_: bumped(true, k), k, j + 1 + 3,
                      (true[k] + 1) % 5, 0)


def corrupt_oracle(draw):
    n = draw(st.integers(0, 25))
    k = draw(st.integers(0, n))
    true = copartition_series(CpParams(1, 1, 1), n)
    return Corruption(["oracle", "--amax", "1", "--bmax", "1", "--mmax", "1", "--nmax", str(n)],
                      lambda: oracle_check(CpParams(1, 1, 1), n), "copartition_series",
                      lambda *_: bumped(true, k), k, k + 1, true[k], true[k] + 1)


def corrupt_odd_term(draw):
    a, m = 1, 3
    n_max = draw(st.integers(1, 6))
    k = draw(st.integers(0, m * n_max * n_max // 2))
    starts = [m * j * (j + 1) // 2 - a * j for j in range(k + 1)]
    right = int(any(start <= k < start + a * (2 * j + 1) for j, start in enumerate(starts)))
    return Corruption(None, lambda: odd_term_count_check(a, m, n_max), "_theta_times_mod2",
                      wrapped("_theta_times_mod2", lambda s: flipped(s, k)), k, k + 1,
                      1 - right, right)


# each verify target, and odd_term_count_check, with one corrupted input
CORRUPTIONS = {
    "selfconj": corrupt_selfconj,
    "parity-gf": corrupt_parity_gf,
    "eq4": corrupt_theta_product(["eq4", "--a", "1", "--m", "4"],
                                 lambda n: theta_product_identity_check(1, 4, n), 4),
    "lacunary": corrupt_theta_product(["lacunary", "--a", "3"],
                                      lambda n: lacunary_odd_support_check(3, n), 6),
    "progression": corrupt_progression,
    "lemma13": corrupt_lemma13,
    "guarantees-314": corrupt_guarantee("cp314", even_guarantee_314),
    "guarantees-516": corrupt_guarantee("cp516", even_guarantee_516),
    "both-parities": corrupt_both_parities,
    "andrews": corrupt_andrews,
    "oracle": corrupt_oracle,
    "odd_term_count_check": corrupt_odd_term,
}


def test_the_corruption_table_covers_every_target():
    assert CORRUPTIONS.keys() - {"odd_term_count_check"} == cli.TARGETS.keys()


def assert_fails_where_corrupted(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(copartitions.parity, case.name, case.patched)
        check = case.run()
        assert (check.passed, check.counterexample, check.checked, check.left, check.right) == \
            (False, case.k, case.checked, case.left, case.right)
        if case.argv is not None:
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(["verify", *case.argv]) == 1
            assert out.getvalue().splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("target", list(CORRUPTIONS))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_a_corrupted_input_fails_where_it_was_corrupted(target, data):
    assert_fails_where_corrupted(CORRUPTIONS[target](data.draw))


def corrupt_round_trip(name, patch_at):
    # selfconj with the hook round trip broken at a size k >= 1 that has a self-conjugate
    # copartition; the counts still agree there, so left and right are both the count
    def corrupt(draw):
        n = draw(st.integers(4, 30))
        true = self_conjugate_series(1, 2, n)
        k = draw(st.sampled_from([j for j in range(1, n + 1) if true[j]]))
        return Corruption(["selfconj", "--amax", "1", "--mmax", "2", "--nmax", str(n)],
                          lambda: self_conjugate_check(1, 2, n), name, patch_at(k),
                          k, k + 1, true[k], true[k])
    return corrupt


def rebuilt_empty(k):
    # the hooks of size k rebuild the empty copartition, not the one they came from
    real, empty = copartitions.parity.distinct_parts_to_hooks, Copartition((), (), CpParams(1, 1, 2))
    return lambda hooks, a, m: empty if sum(hooks) == k else real(hooks, a, m)


ROUND_TRIPS = {
    "distinct_parts_to_hooks": corrupt_round_trip("distinct_parts_to_hooks", rebuilt_empty),
    "hooks_to_distinct_parts": corrupt_round_trip("hooks_to_distinct_parts", lambda k: wrapped(
        "hooks_to_distinct_parts", lambda hooks: hooks + (1,) if sum(hooks) == k else hooks)),
}


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_a_broken_hook_round_trip_fails_at_its_size(name, data):
    assert_fails_where_corrupted(ROUND_TRIPS[name](data.draw))


def test_a_skewed_crank_fails_at_its_size(monkeypatch):
    # left and right are the fewest and the most copartitions in one class; an absent class is 0
    real = copartitions.parity.crank_distribution
    skewed = {9: {0: 3, 1: 5, 2: 4, 3: 4, 4: 4}, 14: {0: 15, 1: 15, 2: 15, 3: 15}}
    monkeypatch.setattr(copartitions.parity, "crank_distribution",
                        lambda params, size, mod: skewed.get(size) or real(params, size, mod))
    for sizes, failure in [((4, 9), (9, 3, 5)), ((4, 14, 9), (14, 0, 15))]:
        check = andrews_mod5_check(20, sizes)
        assert (check.counterexample, check.left, check.right) == failure
        assert not check.passed and check.checked == 4 + len(sizes)     # 4, 9, 14 and 19
        assert [row["status"] for row in check.rows[1:]] == \
            ["pass" if size == 4 else "fail" for size in sizes]


# check -> its arguments with one size negative, and the argument the refusal names
NEGATIVE_SIZES = [
    ("form_equivalence_check", (-5,), "n"),
    ("form_equivalence_sweep_check", (-1,), "n_max"),
    ("even_guarantee_check", ("cp314", -1), "n"),
    ("even_guarantee_check", ("cp314", 10, -7), "brute_max"),
    ("verify_even_progression", (ParitySeries(0, 0), 4, 0, -1), "n"),
    ("progression_check", ("cp314", 7, -1), "n"),
    ("lacunary_odd_support_check", (1, -1), "n"),
    ("theta_product_identity_check", (1, 4, -1), "n"),
    ("parity_gf_check", (1, 2, -1), "n"),
    ("self_conjugate_check", (1, 2, -1), "n"),
    ("oracle_check", (CpParams(1, 1, 1), -1), "n"),
    ("odd_term_count_check", (1, 3, -1), "n_max"),
    ("both_parities_prefix_check", (1, 4, -1, 3), "n"),
    ("both_parities_prefix_check", (1, 4, 3, -1), "witness_min"),
    ("andrews_mod5_check", (-1, ()), "n"),
]


# a passing run of each public check -> the number of indices it tested
PASSING_CHECKED = [
    ("form_equivalence_check", (13,), 1),
    ("form_equivalence_sweep_check", (1000,), 167),
    ("even_guarantee_check", ("cp314", 400), 127),
    ("verify_even_progression", (copartition_parity(CpParams(3, 1, 4), 2500), 49, 3, 2500), 51),
    ("progression_check", ("cp314", 7, 12100), 1482),
    ("lacunary_odd_support_check", (1, 300), 301),
    ("theta_product_identity_check", (1, 4, 300), 301),
    ("parity_gf_check", (1, 2, 300), 301),
    ("self_conjugate_check", (1, 2, 30), 31),
    ("oracle_check", (CpParams(1, 1, 1), 20), 21),
    ("odd_term_count_check", (3, 8, 30), 3601),       # 8 * 30^2 // 2 + 1 exponents
    ("both_parities_prefix_check", (1, 4, 300, 10), 301),
    ("andrews_mod5_check", (504, (4, 9, 14)), 104),   # 101 sizes 5k+4, then 3 crank sizes
]


@pytest.mark.parametrize("check, args, checked", PASSING_CHECKED,
                         ids=[check for check, _, _ in PASSING_CHECKED])
def test_a_passing_check_counts_the_indices_it_tested(check, args, checked):
    result = getattr(copartitions, check)(*args)
    assert result.passed and result.checked == checked


@pytest.mark.parametrize("check, args, argument", NEGATIVE_SIZES,
                         ids=[f"{check}-{argument}" for check, _, argument in NEGATIVE_SIZES])
def test_every_check_refuses_a_negative_size(check, args, argument):
    with pytest.raises(ValueError, match=rf"needs .*\b{argument} >= "):
        getattr(copartitions, check)(*args)


coprime = st.integers(2, 16).flatmap(
    lambda m: st.sampled_from([a for a in range(1, m) if gcd(a, m) == 1]).map(lambda a: (a, m)))


@given(coprime, st.integers(0, 600))
@settings(max_examples=25, deadline=None)
def test_identities_hold_on_random_coprime_pairs(pair, n):
    a, m = pair
    for check in (theta_product_identity_check(a, m, n), parity_gf_check(a, m, n)):
        assert check.passed and not check.vacuous
        assert check.checked == n + 1


@given(st.integers(0, 600))
@example(600)
@settings(max_examples=8, deadline=None)
def test_parity_gf_left_side_is_the_exact_series_mod_2(n):
    # the GF(2) sums take f(q)^2 = f(q^2) as given; over Z on every (a, m) that verify admits
    for a in range(1, 5):
        for m in range(1, 9):
            params = CpParams(a, a, m)
            assert expand_factors_mod2(copartition_factors(params), n) == \
                reduce_mod2(copartition_series(params, n)), (a, m, n)


def test_parity_gf_runs_no_exact_pass():
    with stats.recording() as counts:
        assert parity_gf_check(4, 8, 2000).passed
    assert counts["exact_passes"] == counts["theta_taps"] == 0
    assert counts["sums_passes"] > 0


CLI_VS_LIBRARY = [
    (["selfconj", "--amax", "1", "--mmax", "2", "--nmax", "12"],
     lambda: self_conjugate_check(1, 2, 12)),
    (["parity-gf", "--amax", "1", "--mmax", "2", "--N", "200"],
     lambda: parity_gf_check(1, 2, 200)),
    (["eq4", "--a", "1", "--m", "4", "--N", "400"], lambda: theta_product_identity_check(1, 4, 400)),
    (["lacunary", "--a", "3", "--N", "500"], lambda: lacunary_odd_support_check(3, 500)),
    (["progression", "--family", "cp314", "--p", "7", "--N", "3000"],
     lambda: progression_check("cp314", 7, 3000)),
    (["lemma13", "--Nmax", "600"], lambda: form_equivalence_sweep_check(600)),
    (["guarantees-314", "--N", "400", "--brute-max", "2000"],
     lambda: even_guarantee_check("cp314", 400, 2000)),
    (["guarantees-516", "--N", "300"], lambda: even_guarantee_check("cp516", 300)),
    (["both-parities", "--a", "1", "--m", "4", "--N", "200"],
     lambda: both_parities_prefix_check(1, 4, 200, 10)),
    (["andrews", "--N", "104", "--sizes", "4,9"], lambda: andrews_mod5_check(104, (4, 9))),
    (["oracle", "--amax", "1", "--bmax", "1", "--mmax", "1", "--nmax", "10"],
     lambda: oracle_check(CpParams(1, 1, 1), 10)),
]


@pytest.mark.parametrize("argv,library", CLI_VS_LIBRARY, ids=[c[0][0] for c in CLI_VS_LIBRARY])
def test_cli_rows_are_the_library_rows(capsys, argv, library):
    code, doc = run_json(capsys, *argv)
    result = library()
    assert code == 0 and result.passed
    assert doc["rows"] == list(result.rows)


VACUOUS_RUNS = [
    ["selfconj", "--mmax", "1"],
    ["parity-gf", "--mmax", "1"],
    ["eq4", "--mmax", "1"],
    ["both-parities", "--mmax", "1"],
    ["lemma13", "--Nmax", "0"],
    ["progression", "--family", "cp314", "--p", "7", "--N", "2"],
]


@pytest.mark.parametrize("argv", VACUOUS_RUNS, ids=[" ".join(a) for a in VACUOUS_RUNS])
class TestVacuousRuns:
    def test_json_verdict(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["verdict"] == "vacuous"
        assert all(row["status"] == "vacuous" for row in doc["rows"] if "status" in row)

    def test_text_verdict(self, capsys, argv):
        code = cli.main(["verify", *argv])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "VACUOUS"


def test_lemma13_without_indices(capsys):
    code, doc = run_json(capsys, "lemma13", "--Nmax", "0")
    assert doc["rows"] == [{"n_max": 0, "checked": 0, "status": "vacuous", "counterexample": None}]


def test_zero_brute_bound_reports_a_vacuous_row(capsys):
    argv = ["guarantees-314", "--N", "20", "--brute-max", "0"]
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["rows"][1] == {"brute_max": 0, "status": "vacuous", "counterexample": None}
    assert cli.main(["verify", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "brute_max=0  status=vacuous  counterexample=None", "PASS"]


def test_partly_vacuous_progression_passes(capsys):
    code, doc = run_json(capsys, "progression", "--family", "cp516", "--p", "5", "--N", "20")
    assert code == 0 and doc["verdict"] == "pass"
    assert [row["status"] for row in doc["rows"][1:]] == ["pass", "pass", "pass", "vacuous"]


def test_cli_import_leaves_the_process_pool_unloaded():
    src = str(Path(copartitions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, copartitions.cli; print([m for m in "
            "('concurrent.futures.process', 'hashlib', 'fractions', 'dataclasses', 'inspect') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
