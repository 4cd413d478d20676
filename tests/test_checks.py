"""The CheckResult contract: what each check tested, where it failed, the
rows the CLI prints, and the vacuous verdict of runs that tested nothing."""

import json
import os
import subprocess
import sys
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copartitions
from copartitions import (
    CheckResult,
    CpParams,
    ExactSeries,
    ParitySeries,
    andrews_mod5_check,
    both_parities_prefix_check,
    cli,
    copartition_parity,
    copartition_series,
    enumerate_copartitions,
    even_guarantee_314,
    even_guarantee_check,
    form_equivalence_sweep_check,
    lacunary_odd_support_check,
    merge_checks,
    oracle_check,
    parity_gf_check,
    progression_check,
    self_conjugate_check,
    self_conjugate_series,
    theta_product_identity_check,
    verify_even_progression,
)

from oracles import form_values, merge_reference, sweep_reference


def run_json(capsys, *argv):
    code = cli.main(["verify", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def flipped(parity: ParitySeries, k: int) -> ParitySeries:
    return ParitySeries(parity.trunc, parity.bits ^ (1 << k))


def bumped(series: ExactSeries, k: int) -> ExactSeries:
    coeffs = list(series.coeffs)
    coeffs[k] += 1
    return ExactSeries(series.trunc, tuple(coeffs))


class TestCheckResult:
    def test_truth_is_the_verdict(self):
        assert CheckResult(passed=True, checked=3)
        assert not CheckResult(passed=False, checked=3, counterexample=2)

    def test_merge_keeps_the_first_counterexample(self):
        ok = CheckResult(True, checked=4, rows=({"x": 1},))
        bad1 = CheckResult(False, checked=2, counterexample=7, left=1, right=0, rows=({"x": 2},))
        bad2 = CheckResult(False, checked=5, counterexample=3, left=0, right=1, rows=({"x": 3},))
        merged = merge_checks([ok, bad1, bad2])
        assert not merged.passed and not merged.vacuous
        assert (merged.counterexample, merged.left, merged.right) == (7, 1, 0)
        assert merged.checked == 11
        assert merged.rows == ({"x": 1}, {"x": 2}, {"x": 3})

    def test_merge_of_nothing_is_vacuous(self):
        merged = merge_checks([])
        assert merged.passed and merged.vacuous and merged.checked == 0
        merged = merge_checks([CheckResult(True, 0), CheckResult(True, 0)])
        assert merged.passed and merged.vacuous

    def test_vacuous_is_nothing_checked(self):
        # the default result checked nothing, so it cannot read as a plain pass
        assert CheckResult(True).vacuous is True
        assert CheckResult(True, checked=1).vacuous is False
        # the one status rule: a failure is "fail" even when nothing was checked
        cases = [(True, 0), (True, 1), (False, 0), (False, 1)]
        assert [CheckResult(passed, checked).status for passed, checked in cases] == \
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
        assert result_fields(even_guarantee_check(family, n, brute_max, parity)) == expected
        expected = sweep_reference({"residue": residue, "n": n}, range(residue, n + 1, modulus),
                                   parity.bit, lambda k: 0)
        check = verify_even_progression(params, modulus, residue, n, parity)
        assert result_fields(check) == expected


class TestCounterexamples:
    def test_flipped_bit_in_a_progression(self):
        params, n = CpParams(3, 1, 4), 2500
        k = 3 + 49 * 10
        check = verify_even_progression(params, 49, 3, n, flipped(copartition_parity(params, n), k))
        assert not check.passed and not check.vacuous
        assert (check.counterexample, check.left, check.right) == (k, 1, 0)
        assert check.checked == 11
        assert check.rows[0]["status"] == "fail"

    def test_progression_counts_its_indices(self):
        check = verify_even_progression(CpParams(3, 1, 4), 49, 3, 2500)
        assert check.passed and check.checked == len(range(3, 2501, 49))
        check = verify_even_progression(CpParams(3, 1, 4), 49, 45, 10)
        assert check.vacuous and check.checked == 0
        assert check.rows[0]["status"] == "vacuous"

    def test_flipped_bit_under_a_guarantee(self):
        n = 400
        k = [j for j in range(n + 1) if even_guarantee_314(j)][5]
        parity = flipped(copartition_parity(CpParams(3, 1, 4), n), k)
        check = even_guarantee_check("cp314", n, parity=parity)
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

    def test_guarantee_refuses_a_negative_n(self):
        parity = copartition_parity(CpParams(3, 1, 4), 5)
        for supplied in (None, parity):
            with pytest.raises(ValueError, match="needs n >= 0"):
                even_guarantee_check("cp314", -1, parity=supplied)

    def test_both_parities_failure_has_no_index(self):
        check = both_parities_prefix_check(1, 2, 28, 6)
        assert not check.passed and check.counterexample is None and check.checked == 29


coprime = st.integers(2, 16).flatmap(
    lambda m: st.sampled_from([a for a in range(1, m) if gcd(a, m) == 1]).map(lambda a: (a, m)))


@given(coprime, st.integers(0, 600))
@settings(max_examples=25, deadline=None)
def test_identities_hold_on_random_coprime_pairs(pair, n):
    a, m = pair
    for check in (theta_product_identity_check(a, m, n), parity_gf_check(a, m, n)):
        assert check.passed and not check.vacuous
        assert check.checked == n + 1


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
