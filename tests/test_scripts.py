"""The experiment scripts run end to end and agree with the CLI."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from copartitions import CpParams, cli, copartition_parity, density_report
from copartitions import enumeration, parity, series

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_parity_scan_prints_the_density_report():
    out = run_script("parity_scan.py", 1, 13, 14, "--top", 2000)
    params = CpParams(1, 13, 14)
    parity = copartition_parity(params, 2000)
    report = density_report(params, (1000, 2000), parity)
    lines = out.splitlines()
    assert lines[0] == "family cp_1_13_14, even-value proportion over 1..n"
    for line, n, even, shown in zip(lines[1:3], report.checkpoints, report.even_counts,
                                    report.rounded):
        assert line.replace(" ", "") == f"n={n}even={even}proportion={shown}"
    assert lines[3].startswith(f"odd count up to 2000: {len(parity.odd_exponents())};")


def test_regenerated_tables_match_the_cli(tmp_path, capsys):
    run_script("regenerate_tables.py", "--outdir", tmp_path / "out")
    for which in (1, 2, 3):
        assert cli.main(["tables", str(which), "--format", "csv"]) == 0
        expected = capsys.readouterr().out
        assert (tmp_path / "out" / f"table{which}.csv").read_text() == expected


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--cache-dir", "cache"]])
def test_regenerate_tables_rejects_the_removed_options(tmp_path, option):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "regenerate_tables.py"),
                           "--outdir", str(tmp_path / "out"), *option],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "unrecognized arguments" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.fixture
def bench_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", ROOT / "scripts" / "bench_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_counts(**nonzero):
    return {**dict.fromkeys(("exact_passes", "coeff_bits", "mod2_passes", "sums_passes",
                             "mod2_bits", "sieve_values", "sieve_hits", "partitions_walked"), 0),
            **nonzero}


def test_bench_cases_counts_passes_and_walked_partitions(bench_cases):
    # (1,1,1) through 45 runs 32 divides: Euler's sum for (q^2;q) 8 (2k + k(k-1)/2 <= 45),
    # Cauchy's for 1/(q;q) 2 x 6 (k^2 <= 45) twice; the self-conjugate walk visits the grounds
    counts = bench_cases._counted("kernel", (1, 1, 1, 45))
    assert counts == expected_counts(exact_passes=32, coeff_bits=counts["coeff_bits"])
    assert 0 < counts["coeff_bits"] <= max(c.bit_length() for c in series.expand_factors(
        series.copartition_factors(CpParams(1, 1, 1)), 45).coeffs)
    counts = bench_cases._counted("self_conjugate_check", (1, 2, 30))
    assert counts["partitions_walked"] > 0
    assert series._divide.__name__ == "_divide"          # the wrappers are taken off again


@pytest.mark.parametrize("missing", [[(series, "_divide"), (series, "_scaled_add")],
                                     [(enumeration, "_partitions_upto"),
                                      (parity, "_partitions_upto")],
                                     [(series, "_level_product")],
                                     [(parity, "_sieve")]])
def test_bench_cases_refuses_a_source_without_the_counted_functions(bench_cases, monkeypatch,
                                                                    missing):
    for module, name in missing:
        monkeypatch.delattr(module, name)
    with pytest.raises(SystemExit, match="no .* function to count"):
        bench_cases._counted("kernel", (1, 1, 1, 5))


@pytest.mark.parametrize("a, m, n", [(3, 10, 500), (1, 6, 3000), (3, 4, 5000)])
def test_bench_cases_counts_the_gf2_passes_of_the_normal_form(bench_cases, a, m, n):
    # the identity check expands (a, m - a, m) by the pass kernel once
    passes = series.mod2_passes(series.copartition_factors(CpParams(a, m - a, m)), n)
    run_passes, bits = bench_cases._level_counts(n, passes)
    assert bench_cases._counted("theta_product_identity_check", (a, m, n)) == expected_counts(
        mod2_passes=passes.bit_count(), mod2_bits=bits)
    assert run_passes == passes.bit_count() > 0
    # the parent's level loop takes the passes as one int; both forms count alike
    assert bench_cases._level_counts(n, series._levels(n, passes)) == (run_passes, bits)
    assert series._level_product.__name__ == "_level_product"  # the wrapper is taken off again


def test_bench_cases_counts_the_finite_part_of_a_collapsed_family(bench_cases):
    # (1, 1, 1) is 1/((1 - q) E(q)) mod 2: the passes of 1/(1 - q), one per 2^i <= 3000;
    # at n = 3000 level 0 (k = 1) runs on 3000 bits and every higher level on 1500
    assert bench_cases._counted("parity", (1, 1, 1, 3000)) == expected_counts(
        mod2_passes=12, mod2_bits=3000 + 11 * 1500)


def test_bench_cases_counts_the_passes_of_the_sums(bench_cases):
    # (1, 11, 14) at 3000 takes the sums: 367 chain passes on 865091 bits, and no
    # level-loop pass; the bits are the sum over the chain passes of the term's width
    assert bench_cases._counted("parity", (1, 11, 14, 3000)) == expected_counts(
        sums_passes=367, mod2_bits=865091)
    assert series._chain_divide.__name__ == "_chain_divide"


def test_bench_cases_reads_no_sums_counter_without_the_sums(bench_cases, monkeypatch):
    monkeypatch.delattr(series, "_chain_divide")
    assert bench_cases._counted("kernel", (1, 1, 1, 5))["sums_passes"] is None


def test_bench_cases_counts_the_values_and_prime_hits_of_the_sieve(bench_cases):
    # cp314 at 100 sieves 24k + 5 for k <= 100 with the primes up to isqrt(2405) = 49
    values = range(5, 24 * 100 + 6, 24)
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    hits = sum(1 for v in values for p in primes if v % p == 0)
    assert bench_cases._counted("even_guarantee_check", ("cp314", 100)) == expected_counts(
        sieve_values=101, sieve_hits=hits)
    assert hits > 0 and parity._sieve.__name__ == "_sieve"


def test_bench_cases_theta_quotient_runs_no_gf2_pass(bench_cases):
    assert bench_cases._counted("parity", (1, 3, 4, 3000))["mod2_passes"] == 0
    # the identity check expands (3, 7, 10) by the pass kernel once
    expected = series.mod2_passes(series.copartition_factors(CpParams(3, 7, 10)), 500)
    counts = bench_cases._counted("theta_product_identity_check", (3, 10, 500))
    assert counts["mod2_passes"] == expected.bit_count() > 0


def test_bench_cases_coeff_bits_is_the_widest_coefficient_a_divide_leaves(bench_cases,
                                                                          monkeypatch):
    widest = []
    real = series._divide

    def divide(coeffs, k):
        real(coeffs, k)
        widest.append(max(c.bit_length() for c in coeffs))

    monkeypatch.setattr(series, "_divide", divide)
    series.copartition_series(CpParams(1, 1, 3), 300)
    monkeypatch.setattr(series, "_divide", real)
    assert bench_cases._counted("series", (1, 1, 3, 300))["coeff_bits"] == max(widest) > 0


def test_bench_cases_times_two_sources_side_by_side(bench_cases, monkeypatch):
    # the same tree under two package names: separate modules, equal results and counters
    one = bench_cases._load("bench_one", ROOT / "src")
    two = bench_cases._load("bench_two", ROOT / "src")
    assert one.series is not two.series and one.series.__name__ == "bench_one.series"
    assert bench_cases._call(one, "series", (1, 1, 3, 60)).coeffs == \
        bench_cases._call(two, "series", (1, 1, 3, 60)).coeffs
    assert bench_cases._counted("kernel", (1, 1, 3, 60), one) == \
        bench_cases._counted("kernel", (1, 1, 3, 60), two)
    monkeypatch.setattr(bench_cases, "CASES", {"k": ("series.exact", "kernel", (1, 1, 3, 60))})
    times = bench_cases.timed({"one": one, "two": two})
    assert [len(times[name]["k"]) for name in ("one", "two")] == [bench_cases.SAMPLES] * 2


def test_bench_cases_has_no_timing_options(bench_cases):
    with pytest.raises(SystemExit) as exit_info:
        bench_cases.main(["change=src", "--rounds", "3"])
    assert exit_info.value.code == 2


def test_bench_cases_process_run_counts_the_modules_the_import_loads(bench_cases, tmp_path):
    # stand-in sources: copartitions.cli empty, or importing dataclasses alone
    def side(name, cli_source):
        package = tmp_path / name / "copartitions"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(cli_source)
        return tmp_path / name

    bare = bench_cases.process_run(side("bare", ""))
    heavy = bench_cases.process_run(side("heavy", "import dataclasses\n"))
    code = ("import sys; before = set(sys.modules); import dataclasses; "
            "print(len(set(sys.modules) - before))")
    added = int(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True).stdout)
    assert added > 1                                    # dataclasses pulls in inspect, among others
    assert heavy["modules_loaded"] - bare["modules_loaded"] == added
    assert heavy["importtime_s"] > 0 and heavy["wall_s"] > heavy["importtime_s"]
