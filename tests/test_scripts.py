"""The benchmark script reads the library's counters and refuses bad sides."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copartitions
from copartitions import CpParams
from copartitions import enumeration, parity, series, stats

ROOT = Path(__file__).resolve().parents[1]
# A change that moves a counter edits this file in the same commit.
COMMITTED = json.loads((Path(__file__).parent / "bench_counters.json").read_text())


@pytest.fixture
def bench_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", ROOT / "scripts" / "bench_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_counts(**nonzero):
    return {**dict.fromkeys(("exact_passes", "coeff_bits", "theta_taps", "mod2_passes",
                             "sums_passes", "mod2_bits", "sieve_values", "sieve_hits",
                             "partitions_walked", "copartitions_counted"), 0),
            **nonzero}


def test_bench_cases_reads_the_counters_the_recorder_documents(bench_cases):
    documented = [line.split("``")[1] for line in stats.__doc__.splitlines()
                  if line.startswith("- ``")]
    assert tuple(documented) == bench_cases.COUNTERS


def test_bench_cases_counters_are_the_committed_ones(bench_cases):
    counted = {case: bench_cases._counted(kind, args)
               for case, (_, kind, args) in bench_cases.CASES.items()}
    assert counted == COMMITTED["cases"]


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != COMMITTED["modules_python"],
                    reason="modules_loaded was counted on another Python version")
def test_the_cli_import_loads_the_committed_modules():
    # under -S, so that no site .pth file has imported anything before
    code = ("import sys; before = set(sys.modules); import copartitions.cli; "
            "print(len(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(copartitions.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert int(done.stdout) == COMMITTED["modules_loaded"]


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


def test_bench_cases_refuses_a_source_without_the_recorder(bench_cases, tmp_path, capsys):
    # a stand-in source with no copartitions.stats is a usage error before any case runs
    (tmp_path / "copartitions").mkdir()
    (tmp_path / "copartitions" / "__init__.py").write_text("")
    with pytest.raises(SystemExit) as exit_info:
        bench_cases.main([f"bare={tmp_path}@a14ab8e"])
    assert exit_info.value.code == 2
    assert f"{tmp_path} has no copartitions.stats" in capsys.readouterr().err


def test_bench_cases_refuses_a_source_that_does_not_compile(bench_cases, tmp_path, capsys):
    (tmp_path / "copartitions").mkdir()
    (tmp_path / "copartitions" / "__init__.py").write_text("def broken(:\n")
    with pytest.raises(SystemExit) as exit_info:
        bench_cases.main([f"bad={tmp_path}@a14ab8e"])
    assert exit_info.value.code == 2
    assert f"{tmp_path}: bytecode compilation failed" in capsys.readouterr().err


@pytest.mark.parametrize("a,b,m,n,total", [(1, 1, 2, 25, 2696), (1, 1, 1, 20, 10980)])
def test_bench_cases_counts_each_copartition_the_oracle_visits(bench_cases, a, b, m, n, total):
    # one count per copartition of size <= n, the coefficient sum of the series;
    # the counting loop yields no partition through _partitions_upto
    params = CpParams(a, b, m)
    assert sum(series.copartition_series(params, n).coeffs) == total
    assert bench_cases._counted("walk", (a, b, m, n)) == expected_counts(copartitions_counted=total)
    assert bench_cases._counted("oracle_check", (params, n))["copartitions_counted"] == total
    assert enumeration.size_counts.__name__ == parity.size_counts.__name__ == "size_counts"


def triangular_and_pentagonal_terms(w):
    """The nonzero exponents up to w of theta(1, 4) (the triangular numbers)
    and of theta(1, 3) (the generalised pentagonal numbers)."""
    triangular = [j * (j + 1) // 2 for j in range(1, w + 2) if j * (j + 1) // 2 <= w]
    pentagonal = [e for k in range(-w - 1, w + 2) if 0 < (e := k * (3 * k - 1) // 2) <= w]
    return triangular, pentagonal


def test_bench_cases_counts_the_sparse_terms_of_the_theta_quotient(bench_cases):
    # (1, 3, 4) is E(q^8) / theta(1, 4) mod 2: theta(1, 4) on levels 0-11 of
    # n = 3000, E(x) = theta(1, 3) in x = q^8 at level 3, on 375 bits
    n = 3000
    passes = bits = 0
    for v in range(12):
        w = n >> v
        triangular, pentagonal = triangular_and_pentagonal_terms(w)
        run = len(triangular) + (len(pentagonal) if v == 3 else 0)
        passes, bits = passes + run, bits + run * w
    assert bench_cases._counted("parity", (1, 3, 4, n)) == expected_counts(
        mod2_passes=passes, mod2_bits=bits)
    assert series._level_product.__name__ == "_level_product"  # the wrapper is taken off again


def test_bench_cases_counts_the_finite_part_of_a_collapsed_family(bench_cases):
    # (1, 1, 1) is 1/((1 - q) E(q)) mod 2: the pentagonal terms of E(q) per level,
    # then 1/(1 - q) as one chain, a pass at each 2^i < 3000 on the 3000 bits of q/(1 - q)
    n = 3000
    passes = bits = 0
    for v in range(12):
        w = n >> v
        run = len(triangular_and_pentagonal_terms(w)[1])
        passes, bits = passes + run, bits + run * w
    assert bench_cases._counted("parity", (1, 1, 1, n)) == expected_counts(
        mod2_passes=passes, sums_passes=12, mod2_bits=bits + 12 * 3000)


def test_bench_cases_identity_checks_run_the_sums(bench_cases):
    # eq4 multiplies theta(3, 10) into the walk of the (3, 7, 10) sums on level 0:
    # its 19 terms on 500 bits each, and the sums' 129 chain passes on 46596 bits;
    # lacunary runs the sums alone
    sums = bench_cases._counted("expand_factors_mod2",
                                (series.copartition_factors(CpParams(3, 7, 10)), 500))
    assert sums == expected_counts(sums_passes=129, mod2_bits=46596)
    assert len(series._odd_steps(3, 10, 500)) == 19
    assert bench_cases._counted("theta_product_identity_check", (3, 10, 500)) == expected_counts(
        mod2_passes=19, sums_passes=129, mod2_bits=19 * 500 + 46596)
    # the odd-term check multiplies theta(3, 8) into 1/(1 - q) through 3600: its
    # 59 terms and the chain's 12 passes, at d = 2^i < 3600, all on 3600 bits
    assert len(series._odd_steps(3, 8, 3600)) == 59
    assert bench_cases._counted("odd_term_count_check", (3, 8, 30)) == expected_counts(
        mod2_passes=59, sums_passes=12, mod2_bits=(59 + 12) * 3600)
    counts = bench_cases._counted("lacunary_odd_support_check", (1, 2600))
    assert counts["mod2_passes"] == 0 and counts["sums_passes"] > 0


@pytest.mark.parametrize("abm, taps", [((1, 1, 1), 95454), ((1, 1, 2), 58674),
                                        ((1, 13, 14), 43168)])
def test_bench_cases_counts_the_taps_of_the_theta_quotient(bench_cases, abm, taps):
    # the recurrence x[j] -= t * x[j - e] taps x once per nonzero exponent e <= j
    # of theta: (1, 1, 1) divides by E(q) = theta(1, 3), whose 72 pentagonal
    # exponents up to 2000 take 2001 - e taps each
    n = 2000
    pentagonal = triangular_and_pentagonal_terms(n)[1]
    assert len(pentagonal) == 72 and sum(n + 1 - e for e in pentagonal) == 95454
    assert bench_cases._counted("series", (*abm, n))["theta_taps"] == taps
    assert bench_cases._counted("parity", (*abm, n))["theta_taps"] == 0


def test_bench_cases_counts_the_passes_of_the_sums(bench_cases):
    # (1, 11, 14) at 3000 takes the sums: 367 chain passes on 763616 bits, and no
    # sparse-term pass; the bits are the sum over the chain passes of the term's
    # width.  Euler's sum (q^12;q^14) runs as (x^6;x^7) on level 1, 86 chain passes
    # on 101561 bits where it took 203036 at full width (865091 bits in all)
    assert bench_cases._counted("parity", (1, 11, 14, 3000)) == expected_counts(
        sums_passes=367, mod2_bits=763616)
    assert series._chain_divide.__name__ == "_chain_divide"


def test_bench_cases_counts_the_values_and_prime_hits_of_the_sieve(bench_cases):
    # cp314 at 100 sieves 24k + 5 for k <= 100 with the primes up to isqrt(2405) = 49
    # that are not 1 mod 4: a prime 1 mod 4 never clears a flag
    values = range(5, 24 * 100 + 6, 24)
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p)) and p % 4 != 1]
    hits = sum(1 for v in values for p in primes if v % p == 0)
    # the check also reads the parity of (3, 1, 4), a theta quotient, through the level loop
    level_loop = {key: bench_cases._counted("parity", (3, 1, 4, 100))[key]
                  for key in ("mod2_passes", "mod2_bits")}
    assert level_loop["mod2_passes"] > 0
    assert bench_cases._counted("even_guarantee_check", ("cp314", 100)) == expected_counts(
        sieve_values=101, sieve_hits=hits, **level_loop)
    assert hits > 0 and parity._sieve.__name__ == "_sieve"


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


def test_bench_cases_cli_case_renders_in_process(bench_cases, capsys):
    # the series the cli case asks for, counted alike; its rows go to no stdout
    argv = ("coeffs", "1", "11", "14", "--mode", "parity", "--n", "3000", "--format", "csv")
    one = bench_cases._load("bench_cli", ROOT / "src")
    assert bench_cases._call(one, "cli", argv) == 0 and capsys.readouterr().out == ""
    assert bench_cases._counted("cli", argv, one) == \
        bench_cases._counted("parity", (1, 11, 14, 3000), one)


def test_bench_cases_takes_each_side_commit(bench_cases, tmp_path, capsys):
    # a side outside a git checkout names its commit, or the run is refused
    # before any case runs
    assert bench_cases._side(f"parent={tmp_path}@a14ab8e") == ("parent", tmp_path, "a14ab8e")
    assert bench_cases._side(f"parent={tmp_path}") == ("parent", tmp_path, "")
    name, src, commit = bench_cases._side(f"change={ROOT / 'src'}")
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    assert (name, src) == ("change", ROOT / "src") and commit == head.stdout.strip()
    with pytest.raises(SystemExit) as exit_info:
        bench_cases.main([f"parent={tmp_path}", f"change={ROOT / 'src'}"])
    assert exit_info.value.code == 2
    assert "not a git checkout" in capsys.readouterr().err


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
