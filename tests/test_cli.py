import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copartitions
from copartitions import CpParams, cli, copartition_parity, copartition_series
from oracles import (coeffs_reference, csv_reference, enumerate_csv_reference,
                     render_reference)
from test_golden import GOLDEN


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [["tables", "1", "--jobs", "2"],
                                  ["coeffs", "3", "1", "4", "--n", "5", "--mode", "parity",
                                   "--cache-dir", "D"],
                                  ["coeffs", "1", "1", "2", "--n", "2001", "--cap", "2001"],
                                  ["enumerate", "5", "6", "11", "61", "--cap", "61"]])
def test_removed_options_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCoeffs:
    def test_worked_example_text(self, capsys):
        code, out, _ = run(capsys, "coeffs", "2", "1", "3", "--n", "9", "--mode", "exact")
        assert code == 0
        assert out.splitlines()[-1] == "9 7"

    def test_constant_term(self, capsys):
        code, out, _ = run(capsys, "coeffs", "1", "1", "2", "--n", "0")
        assert code == 0
        assert out.splitlines() == ["0 1"]

    def test_parity_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "3", "1", "4", "--n", "3", "--mode", "parity")
        assert code == 0
        assert out.splitlines()[-1] == "3 0"

    @pytest.mark.parametrize("abm, n", [((1, 13, 14), 3000), ((2, 1, 3), 700), ((1, 1, 2), 0)])
    def test_parity_rows_are_the_series_bits(self, capsys, abm, n):
        parity = copartition_parity(CpParams(*abm), n)
        expected = [[k, parity.bit(k)] for k in range(n + 1)]
        argv = ["coeffs", *map(str, abm), "--n", str(n), "--mode", "parity"]
        assert json.loads(run(capsys, *argv, "--format", "json")[1])["rows"] == expected
        assert run(capsys, *argv, "--format", "csv")[1] == "n,value\n" + "".join(
            f"{k},{v}\n" for k, v in expected)
        assert run(capsys, *argv)[1] == "".join(f"{k} {v}\n" for k, v in expected)

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "coeffs", "2", "1", "3", "--n", "3", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "0,1"

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "coeffs", "2", "1", "3", "--n", "9", "--format", "json")
        doc = json.loads(out)
        assert doc["subcommand"] == "coeffs"
        assert doc["params"]["mode"] == "exact"
        assert doc["rows"][9] == [9, 7]
        assert doc["verdict"] is None

    def test_capacity_error_names_the_limit(self, capsys):
        code, _, err = run(capsys, "coeffs", "1", "1", "2", "--n", "8001")
        assert code == 2
        assert "8000" in err
        code, _, err = run(capsys, "coeffs", "1", "1", "2", "--n", "1000001", "--mode", "parity")
        assert code == 2
        assert "1000000" in err

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "coeffs", "0", "1", "2", "--n", "5")
        assert code == 2

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "coeffs", "2", "1", "3", "--n", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_writes_through_a_link_and_a_fifo(self, tmp_path, capsys):
        argv = ["coeffs", "2", "1", "3", "--n", "3"]
        _, printed, _ = run(capsys, *argv)
        (tmp_path / "file").write_text("old contents, longer than the table\n")
        (tmp_path / "link").symlink_to(tmp_path / "file")
        assert run(capsys, *argv, "--out", str(tmp_path / "link")) == (0, "", "")
        assert (tmp_path / "link").is_symlink()
        assert (tmp_path / "file").read_text() == printed
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(capsys, *argv, "--out", str(fifo)) == (0, "", "")
        reader.join(timeout=10)
        assert read == [printed] and fifo.is_fifo()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "file", "link"]


class TestEnumerate:
    def test_worked_example_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "1", "3", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "({5,2,2}, {}, {})"
        assert lines[-2] == "({}, {}, {1,1,1,1,1,1,1,1,1})"
        assert lines[-1] == "total 7"

    def test_size_zero(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1", "2", "0")
        assert out.splitlines()[0] == "({}, {}, {})"

    def test_crank_column(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1", "2", "4", "--show-crank")
        cranks = [int(line.split("crank=")[1].split()[0]) for line in out.splitlines()[:-1]]
        assert sorted(cranks, reverse=True) == [4, 2, 0, -2, -4]

    def test_conjugate_column_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "1", "3", "9",
                           "--show-conjugate", "--format", "json")
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["ground"] == [5, 2, 2]
        assert row["conjugate"]["sky"] == [5, 2, 2]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1", "2", "4",
                           "--show-crank", "--format", "csv")
        assert out.splitlines()[0] == "ground,rectangle,sky,crank"

    def test_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "1", "1", "2", "100")
        assert code == 2 and "100" in err
        code, _, _ = run(capsys, "enumerate", "5", "6", "11", "61")
        assert code == 0

    def test_walk_limit_names_the_count(self, capsys):
        # (1,1,1) through 60 has 43653250 copartitions; the guard counts them by the series
        code, out, err = run(capsys, "enumerate", "1", "1", "1", "60")
        assert (code, out) == (2, "")
        assert "43653250" in err and str(cli.WALK_CAP) in err
        code, _, err = run(capsys, "enumerate", "1", "1", "2", "8001")
        assert code == 2 and "8000" in err
        # (5,6,11) through 120: 1400 copartitions, 50 of size 120
        code, out, _ = run(capsys, "enumerate", "5", "6", "11", "120")
        assert code == 0 and out.splitlines()[-1] == "total 50"


class TestVerify:
    def test_progression_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "progression", "--family", "cp314",
                           "--p", "7", "--N", "3000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["rows"][0]["residues"] == [3, 17, 24, 31, 38, 45]

    def test_progression_requires_family(self, capsys):
        code, _, err = run(capsys, "verify", "progression", "--p", "7")
        assert code == 2

    def test_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "both-parities", "--a", "1", "--m", "2",
                           "--N", "100", "--witness-min", "99")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"

    def test_eq4_single_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "eq4", "--a", "1", "--m", "4", "--N", "400")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_lemma13(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma13", "--Nmax", "600", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "pass"
        assert doc["rows"][0]["checked"] == 100

    def test_lacunary(self, capsys):
        code, _, _ = run(capsys, "verify", "lacunary", "--a", "1", "--N", "500")
        assert code == 0

    def test_andrews(self, capsys):
        code, _, _ = run(capsys, "verify", "andrews", "--N", "104", "--sizes", "4,9")
        assert code == 0

    @pytest.mark.parametrize("sizes", ["x", "4,,9", "4,x", ","])
    def test_sizes_that_are_not_integers_are_rejected(self, capsys, sizes):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "andrews", "--N", "104", "--sizes", sizes])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --sizes" in captured.err and captured.out == ""

    @pytest.mark.parametrize("sizes, shown", [("4,9", [4, 9]), ("", [4, 9, 14])])
    def test_sizes_are_echoed_as_given(self, capsys, sizes, shown):
        # an empty --sizes means the default
        code, out, _ = run(capsys, "verify", "andrews", "--N", "104", "--sizes", sizes,
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["params"]["sizes"] == sizes
        assert [row["size"] for row in doc["rows"][1:]] == shown

    def test_guarantees_with_brute(self, capsys):
        code, out, _ = run(capsys, "verify", "guarantees-314", "--N", "400",
                           "--brute-max", "2000", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["rows"][1]["brute_max"] == 2000

    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--amax", "--bmax", "--mmax"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_ranges_are_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "oracle", flag, value, "--nmax", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be between 1 and ")
        assert err.endswith(f", got {value}\n") and err.count("\n") == 1

    def test_csv_not_offered(self, capsys):
        code, _, err = run(capsys, "verify", "lemma13", "--Nmax", "6", "--format", "csv")
        assert code == 2

    def test_selfconj_small(self, capsys):
        code, out, _ = run(capsys, "verify", "selfconj", "--amax", "1", "--mmax", "2",
                           "--nmax", "12", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "pass"

    def test_parity_gf_small(self, capsys):
        code, _, _ = run(capsys, "verify", "parity-gf", "--amax", "2", "--mmax", "3",
                         "--N", "150")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["eq4", "--a", "3", "--N", "50"],
        ["eq4", "--m", "5", "--N", "50"],
        ["both-parities", "--a", "1", "--N", "50"],
        ["both-parities", "--m", "4", "--N", "50"],
        ["eq4", "--a", "1", "--m", "4", "--mmax", "3", "--N", "50"],
        ["lacunary", "--m", "7"],
        ["selfconj", "--a", "2", "--m", "3"],
        ["guarantees-516", "--p", "5", "--N", "30"],
        ["andrews", "--witness-min", "3"],
        ["oracle", "--N", "10"],
        ["lemma13", "--Nmax", "60", "--brute-max", "100"],
    ], ids=" ".join)
    def test_flags_the_target_does_not_read_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify ") and err.count("\n") == 1

    def test_every_listed_flag_is_a_verify_option(self):
        options = vars(cli.build_parser().parse_args(["verify", "lemma13"]))
        for target, (flags, _) in cli.TARGETS.items():
            assert set(flags) <= set(options), target

    def test_oracle_small(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--amax", "2", "--bmax", "2",
                           "--mmax", "2", "--nmax", "10", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["rows"]) == 8


class TestTables:
    def test_table1_csv(self, capsys):
        code, out, _ = run(capsys, "tables", "1", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "n,cp_3_3_4,cp_1_1_6"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1000"
        assert len(first[1].split(".")[1]) == 3

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "tables", "1", "--format", "csv")
        _, second, _ = run(capsys, "tables", "1", "--format", "csv")
        assert first == second

    def test_out_file_and_sidecar(self, tmp_path, capsys):
        target = tmp_path / "table1.csv"
        code, _, _ = run(capsys, "tables", "1", "--format", "csv", "--out", str(target))
        assert code == 0
        assert target.exists()
        meta = json.loads((tmp_path / "table1.csv.meta.json").read_text())
        assert meta["which"] == 1
        assert "generated_at" in meta
        assert "generated_at" not in target.read_text()

    @pytest.mark.parametrize("blocked", ["table1.csv", "table1.csv.meta.json"])
    def test_a_failed_out_leaves_neither_file(self, tmp_path, capsys, blocked):
        # the one of the two paths that is a directory cannot be written
        target = tmp_path / "table1.csv"
        (tmp_path / blocked).mkdir()
        code, out, err = run(capsys, "tables", "1", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --out {str(tmp_path / blocked)!r}: Is a directory\n"
        assert [path.name for path in tmp_path.iterdir()] == [blocked]

    def test_a_failed_sidecar_keeps_a_linked_out(self, tmp_path, capsys):
        # the table went through the link before the sidecar failed; the link is not removed
        _, printed, _ = run(capsys, "tables", "1")
        (tmp_path / "file").write_text("old contents\n")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "file")
        (tmp_path / "link.meta.json").mkdir()
        code, out, _ = run(capsys, "tables", "1", "--out", str(link))
        assert (code, out) == (2, "")
        assert link.is_symlink() and (tmp_path / "file").read_text() == printed

    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_out_file_holds_what_stdout_prints(self, which, tmp_path, capsys):
        target = tmp_path / f"table{which}.csv"
        _, printed, _ = run(capsys, "tables", which, "--format", "csv")
        code, out, _ = run(capsys, "tables", which, "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == printed.encode()

    def test_json_includes_exact_counts(self, capsys):
        code, out, _ = run(capsys, "tables", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["columns"][0] == "n"
        assert len(doc["exact"]["cp_3_3_4"]) == 8


def fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(copartitions.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "copartitions.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("first, second", [
    (["verify", "guarantees-516", "--N", "40", "--brute-max", "300", "--format", "json"],
     ["coeffs", "2", "1", "3", "--n", "9", "--format", "csv"]),
    (["verify", "guarantees-516", "--N", "40"], ["verify", "guarantees-516"]),
    (["enumerate", "2", "1", "3", "9", "--show-crank"], ["verify", "lemma13", "--Nmax", "0"]),
    (["coeffs", "1", "1", "2", "--n", "2001"], ["coeffs", "1", "1", "2", "--n", "4"]),
])
def test_the_cached_parser_prints_what_fresh_processes_print(capsys, first, second):
    # main reuses one parser for the whole process; no call may see another's flags
    assert cli.build_parser() is cli.build_parser()
    assert [run(capsys, *first), run(capsys, *second)] == [fresh_process(first),
                                                            fresh_process(second)]


def flag_values(top):
    """Flag texts: in range up to top, zero, negative, or not a number."""
    return st.one_of(st.integers(-3, top).map(str),
                     st.sampled_from(["0", "-1", "-100000", "x", "", "1e3", "5.0", "0x10"]))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


touched_targets = st.one_of(
    st.tuples(st.sampled_from(["guarantees-314", "guarantees-516"]),
              optional("--N", flag_values(10 ** 5)),
              optional("--brute-max", flag_values(20000))),
    st.tuples(st.just("progression"),
              st.sampled_from(cli.FAMILIES + ("cp400", "")).map(lambda f: ["--family", f]),
              optional("--p", flag_values(1000)),
              optional("--N", flag_values(10 ** 5))),
    st.tuples(st.just("andrews"),
              optional("--sizes", st.sampled_from(["4,9", "", "x", "4,,9", "9,", "24", "3"])),
              optional("--N", flag_values(504))),
).map(lambda parts: ["verify", parts[0], *[word for flag in parts[1:] for word in flag]])


@given(touched_targets, st.sampled_from(["text", "json"]))
@settings(max_examples=60, deadline=None)
def test_the_exit_code_contract_holds_on_generated_flags(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--format", fmt])
        except SystemExit as exc:       # argparse rejects the flag text
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "Traceback" not in err.getvalue() and out.getvalue() == "", argv
    if "--sizes" in argv and argv[argv.index("--sizes") + 1] in ("x", "4,,9", "9,"):
        assert code == 2 and "argument --sizes" in err.getvalue(), argv


# Every subcommand and verify target, with flag values in range, zero,
# negative, not a number and large.  The in-range tops keep each run short.
# LARGE is past the limit of every size flag but those whose work does not
# grow with their value, which have no limit.
LARGE = "1000000000"
VERIFY_TOPS = {
    "selfconj": {"--amax": 3, "--mmax": 5, "--nmax": 40},
    "parity-gf": {"--amax": 3, "--mmax": 6, "--N": 300},
    "eq4": {"--a": 20, "--m": 20, "--mmax": 12, "--N": 2000},
    "lacunary": {"--a": 21, "--N": 5000},
    "progression": {"--p": 1000, "--N": 10 ** 5},
    "lemma13": {"--Nmax": 10 ** 5},
    "guarantees-314": {"--N": 10 ** 5, "--brute-max": 20000},
    "guarantees-516": {"--N": 10 ** 5, "--brute-max": 20000},
    "both-parities": {"--a": 20, "--m": 20, "--mmax": 12, "--N": 2000, "--witness-min": 2000},
    "andrews": {"--N": 504},
    "oracle": {"--amax": 3, "--bmax": 3, "--mmax": 5, "--nmax": 12},
}
UNGROWN = {"--a", "--m", "--witness-min"}     # the size flags with no limit
UNWRITABLE = [str(Path(__file__).parent), str(Path(__file__).parent / "no-such-dir" / "out"),
              ""]


def words(parts):
    return [word for part in parts for word in part]


def verify_argv(target):
    flags = [optional(flag, flag_values(top) | st.just(LARGE))
             for flag, top in VERIFY_TOPS[target].items()]
    if target == "progression":
        flags.append(optional("--family", st.sampled_from(cli.FAMILIES + ("cp400", ""))))
    if target == "andrews":
        flags.append(optional("--sizes", st.sampled_from(
            ["4,9,14", "24", "", "0", "-1", "x", "4,,9", "5", LARGE])))
    stray = st.sampled_from([[], ["--nmax", "5"], ["--Nmax", "5"], ["--p", "5"]])
    return st.tuples(*flags, stray).map(lambda parts: ["verify", target, *words(parts)])


def in_range_or_guarded(top):
    """Flag values for a size the subcommand limits: LARGE alone exceeds the limit."""
    return st.one_of(flag_values(top), st.just(LARGE))


@st.composite
def guarded_argv(draw, subcommand, top, extra):
    params = [draw(flag_values(40) | st.just(LARGE)) for _ in range(3)]
    size = draw(in_range_or_guarded(top))
    sized = ["--n", size] if subcommand == "coeffs" else [size]
    return [subcommand, *params, *sized, *words(draw(extra))]


every_argv = st.one_of(
    guarded_argv("coeffs", 600, st.tuples(optional("--mode", st.sampled_from(
        ["exact", "parity", "", "both"])))),
    guarded_argv("enumerate", 12, st.tuples(
        st.sampled_from([[], ["--show-crank"], ["--show-crank", "--show-conjugate"]]))),
    st.sampled_from(["1", "2", "3", "0", "4", "-1", "x", LARGE]).map(lambda w: ["tables", w]),
    *(verify_argv(target) for target in VERIFY_TOPS),
    st.sampled_from(["everything", "", "EQ4", "parity_gf", "guarantees-999", "-1"]).map(
        lambda target: ["verify", target]),
)


def run_contained(argv):
    """Exit code, stdout and stderr of one call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects the flag text
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_verify_target_and_flag_is_fuzzed():
    assert set(VERIFY_TOPS) == set(cli.TARGETS)
    for target, (flags, _) in cli.TARGETS.items():
        fuzzed = {flag.removeprefix("--").replace("-", "_") for flag in VERIFY_TOPS[target]}
        assert set(flags) - fuzzed <= {"family", "sizes"}, target


@given(every_argv, st.sampled_from(["text", "json", "csv"]),
       st.sampled_from([[]] + [["--out", path] for path in UNWRITABLE]))
@settings(max_examples=300, deadline=None)
@example(["verify", "lemma13", "--Nmax", LARGE, "--Nmax", "5"], "text", [])
@example(["verify", "oracle", "--nmax", LARGE, "--nmax", "5"], "text", [])
def test_the_exit_code_contract_holds_on_every_subcommand(argv, fmt, out):
    code, stdout, stderr = run_contained([*argv, "--format", fmt, *out])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr, argv
    if code == 2:
        assert stdout == "", argv
    if out and code != 2:
        raise AssertionError(f"wrote to an unwritable --out: {argv}")
    sized = VERIFY_TOPS.get(argv[1], {}) if argv[0] == "verify" else {}
    last = dict(zip(argv, argv[1:]))        # argparse reads a flag's last occurrence
    if any(last.get(flag) == LARGE for flag in sized.keys() - UNGROWN):
        assert code == 2, argv      # past the flag's limit


@pytest.mark.parametrize("path", UNWRITABLE)
@pytest.mark.parametrize("argv", [["coeffs", "2", "1", "3", "--n", "9"],
                                  ["enumerate", "2", "1", "3", "5"],
                                  ["tables", "1"],
                                  ["verify", "lemma13", "--Nmax", "60"]], ids=" ".join)
def test_an_unwritable_out_is_a_usage_error_on_every_subcommand(argv, path):
    code, stdout, stderr = run_contained([*argv, "--out", path])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "--out" in stderr and repr(path) in stderr


# Rendering against the renderers it replaced: json.dumps(indent=2) of one
# [n, value] list per row, the csv module and a plain join.
FORMATS = ("text", "csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["exact", "parity"])
@given(abm=st.tuples(*[st.integers(1, 6)] * 3), n=st.integers(0, 300))
@example(abm=(1, 1, 2), n=0)
@settings(max_examples=15, deadline=None)
def test_coeffs_prints_what_the_row_list_renderers_print(mode, fmt, abm, n):
    params = CpParams(*abm)
    if mode == "exact":
        values = copartition_series(params, n).coeffs
    else:
        values = [copartition_parity(params, n).bit(k) for k in range(n + 1)]
    argv = ["coeffs", *map(str, abm), "--n", str(n), "--mode", mode, "--format", fmt]
    doc_params = {"a": abm[0], "b": abm[1], "m": abm[2], "n": n, "mode": mode}
    assert run_contained(argv) == (0, coeffs_reference(doc_params, values, fmt), "")


SHOW = [[], ["--show-crank"], ["--show-conjugate"], ["--show-crank", "--show-conjugate"]]


@given(abm=st.tuples(*[st.integers(1, 6)] * 3), n=st.integers(0, 12), show=st.sampled_from(SHOW))
@settings(max_examples=40, deadline=None)
def test_enumerate_csv_is_what_the_csv_module_writes(abm, n, show):
    argv = ["enumerate", *map(str, abm), str(n), *show]
    doc = json.loads(run_contained([*argv, "--format", "json"])[1])
    header = ["ground", "rectangle", "sky"] + [flag.removeprefix("--show-") for flag in show]
    assert run_contained([*argv, "--format", "csv"]) == (
        0, enumerate_csv_reference(header, doc), "")


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_tables_csv_is_what_the_csv_module_writes(which):
    doc = json.loads(run_contained(["tables", which, "--format", "json"])[1])
    assert run_contained(["tables", which, "--format", "csv"]) == (
        0, csv_reference(doc["columns"], doc["rows"]), "")


def test_the_cli_does_not_import_the_csv_module():
    env = {**os.environ, "PYTHONPATH": str(Path(copartitions.__file__).resolve().parents[1])}
    code = "import sys, copartitions.cli; print(sorted({'csv', '_csv'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["exact", "parity"])
@pytest.mark.parametrize("n", ["0", "500"])
def test_coeffs_out_file_holds_what_stdout_prints(n, mode, fmt, tmp_path):
    argv = ["coeffs", "1", "11", "14", "--n", n, "--mode", mode, "--format", fmt]
    code, printed, _ = run_contained(argv)
    target = tmp_path / f"coeffs.{fmt}"
    assert code == 0 and run_contained([*argv, "--out", str(target)]) == (0, "", "")
    assert target.read_bytes() == printed.encode()


# enumerate, verify and tables against the text and CSV renderers that each
# branched on the subcommand, with a CSV header returned beside the document
@given(abm=st.tuples(*[st.integers(1, 6)] * 3), n=st.integers(0, 12), show=st.sampled_from(SHOW))
@settings(max_examples=40, deadline=None)
def test_enumerate_prints_what_the_branching_renderers_print(abm, n, show):
    argv = ["enumerate", *map(str, abm), str(n), *show]
    doc = json.loads(run_contained([*argv, "--format", "json"])[1])
    flags = ("--show-crank" in show, "--show-conjugate" in show)
    for fmt in ("text", "csv"):
        assert run_contained([*argv, "--format", fmt]) == (
            0, render_reference(doc, fmt, *flags), ""), fmt


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_tables_text_is_what_the_branching_renderer_prints(which):
    doc = json.loads(run_contained(["tables", which, "--format", "json"])[1])
    assert run_contained(["tables", which]) == (0, render_reference(doc, "text"), "")


SMALL_VERIFY = [
    "selfconj --amax 2 --mmax 3 --nmax 10", "parity-gf --amax 2 --mmax 3 --N 150",
    "eq4 --a 1 --m 4 --N 400", "lacunary --N 500", "progression --family cp314 --p 7 --N 3000",
    "lemma13 --Nmax 300", "guarantees-314 --N 400 --brute-max 2000", "guarantees-516 --N 300",
    "both-parities --a 1 --m 2 --N 100 --witness-min 99", "andrews --N 104 --sizes 4,9",
    "oracle --amax 2 --bmax 2 --mmax 2 --nmax 10"]


def test_every_verify_target_has_a_small_argv():
    assert {argv.split()[0] for argv in SMALL_VERIFY} == set(cli.TARGETS)


@pytest.mark.parametrize("argv", SMALL_VERIFY)
def test_verify_text_is_what_the_branching_renderer_prints(argv):
    argv = ["verify", *argv.split()]
    code, printed, _ = run_contained([*argv, "--format", "json"])
    assert run_contained(argv) == (code, render_reference(json.loads(printed), "text"), "")


# Size limits: one check reads every size flag's (low, limit) from the table
# before any command runs.
ROOT = Path(__file__).resolve().parents[1]
BOUNDED = [(target, key, low, limit) for target, (flags, _) in cli.TARGETS.items()
           for key, (_, low, limit) in flags.items() if low is not None]


def option(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("target, key, low, limit", [row for row in BOUNDED if row[3] is not None])
def test_a_size_past_its_limit_names_the_flag_and_the_limit(target, key, low, limit):
    code, out, err = run_contained(["verify", target, option(key), str(limit + 1)])
    assert (code, out) == (2, "")
    assert err == f"error: {option(key)} must be between {low} and {limit}, got {limit + 1}\n"


@pytest.mark.parametrize("argv, name", [
    *((["verify", target, option(key), str(low - 1)], option(key))
      for target, key, low, _ in BOUNDED),
    (["coeffs", "1", "1", "2", "--n", "-1"], "--n"),
    (["coeffs", "1", "1", "2", "--n", "-1", "--mode", "parity"], "--n"),
    (["enumerate", "1", "1", "2", "-1"], "n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_size_below_its_low_bound_names_its_flag(argv, name):
    code, out, err = run_contained(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1


def refused(argv):
    """The one check's message for argv, or None when it admits every size."""
    try:
        cli._check_sizes(cli.build_parser().parse_args(argv))
    except ValueError as exc:
        return str(exc)
    return None


def traffic():
    """Every verify argv the benchmark sends, the golden and small argv, the
    README's CLI examples and each target's defaults spelled out."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    suite = [["verify", kind, *key.split()] for kind, pool in expected["verify-suite"].items()
             if kind != "three-path" for key in pool]
    session = [key.split() for key in expected["cli-session"]["verify"]]
    readme = [line.split("#")[0].split()[1:] for line in (ROOT / "README.md").read_text()
              .splitlines() if re.match(r"copartitions (coeffs|enumerate|verify|tables) ", line)]
    defaults = [["verify", target, *words((option(key), str(spec[0])) for key, spec in flags.items()
                                          if spec[0] is not None)]
                for target, (flags, _) in cli.TARGETS.items()]
    return {"verify-suite": suite, "cli-session": session, "golden": [a.split() for a in GOLDEN],
            "small": [["verify", *argv.split()] for argv in SMALL_VERIFY],
            "readme": readme, "defaults": defaults}


TRAFFIC = traffic()


@pytest.mark.parametrize("source", TRAFFIC)
def test_the_limits_admit_the_traffic(source):
    assert TRAFFIC[source]
    assert [(argv, refused(argv)) for argv in TRAFFIC[source] if refused(argv)] == []


README_ROW = re.compile(r"`--([\w-]+)`(?: \[([^\]]+)\])?(?: (\d+)\.\.(\d*))?")


def readme_targets():
    """target -> {flag key: (default, low, limit)} as README's verify table gives it."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| target | flags")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        targets, flags = line.split("|")[1:3]
        spec = {key.replace("-", "_"): (default, *(int(v) if v else None for v in (low, limit)))
                for key, default, low, limit in README_ROW.findall(flags)}
        rows.update((target, spec) for target in re.findall(r"`([\w-]+)`", targets))
    return rows


def test_the_readme_verify_table_is_the_cli_table():
    expected = {target: {key: ("" if default is None else str(default), low, limit)
                         for key, (default, low, limit) in flags.items()}
                for target, (flags, _) in cli.TARGETS.items()}
    assert readme_targets() == expected
