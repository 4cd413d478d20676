"""Tests of the benchmark's own logic: percentiles, op streams, output
checks and span arithmetic.  Run with ``python -m pytest perfbench``."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


# --- percentiles and the sample-count rule ---------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(list(reversed(values)), 90) == 90


def test_p90_needs_ten_samples_beyond():
    assert run.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)


def test_failed_ops_rank_as_slowest():
    assert run.ranked_latencies([True, True, False], [0.1, 0.2, 0.05]) == [0.1, 0.2, 0.2]


# --- host-speed correction ---------------------------------------------------------

def test_host_normalised_removes_a_slow_phase():
    # 20 ops of equal cost; the host runs twice as slow for ops 10-19, and
    # the probe after each op sees the same slow-down
    lat = [0.010] * 10 + [0.020] * 10
    probes = [(i, 0.001) for i in range(10)] + [(i, 0.002) for i in range(10, 20)]
    norm = run.host_normalised(lat, probes, nominal=0.001, window=3)
    assert norm == pytest.approx([0.010] * 20)


def test_host_normalised_uses_the_median_of_nearby_probes():
    # one outlying probe among its neighbours is ignored; sparse probes
    # (one per two ops) still cover every op
    probes = [(1, 0.002), (3, 0.002), (5, 0.050), (7, 0.002), (9, 0.002)]
    norm = run.host_normalised([0.004] * 10, probes, nominal=0.001, window=3)
    assert norm == pytest.approx([0.002] * 10)
    with pytest.raises(ValueError):
        run.host_normalised([0.004], [], nominal=0.001)


def test_inprocess_probe_does_fixed_work():
    assert sum(1 for _ in run._partitions(17, 17)) == 297
    assert 0 < run.inprocess_probe() < 1


# --- seeded op streams -----------------------------------------------------------

def _fake_expected():
    return {
        "verify-suite": {k: {f"--N {i}": "x" for i in range(7)} for k in W.VERIFY_MIX},
        "cli-session": {k: {f"req {i}": {} for i in range(5)} for k in W.CLI_MIX},
        "density-scan": {W.density_class(abm, top): ["x"] * 9 for abm, top, _ in W.DENSITY_MIX},
    }


def _take(workload, seed, count):
    stream = W.op_stream(workload, seed, _fake_expected())
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert _take(workload, 7, 300) == _take(workload, 7, 300)
    assert _take(workload, 7, 300) != _take(workload, 8, 300)


def test_every_prefix_holds_the_mix():
    weights = W.VERIFY_MIX
    total = sum(weights.values())
    ops = _take("verify-suite", 3, 250)
    for length in (37, 100, 173, 250):
        got = Counter(op.kind for op in ops[:length])
        for kind, w in weights.items():
            assert abs(got[kind] - length * w / total) < 2


def test_spread_cycle_prefixes_cover_the_range_evenly():
    import random

    for seed in range(5):
        order = W.spread_cycle(128, random.Random(seed))
        first = [next(order) for _ in range(128)]
        assert sorted(first) == list(range(128))
        for length in (8, 16, 32):
            # a prefix of 2^k offsets holds one offset in every block of 128 / 2^k
            # consecutive offsets, counted circularly from the seeded shift
            shift = first[0]
            blocks = {((j - shift) % 128) // (128 // length) for j in first[:length]}
            assert blocks == set(range(length))
    odd = W.spread_cycle(9, random.Random(1))
    assert sorted(next(odd) for _ in range(9)) == list(range(9))


def test_keys_repeat_only_after_the_pool_is_used():
    ops = [op for op in _take("verify-suite", 5, 400) if op.kind == "oracle"]
    first = [op.key for op in ops[:7]]
    assert sorted(first) == sorted(f"--N {i}" for i in range(7))


# --- output checks ---------------------------------------------------------------

def test_density_check_catches_one_flipped_bit():
    import copartitions as lib

    op = W.Op("1,31,32@32000", "3")
    call, check = W.density_op(lib, op)
    parity, report = call()
    assert parity.trunc == W.density_n(32000, 3) == 32000 - 3 * 75
    expected = {"density-scan": {op.kind: [""] * 3 + [
        W.density_digest(parity.bits, report.even_counts, report.rounded)]}}
    check((parity, report), expected)
    flipped = lib.ParitySeries(parity.trunc, parity.bits ^ (1 << 1234))
    with pytest.raises(W.OpFailed):
        check((flipped, report), expected)


def test_cli_check_catches_one_changed_csv_byte(tmp_path):
    op = W.Op("tables", "tables 1 --format csv --out {out}")
    out = tmp_path / "t.csv"
    data = b"n,cp_3_3_4,cp_1_1_6\n1000,0.523,0.511\n"
    out.write_bytes(data)
    Path(str(out) + ".meta.json").write_text(json.dumps({"subcommand": "tables", "which": 1}))
    expected = {"cli-session": {"tables": {op.key: {"stdout": W.digest(b""), "csv": W.digest(data)}}}}
    W.cli_check(op, 0, b"", out, expected)
    out.write_bytes(data.replace(b"0.523", b"0.524"))
    with pytest.raises(W.OpFailed):
        W.cli_check(op, 0, b"", out, expected)


def test_cli_check_catches_changed_stdout(tmp_path):
    op = W.Op("tiny", "coeffs 2 1 3 --n 9")
    expected = {"cli-session": {"tiny": {op.key: {"stdout": W.digest(b"9 7\n")}}}}
    W.cli_check(op, 0, b"9 7\n", tmp_path / "unused", expected)
    with pytest.raises(W.OpFailed):
        W.cli_check(op, 0, b"9 8\n", tmp_path / "unused", expected)
    with pytest.raises(W.OpFailed):
        W.cli_check(op, 1, b"9 7\n", tmp_path / "unused", expected)


def test_three_path_check_catches_disagreement():
    import copartitions as lib

    counts, series, parity = W.three_path_call(lib, 2, 1, 3, 12)
    W.three_path_check((counts, series, parity))
    counts[9] += 1
    with pytest.raises(W.OpFailed):
        W.three_path_check((counts, series, parity))


# --- spans -------------------------------------------------------------------------

def test_self_time_on_nested_spans():
    t = spans.Tracer()
    root = t.add_span("cli", 0.0, 10.0)
    b = t.add_span("parity", 1.0, 5.0, root)
    t.add_span("series.mod2", 2.0, 3.0, b)
    t.add_span("parity", 6.0, 7.0, root)
    times = spans.layer_times(t)
    assert times["cli"] == {"spans": 1, "busy_s": 10.0, "self_s": 10.0 - 4.0 - 1.0}
    assert times["parity"] == {"spans": 2, "busy_s": 5.0, "self_s": 3.0 + 1.0}
    assert times["series.mod2"] == {"spans": 1, "busy_s": 1.0, "self_s": 1.0}


def test_busy_time_counts_only_outermost_spans_of_a_layer():
    t = spans.Tracer()
    outer = t.add_span("parity", 0.0, 10.0)
    mid = t.add_span("enumeration", 1.0, 6.0, outer)
    t.add_span("parity", 2.0, 4.0, mid)
    times = spans.layer_times(t)
    assert times["parity"]["busy_s"] == 10.0
    assert times["parity"]["self_s"] == (10.0 - 5.0) + 2.0
    assert times["enumeration"]["self_s"] == 3.0


def test_wrapper_nests_same_layer_calls_without_spans():
    t = spans.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("parity", inner, counter="parity.inner_calls")

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = t.wrap("parity", outer)
    assert wrapped_outer(1) == 4
    assert wrapped_inner(1) == 2
    assert t.counts["parity.calls"] == 2
    assert t.counts["parity.inner_calls"] == 2
    assert len(t.start) == 2


def test_merge_reparents_child_spans():
    child = spans.Tracer()
    main = child.add_span("cli", 1.0, 4.0)
    child.add_span("series.exact", 2.0, 3.0, main)
    child.counts["cli.calls"] = 1
    parent = spans.Tracer()
    proc = parent.add_span("process", 0.0, 5.0)
    parent.merge(json.loads(json.dumps(child.export())), proc)
    times = spans.layer_times(parent)
    assert times["process"]["self_s"] == 2.0
    assert times["cli"]["self_s"] == 2.0
    assert parent.counts["cli.calls"] == 1


def test_seed_passes_rule():
    from copartitions import CpParams, copartition_factors

    # (q^2;q) runs one pass per term 2..n; each 1/(q;q) term e runs
    # floor(log2(n/e)) + 1 passes
    n = 10
    per_reciprocal = sum((n // e).bit_length() for e in range(1, n + 1))
    assert spans.seed_passes(copartition_factors(CpParams(1, 1, 1)), n) == 9 + 2 * per_reciprocal


# --- the metric list matches BENCHMARK.json ------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
