#!/usr/bin/env python3
"""Benchmark of the copartitions library and CLI.

    python3 perfbench/run.py --workload density-scan --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Runs from the root of a source checkout and imports the program from
``src/``.  One caller issues one op at a time (closed loop) for
``--seconds`` seconds, and at least MIN_OPS ops; every op's output is
checked against ``expected.json`` (see record.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Throughput and latencies are corrected for the host's speed: a fixed probe
job is timed between ops, and each op's latency is scaled by the probe's
nominal time over its local median time (``host_normalised``).  The raw
wall-clock figures are printed on the summary lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's public functions (spans.py), runs the same loop and reports the
per-layer metrics instead; the difference between the two runs' throughput
is the tracing overhead.  Workloads and their design: DESIGN.md.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as S
import workloads as W

ROOT = W.HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_OPS = 100
# A run that cannot reach MIN_OPS in --seconds goes on for at most this
# long (and then fails), so it still ends well within 180 s.
MAX_RUN_S = 150
# Fresh-interpreter imports timed before the loop and again after it: the
# host's speed shifts over tens of seconds, and sampling both ends of the
# run makes the median less a matter of the moment the run started.
SETUP_REPEATS = 8

# Host-speed probe.  On a shared host the CPU runs up to 1.8x slower for
# seconds to minutes at a time, as other tenants load it; that moves every
# wall-clock figure of a run by more than a program change worth finding.
# So a fixed job that does not touch the program is timed between ops, and
# each op's latency is scaled by NOMINAL / (median of the PROBE_WINDOW probe
# times nearest to the op).  In-process workloads probe after every op with
# a pure-Python partition enumeration; cli-session probes after every
# second request by starting a fresh interpreter that imports the stdlib
# modules the CLI needs.  The nominal times are the probes' times on an
# unloaded 2-vCPU host (DESIGN.md), so the corrected figures read as that
# host's wall-clock times.
PROBE_WINDOW = 9
PROBE_EVERY = {"density-scan": 1, "verify-suite": 1, "cli-session": 2}
PROBE_NOMINAL_S = {"density-scan": 0.00075, "verify-suite": 0.00075, "cli-session": 0.045}
PROBE_PROCESS_CODE = "import argparse, csv, json"

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "series.mod2.calls": "count",
    "series.mod2.busy_s": "s",
    "series.mod2.coeffs": "count",
    "series.mod2.seed_passes": "count",
    "series.mod2.seed_passes_per_s": "1/s",
    "series.exact.calls": "count",
    "series.exact.busy_s": "s",
    "series.exact.coeffs": "count",
    "series.exact.seed_passes": "count",
    "series.exact.out_bits": "bits",
    "series.mul.calls": "count",
    "series.mul.busy_s": "s",
    "enumeration.calls": "count",
    "enumeration.busy_s": "s",
    "enumeration.objects": "count",
    "enumeration.objects_per_s": "1/s",
    "parity.calls": "count",
    "parity.busy_s": "s",
    "parity.self_s": "s",
    "parity.factorize_calls": "count",
    "tables.calls": "count",
    "tables.busy_s": "s",
    "tables.self_s": "s",
    "tables.columns": "count",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.bytes_written": "bytes",
    "cache.repeated_key_share": "ratio",
    "cli.calls": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "process.import_s": "s",
    "process.start_exit_s": "s",
    "ops.busy_s": "s",
    "ops.p50_process_cli_share": "ratio",
    "mix.p50_window_sparse_share": "ratio",
    "mix.p90_window_dense_share": "ratio",
    "trace.throughput_ops_s": "ops/s",
    "trace.latency_p50_ms": "ms",
}


def percentile(values, p: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile of ``values``.

    Refuses (ValueError) unless at least ``min_beyond`` samples lie above
    the chosen rank, so p90 needs at least 100 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{p:g} of {n} samples leaves {n - rank} beyond it; need {min_beyond}")
    return ordered[rank - 1]


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def inprocess_probe() -> float:
    """Seconds to enumerate the 297 partitions of 17 and tally them by
    largest part: interpreter-bound work that calls nothing in the program.
    The collector is off, so the program's live objects do not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        tally: dict[int, int] = {}
        for p in _partitions(17, 17):
            tally[p[0]] = tally.get(p[0], 0) + len(p)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def process_probe(env: dict) -> float:
    """Seconds to start a fresh interpreter that imports a fixed set of
    stdlib modules and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE_PROCESS_CODE], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def host_normalised(latencies, probes, nominal: float, window: int = PROBE_WINDOW) -> list[float]:
    """Each latency scaled by ``nominal`` over the median of the ``window``
    probe times nearest to it.  ``probes`` holds (index of the op just
    before the probe, seconds), in op order."""
    if not probes:
        raise ValueError("no probe samples")
    at = [i for i, _ in probes]
    secs = [s for _, s in probes]
    window = min(window, len(secs))
    out = []
    for i, lat in enumerate(latencies):
        lo = min(max(0, bisect.bisect_left(at, i) - window // 2), len(secs) - window)
        out.append(lat * nominal / statistics.median(secs[lo:lo + window]))
    return out


def window_share(latencies, classes, lo: float, hi: float, wanted: str) -> float:
    """Share of ops ranked in [lo, hi] of the latency order whose class is ``wanted``."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    picked = order[math.ceil(lo * n) - 1 if lo > 0 else 0: math.ceil(hi * n)]
    return sum(classes[i] == wanted for i in picked) / len(picked)


def density_op_class(kind: str) -> str:
    m = int(kind.split("@")[0].split(",")[2])
    return "sparse" if m >= 12 else ("dense" if m <= 6 else "mid")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def time_imports(module: str, env: dict) -> list[float]:
    """Times for SETUP_REPEATS fresh interpreters to import ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, check=True)
        times.append(float(proc.stdout))
    return times


class Loop:
    """Closed loop over one workload's op stream."""

    def __init__(self, workload: str, seed: int, expected: dict, tracer, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.tracer = tracer
        self.run_dir = run_dir
        self.latencies: list[float] = []
        self.probes: list[tuple[int, float]] = []
        self.ok: list[bool] = []
        self.kinds: list[str] = []
        self.request_shares: list[float] = []
        self.repeats = self.keyed = 0
        self.output_bytes = 0
        self.bytes_written = 0
        self._cache_size = 0
        self.import_s: list[float] = []
        self.start_exit_s: list[float] = []
        self._errors_shown = 0
        if workload == "cli-session":
            self.cache_dir = run_dir / "cache"
            self.cache_dir.mkdir()
            self.env = W.child_env(ROOT, self.cache_dir)
            self.seen: set[str] = set()
        else:
            self.lib = importlib.import_module("copartitions")
            self.cli = importlib.import_module("copartitions.cli")

    def _report_error(self, op, exc: BaseException):
        if self._errors_shown < 5:
            self._errors_shown += 1
            print(f"op failed: {op.kind} {op.key}: {exc!r}", file=sys.stderr)
            if not isinstance(exc, W.OpFailed):
                traceback.print_exception(exc, file=sys.stderr)

    def run(self, seconds: float) -> float:
        stream = W.op_stream(self.workload, self.seed, self.expected)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= max(seconds, MAX_RUN_S) or (elapsed >= seconds and len(self.ok) >= MIN_OPS):
                return elapsed
            self.step(len(self.ok), next(stream))

    def step(self, i: int, op):
        if self.tracer is not None:
            self.tracer.op_id = i
        if self.workload == "cli-session":
            latency, ok = self._cli_step(i, op)
        else:
            latency, ok = self._inprocess_step(op)
        self.latencies.append(latency)
        self.ok.append(ok)
        self.kinds.append(op.kind)
        if i % PROBE_EVERY[self.workload] == PROBE_EVERY[self.workload] - 1:
            if self.workload == "cli-session":
                self.probes.append((i, process_probe(self.env)))
            else:
                self.probes.append((i, inprocess_probe()))

    def normalised(self) -> list[float]:
        """Host-normalised latencies, every failed op ranked as slow as the
        slowest op."""
        return ranked_latencies(self.ok, host_normalised(
            self.latencies, self.probes, PROBE_NOMINAL_S[self.workload]))

    def _inprocess_step(self, op):
        if self.workload == "density-scan":
            call, check = W.density_op(self.lib, op)
        else:
            call, check = W.verify_op(self.lib, self.cli, op)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing op is counted, the run goes on
            latency = time.perf_counter() - t0
            self._report_error(op, exc)
            return latency, False
        latency = time.perf_counter() - t0
        try:
            check(out, self.expected)
        except Exception as exc:
            self._report_error(op, exc)
            return latency, False
        if op.kind != "three-path" and self.workload == "verify-suite":
            self.output_bytes += len(out[1].encode())
        return latency, True

    def _cli_step(self, i: int, op):
        out_path = self.run_dir / f"out-{i}.csv"
        spans_path = self.run_dir / f"spans-{i}.json" if self.tracer is not None else None
        key = W.cache_key(op)
        if key is not None:
            self.keyed += 1
            self.repeats += key in self.seen
            self.seen.add(key)
        t0 = time.perf_counter()
        code, stdout = W.run_cli(W.cli_argv(op, out_path), ROOT, self.env, spans_path)
        t1 = time.perf_counter()
        ok = True
        try:
            W.cli_check(op, code, stdout, out_path, self.expected)
        except Exception as exc:
            self._report_error(op, exc)
            ok = False
        self.output_bytes += len(stdout) + (out_path.stat().st_size if out_path.exists() else 0)
        for path in (out_path, Path(str(out_path) + ".meta.json")):
            path.unlink(missing_ok=True)
        if spans_path is not None:
            share = self._merge_child(spans_path, t0, t1) if spans_path.exists() else 0.0
            self.request_shares.append(share)
        return t1 - t0, ok

    def _merge_child(self, spans_path: Path, t0: float, t1: float) -> float:
        """Add a child's spans under a process span; returns the request's
        share of wall time spent outside library calls."""
        data = json.loads(spans_path.read_text())
        spans_path.unlink()
        tracer = self.tracer
        first = len(tracer.start)
        proc = tracer.add_span("process", t0, t1)
        tracer.merge(data, proc)
        import_s = main_s = library_s = 0.0
        for idx in range(first + 1, len(tracer.start)):
            name = tracer.layer_names[tracer.layer[idx]]
            dur = tracer.end[idx] - tracer.start[idx]
            parent = tracer.parent[idx]
            if name == "process.import":
                import_s += dur
            elif name == "cli" and parent == proc:
                main_s += dur
            elif parent >= first and tracer.layer_names[tracer.layer[parent]] == "cli":
                library_s += dur
        self.import_s.append(import_s)
        self.start_exit_s.append((t1 - t0) - import_s - main_s)
        size = sum(p.stat().st_size for p in self.cache_dir.iterdir())
        self.bytes_written += size - self._cache_size
        self._cache_size = size
        return 1 - library_s / (t1 - t0)


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict:
    ranked = loop.normalised()
    if loop.workload == "cli-session":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_s": len(ranked) / sum(ranked),
        "latency_p50_ms": percentile(ranked, 50) * 1000,
        "latency_p90_ms": percentile(ranked, 90) * 1000,
        "ok_ops_ratio": sum(loop.ok) / len(loop.ok),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup_s,
    }


def ranked_latencies(ok, latencies) -> list[float]:
    """Latencies with every failed op ranked as slow as the slowest op."""
    worst = max(latencies)
    return [lat if good else worst for lat, good in zip(latencies, ok)]


def raw_summary(loop: Loop, elapsed: float) -> str:
    """Uncorrected wall-clock figures, for the log."""
    raw = ranked_latencies(loop.ok, loop.latencies)
    probe = statistics.median(s for _, s in loop.probes)
    return (f"raw wall clock: {len(raw) / elapsed:.4g} ops/s  p50 {percentile(raw, 50) * 1000:.4g} ms  "
            f"p90 {percentile(raw, 90) * 1000:.4g} ms  probe median {probe * 1000:.4g} ms "
            f"(nominal {PROBE_NOMINAL_S[loop.workload] * 1000:g} ms, {len(loop.probes)} samples)")


def per_layer_metrics(loop: Loop) -> dict:
    tracer = loop.tracer
    times = S.layer_times(tracer)
    c = tracer.counts

    def t(layer, field="busy_s"):
        return times.get(layer, {}).get(field, 0.0)

    def rate(num, den):
        return num / den if den else 0.0

    ranked = loop.normalised()
    m = {
        "series.mod2.calls": c["series.mod2.calls"],
        "series.mod2.busy_s": t("series.mod2"),
        "series.mod2.coeffs": c["series.mod2.coeffs"],
        "series.mod2.seed_passes": c["series.mod2.seed_passes"],
        "series.mod2.seed_passes_per_s": rate(c["series.mod2.seed_passes"], t("series.mod2")),
        "series.exact.calls": c["series.exact.calls"],
        "series.exact.busy_s": t("series.exact"),
        "series.exact.coeffs": c["series.exact.coeffs"],
        "series.exact.seed_passes": c["series.exact.seed_passes"],
        "series.exact.out_bits": c["series.exact.out_bits"],
        "series.mul.calls": c["series.mul.calls"],
        "series.mul.busy_s": t("series.mul"),
        "enumeration.calls": c["enumeration.calls"],
        "enumeration.busy_s": t("enumeration"),
        "enumeration.objects": c["enumeration.objects"],
        "enumeration.objects_per_s": rate(c["enumeration.objects"], t("enumeration")),
        "parity.calls": c["parity.calls"],
        "parity.busy_s": t("parity"),
        "parity.self_s": t("parity", "self_s"),
        "parity.factorize_calls": c["parity.factorize_calls"],
        "tables.calls": c["tables.calls"],
        "tables.busy_s": t("tables"),
        "tables.self_s": t("tables", "self_s"),
        "tables.columns": c["tables.columns"],
        "cache.lookups": c["cache.lookups"],
        "cache.hits": c["cache.hits"],
        "cache.hit_ratio": rate(c["cache.hits"], c["cache.lookups"]),
        "cache.load_s": t("cache.load"),
        "cache.store_s": t("cache.store"),
        "cache.bytes_written": loop.bytes_written,
        "cache.repeated_key_share": rate(loop.repeats, loop.keyed),
        "cli.calls": c["cli.calls"],
        "cli.main_s": t("cli"),
        "cli.self_s": t("cli", "self_s"),
        "cli.output_bytes": loop.output_bytes,
        "process.import_s": statistics.median(loop.import_s) if loop.import_s else 0.0,
        "process.start_exit_s": statistics.median(loop.start_exit_s) if loop.start_exit_s else 0.0,
        "ops.busy_s": sum(loop.latencies),
        "ops.p50_process_cli_share": p50_share(loop),
        "mix.p50_window_sparse_share": 0.0,
        "mix.p90_window_dense_share": 0.0,
        "trace.throughput_ops_s": len(ranked) / sum(ranked),
        "trace.latency_p50_ms": percentile(ranked, 50) * 1000,
    }
    if loop.workload == "density-scan":
        m.update(density_windows(loop))
    return m


def p50_share(loop: Loop) -> float:
    """Share of the median-latency request spent outside library spans."""
    if not loop.request_shares:
        return 0.0
    latencies = loop.normalised()
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    return loop.request_shares[order[math.ceil(0.5 * len(order)) - 1]]


def density_windows(loop: Loop) -> dict:
    classes = [density_op_class(k) for k in loop.kinds]
    return {
        "mix.p50_window_sparse_share": window_share(loop.normalised(), classes, 0.4, 0.6, "sparse"),
        "mix.p90_window_dense_share": window_share(loop.normalised(), classes, 0.8, 1.0, "dense"),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "copartitions" / "__init__.py").is_file():
        return fail(f"no program source at {SRC / 'copartitions'}")
    if not W.EXPECTED_PATH.is_file():
        return fail(f"missing {W.EXPECTED_PATH.name}; run record.py")
    if not compileall.compile_dir(str(SRC / "copartitions"), quiet=1):
        return fail("bytecode compilation failed")
    os.environ.pop("COPARTITIONS_CACHE_DIR", None)
    module = "copartitions.cli" if workload == "cli-session" else "copartitions"
    setup_samples = time_imports(module, W.child_env(ROOT, None))

    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("copartitions")
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported copartitions from {lib.__file__}, not from {SRC}")
    expected = W.load_expected()

    OUT_DIR.mkdir(exist_ok=True)
    run_dir = OUT_DIR / f"run-{workload}-{os.getpid()}"
    run_dir.mkdir()
    try:
        tracer = None
        if trace:
            importlib.import_module("copartitions.cli")
            tracer = S.Tracer()
            S.install(tracer)
        loop = Loop(workload, seed, expected, tracer, run_dir)
        elapsed = loop.run(seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_samples += time_imports(module, W.child_env(ROOT, None))

    attempted, failed = len(loop.ok), loop.ok.count(False)
    if attempted < MIN_OPS:
        return fail(f"only {attempted} ops in {elapsed:.0f} s; p90 needs {MIN_OPS}")
    print(f"workload {workload}  seed {seed}  ops {attempted}  failed {failed}  "
          f"failed_ops_ratio {failed / attempted:g}  elapsed {elapsed:.2f} s")
    print(raw_summary(loop, elapsed))
    if trace:
        metrics = per_layer_metrics(loop)
        units = PER_LAYER
        (OUT_DIR / f"spans-{workload}.json").write_text(json.dumps(tracer.export()))
        if tracer.absent:
            print("absent (metrics read 0): " + ", ".join(tracer.absent))
        for name, count in tracer.counts.items():
            if name.endswith(".hook_errors"):
                print(f"counter hook failed {count} times: {name}")
    else:
        metrics = end_to_end_metrics(loop, statistics.median(setup_samples))
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"{workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
