"""Time the exact-kernel and check cases on one or more source trees.

    python scripts/bench_cases.py parent=../old/src change=src

Each NAME=SRC side runs ROUNDS times in its own interpreter with SRC on the
import path; the sides alternate, and which goes first flips every round.
Every run times each case REPEAT times after one warm-up.  Per case the JSON
document on stdout holds the best and median wall time over all runs and two
counters that do not depend on the machine: the exact-kernel passes run
(calls of ``series._scaled_add`` and ``series._divide``) and the partitions
the enumeration walk yields.  A side whose source has none of the wrapped
pass or walk functions is an error, so a renamed function cannot read as 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 2
REPEAT = 5

CASES = {
    "exact 1 13 14 n=2000": ("series.exact", "kernel", (1, 13, 14, 2000)),
    "exact 2 1 3 n=2000": ("series.exact", "kernel", (2, 1, 3, 2000)),
    "exact 1 1 2 n=2000": ("series.exact", "kernel", (1, 1, 2, 2000)),
    "exact 1 1 1 n=2000": ("series.exact", "kernel", (1, 1, 1, 2000)),
    "parity_gf_check 1 3 780": ("parity", "parity_gf_check", (1, 3, 780)),
    "form_equivalence_sweep_check 10000": ("parity", "form_equivalence_sweep_check", (10000,)),
    "self_conjugate_check 1 2 60": ("parity", "self_conjugate_check", (1, 2, 60)),
}


def _call(kind: str, args: tuple):
    import copartitions
    from copartitions import series

    if kind == "kernel":
        *abm, n = args
        return series.expand_factors(series.copartition_factors(copartitions.CpParams(*abm)), n)
    return getattr(copartitions, kind)(*args)


def _counted(kind: str, args: tuple) -> dict:
    """Run the case once with the pass and walk functions wrapped."""
    from copartitions import enumeration, parity, series

    counts = {"exact_passes": 0, "partitions_walked": 0}

    def passes(kernel):
        def run(*a):
            counts["exact_passes"] += 1
            return kernel(*a)
        return run

    def walk(partitions):
        def run(*a):
            for item in partitions(*a):
                counts["partitions_walked"] += 1
                yield item
        return run

    wraps = {"_scaled_add": passes, "_divide": passes, "_partitions_upto": walk}
    saved = [(module, name, vars(module)[name]) for module in (series, enumeration, parity)
             for name in wraps if name in vars(module)]
    for counter in (passes, walk):
        if not any(wraps[name] is counter for _, name, _ in saved):
            raise SystemExit(f"bench_cases: no {counter.__name__} function to count in this source")
    for module, name, real in saved:
        setattr(module, name, wraps[name](real))
    try:
        _call(kind, args)
    finally:
        for module, name, real in saved:
            setattr(module, name, real)
    return counts


def child() -> dict:
    """Time every case REPEAT times in this process, after one warm-up run."""
    out = {}
    for case, (_, kind, args) in CASES.items():
        _call(kind, args)
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            _call(kind, args)
            times.append(time.perf_counter() - start)
        out[case] = {"times_s": times, **_counted(kind, args)}
    return out


def _commit(src: Path) -> str:
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="NAME=SRC")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(child(), sys.stdout)
        return 0
    if not args.sides:
        parser.error("give at least one NAME=SRC side")
    sides = dict(side.split("=", 1) for side in args.sides)
    runs = {name: [] for name in sides}
    for r in range(ROUNDS):
        for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            env = {**os.environ, "PYTHONPATH": str(Path(sides[name]).resolve())}
            done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                                  stdout=subprocess.PIPE, text=True, check=True)
            runs[name].append(json.loads(done.stdout))
    doc = {"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
           "rounds": ROUNDS, "repeat": REPEAT, "sides": {}}
    for name, results in runs.items():
        cases = {}
        for case, (layer, _, params) in CASES.items():
            times = [t for result in results for t in result[case]["times_s"]]
            counters = {k: v for k, v in results[0][case].items() if k != "times_s"}
            cases[case] = {"layer": layer, "params": list(params),
                           "best_ms": round(1000 * min(times), 2),
                           "median_ms": round(1000 * statistics.median(times), 2),
                           "samples": len(times), **counters}
        doc["sides"][name] = {"commit": _commit(Path(sides[name])), "cases": cases}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
