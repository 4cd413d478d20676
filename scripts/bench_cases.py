"""Time the exact-kernel, GF(2)-kernel, enumeration and check cases and a
CLI import on one or more source trees.  A ``kernel`` case expands a family
by the exact kernel ``expand_factors``, a ``series`` or ``parity`` case asks
the library for its exact or mod-2 series, whatever route it takes, and a
``walk`` case counts every copartition of size <= n by enumeration
(``size_counts``).  A ``cli`` case runs ``copartitions.cli.main`` on its
argv in this process, with stdout going to a ``StringIO``: the series or
enumeration and the rendering of its rows.

    python scripts/bench_cases.py parent=../old/src@a14ab8e change=src

A side is NAME=SRC or NAME=SRC@COMMIT.  The document records each side's
commit: the COMMIT given, or else ``git rev-parse`` in SRC.  A side that
names none outside a git checkout (a ``git archive`` copy), whose source
does not compile to bytecode, or that has no ``copartitions.stats`` is a
usage error, exit 2, before any case runs.

Every NAME=SRC side is imported into this one interpreter, each as its own
package (``bench_NAME``), so the sides share the heap and the warm-up.  Per
case each side runs once to warm up, then the sides alternate SAMPLES times,
one call each, and which goes first flips every sample.  Per case the JSON
document on stdout holds each side's best and median wall time and the
counters that do not depend on the machine, from one more call under the
library's own recorder, ``copartitions.stats.recording()``, whose module
docstring says what each counts.

The process case starts SAMPLES fresh interpreters per side, alternating,
that each run ``import copartitions.cli`` under ``-X importtime``.  It
reports the best and median wall time from start to exit, the same for the
cumulative import time of ``copartitions.cli``, and ``modules_loaded``: the
``sys.modules`` entries after the import, a count that does not depend on
the machine.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SAMPLES = 11

CASES = {
    "exact 1 13 14 n=2000": ("series.exact", "kernel", (1, 13, 14, 2000)),
    "exact 2 1 3 n=2000": ("series.exact", "kernel", (2, 1, 3, 2000)),
    "exact 1 1 2 n=2000": ("series.exact", "kernel", (1, 1, 2, 2000)),
    "exact 1 1 1 n=2000": ("series.exact", "kernel", (1, 1, 1, 2000)),
    "exact 3 3 4 n=2000": ("series.exact", "kernel", (3, 3, 4, 2000)),
    "exact 1 11 14 n=2000": ("series.exact", "kernel", (1, 11, 14, 2000)),
    "series 1 1 1 n=2000": ("series.exact", "series", (1, 1, 1, 2000)),
    "series 2 2 2 n=780": ("series.exact", "series", (2, 2, 2, 780)),
    "series 3 3 2 n=780": ("series.exact", "series", (3, 3, 2, 780)),
    "series 1 1 3 n=780": ("series.exact", "series", (1, 1, 3, 780)),      # route 4
    "series 2 2 3 n=780": ("series.exact", "series", (2, 2, 3, 780)),      # route 4
    "series 1 1 4 n=780": ("series.exact", "series", (1, 1, 4, 780)),      # route 4
    "parity 1 11 14 n=32000": ("series.mod2", "parity", (1, 11, 14, 32000)),
    "parity 1 11 14 n=2000": ("series.mod2", "parity", (1, 11, 14, 2000)),
    "parity 2 3 7 n=12100": ("series.mod2", "parity", (2, 3, 7, 12100)),
    "parity 1 1 1 n=32000": ("series.mod2", "parity", (1, 1, 1, 32000)),
    "parity 3 3 4 n=100000": ("series.mod2", "parity", (3, 3, 4, 100000)),
    "parity 1 3 4 n=32000": ("series.mod2", "parity", (1, 3, 4, 32000)),     # theta quotient
    "parity 1 13 14 n=32000": ("series.mod2", "parity", (1, 13, 14, 32000)),  # sparse theta quotient
    "parity 1 1 6 n=15000": ("series.mod2", "parity", (1, 1, 6, 15000)),
    "parity 3 3 4 n=15000": ("series.mod2", "parity", (3, 3, 4, 15000)),
    "parity 2 2 12 n=32000": ("series.mod2", "parity", (2, 2, 12, 32000)),   # route 3
    "parity 2 6 4 n=32000": ("series.mod2", "parity", (2, 6, 4, 32000)),
    "parity 1 8 8 n=32000": ("series.mod2", "parity", (1, 8, 8, 32000)),
    "parity 1 2 3 n=100000": ("series.mod2", "parity", (1, 2, 3, 100000)),   # theta quotient
    "parity 11 11 2 n=2000": ("series.mod2", "parity", (11, 11, 2, 2000)),    # route 2, C = 11
    "parity 11 11 2 n=32000": ("series.mod2", "parity", (11, 11, 2, 32000)),
    "lacunary_odd_support_check 1 2600": ("parity", "lacunary_odd_support_check", (1, 2600)),
    "lacunary_odd_support_check 1 4200": ("parity", "lacunary_odd_support_check", (1, 4200)),
    "lacunary_odd_support_check 1 5800": ("parity", "lacunary_odd_support_check", (1, 5800)),
    "self_conjugate_parity 1 4 2000": ("series.mod2", "self_conjugate_parity", (1, 4, 2000)),
    "theta_product_identity_check 3 10 2000": ("parity", "theta_product_identity_check",
                                               (3, 10, 2000)),
    "odd_term_count_check 3 8 30": ("parity", "odd_term_count_check", (3, 8, 30)),
    "parity_gf_check 1 3 780": ("parity", "parity_gf_check", (1, 3, 780)),
    "form_equivalence_sweep_check 10000": ("parity", "form_equivalence_sweep_check", (10000,)),
    "self_conjugate_check 1 2 60": ("parity", "self_conjugate_check", (1, 2, 60)),
    "self_conjugate_check 1 1 40": ("parity", "self_conjugate_check", (1, 1, 40)),
    "even_guarantee_check cp314 5000": ("parity", "even_guarantee_check", ("cp314", 5000)),
    "even_guarantee_check cp516 5000": ("parity", "even_guarantee_check", ("cp516", 5000)),
    "even_guarantee_check cp314 5000 brute_max=3000": ("parity", "even_guarantee_check",
                                                        ("cp314", 5000, 3000)),
    "even_guarantee_check cp516 50000": ("parity", "even_guarantee_check", ("cp516", 50000)),
    "progression_check cp314 7 12100": ("parity", "progression_check", ("cp314", 7, 12100)),
    "walk 1 1 1 n=20": ("enumeration", "walk", (1, 1, 1, 20)),
    "walk 1 1 2 n=25": ("enumeration", "walk", (1, 1, 2, 25)),
    "walk 3 4 3 n=16": ("enumeration", "walk", (3, 4, 3, 16)),
    "cli coeffs 1 11 14 parity n=32000 csv": (
        "cli", "cli", ("coeffs", "1", "11", "14", "--mode", "parity", "--n", "32000",
                       "--format", "csv")),
    "cli coeffs 1 15 16 n=2000 json": (
        "cli", "cli", ("coeffs", "1", "15", "16", "--n", "2000", "--format", "json")),
    "cli enumerate 1 1 2 19 crank conjugate text": (
        "cli", "cli", ("enumerate", "1", "1", "2", "19", "--show-crank", "--show-conjugate")),
    "cli enumerate 1 1 2 19 crank conjugate csv": (
        "cli", "cli", ("enumerate", "1", "1", "2", "19", "--show-crank", "--show-conjugate",
                       "--format", "csv")),
}
PROCESS_CASE = "process import copartitions.cli"
COUNTERS = ("exact_passes", "coeff_bits", "theta_taps", "mod2_passes", "sums_passes",
            "mod2_bits", "sieve_values", "sieve_hits", "partitions_walked",
            "copartitions_counted")


def _load(name: str, src: Path):
    """Import the ``copartitions`` package under SRC as the package NAME, so
    that several source trees load side by side; its imports are relative."""
    init = src / "copartitions" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _call(package, kind: str, args: tuple):
    series = package.series
    if kind in ("kernel", "series", "parity", "walk"):
        *abm, n = args
        params = package.CpParams(*abm)
        if kind == "walk":
            return package.enumeration.size_counts(params, n)
        if kind == "kernel":
            return series.expand_factors(series.copartition_factors(params), n)
        if kind == "series":
            return series.copartition_series(params, n)
        return series.copartition_parity(params, n)
    if kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            return importlib.import_module(f"{package.__name__}.cli").main(list(args))
    return getattr(package, kind)(*args)


def _counted(kind: str, args: tuple, package=None) -> dict:
    """The counters of one run of the case on ``package`` (by default
    ``copartitions`` from the import path), as its recorder counts them."""
    if package is None:
        import copartitions as package
    with package.stats.recording() as counts:
        _call(package, kind, args)
    return {name: counts[name] for name in COUNTERS}


def timed(packages: dict) -> dict:
    """Per case, each side's call times: one warm-up each, then SAMPLES calls
    each, alternating, with the first side flipped every sample."""
    times = {name: {} for name in packages}
    for case, (_, kind, args) in CASES.items():
        for package in packages.values():
            _call(package, kind, args)
        for name in packages:
            times[name][case] = []
        for r in range(SAMPLES):
            for name in (list(packages) if r % 2 == 0 else list(packages)[::-1]):
                start = time.perf_counter()
                _call(packages[name], kind, args)
                times[name][case].append(time.perf_counter() - start)
    return times


def process_run(src: Path) -> dict:
    """One fresh interpreter with SRC alone on the import path runs
    ``import copartitions.cli`` under ``-X importtime``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, copartitions.cli; print(len(sys.modules))"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    wall_s = time.perf_counter() - start
    fields = [line.split("|") for line in done.stderr.splitlines()]
    cumulative_us = next(int(f[1]) for f in fields if f[-1].strip() == "copartitions.cli")
    return {"wall_s": wall_s, "importtime_s": cumulative_us / 1e6,
            "modules_loaded": int(done.stdout)}


def _best_median_ms(times: list, prefix: str = "") -> dict:
    return {f"{prefix}best_ms": round(1000 * min(times), 2),
            f"{prefix}median_ms": round(1000 * statistics.median(times), 2),
            "samples": len(times)}


def _side(text: str) -> tuple[str, Path, str]:
    """(NAME, SRC, COMMIT) of a NAME=SRC[@COMMIT] side; without @COMMIT the
    commit is git's HEAD at SRC, or empty outside a git checkout."""
    name, _, src = text.partition("=")
    src, _, commit = src.partition("@")
    if not commit:
        done = subprocess.run(["git", "-C", src, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else ""
    return name, Path(src).resolve(), commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="NAME=SRC[@COMMIT]")
    args = parser.parse_args(argv)
    if not args.sides:
        parser.error("give at least one NAME=SRC side")
    srcs, commits, packages = {}, {}, {}
    for side in args.sides:
        name, src, commits[name] = _side(side)
        if not commits[name]:
            parser.error(f"{side}: not a git checkout; name its commit as NAME=SRC@COMMIT")
        if not compileall.compile_dir(str(src / "copartitions"), quiet=1):
            parser.error(f"{src}: bytecode compilation failed")
        srcs[name], packages[name] = src, _load(f"bench_{name}", src)
        if not hasattr(packages[name], "stats"):
            parser.error(f"{src} has no copartitions.stats to record counters with")
    times = timed(packages)
    processes = {name: [] for name in srcs}
    for r in range(SAMPLES):
        for name in (list(srcs) if r % 2 == 0 else list(srcs)[::-1]):
            processes[name].append(process_run(srcs[name]))
    doc = {"python": sys.version.split()[0], "cpu_count": os.cpu_count(),
           "samples": SAMPLES, "sides": {}}
    for name, package in packages.items():
        cases = {}
        for case, (layer, kind, params) in CASES.items():
            cases[case] = {"layer": layer, "params": list(params),
                           **_best_median_ms(times[name][case]),
                           **_counted(kind, params, package)}
        started = processes[name]
        cases[PROCESS_CASE] = {"layer": "process", "params": [],
                               **_best_median_ms([p["wall_s"] for p in started]),
                               **_best_median_ms([p["importtime_s"] for p in started],
                                                 "importtime_"),
                               "modules_loaded": started[0]["modules_loaded"]}
        doc["sides"][name] = {"commit": commits[name], "cases": cases}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
