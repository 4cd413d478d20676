"""Record the key pools and expected outputs the benchmark checks against.

    python3 perfbench/record.py                 # rewrites perfbench/expected.json
    python3 perfbench/record.py verify-suite    # re-records one section

Run once on a known-good commit; the result is committed and every later
run compares the program's outputs with it.  Takes several minutes.

* density-scan: for every family and offset j, a digest of the parity bits
  through n = ``density_n(top, j)`` together with the density report at doubling
  checkpoints.
* verify-suite: for each verify target, a pool of parameter sets whose run
  time (best of three) lies in a band around a target time (TARGET_MS,
  else the median of the candidates) on the recording machine, so a run's
  cost hardly depends on which keys the seed draws; each key carries a
  digest of the JSON rows.  Three-path keys carry
  no digest: their three paths are compared with each other.
* cli-session: for every request, a digest of the exact stdout bytes and,
  for ``tables``, of the CSV file.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads as W

ROOT = W.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import copartitions as lib  # noqa: E402
from copartitions import cli  # noqa: E402


def record_density() -> dict:
    out = {}
    for abm, top, _ in W.DENSITY_MIX:
        params = lib.CpParams(*abm)
        digests = []
        for j in range(W.DENSITY_N[top][0]):
            n = W.density_n(top, j)
            parity = lib.copartition_parity(params, n)
            report = lib.density_report(params, W.density_checkpoints(n), parity)
            digests.append(W.density_digest(parity.bits, report.even_counts, report.rounded))
        out[W.density_class(abm, top)] = digests
        print("density", W.density_class(abm, top), flush=True)
    return out


# Target op times (ms).  Oracle and selfconj cost grows fast along each
# candidate chain, so a chain stops once past the band.  The kinds around
# the workload's p50 share one target and a narrow band, so the median op
# costs about the same whichever of them holds the median rank.  Other
# kinds take the median of their candidates.
TARGET_MS = {"oracle": 200.0, "selfconj": 180.0, "lemma13": 16.0, "eq4": 16.0,
             "guarantees-314": 16.0, "guarantees-516": 16.0, "both-parities": 16.0}
CHAINED = ("oracle", "selfconj")
BAND = (0.7, 1.4)
P50_BAND = (0.8, 1.25)


def verify_candidates() -> dict[str, list[list[str]]]:
    """Candidate keys per kind, as chains of increasing cost."""
    g = itertools.product
    flat = {
        "three-path": [f"{a},{b},{m},{n}" for a, b, m in g(range(1, 6), repeat=3)
                       for n in range(15, 26)],
        "parity-gf": [f"--amax {a} --mmax {m} --N {n}"
                      for (a, m), n in g(((1, 4), (2, 3), (2, 4)), range(300, 801, 5))],
        "andrews": [f"--N {n}" for n in range(200, 801, 2)],
        "guarantees-314": [f"--N {n}" for n in range(1000, 4001, 10)],
        "guarantees-516": [f"--N {n}" for n in range(1000, 4001, 5)],
        "progression": [f"--family {f} --p {p} --N {n}"
                        for f, ps in (("cp314", (7, 11, 19, 23)), ("cp516", (5, 11, 17, 23)))
                        for p in ps for n in range(3000, 12101, 200)],
        "eq4": [f"--mmax {m} --N {n}" for m, n in g((5, 6, 7, 8, 9, 10), range(1000, 4001, 50))],
        "lacunary": [f"--a {a} --N {n}" for a, n in g((1, 3, 5, 7), range(2000, 12101, 100))],
        "lemma13": [f"--Nmax {n}" for n in range(2000, 9001, 5)],
        "both-parities": [f"--mmax {m} --N {n}"
                          for m, n in g(range(5, 12), range(500, 4001, 25))],
    }
    chains = {kind: [[key] for key in keys] for kind, keys in flat.items()}
    chains["oracle"] = [[f"--amax {a} --bmax {b} --mmax {m} --nmax {n}" for n in range(8, 31)]
                        for a, b, m in g((1, 2, 3), (1, 2, 3, 4), (1, 2, 3))]
    chains["selfconj"] = [[f"--amax {a} --mmax {m} --nmax {n}" for n in range(10, 51)]
                          for a, m in g((1, 2, 3, 4), (2, 3, 4, 5, 6))]
    return chains


def _measure(kind: str, key: str):
    """Best of three timings of one op, and its rows digest."""
    call, _ = W.verify_op(lib, cli, W.Op(kind, key))
    best, result = float("inf"), None
    for _ in range(3):
        t = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t)
        if kind in CHAINED and best > BAND[1] * TARGET_MS[kind] / 1000:
            break
    if kind == "three-path":
        W.three_path_check(result)
        return best, None
    code, text = result
    doc = json.loads(text)
    if code != 0 or doc["verdict"] != "pass":
        raise SystemExit(f"verify {kind} {key} did not pass")
    return best, W.rows_digest(doc["rows"])


def record_verify() -> dict:
    out = {}
    for kind, chains in verify_candidates().items():
        measured = {}
        for chain in chains:
            for key in chain:
                measured[key] = _measure(kind, key)
                if kind in CHAINED and measured[key][0] > BAND[1] * TARGET_MS[kind] / 1000:
                    break
        target = TARGET_MS.get(kind, 1000 * statistics.median(s for s, _ in measured.values()))
        band = BAND if kind in CHAINED or kind not in TARGET_MS else P50_BAND
        lo, hi = band[0] * target / 1000, band[1] * target / 1000
        out[kind] = {k: d for k, (s, d) in measured.items() if lo <= s <= hi}
        print(f"verify {kind}: {len(out[kind])}/{len(measured)} keys, target {target:.1f} ms",
              flush=True)
    return out


def cli_requests() -> dict[str, list[str]]:
    g = itertools.product
    parity_families = [(1, 13, 14), (1, 11, 14), (3, 11, 14), (5, 9, 14), (1, 11, 12),
                       (1, 15, 16), (1, 19, 20), (1, 23, 24), (1, 31, 32), (1, 9, 10),
                       (1, 7, 8), (1, 5, 6), (1, 3, 4), (1, 2, 3), (2, 1, 3), (1, 27, 28)]
    json_families = [(1, 31, 32), (1, 15, 16), (3, 11, 14), (1, 5, 6), (2, 1, 3), (1, 9, 10),
                     (5, 9, 14), (1, 21, 22)]
    enum_sizes = {(2, 1, 3): range(20, 31), (1, 1, 2): range(14, 23), (3, 3, 4): range(30, 41),
                  (1, 2, 3): range(18, 27)}
    verify = ([f"verify lacunary --a {a} --N {n} --format json" for a, n in g((1, 3, 5), (2000, 4000))]
              + [f"verify eq4 --a {a} --m {m} --N 2000 --format json"
                 for a, m in ((1, 5), (2, 5), (2, 7), (3, 7), (5, 8), (5, 12))]
              + [f"verify progression --family {f} --p {p} --N 3000 --format json"
                 for f, p in (("cp314", 7), ("cp314", 11), ("cp516", 5), ("cp516", 11))]
              + [f"verify both-parities --a {a} --m {m} --N 2000 --format json"
                 for a, m in ((1, 7), (3, 10))]
              + [f"verify guarantees-516 --N {n} --format json" for n in (1000, 1500)]
              + [f"verify lemma13 --Nmax {n} --format json" for n in (1000, 2000)])
    return {
        "tiny": [f"coeffs {a} {b} {m} --n {k}" for a, b, m, k in
                 g((1, 2, 3), (1, 2, 3), (1, 2, 3, 4), (9, 20, 30))],
        "parity": ["coeffs {} {} {} --mode parity --n 32000 --format csv".format(*f)
                   for f in parity_families],
        "json": ["coeffs {} {} {} --n {} --format json".format(*f, n)
                 for f in json_families for n in (500, 1000, 1500, 2000)],
        "enumerate": ["enumerate {} {} {} {} --show-crank --format json".format(*f, n)
                      for f, sizes in enum_sizes.items() for n in sizes],
        "tables": [f"tables {k} --format csv --out {{out}}" for k in (1, 2, 3)],
        "verify": verify,
    }


def record_cli() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        env = W.child_env(ROOT, tmp / "cache")
        for kind, keys in cli_requests().items():
            out[kind] = {}
            for i, key in enumerate(keys):
                op = W.Op(kind, key)
                out_path = tmp / f"out-{kind}-{i}.csv"
                code, stdout = W.run_cli(W.cli_argv(op, out_path), ROOT, env)
                if code != 0:
                    raise SystemExit(f"{key} exited with {code}")
                entry = {"stdout": W.digest(stdout)}
                if "{out}" in key:
                    entry["csv"] = W.digest(out_path.read_bytes())
                out[kind][key] = entry
            print(f"cli {kind}: {len(keys)} requests", flush=True)
    return out


SECTIONS = {"verify-suite": record_verify, "cli-session": record_cli, "density-scan": record_density}


def main():
    only = sys.argv[1:] or list(SECTIONS)
    expected = W.load_expected() if W.EXPECTED_PATH.is_file() else {}
    for name in only:
        expected[name] = SECTIONS[name]()
    W.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
