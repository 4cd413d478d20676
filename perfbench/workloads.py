"""Seeded op streams for the three workloads, how each op runs, and the
check on its output.

Every workload is a closed loop: one caller issues one op at a time.  The
seed only chooses inputs; the program sees nothing but the generated ops.

Op kinds are interleaved by smooth weighted round robin, so every prefix of
the stream holds each kind in close to its share.  A run then does the
same mix of work whatever the seed and wherever the deadline cuts it, which
keeps throughput and percentiles steady.  Within a kind, keys come from a
finite pool recorded in ``expected.json``, drawn as a seeded permutation
(density-scan: a seeded low-discrepancy order, see ``spread_cycle``) and
cycled; a key repeats inside one run only after the whole pool is used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("density-scan", "verify-suite", "cli-session")

# density-scan: (a, b, m), top n, weight per 100 ops.  The class is decided
# by m (sparse m >= 12, dense m <= 6).  Sparse ops are 66.5% of the mix and
# rank below all but the short table-1 ops, dense ops at 32000 and 10^5 are
# 27% and rank on top, so p50 falls on a sparse op and p90 on a dense one,
# each over 10% of ops from the class boundary (measured ranks: DESIGN.md).
DENSITY_MIX = (
    # table 3, sparse m >= 16 (the fastest ops)
    *(((1, m - 1, m), 32000, 3.0) for m in range(16, 33, 2)),
    # table 1: dense but short (n = 15000); (1,1,6) ranks below the m = 14
    # ops, (3,3,4) among them, so it stays rare
    ((1, 1, 6), 15000, 2.5),
    ((3, 3, 4), 15000, 1.0),
    # table 2 and the m = 14 column of table 3: most of the p50 ranks
    ((1, 11, 14), 32000, 9.0),
    ((1, 13, 14), 32000, 9.0),
    ((3, 11, 14), 32000, 9.0),
    ((5, 9, 14), 32000, 9.0),
    ((1, 11, 12), 32000, 3.5),
    # table 3, 7 <= m <= 10: neither class, kept rare between the two
    *(((1, m - 1, m), 32000, 1.0) for m in range(7, 11)),
    # table 3, dense
    ((1, 5, 6), 32000, 4.0),
    ((1, 4, 5), 32000, 4.0),
    ((1, 3, 4), 32000, 4.0),
    ((1, 2, 3), 32000, 4.0),
    # the dense families outside the tables
    ((2, 1, 3), 32000, 3.5),
    ((1, 1, 2), 32000, 3.5),
    ((1, 1, 1), 32000, 1.5),
    # deep scans; each op is over 0.5 s, so more of them, or heavier ones,
    # would make the op count of a fixed-length run jumpy
    ((3, 3, 4), 100000, 1.0),
    ((1, 2, 3), 100000, 0.5),
)
# Each op scans to n = top - j * step for a distinct j < count, so no
# (family, n) key repeats within a run.  At the table checkpoints the n
# values span the top 30% below the checkpoint, so each family's op cost is
# a band about 1.8x wide instead of a point: neighbouring families' bands
# overlap and the latency order has no plateau or gap around p50 and p90.
# A quantile that sits on a plateau of equally costly ops jumps by the
# host's whole slow-down factor as soon as more than half of those ops run
# in a slow phase; on a smooth cost distribution it moves only in step with
# the share of slow ops, as throughput does.  The 10^5 ops lie above p90
# and keep n close to 10^5.
DENSITY_N = {15000: (128, 35), 32000: (128, 75), 100000: (32, 1)}


def density_n(top: int, j: int) -> int:
    count, step = DENSITY_N[top]
    if not 0 <= j < count:
        raise ValueError(f"offset {j} outside the pool of {count}")
    return top - j * step

# verify-suite, weight per 100 ops, cheapest kinds first.  The five kinds
# recorded at one 16 ms target fill ranks 30-64%, so p50 falls among
# equally costly ops; selfconj and oracle (180-200 ms) fill the top 17%.
VERIFY_MIX = {
    "three-path": 18, "lacunary": 5, "progression": 7,
    "lemma13": 7, "eq4": 7, "guarantees-314": 6, "guarantees-516": 6, "both-parities": 8,
    "andrews": 9, "parity-gf": 10, "selfconj": 8, "oracle": 9,
}

CLI_MIX = {"tiny": 20, "parity": 25, "json": 15, "enumerate": 15, "tables": 10, "verify": 15}


def density_class(abm, top) -> str:
    return "{},{},{}@{}".format(*abm, top)


def density_checkpoints(n: int) -> list[int]:
    """Doubling checkpoints from 1000 below n, then n itself."""
    out, c = [], 1000
    while c < n:
        out.append(c)
        c *= 2
    return out + [n]


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def density_digest(bits: int, even_counts, rounded) -> str:
    return digest(f"{bits:x};{','.join(map(str, even_counts))};{','.join(rounded)}")


def rows_digest(rows) -> str:
    return digest(json.dumps(rows, sort_keys=True))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# --- op streams -------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str
    key: str


def smooth_round_robin(weights: dict[str, float], rng: random.Random):
    """Yield kinds so every prefix holds each kind close to its weight share.

    The seeded starting credits give each seed its own interleaving.
    """
    total = sum(weights.values())
    credit = {k: rng.random() * total for k in weights}
    while True:
        for k, w in weights.items():
            credit[k] += w
        pick = max(credit, key=credit.get)
        credit[pick] -= total
        yield pick


def spread_cycle(count: int, rng: random.Random):
    """Offsets 0..count-1, cycled, in an order whose every prefix is spread
    evenly over the range: bit-reversed counting, shifted circularly by a
    seeded amount.

    density-scan op cost grows with the offset's n, so a run then holds the
    same spread of costs within each family whatever the seed; with a seeded
    permutation the few dense ops near p90 were left to chance, and in a
    model of the op costs p90 ranged over 16% across seeds (DESIGN.md).
    """
    bits = max(1, (count - 1).bit_length())
    shift = rng.randrange(count)
    order = [(shift + r) % count
             for r in (int(f"{t:0{bits}b}"[::-1], 2) for t in range(1 << bits)) if r < count]
    while True:
        yield from order


def cycled(pool, rng: random.Random):
    pool = list(pool)
    while True:
        order = pool[:]
        rng.shuffle(order)
        yield from order


def op_stream(workload: str, seed: int, expected: dict):
    """Infinite seeded op stream of a workload; same seed, same ops."""
    pools = expected[workload]
    if workload == "density-scan":
        weights = {density_class(abm, top): w for abm, top, w in DENSITY_MIX}
        keys = {k: map(str, spread_cycle(len(pools[k]), random.Random(f"{seed}:{k}")))
                for k in weights}
    else:
        weights = VERIFY_MIX if workload == "verify-suite" else CLI_MIX
        keys = {k: cycled(sorted(pools[k]), random.Random(f"{seed}:{k}")) for k in weights}
    for kind in smooth_round_robin(weights, random.Random(f"{seed}:{workload}")):
        yield Op(kind, next(keys[kind]))


# --- running and checking ops ---------------------------------------------------

class OpFailed(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise OpFailed(what)


def density_op(lib, op: Op):
    """Returns (timed call, check)."""
    a, b, m = map(int, op.kind.split("@")[0].split(","))
    n = density_n(int(op.kind.split("@")[1]), int(op.key))
    params = lib.CpParams(a, b, m)

    def call():
        parity = lib.copartition_parity(params, n)
        return parity, lib.density_report(params, density_checkpoints(n), parity)

    def check(out, expected):
        parity, report = out
        want = expected["density-scan"][op.kind][int(op.key)]
        _require(parity.trunc == n, "truncation")
        _require(density_digest(parity.bits, report.even_counts, report.rounded) == want,
                 "parity digest")

    return call, check


def three_path_call(lib, a, b, m, n):
    params = lib.CpParams(a, b, m)
    counts = [lib.count_copartitions(params, k) for k in range(n + 1)]
    return counts, lib.copartition_series(params, n), lib.copartition_parity(params, n)


def three_path_check(out):
    counts, series, parity = out
    n = len(counts) - 1
    _require(all(series[k] == counts[k] for k in range(n + 1)), "series vs enumeration")
    _require(all(parity.bit(k) == counts[k] & 1 for k in range(n + 1)), "parity vs enumeration")


def verify_op(lib, cli, op: Op):
    if op.kind == "three-path":
        a, b, m, n = map(int, op.key.split(","))
        return (lambda: three_path_call(lib, a, b, m, n)), (lambda out, expected: three_path_check(out))
    argv = ["verify", op.kind] + op.key.split() + ["--format", "json"]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, buf.getvalue()

    def check(out, expected):
        code, text = out
        _require(code == 0, f"exit code {code}")
        doc = json.loads(text)
        _require(doc["verdict"] == "pass", "verdict")
        _require(rows_digest(doc["rows"]) == expected["verify-suite"][op.kind][op.key], "rows digest")

    return call, check


def cli_argv(op: Op, out_path: Path) -> list[str]:
    return op.key.replace("{out}", str(out_path)).split()


def cli_check(op: Op, code: int, stdout: bytes, out_path: Path, expected: dict):
    want = expected["cli-session"][op.kind][op.key]
    _require(code == 0, f"exit code {code}")
    _require(digest(stdout) == want["stdout"], "stdout bytes")
    if "csv" in want:
        _require(digest(out_path.read_bytes()) == want["csv"], "csv bytes")
        meta = json.loads(Path(str(out_path) + ".meta.json").read_text())
        _require(meta["subcommand"] == "tables" and meta["which"] == int(op.key.split()[1]),
                 "meta sidecar")


def cache_key(op: Op) -> str | None:
    """What a cli request looks up in the disk cache, if anything: one parity
    entry, or a table's set of column entries."""
    return op.key if op.kind in ("parity", "tables") else None


def child_env(root: Path, cache_dir: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "COPARTITIONS_CACHE_DIR")}
    env["PYTHONPATH"] = str(root / "src")
    if cache_dir is not None:
        env["COPARTITIONS_CACHE_DIR"] = str(cache_dir)
    return env


def run_cli(argv: list[str], root: Path, env: dict, spans_path: Path | None = None):
    """Run one CLI request as a fresh process; returns (exit code, stdout)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "copartitions.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *argv]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    return proc.returncode, proc.stdout
