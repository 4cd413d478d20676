"""Command-line front end: coefficients, enumeration, verification, tables.

Exit codes, all set by ``main``: 1 when the document's verdict is "fail"
(only verify's has one), 2 on a refusal, else 0.  Every refusal is a
ValueError (an OSError writing stdout alike) that ``main`` prints as one
``error:`` line.  Among them are an --out that cannot be written: ``error:
cannot write --out PATH: REASON``, PATH as given (plus ``.meta.json`` for
the tables sidecar), and a size outside its bounds: before any command
runs, one check reads each size flag's (low, limit) from one table and
names the flag, its bounds and the value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from itertools import chain
from math import gcd

from . import __version__
from .enumeration import enumerate_copartitions
from .params import CpParams
from .parity import (
    FAMILIES,
    andrews_mod5_check,
    both_parities_prefix_check,
    even_guarantee_check,
    form_equivalence_sweep_check,
    lacunary_odd_support_check,
    merge_checks,
    oracle_check,
    parity_gf_check,
    progression_check,
    self_conjugate_check,
    theta_product_identity_check,
)
from .series import copartition_parity, copartition_series
from .tables import generate_table

EXACT_CAP = 8000           # n of an exact series: coeffs --mode exact, enumerate
PARITY_CAP = 10 ** 6       # n of a mod-2 series
WALK_CAP = 500_000         # copartitions of size <= n that enumerate may walk


def _sizes(text: str) -> str:
    """--sizes as given, once each comma-separated entry is an int; empty means the default."""
    try:
        for entry in text.split(",") if text else ():
            int(entry)
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    return text


@cache     # built once per process: a parse costs about 1/20 of a build
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copartitions",
        description="Copartition counting functions: coefficients, enumeration, "
                    "parity verification, and density tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")

    p = sub.add_parser("coeffs", help="counting-series coefficients, exact or mod 2")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--n", type=int, required=True, help="last exponent to report")
    p.add_argument("--mode", choices=("exact", "parity"), default="exact")
    add_io(p)

    p = sub.add_parser("enumerate", help="list the copartitions of one size")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--show-crank", action="store_true")
    p.add_argument("--show-conjugate", action="store_true")
    add_io(p)

    p = sub.add_parser("verify", help="run one verification target")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--Nmax", type=int)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--amax", type=int)
    p.add_argument("--bmax", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--witness-min", type=int)
    p.add_argument("--sizes", type=_sizes, help="comma-separated crank sizes, e.g. 4,9,14")
    p.add_argument("--brute-max", type=int,
                   help="also sweep predicate vs brute search up to this bound")
    add_io(p)

    p = sub.add_parser("tables", help="regenerate a density table from scratch")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    add_io(p)

    return parser


TRIPLE = ("ground", "rectangle", "sky")


def _fmt_parts(parts) -> str:
    return "{" + ",".join(map(str, parts)) + "}"


def _triple(cp) -> dict:
    return {k: list(getattr(cp, k)) for k in TRIPLE}


def _cmd_coeffs(args):
    params = CpParams(args.a, args.b, args.m)
    values = (copartition_series(params, args.n).coeffs if args.mode == "exact"
              else copartition_parity(params, args.n).bit_values())
    return {
        "params": {"a": params.a, "b": params.b, "m": params.m, "n": args.n, "mode": args.mode},
        "rows": values,     # rendered as [n, value] rows
    }


def _cmd_enumerate(args):
    params = CpParams(args.a, args.b, args.m)
    walked = sum(copartition_series(params, args.n).coeffs)
    if walked > WALK_CAP:
        raise ValueError(f"n = {args.n} would walk {walked} copartitions (limit {WALK_CAP})")
    rows = []
    for cp in enumerate_copartitions(params, args.n):
        row = _triple(cp)
        if args.show_crank:
            row["crank"] = cp.crank()
        if args.show_conjugate:
            row["conjugate"] = _triple(cp.conjugate())
        rows.append(row)
    return {"params": {"a": params.a, "b": params.b, "m": params.m, "n": args.n}, "rows": rows}


def _pairs(o):
    """The (a, m) pair given by --a and --m, or every coprime pair up to --mmax."""
    if o.a is not None and o.m is not None:
        return [(o.a, o.m)]
    return [(a, m) for m in range(2, o.mmax + 1) for a in range(1, m) if gcd(a, m) == 1]


def _grid(o):
    return [(a, m) for a in range(1, o.amax + 1) for m in range(2, o.mmax + 1)]


# target -> ({each flag it reads: (default, low, limit)}, the library checks
# it runs); a default of None means none.  A size lies in low..limit: low 0
# for a count, 1 for a parameter or a grid bound; limit None where the value
# does not grow the work.  --family and --sizes are no sizes (low None).  With
# every flag at its limit, each target ran within 4 s and 60 MB as a whole
# process on a 2-core host (BENCH_27.json; parity-gf's --N BENCH_32.json;
# progression's --N and lemma13's --Nmax BENCH_33.json).
TARGETS = {
    "selfconj": ({"amax": (3, 1, 8), "mmax": (5, 1, 12), "nmax": (40, 0, 150)},
                 lambda o: (self_conjugate_check(a, m, o.nmax) for a, m in _grid(o))),
    "parity-gf": ({"amax": (3, 1, 4), "mmax": (6, 1, 8), "N": (2000, 0, 5 * 10 ** 5)},
                  lambda o: (parity_gf_check(a, m, o.N) for a, m in _grid(o))),
    "eq4": ({"a": (None, 1, None), "m": (None, 1, None), "mmax": (12, 1, 20),
             "N": (2000, 0, 10 ** 5)},
            lambda o: (theta_product_identity_check(a, m, o.N) for a, m in _pairs(o))),
    "lacunary": ({"a": (None, 1, None), "N": (5000, 0, PARITY_CAP)},
                 lambda o: (lacunary_odd_support_check(a, o.N)
                            for a in ([o.a] if o.a is not None else [1, 3, 5]))),
    "progression": ({"family": (None, None, None), "p": (None, 1, 1000),
                     "N": (12100, 0, 5 * 10 ** 6)},
                    lambda o: [progression_check(o.family, o.p, o.N)]),
    "lemma13": ({"Nmax": (10000, 0, 10 ** 7)},
                lambda o: [form_equivalence_sweep_check(o.Nmax)]),
    **{f"guarantees-{family.removeprefix('cp')}": (
        {"N": (5000, 0, PARITY_CAP), "brute_max": (None, 0, 2 * 10 ** 5)},
        lambda o, family=family: [even_guarantee_check(family, o.N, o.brute_max)])
       for family in FAMILIES},
    "both-parities": ({"a": (None, 1, None), "m": (None, 1, None), "mmax": (12, 1, 20),
                       "N": (2000, 0, 2 * 10 ** 5), "witness_min": (10, 0, None)},
                      lambda o: (both_parities_prefix_check(a, m, o.N, o.witness_min)
                                 for a, m in _pairs(o))),
    "andrews": ({"N": (504, 0, 20000), "sizes": ("4,9,14", None, None)},
                lambda o: [andrews_mod5_check(o.N, map(int, o.sizes.split(",")))]),
    "oracle": ({"amax": (4, 1, 8), "bmax": (4, 1, 8), "mmax": (5, 1, 10), "nmax": (25, 0, 35)},
               lambda o: (oracle_check(CpParams(a, b, m), o.nmax) for a in range(1, o.amax + 1)
                          for b in range(1, o.bmax + 1) for m in range(1, o.mmax + 1))),
}


def _check_sizes(args):
    """Refuse a size outside its low..limit before any command runs: verify's
    from TARGETS, the n of coeffs and enumerate from EXACT_CAP or PARITY_CAP."""
    if args.subcommand == "verify":
        bounds = {k: spec[1:] for k, spec in TARGETS[args.target][0].items()}
    else:       # tables gives no size
        bounds = {"n": (0, PARITY_CAP if getattr(args, "mode", "") == "parity" else EXACT_CAP)}
    for key, (low, limit) in bounds.items():
        value = getattr(args, key, None)
        if value is None or low is None:
            continue
        name = "n" if args.subcommand == "enumerate" else "--" + key.replace("_", "-")
        if value < low or limit is not None and value > limit:
            within = f">= {low}" if limit is None else f"between {low} and {limit}"
            raise ValueError(f"{name} must be {within}, got {value}")


def _cmd_verify(args):
    if args.format == "csv":
        raise ValueError("verify reports are text or json only")
    flags, checks = TARGETS[args.target]
    given = {k: v for k, v in vars(args).items()
             if k not in ("subcommand", "format", "out", "target") and v is not None}
    stray = ["--" + k.replace("_", "-") for k in given if k not in flags]
    if stray:
        raise ValueError(f"verify {args.target} does not read {', '.join(stray)}")
    if "m" in flags and ("a" in given) != ("m" in given):
        raise ValueError(f"verify {args.target} takes --a and --m together")
    if "m" in given and "mmax" in given:
        raise ValueError(f"verify {args.target} takes --a and --m or --mmax, not both")
    if args.target == "progression" and (args.family is None or args.p is None):
        raise ValueError("progression needs --family and --p")
    # an empty --sizes also means the default
    unset = {k: spec[0] for k, spec in flags.items() if getattr(args, k) in (None, "")}
    result = merge_checks(checks(argparse.Namespace(**{**vars(args), **unset})))
    return {
        "params": {"target": args.target, **given},
        "rows": list(result.rows),
        "verdict": result.status,
    }


def _cmd_tables(args):
    data = generate_table(args.which)
    return {
        "params": {"which": args.which},
        "rows": data.rows(),
        "columns": ["n"] + list(data.labels),
        "exact": {
            r.params.label(): [[n, e] for n, e in zip(r.checkpoints, r.even_counts)]
            for r in data.reports
        },
    }


# one [n, value] row of coeffs per format; json's is the layout of indent=2 at depth 2
COEFF_ROW = {"text": "%d %d\n", "csv": "%d,%d\n", "json": "    [\n      %d,\n      %d\n    ],\n"}


def _render_coeffs(doc, fmt) -> str:
    values = doc["rows"]
    rows = (COEFF_ROW[fmt] * len(values)) % tuple(chain.from_iterable(enumerate(values)))
    if fmt == "text":
        return rows
    if fmt == "csv":
        return "n,value\n" + rows
    text = json.dumps({**doc, "rows": []}, indent=2)
    return text.replace('"rows": []', '"rows": [\n' + rows[:-2] + "\n  ]", 1) + "\n"


def _render(doc, args) -> str:
    """The output of doc in args.format: every document becomes text, CSV
    or JSON here.  No CSV field holds a comma, a quote or a line break, so
    none is quoted."""
    sub, rows = doc["subcommand"], doc["rows"]
    if sub == "coeffs":
        return _render_coeffs(doc, args.format)
    if args.format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if sub == "tables":
        sep = "  " if args.format == "text" else ","
        lines = [sep.join(map(str, row)) for row in [doc["columns"], *rows]]
    elif sub == "verify":
        lines = ["  ".join(f"{k}={v}" for k, v in row.items()) for row in rows]
        lines.append(doc["verdict"].upper())
    elif args.format == "text":
        lines = []
        for row in rows:
            line = "(" + ", ".join(_fmt_parts(row[k]) for k in TRIPLE) + ")"
            if args.show_crank:
                line += f"  crank={row['crank']}"
            if args.show_conjugate:
                c = row["conjugate"]
                line += "  conjugate=(" + ", ".join(_fmt_parts(c[k]) for k in TRIPLE) + ")"
            lines.append(line)
        lines.append(f"total {len(rows)}")
    else:
        shown = [k for k in ("crank", "conjugate") if getattr(args, "show_" + k)]
        lines = [",".join([*TRIPLE, *shown])]
        for row in rows:
            fields = [" ".join(map(str, row[k])) for k in TRIPLE]
            if args.show_crank:
                fields.append(str(row["crank"]))
            if args.show_conjugate:
                c = row["conjugate"]
                fields.append("(" + "|".join(" ".join(map(str, c[k])) for k in TRIPLE) + ")")
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _write(path, text):
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


def _write_output(args, doc, payload):
    if args.out is None:
        sys.stdout.write(payload)
        return
    _write(args.out, payload)
    if doc["subcommand"] == "tables":
        meta = {
            "subcommand": "tables",
            "which": doc["params"]["which"],
            "version": __version__,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        try:
            _write(args.out + ".meta.json", json.dumps(meta, indent=2) + "\n")
        except ValueError:      # no table without its sidecar; never remove a device or link
            if os.path.isfile(args.out) and not os.path.islink(args.out):
                os.remove(args.out)
            raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        commands = {"coeffs": _cmd_coeffs, "enumerate": _cmd_enumerate,
                    "verify": _cmd_verify, "tables": _cmd_tables}
        doc = {"subcommand": args.subcommand, **commands[args.subcommand](args)}
        doc.setdefault("verdict", None)     # only verify has one
        _write_output(args, doc, _render(doc, args))
        return 1 if doc["verdict"] == "fail" else 0
    except (ValueError, OSError) as exc:   # OSError: stdout
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
