"""Command-line front end: coefficients, enumeration, verification, tables.

Exit codes: 0 on success / verification pass, 1 on verification failure,
2 on usage errors (including capacity limits).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from math import gcd
from pathlib import Path

from . import __version__
from .cache import cached_copartition_parity, default_cache_dir
from .enumeration import (
    crank_distribution,
    distinct_parts_to_hooks,
    enumerate_copartitions,
    hooks_to_distinct_parts,
)
from .params import CpParams
from .parity import (
    andrews_mod5_check,
    both_parities_prefix_check,
    brute_force_representable,
    even_guarantee_314,
    even_guarantee_516,
    form_equivalence_check,
    is_sum_of_two_squares,
    is_x2_plus_3y2,
    lacunary_odd_support_check,
    progression_family,
    theta_product_identity_check,
    verify_even_progression,
    TWO_SQUARES,
    X2_PLUS_3Y2,
)
from .series import (
    copartition_parity,
    copartition_series,
    mul,
    pentagonal_support,
    reduce_mod2,
    self_conjugate_parity,
    self_conjugate_series,
    triple_product_theta,
    ParitySeries,
)
from .tables import generate_table

EXACT_CAP = 2000
PARITY_CAP = 32000
ENUMERATE_CAP = 60

VERIFY_TARGETS = (
    "selfconj", "parity-gf", "eq4", "lacunary", "progression", "lemma13",
    "guarantees-314", "guarantees-516", "both-parities", "andrews", "oracle",
)


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
    p.add_argument("--cap", type=int, help="override the capacity limit of the chosen mode")
    p.add_argument("--cache-dir", default=default_cache_dir())
    add_io(p)

    p = sub.add_parser("enumerate", help="list the copartitions of one size")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--show-crank", action="store_true")
    p.add_argument("--show-conjugate", action="store_true")
    p.add_argument("--cap", type=int, help=f"override the size guard (default {ENUMERATE_CAP})")
    add_io(p)

    p = sub.add_parser("verify", help="run one verification target")
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--Nmax", type=int)
    p.add_argument("--family", choices=("cp314", "cp516"))
    p.add_argument("--amax", type=_positive_int)
    p.add_argument("--bmax", type=_positive_int)
    p.add_argument("--mmax", type=_positive_int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--witness-min", type=int)
    p.add_argument("--sizes", help="comma-separated crank sizes, e.g. 4,9,14")
    p.add_argument("--brute-max", type=int,
                   help="also sweep predicate vs brute search up to this bound")
    add_io(p)

    p = sub.add_parser("tables", help="regenerate a density table from scratch")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across family columns")
    p.add_argument("--cache-dir", default=default_cache_dir())
    add_io(p)

    return parser


def _fmt_parts(parts) -> str:
    return "{" + ",".join(map(str, parts)) + "}"


def _fmt_triple(cp) -> str:
    return f"({_fmt_parts(cp.ground)}, {_fmt_parts(cp.rectangle)}, {_fmt_parts(cp.sky)})"


def _cmd_coeffs(args):
    params = CpParams(args.a, args.b, args.m)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    cap = args.cap if args.cap is not None else (EXACT_CAP if args.mode == "exact" else PARITY_CAP)
    if args.n > cap:
        raise UsageError(
            f"{args.mode} path capacity is {cap} (requested {args.n}); pass --cap to override")
    if args.mode == "exact":
        series = copartition_series(params, args.n)
        rows = [[n, series[n]] for n in range(args.n + 1)]
    else:
        series = cached_copartition_parity(params, args.n, args.cache_dir)
        rows = [[n, series.bit(n)] for n in range(args.n + 1)]
    doc = {
        "subcommand": "coeffs",
        "params": {"a": params.a, "b": params.b, "m": params.m, "n": args.n, "mode": args.mode},
        "rows": rows,
        "verdict": None,
    }
    return 0, doc, ("n", "value")


def _cmd_enumerate(args):
    params = CpParams(args.a, args.b, args.m)
    if args.n < 0:
        raise UsageError("n must be >= 0")
    cap = args.cap if args.cap is not None else ENUMERATE_CAP
    if args.n > cap:
        raise UsageError(f"enumeration guard is {cap} (requested {args.n}); pass --cap to override")
    rows = []
    for cp in enumerate_copartitions(params, args.n):
        row = {
            "ground": list(cp.ground),
            "rectangle": list(cp.rectangle),
            "sky": list(cp.sky),
        }
        if args.show_crank:
            row["crank"] = cp.crank()
        if args.show_conjugate:
            conj = cp.conjugate()
            row["conjugate"] = {
                "ground": list(conj.ground),
                "rectangle": list(conj.rectangle),
                "sky": list(conj.sky),
            }
        rows.append(row)
    doc = {
        "subcommand": "enumerate",
        "params": {"a": params.a, "b": params.b, "m": params.m, "n": args.n},
        "rows": rows,
        "verdict": None,
    }
    header = ["ground", "rectangle", "sky"]
    if args.show_crank:
        header.append("crank")
    if args.show_conjugate:
        header.append("conjugate")
    return 0, doc, tuple(header)


def _first_difference(x: ParitySeries, y: ParitySeries):
    diff = x.bits ^ y.bits
    if diff == 0:
        return None
    return (diff & -diff).bit_length() - 1


def _coprime_pairs(mmax):
    return [(a, m) for m in range(2, mmax + 1) for a in range(1, m) if gcd(a, m) == 1]


def _verify_selfconj(args):
    amax = args.amax or 3
    mmax = args.mmax or 5
    nmax = args.nmax if args.nmax is not None else 40
    rows = []
    for a in range(1, amax + 1):
        for m in range(2, mmax + 1):
            series = self_conjugate_series(a, m, nmax)
            bad = None
            for n in range(nmax + 1):
                found = [cp for cp in enumerate_copartitions(CpParams(a, a, m), n)
                         if cp.is_self_conjugate()]
                for cp in found:
                    hooks = hooks_to_distinct_parts(cp)
                    if sum(hooks) != n or distinct_parts_to_hooks(hooks, a, m) != cp:
                        bad = n
                        break
                if bad is None and len(found) != series[n]:
                    bad = n
                if bad is not None:
                    break
            rows.append({"a": a, "m": m, "n_max": nmax,
                         "status": "pass" if bad is None else "fail",
                         "counterexample": bad})
    return all(r["status"] == "pass" for r in rows), rows


def _verify_parity_gf(args):
    amax = args.amax or 3
    mmax = args.mmax or 6
    n = args.N if args.N is not None else 2000
    rows = []
    for a in range(1, amax + 1):
        for m in range(2, mmax + 1):
            left = reduce_mod2(copartition_series(CpParams(a, a, m), n))
            right = self_conjugate_parity(a, m, n)
            bad = _first_difference(left, right)
            rows.append({"a": a, "m": m, "n": n,
                         "status": "pass" if bad is None else "fail",
                         "counterexample": bad})
    return all(r["status"] == "pass" for r in rows), rows


def _verify_eq4(args):
    n = args.N if args.N is not None else 2000
    if args.a is not None and args.m is not None:
        pairs = [(args.a, args.m)]
    else:
        pairs = _coprime_pairs(args.mmax or 12)
    rows = []
    for a, m in pairs:
        ok = theta_product_identity_check(a, m, n)
        bad = None
        if not ok:
            left = mul(copartition_parity(CpParams(a, m - a, m), n),
                       reduce_mod2(triple_product_theta(a, m, n)), n)
            right = ParitySeries.from_support(pentagonal_support(m, n), n)
            bad = _first_difference(left, right)
        rows.append({"a": a, "m": m, "n": n,
                     "status": "pass" if ok else "fail", "counterexample": bad})
    return all(r["status"] == "pass" for r in rows), rows


def _verify_lacunary(args):
    n = args.N if args.N is not None else 5000
    scales = [args.a] if args.a is not None else [1, 3, 5]
    rows = []
    for a in scales:
        ok = lacunary_odd_support_check(a, n)
        bad = None
        if not ok:
            observed = set(copartition_parity(CpParams(a, a, 2 * a), n).odd_exponents())
            bad = min(observed ^ pentagonal_support(2 * a, n))
        rows.append({"a": a, "n": n, "status": "pass" if ok else "fail",
                     "counterexample": bad})
    return all(r["status"] == "pass" for r in rows), rows


def _verify_progression(args):
    if args.family is None or args.p is None:
        raise UsageError("progression needs --family and --p")
    n = args.N if args.N is not None else 12100
    fam = progression_family(args.family, args.p)
    parity = copartition_parity(fam.params, n)
    rows = [{"family": fam.family, "p": fam.p, "modulus": fam.modulus,
             "delta": fam.delta, "residues": list(fam.residues)}]
    ok = True
    for r in fam.residues:
        check = verify_even_progression(fam.params, fam.modulus, r, n, parity)
        status = "vacuous" if check.vacuous else ("pass" if check.passed else "fail")
        ok = ok and check.passed
        rows.append({"residue": r, "n": n, "status": status,
                     "counterexample": check.counterexample})
    return ok, rows


def _verify_lemma13(args):
    top = args.Nmax if args.Nmax is not None else 10000
    checked = 0
    bad = None
    for n in range(1, top + 1, 6):
        checked += 1
        if not form_equivalence_check(n):
            bad = n
            break
    rows = [{"n_max": top, "checked": checked,
             "status": "pass" if bad is None else "fail", "counterexample": bad}]
    return bad is None, rows


def _verify_guarantees(args, which):
    n = args.N if args.N is not None else 5000
    if which == "314":
        params, guarantee = CpParams(3, 1, 4), even_guarantee_314
        predicate, form, image = is_sum_of_two_squares, TWO_SQUARES, lambda k: 24 * k + 5
    else:
        params, guarantee = CpParams(5, 1, 6), even_guarantee_516
        predicate, form, image = is_x2_plus_3y2, X2_PLUS_3Y2, lambda k: 6 * k + 1
    parity = copartition_parity(params, n)
    guaranteed = 0
    bad = None
    for k in range(n + 1):
        if guarantee(k):
            guaranteed += 1
            if parity.bit(k):
                bad = k
                break
    rows = [{"n": n, "guaranteed_even": guaranteed,
             "status": "pass" if bad is None else "fail", "counterexample": bad}]
    ok = bad is None
    if args.brute_max:
        agree = None
        k = 0
        while (value := image(k)) <= args.brute_max:
            if predicate(value) != brute_force_representable(value, form):
                agree = value
                break
            k += 1
        rows.append({"brute_max": args.brute_max,
                     "status": "pass" if agree is None else "fail",
                     "counterexample": agree})
        ok = ok and agree is None
    return ok, rows


def _verify_both_parities(args):
    n = args.N if args.N is not None else 2000
    witness = args.witness_min if args.witness_min is not None else 10
    if args.a is not None and args.m is not None:
        pairs = [(args.a, args.m)]
    else:
        pairs = _coprime_pairs(args.mmax or 12)
    rows = []
    for a, m in pairs:
        ok = both_parities_prefix_check(a, m, n, witness)
        rows.append({"a": a, "m": m, "n": n, "witness_min": witness,
                     "status": "pass" if ok else "fail"})
    return all(r["status"] == "pass" for r in rows), rows


def _verify_andrews(args):
    n = args.N if args.N is not None else 504
    sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else (4, 9, 14)
    ok = andrews_mod5_check(n, sizes)
    series = copartition_series(CpParams(1, 1, 2), n)
    bad = next((k for k in range(4, n + 1, 5) if series[k] % 5), None)
    rows = [{"n": n, "status": "pass" if bad is None else "fail", "counterexample": bad}]
    for s in sizes:
        dist = crank_distribution(CpParams(1, 1, 2), s, 5)
        uniform = set(dist) == set(range(5)) and len(set(dist.values())) == 1
        rows.append({"size": s, "distribution": {str(k): v for k, v in dist.items()},
                     "status": "pass" if uniform else "fail"})
    return ok, rows


def _verify_oracle(args):
    from .enumeration import count_copartitions
    amax = args.amax or 4
    bmax = args.bmax or 4
    mmax = args.mmax or 5
    nmax = args.nmax if args.nmax is not None else 25
    rows = []
    for a in range(1, amax + 1):
        for b in range(1, bmax + 1):
            for m in range(1, mmax + 1):
                params = CpParams(a, b, m)
                series = copartition_series(params, nmax)
                bad = next((n for n in range(nmax + 1)
                            if count_copartitions(params, n) != series[n]), None)
                rows.append({"a": a, "b": b, "m": m, "n_max": nmax,
                             "status": "pass" if bad is None else "fail",
                             "counterexample": bad})
    return all(r["status"] == "pass" for r in rows), rows


def _cmd_verify(args):
    handlers = {
        "selfconj": _verify_selfconj,
        "parity-gf": _verify_parity_gf,
        "eq4": _verify_eq4,
        "lacunary": _verify_lacunary,
        "progression": _verify_progression,
        "lemma13": _verify_lemma13,
        "guarantees-314": lambda a: _verify_guarantees(a, "314"),
        "guarantees-516": lambda a: _verify_guarantees(a, "516"),
        "both-parities": _verify_both_parities,
        "andrews": _verify_andrews,
        "oracle": _verify_oracle,
    }
    passed, rows = handlers[args.target](args)
    given = {k: v for k, v in vars(args).items()
             if k not in ("subcommand", "format", "out", "target") and v is not None}
    doc = {
        "subcommand": "verify",
        "params": {"target": args.target, **given},
        "rows": rows,
        "verdict": "pass" if passed else "fail",
    }
    return (0 if passed else 1), doc, None


def _cmd_tables(args):
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    data = generate_table(args.which, jobs=args.jobs, cache_dir=args.cache_dir)
    doc = {
        "subcommand": "tables",
        "params": {"which": args.which},
        "rows": data.rows(),
        "columns": ["n"] + list(data.labels),
        "exact": {
            r.params.label(): [[n, e] for n, e in zip(r.checkpoints, r.even_counts)]
            for r in data.reports
        },
        "verdict": None,
    }
    return 0, doc, tuple(["n"] + list(data.labels))


def _render_csv(doc, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    sub = doc["subcommand"]
    if sub in ("coeffs", "tables"):
        for row in doc["rows"]:
            writer.writerow(row)
    elif sub == "enumerate":
        for row in doc["rows"]:
            out = [" ".join(map(str, row["ground"])),
                   " ".join(map(str, row["rectangle"])),
                   " ".join(map(str, row["sky"]))]
            if "crank" in row:
                out.append(row["crank"])
            if "conjugate" in row:
                c = row["conjugate"]
                out.append("(" + "|".join(" ".join(map(str, c[k]))
                                          for k in ("ground", "rectangle", "sky")) + ")")
            writer.writerow(out)
    else:
        raise UsageError(f"no CSV schema for {sub}; use --format json or text")
    return buf.getvalue()


def _render_text(doc) -> str:
    sub = doc["subcommand"]
    lines = []
    if sub == "coeffs":
        for n, v in doc["rows"]:
            lines.append(f"{n} {v}")
    elif sub == "enumerate":
        for row in doc["rows"]:
            piece = "(" + ", ".join(_fmt_parts(row[k]) for k in ("ground", "rectangle", "sky")) + ")"
            if "crank" in row:
                piece += f"  crank={row['crank']}"
            if "conjugate" in row:
                c = row["conjugate"]
                piece += "  conjugate=(" + ", ".join(
                    _fmt_parts(c[k]) for k in ("ground", "rectangle", "sky")) + ")"
            lines.append(piece)
        lines.append(f"total {len(doc['rows'])}")
    elif sub == "verify":
        for row in doc["rows"]:
            lines.append("  ".join(f"{k}={v}" for k, v in row.items()))
        lines.append(doc["verdict"].upper())
    elif sub == "tables":
        lines.append("  ".join(doc["columns"]))
        for row in doc["rows"]:
            lines.append("  ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_output(args, doc, header):
    if args.format == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        payload = _render_csv(doc, header)
    else:
        payload = _render_text(doc)
    if args.out:
        Path(args.out).write_text(payload)
        if doc["subcommand"] == "tables":
            meta = {
                "subcommand": "tables",
                "which": doc["params"]["which"],
                "version": __version__,
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            }
            Path(args.out + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "verify" and args.format == "csv":
            raise UsageError("verify reports are text or json only")
        if args.subcommand == "coeffs":
            code, doc, header = _cmd_coeffs(args)
        elif args.subcommand == "enumerate":
            code, doc, header = _cmd_enumerate(args)
        elif args.subcommand == "verify":
            code, doc, header = _cmd_verify(args)
        else:
            code, doc, header = _cmd_tables(args)
        _write_output(args, doc, header)
        return code
    except (UsageError, ValueError, OSError) as exc:   # OSError: --out or --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
