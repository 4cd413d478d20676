"""Brute-force oracles the tests check the library against.

Everything here enumerates real objects or applies one-coefficient-at-a-time
recurrences; none of it shares code with the expansion paths under test.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import accumulate, compress
from math import isqrt
from typing import Iterator

Parts = tuple[int, ...]


def restricted_partitions(n, allowed, cap=None):
    """Yield weakly decreasing tuples of parts drawn from ``allowed`` (any
    multiplicity) summing to n."""
    if n == 0:
        yield ()
        return
    usable = sorted((p for p in allowed if p <= n if cap is None or p <= cap), reverse=True)
    for p in usable:
        for rest in restricted_partitions(n - p, allowed, cap=p):
            yield (p,) + rest


def count_restricted(n, allowed):
    return sum(1 for _ in restricted_partitions(n, allowed))


def distinct_restricted_partitions(n, allowed, cap=None):
    """Same as restricted_partitions but parts must be distinct."""
    if n == 0:
        yield ()
        return
    usable = sorted((p for p in allowed if p <= n if cap is None or p < cap), reverse=True)
    for p in usable:
        for rest in distinct_restricted_partitions(n - p, allowed, cap=p):
            yield (p,) + rest


def count_distinct_restricted(n, allowed):
    return sum(1 for _ in distinct_restricted_partitions(n, allowed))


def signed_product_coefficient(n, c, m):
    """Coefficient of q^n in (q^c; q^m)_oo, by signed enumeration of
    partitions into distinct parts from {c, c+m, ...}: each contributes
    (-1)^(number of parts)."""
    allowed = list(range(c, n + 1, m))
    total = 0
    for parts in distinct_restricted_partitions(n, allowed):
        total += -1 if len(parts) & 1 else 1
    return total


def progression(c, m, top):
    return list(range(c, top + 1, m))


def expand_factors_reference(factors, n):
    """The plain cumulative recurrence, one coefficient at a time: for each
    term exponent e, reciprocal factors add coeffs[j - e] upward and
    Pochhammer factors subtract (or add, negated) downward."""
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for f in factors:
        for e in range(f.c, n + 1, f.m):
            if f.sign == "reciprocal":
                for j in range(e, n + 1):
                    coeffs[j] += coeffs[j - e]
            elif f.sign == "pochhammer":
                for j in range(n, e - 1, -1):
                    coeffs[j] -= coeffs[j - e]
            else:
                for j in range(n, e - 1, -1):
                    coeffs[j] += coeffs[j - e]
    return coeffs


def _scaled_add(coeffs: list, k: int, sign: int):
    # in place coeffs *= (1 + sign*q^k); reads are all pre-update values
    upper = len(coeffs)
    if sign > 0:
        coeffs[k:] = [t + h for t, h in zip(coeffs[k:], coeffs[: upper - k])]
    else:
        coeffs[k:] = [t - h for t, h in zip(coeffs[k:], coeffs[: upper - k])]


def expand_factors_chain_reference(factors, n):
    """The exact kernel that runs every reciprocal as its binary-split chain:
    1/(1 - q^e) = (1 + q^e)(1 + q^2e)(1 + q^4e)..., one ``_scaled_add`` pass
    per term of every chain level, with no folding of exponents.  A
    Pochhammer factor is one level of (1 - q^k) passes, a negated one of
    (1 + q^k) passes."""
    from copartitions.series import POCHHAMMER, RECIPROCAL, ExactSeries

    if n < 0:
        raise ValueError("truncation must be >= 0")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for f in factors:
        c, m, sign = f.c, f.m, -1 if f.sign == POCHHAMMER else 1
        while c <= n:
            for k in range(c, n + 1, m):
                _scaled_add(coeffs, k, sign)
            if f.sign != RECIPROCAL:
                break
            c, m = 2 * c, 2 * m
    return ExactSeries(tuple(coeffs))


def _divide(coeffs: list, k: int):
    # in place coeffs /= (1 - q^k): a prefix sum along each residue class mod k
    if k * k <= len(coeffs):
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:                           # classes shorter than k: add one block of k at a time
        for start in range(k, len(coeffs), k):
            coeffs[start:start + k] = [t + h for t, h in zip(coeffs[start:start + k],
                                                             coeffs[start - k:start])]


def expand_factors_folded_reference(factors, n):
    """The folded pass kernel: the factors fold into one net count per
    exponent k, its reciprocal terms minus its Pochhammer terms, and it runs
    one in-place division by (1 - q^k) per unit of a positive count, one
    (1 - q^k) pass per unit of a negative one and one (1 + q^k) pass per
    negated term."""
    from copartitions.series import NEGATED_POCHHAMMER, RECIPROCAL, ExactSeries

    if n < 0:
        raise ValueError("truncation must be >= 0")
    coeffs = [1] + [0] * n
    net = [0] * (n + 1)
    for f in factors:
        for k in range(f.c, n + 1, f.m):
            if f.sign == NEGATED_POCHHAMMER:
                _scaled_add(coeffs, k, 1)
            else:
                net[k] += 1 if f.sign == RECIPROCAL else -1
    for k, power in enumerate(net):
        for _ in range(power):
            _divide(coeffs, k)
        for _ in range(-power):
            _scaled_add(coeffs, k, -1)
    return ExactSeries(tuple(coeffs))


def expand_factors_mod2_reference(factors, n):
    """The per-pass GF(2) loop on packed bits: one shift-XOR pass for every
    Pochhammer term and for every level of every reciprocal's binary-split
    chain, with no folding of repeated exponents."""
    from copartitions.series import ParitySeries

    if n < 0:
        raise ValueError("truncation must be >= 0")
    mask = (1 << (n + 1)) - 1
    bits = 1
    for f in factors:
        for e in range(f.c, n + 1, f.m):
            if f.sign == "reciprocal":
                k = e
                while k <= n:
                    bits = (bits ^ (bits << k)) & mask
                    k <<= 1
            else:
                bits = (bits ^ (bits << e)) & mask
    return ParitySeries(n, bits)


# The GF(2) normal form the library ran before Euler's and Cauchy's sums
# became its only product kernel, with private copies of the bit helpers.

_WALK_BITS = 1024
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_OFFSETS = tuple(range(_WALK_BITS))     # iterating it allocates no ints


def _bit_chunks(x: int):
    """Yield (base, flags) for each nonzero chunk of at most 1024 bits of x,
    where flags[i] is 1 exactly when bit base + i of x is set; the set bits
    are base + i for i in ``compress(_OFFSETS, flags)``."""
    flags = format(x, "b")[::-1].encode("ascii").translate(_BIT_VALUES)
    for start in range(0, len(flags), _WALK_BITS):
        chunk = flags[start:start + _WALK_BITS]
        if 1 in chunk:
            yield start, chunk


# _REVERSED[b] is byte b with its 8 bits in reverse order
_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _reverse(x: int, n: int) -> int:
    """Move bit e of x to bit n - e, for x < 2^(n+1); its own inverse."""
    size = n // 8 + 1
    raw = x.to_bytes(size, "little").translate(_REVERSED)
    return int.from_bytes(raw, "big") >> (8 * size - 1 - n)


def _pass_progressions(factors, n: int):
    """Yield (c, m): mod 2 the product of the factors through q^n is the
    product of (1 + q^k) over k = c, c+m, c+2m, ... <= n of every
    progression.  A Pochhammer factor, negated or not, is one progression; a
    reciprocal 1/(q^c;q^m) is its binary-split chain, the levels
    (c*2^j, m*2^j)."""
    for f in factors:
        c, m = f.c, f.m
        while c <= n:
            yield c, m
            if f.sign != "reciprocal":
                break
            c, m = 2 * c, 2 * m


def _progression(c: int, m: int, n: int) -> int:
    """Indicator of the exponents c, c+m, c+2m, ... <= n, built by doubling."""
    if c > n:
        return 0
    span = n - c
    x, width = 1, m                 # x holds bits 0, m, 2m, ... below width
    while width <= span:
        x |= x << width
        width <<= 1
    return (x & ((1 << (span + 1)) - 1)) << c


def _add_indicator(planes: list, x: int):
    """planes[i] is bit i of every exponent's count; add 1 at each bit of x."""
    for i, plane in enumerate(planes):
        if not x:
            return
        planes[i] = plane ^ x
        x &= plane
    if x:
        planes.append(x)


# _SPREAD_LOW[b] (_SPREAD_HIGH[b]) is bits 0-3 (4-7) of b moved to bits 0, 2,
# 4, 6; a nibble's binary digits read in base 4 are its spread
_NIBBLE_SPREAD = bytes(int(f"{i:b}", 4) for i in range(16))
_SPREAD_LOW = _NIBBLE_SPREAD * 16
_SPREAD_HIGH = bytes(s for s in _NIBBLE_SPREAD for _ in range(16))


def _spread(x: int, n: int) -> int:
    """Move bit k of x to bit 2k, dropping every bit that would land above n."""
    x &= (1 << (n // 2 + 1)) - 1
    if not x:
        return 0
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LOW)
    out[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


# _UNSPREAD[b] is bits 0, 2, 4, 6 of b moved to bits 0-3, for b with no odd bit
_UNSPREAD = bytes.maketrans(_NIBBLE_SPREAD, bytes(range(16)))


def _unspread(x: int) -> int:
    """Move bit 2k of x to bit k, for x with no odd bit set: undoes ``_spread``."""
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return (int.from_bytes(raw[0::2].translate(_UNSPREAD), "little")
            | int.from_bytes(raw[1::2].translate(_UNSPREAD), "little") << 4)


def mod2_passes(factors, n: int) -> int:
    """Normal form of the mod-2 product: bit k is set when the product equals,
    through q^n, the product of (1 + q^k) over the set bits k.

    Counts the passes of every progression in bit-planes, then carries pairs
    from k to 2k until each count is 0 or 1: over GF(2),
    (1 + q^k)^2 = 1 + q^(2k), and exponents above n drop out.
    """
    if n < 0:
        raise ValueError("truncation must be >= 0")
    planes: list = []
    for c, m in _pass_progressions(factors, n):
        _add_indicator(planes, _progression(c, m, n))
    while len(planes) > 1:
        low = planes[0]
        planes = [_spread(plane, n) for plane in planes[1:]]
        _add_indicator(planes, low)
        while planes and not planes[-1]:
            planes.pop()
    return planes[0] if planes else 0


def _split_levels(n: int) -> int:
    """How many levels v run their own passes: those with n >> v >= 2048 bits.
    A level narrower saves less than it costs, so it shares the last one."""
    return (n >> 11).bit_length()


def _levels(n: int, passes: int) -> list[int]:
    """The passes by 2-adic level: entry v holds k = 2^v * odd at k >> v, and
    the last entry every pass left at the level reached."""
    levels = []
    odd = int.from_bytes(b"\xaa" * (n // 8 + 1), "little")      # bits 1, 3, 5, ...
    for _ in range(_split_levels(n)):
        if not passes:
            break
        levels.append(passes & odd)
        passes = _unspread(passes ^ levels[-1])
    return levels + [passes] if passes else levels


def _level_passes(n: int, levels) -> int:
    """The product of (1 + q^k) over the passes k in ``levels``, split as
    ``_levels`` splits them, mod 2 through q^n, reversed through q^n.  Level v
    holds the passes of levels v and above in x = q^(2^v), reversed through
    x^(n >> v), and runs its own as right shift-XORs at k >> v."""
    top = max(len(levels) - 1, 0)
    rev = 1 << (n >> top)
    for v in range(top, -1, -1):
        w = n >> v
        if v < top:
            rev = _spread(rev, w) << (w & 1)      # bit w // 2 - e moves to w - 2e
        for base, flags in _bit_chunks(levels[v]) if v < len(levels) else ():
            for i in compress(_OFFSETS, flags):
                rev ^= rev >> (base + i)
    return rev


def level_counts(n: int, steps, numerator, at: int) -> tuple[int, int]:
    """(passes, bits) of the sparse terms of one level walk through q^n, from
    its arguments: on each level v from 0 to the top, one pass per term of
    ``steps`` at or below the level's width n >> v and one per term of
    ``numerator`` at level ``at``, each pass on n >> v bits."""
    top = max(at, (n // steps[0]).bit_length() - 1 if steps else 0)
    passes = bits = 0
    for v in range(top + 1):
        w = n >> v
        run = sum(1 for e in steps if e <= w)
        if v == at:
            run += sum(1 for e in numerator if e <= w)
        passes, bits = passes + run, bits + run * w
    return passes, bits


def expand_factors_mod2_normal_form_reference(factors, n):
    """The GF(2) product through the normal form of its passes,
    ``mod2_passes``, run level by level."""
    from copartitions.series import ParitySeries

    return ParitySeries(n, _reverse(_level_passes(n, _levels(n, mod2_passes(factors, n))), n))


def copartition_series_by_log_derivative(a, b, m, n):
    """Coefficients 0..n of the (a, b, m) counting series from the
    log-derivative (Euler) recurrence n*f(n) = sum_{k=1..n} c(k)*f(n-k),
    where c(N) sums d over the divisors d of N, with +d for d = a mod m and
    d >= a, +d for d = b mod m and d >= b, and -d for d = a+b mod m and
    d >= a+b."""
    c = [0] * (n + 1)
    for d in range(1, n + 1):
        weight = sum(sign * d for sign, start in ((1, a), (1, b), (-1, a + b))
                     if d >= start and (d - start) % m == 0)
        if weight:
            for multiple in range(d, n + 1, d):
                c[multiple] += weight
    f = [1] + [0] * n
    for k in range(1, n + 1):
        total = sum(c[j] * f[k - j] for j in range(1, k + 1))
        f[k], rest = divmod(total, k)
        assert rest == 0, (a, b, m, k)
    return f


def _progression_partitions(total: int, count: int, base: int, step: int,
                            cap: int | None = None) -> Iterator[Parts]:
    """Weakly decreasing count-tuples of parts from {base, base+step, ...}
    summing to total, first parts largest first."""
    if count == 0:
        if total == 0:
            yield ()
        return
    hi = total - base * (count - 1)
    if cap is not None:
        hi = min(hi, cap)
    if hi < base:
        return
    hi = base + (hi - base) // step * step
    for first in range(hi, base - 1, -step):
        for rest in _progression_partitions(total - first, count - 1, base, step, cap=first):
            yield (first,) + rest


def _raw_triples(params: CpParams, n: int) -> Iterator[tuple[Parts, Parts]]:
    # outer loop over the ground (by part count, then total), inner over the
    # sky; the rectangle cost m*g*s prunes the sky budget early
    a, b, m = params.a, params.b, params.m
    g = 0
    while a * g <= n:
        ground_totals = (0,) if g == 0 else range(a * g, n + 1, m)
        for gt in ground_totals:
            for ground in _progression_partitions(gt, g, a, m):
                rest = n - gt
                s = 0
                while s * (b + m * g) <= rest:
                    for sky in _progression_partitions(rest - m * g * s, s, b, m):
                        yield ground, sky
                    s += 1
        g += 1


def reference_triples(params, n):
    """The (ground, sky) pairs of every copartition of size exactly n,
    sorted, from a recursive search of one size by part counts; it shares
    nothing with the library's walk over all sizes."""
    return sorted(_raw_triples(params, n))


def triple_product_theta(a, m, n):
    """theta(a, m) through q^n by its defining sum: (-1)^k q^(a*k + m*k*(k-1)/2)
    over the integers k, each of whose exponents up to n lies in
    -n - 2 < k < n + 2.  Needs 1 <= a <= m, so that no exponent is negative."""
    from copartitions.series import ExactSeries

    if not 1 <= a <= m:
        raise ValueError(f"need 1 <= a <= m, got a={a}, m={m}")
    if n < 0:
        raise ValueError("truncation must be >= 0")
    coeffs = [0] * (n + 1)
    for k in range(-n - 1, n + 2):
        e = a * k + m * k * (k - 1) // 2
        if e <= n:
            coeffs[e] += -1 if k % 2 else 1
    return ExactSeries(tuple(coeffs))


def theta_taps(c, step, n):
    """The steps of the recurrence that divides by theta(c, step) through
    q^n, counted one at a time: for each j in 0..n, one per exponent
    0 < e <= j with a nonzero coefficient in theta's defining sum."""
    theta = triple_product_theta(c, step, n).coeffs
    return sum(1 for j in range(n + 1) for e in range(1, j + 1) if theta[e])


def mul(x, y, n: int):
    """Truncated product of two series of the same kind and truncation: the
    dense convolution over the integers, and mod 2 one shift-XOR of y's
    reversed bits per set bit of the sparser side.  Mixing truncations is an
    error rather than an implicit minimum."""
    from copartitions.series import ExactSeries, ParitySeries

    if type(x) is not type(y):
        raise TypeError("cannot multiply exact and parity series together")
    if x.trunc != y.trunc:
        raise ValueError(f"truncation mismatch: {x.trunc} != {y.trunc}")
    if not 0 <= n <= x.trunc:
        raise ValueError(f"product truncation {n} outside the inputs' range 0..{x.trunc}")
    if isinstance(x, ParitySeries):
        mask = (1 << (n + 1)) - 1
        a, b = x.bits & mask, y.bits & mask
        if a.bit_count() > b.bit_count():
            a, b = b, a
        b_rev, acc = _reverse(b, n), 0
        for base, flags in _bit_chunks(a):
            for i in compress(_OFFSETS, flags):
                acc ^= b_rev >> (base + i)
        return ParitySeries(n, _reverse(acc, n))
    out = [0] * (n + 1)
    for i, c in enumerate(x.coeffs[: n + 1]):
        if c:
            for j in range(n + 1 - i):
                out[i + j] += c * y.coeffs[j]
    return ExactSeries(tuple(out))


def truncated(x, n: int):
    """The exact or parity series ``x`` on exponents 0..n alone."""
    if hasattr(x, "bits"):
        return type(x)(n, x.bits & ((1 << (n + 1)) - 1))
    return type(x)(x.coeffs[: n + 1])


def sweep_reference(row: dict, indices, left, right, count_key=None) -> tuple:
    """A claim checked one index at a time: ``left(k)`` against ``right(k)``
    for each k in turn, stopping at the first k where they differ.  Returns
    (passed, checked, counterexample, left, right, rows), the fields of a
    check result, with the one row ``row``, then ``checked`` under
    ``count_key`` if given, then the status and the counterexample."""
    checked, bad, values = 0, None, (None, None)
    for k in indices:
        checked += 1
        if left(k) != right(k):
            bad, values = k, (left(k), right(k))
            break
    if count_key:
        row[count_key] = checked
    row.update(status="fail" if bad is not None else "pass" if checked else "vacuous",
               counterexample=bad)
    return (bad is None, checked, bad, *values, (row,))


def merge_reference(results) -> tuple:
    """``sweep_reference`` results as one: passed when all passed, the first
    counterexample with its values, the checked counts summed, the rows in
    order."""
    first = next((r for r in results if r[2] is not None), (True, 0, None, None, None, ()))
    return (all(r[0] for r in results), sum(r[1] for r in results), *first[2:5],
            tuple(row for r in results for row in r[5]))


def form_values(coef: int, top: int) -> frozenset[int]:
    """Every A^2 + coef*B^2 <= top with A, B >= 0."""
    return frozenset(a * a + coef * b * b for a in range(isqrt(top) + 1)
                     for b in range(isqrt((top - a * a) // coef) + 1))


def csv_reference(header, rows) -> str:
    """``header`` and ``rows`` as the csv module writes them, one line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def coeffs_reference(params: dict, values, fmt: str) -> str:
    """What ``coeffs`` prints for ``values`` under ``params`` (a, b, m, n,
    mode), rendered from one [n, value] list per row: by
    ``json.dumps(indent=2)``, by the csv module, or as space-joined lines."""
    rows = [[n, v] for n, v in enumerate(values)]
    if fmt == "json":
        doc = {"subcommand": "coeffs", "params": params, "rows": rows, "verdict": None}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return csv_reference(("n", "value"), rows)
    return "\n".join(f"{n} {v}" for n, v in rows) + "\n"


def enumerate_csv_reference(header, doc: dict) -> str:
    """The CSV of an ``enumerate`` JSON document by the csv module: each
    part list space-joined, the conjugate as (ground|rectangle|sky)."""
    def joined(parts):
        return " ".join(map(str, parts))

    rows = []
    for row in doc["rows"]:
        fields = [joined(row["ground"]), joined(row["rectangle"]), joined(row["sky"])]
        if "crank" in row:
            fields.append(row["crank"])
        if "conjugate" in row:
            c = row["conjugate"]
            fields.append("(" + "|".join(joined(c[k]) for k in ("ground", "rectangle", "sky"))
                          + ")")
        rows.append(fields)
    return csv_reference(header, rows)


# The CLI's text and CSV renderers for enumerate, verify and tables as they
# were when each command returned a CSV header beside its document.
def cli_header(doc: dict, show_crank: bool = False, show_conjugate: bool = False) -> tuple:
    """The header a command returned: a table's columns, or the triple plus
    one column per --show-* flag."""
    if doc["subcommand"] == "tables":
        return tuple(doc["columns"])
    header = ["ground", "rectangle", "sky"]
    if show_crank:
        header.append("crank")
    if show_conjugate:
        header.append("conjugate")
    return tuple(header)


def _fmt_parts(parts) -> str:
    return "{" + ",".join(map(str, parts)) + "}"


def _render_csv(doc, header) -> str:
    # no field holds a comma, a quote or a line break, so none is quoted
    lines = [",".join(header)]
    if doc["subcommand"] == "tables":
        lines += (",".join(map(str, row)) for row in doc["rows"])
    else:
        for row in doc["rows"]:
            out = [" ".join(map(str, row["ground"])),
                   " ".join(map(str, row["rectangle"])),
                   " ".join(map(str, row["sky"]))]
            if "crank" in row:
                out.append(str(row["crank"]))
            if "conjugate" in row:
                c = row["conjugate"]
                out.append("(" + "|".join(" ".join(map(str, c[k]))
                                          for k in ("ground", "rectangle", "sky")) + ")")
            lines.append(",".join(out))
    return "\n".join(lines) + "\n"


def _render_text(doc) -> str:
    sub = doc["subcommand"]
    lines = []
    if sub == "enumerate":
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


def render_reference(doc: dict, fmt: str, show_crank: bool = False,
                     show_conjugate: bool = False) -> str:
    """What those renderers print for ``doc`` in ``fmt``, text or csv."""
    if fmt == "csv":
        return _render_csv(doc, cli_header(doc, show_crank, show_conjugate))
    return _render_text(doc)
