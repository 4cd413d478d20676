"""Truncated formal power series over the integers and over GF(2).

Two coefficient representations back everything else:

* ``ExactSeries`` keeps one Python int per exponent, so coefficients never
  overflow no matter how fast a family grows.
* ``ParitySeries`` packs coefficient-mod-2 bits into a single int (bit n is
  the coefficient of q^n).  The GF(2) products run on the bits reversed
  through q^n (bit n - e holds q^e), where multiplying by (1 + q^k) is one
  right shift-XOR pass, ``rev ^= rev >> k``.

Both kernels multiply by one classical sum per factor (step 1).  The exact
kernel ``expand_factors`` runs one sum per factor as it stands; its only pass
is ``_divide``: the division by (1 - q^k) in place, a prefix sum along each
residue class mod k.  It runs the Pochhammer and negated sums first, on the
bare 1: their terms then divide a sparse series, and the coefficients stay
near the final ones' size (89 bits at most for (1, 1, 3) at n = 2000, against
140 with the reciprocal sums first).  The GF(2) kernel ``expand_factors_mod2``
folds the factor list first (step 2) and runs each sum on its 2-adic level
of the level walk (step 3).

1. Sums.  Two classical sums (Andrews, *The Theory of Partitions*, ch. 2)
   take about sqrt(2n/m) terms for a factor whose progression has n/m, with
   q -> q^m and z -> q^c:

   - Euler: (z;q)_oo = sum_k (-1)^k z^k q^(k(k-1)/2) / (q;q)_k, and with
     every sign + for (-z;q)_oo;
   - Cauchy: 1/(z;q)_oo = sum_k z^k q^(k^2-k) / ((q;q)_k (z;q)_k).

   Term k is term k - 1 times q^(c + m(k-1)) (Cauchy: q^(c + 2m(k-1))) over
   1 - q^(mk) (Cauchy: and over 1 - q^(c + m(k-1))); the terms up to q^n are
   summed into the series.  ``_sum_factor`` runs them mod 2 on reversed bits:
   the shift is a right shift and each division a doubling chain of
   (1 + q^K) passes on the term's width, as 1/(1 + q^K) is
   (1 + q^K)(1 + q^2K)(1 + q^4K)... mod 2.  ``_exact_sum_factor`` runs them
   over the integers on a list aligned to q^n: the shift drops its top
   entries, each division is one ``_divide``, and the term is added to or
   (Euler's odd k) subtracted from the series at its exponent.  Euler's sum
   runs one division per k >= 1 with ck + mk(k-1)/2 <= n, Cauchy's two per k
   with ck + m(k^2-k) <= n.  A single-term factor, step above n, is a sum of
   one or two terms.

2. Fold (GF(2) only).  Mod 2, f(q)^2 = f(q^2) for every series f, so
   (q^c;q^m)^2 = (q^2c;q^2m); f cancels 1/f; and (q^c;q^m) and (-q^c;q^m) are
   equal.  ``_level_product`` writes each factor (q^c;q^m) as
   (q^c';q^m')^(2^v), with 2^v the largest power of 2 dividing both c and m
   (c alone for a factor of one term, m above n, which takes m' = n + 1 on
   every level; a factor with c above n is 1), and nets the factors per
   (c', m'): reciprocal ones +2^v and Pochhammer ones, negated or not, -2^v.
   Each set bit j of a net count runs one sum at (c', m') in x = q^(2^j) on
   level j of the walk, on n >> j bits, Cauchy's where the count is positive.
   These are the identities behind the paper's parity results: the (a, a, 2a)
   product (q^2a;q^2a) / (q^a;q^2a)^2 folds to (q^2a;q^2a) / (q^2a;q^4a), an
   Euler and a Cauchy sum that both run on level 1 for odd a, and that is
   (q^4a;q^4a) (step 4, route 3).

3. Level walk (GF(2) only).  ``_level_product`` is the one GF(2) product
   loop.  It divides by a sparse D as 1/D(q) = D(q) D(q^2) D(q^4) ... through
   q^n, and runs the folded sums.  It walks the 2-adic levels v from the top
   down, holding the series in x = q^(2^v) reversed through x^(n >> v):
   level v multiplies D(x) in, one right shift-XOR per term of D up to
   x^(n >> v), runs the sums of level v on that width, and spreads x to x^2
   for the level below.  A numerator N(q^(2^at)) multiplies in at level
   ``at``, on that level's width: Euler's E(q^(2m)) on route 2 (step 4), and
   theta(a, m) on level 0 for the checks that multiply it into a product
   (``_theta_times_mod2``: eq4 and the odd-term check of ``parity``).

4. Plan: ``copartition_series`` and ``copartition_parity`` route the product
   P = (q^(a+b);q^m) / ((q^a;q^m)(q^b;q^m)) by the residue coincidences of
   its progressions, from (a, b, m) alone (``_plan``), taking the first that
   holds.  Each follows from (q^x;q^m) = (q^(x mod m);q^m) / finite, with
   E(x) = (x;x) and the sparse theta series of ``_theta_terms``:

   1. m | a or m | b, say b = Bm (the smaller quotient when m divides both):
      P = (q^m;q^m)_(B-1) / (E(q^m) prod_(t<B) (1 - q^(a+tm))).
   2. a + b = Cm with m not dividing a, a0 = a mod m: by the Jacobi triple
      product P is E(q^m)^2 / theta(a0, m) times prod_(t<a//m) (1 - q^(a0+tm))
      prod_(t<b//m) (1 - q^(m-a0+tm)) / (q^m;q^m)_(C-1).
   3. Mod 2 only, a = b mod m with b = a + km: as (q^x;q^m)^2 = (q^(2x);q^(2m))
      mod 2, P is (q^(2b+m);q^(2m)) prod_(t<k) (1 - q^(a+b+tm)) over
      prod_(t<k) (1 - q^(a+tm)); k = 0 is the self-conjugate identity.
   4. Anything else: P itself.

   On routes 1 and 2 the sparse quotient is solved over the integers one
   coefficient at a time, and the finite factors run as ``_divide`` and
   ``_scaled_add`` passes.  Mod 2 the level loop divides by the theta series
   and multiplies E(q^m)^2 = E(q^(2m)) in at level 1 + v(m); the same walk
   runs the finite factors as sums of one or two terms, folded, each on the
   level of its k: (1 - q^k) is one pass, 1/(1 - q^k) a doubling chain, 15
   chain passes for (1, 1, 1) at n = 32000.  Routes 3 and 4 take the sums mod
   2 through ``expand_factors_mod2``, the walk with no sparse term, and route
   4 takes them over the integers too, through ``expand_factors``.

Truncation is explicit everywhere: a series knows the last exponent it is
valid through, operations refuse to mix truncations, and nothing is ever
extended silently.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress
from math import isqrt
from operator import add, sub
from typing import Iterable, Sequence

from . import stats
from .params import CpParams, Record, _set

POCHHAMMER = "pochhammer"                    # (q^c; q^m)_oo
RECIPROCAL = "reciprocal"                    # 1 / (q^c; q^m)_oo
NEGATED_POCHHAMMER = "negated-pochhammer"    # (-q^c; q^m)_oo

_SIGNS = (POCHHAMMER, RECIPROCAL, NEGATED_POCHHAMMER)


class FactorSpec(Record):
    """One infinite-product family with term exponents c, c+m, c+2m, ..."""

    __slots__ = ("c", "m", "sign")

    def __init__(self, c: int, m: int, sign: str):
        if c < 1 or m < 1:
            raise ValueError(f"factor needs c >= 1 and m >= 1, got c={c}, m={m}")
        if sign not in _SIGNS:
            raise ValueError(f"unknown factor sign {sign!r}")
        _set(self, "c", c)
        _set(self, "m", m)
        _set(self, "sign", sign)


def pochhammer(c: int, m: int) -> FactorSpec:
    """(q^c; q^m)_oo."""
    return FactorSpec(c, m, POCHHAMMER)


def reciprocal(c: int, m: int) -> FactorSpec:
    """1 / (q^c; q^m)_oo."""
    return FactorSpec(c, m, RECIPROCAL)


def negated_pochhammer(c: int, m: int) -> FactorSpec:
    """(-q^c; q^m)_oo."""
    return FactorSpec(c, m, NEGATED_POCHHAMMER)


class ExactSeries(Record):
    """Integer power series known exactly on exponents 0..trunc = len(coeffs) - 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not (coeffs := tuple(coeffs)):
            raise ValueError("truncation must be >= 0")
        _set(self, "coeffs", coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self.coeffs):
            raise IndexError(f"exponent {n} outside the known range 0..{self.trunc}")
        return self.coeffs[n]


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class ParitySeries(Record):
    """GF(2) power series on exponents 0..trunc; bit n of ``bits`` is the
    coefficient of q^n reduced mod 2."""

    __slots__ = ("trunc", "bits")

    def __init__(self, trunc: int, bits: int):
        if trunc < 0:
            raise ValueError("truncation must be >= 0")
        if bits < 0 or bits >> (trunc + 1):
            raise ValueError("bits outside the exponent range 0..trunc")
        _set(self, "trunc", trunc)
        _set(self, "bits", bits)

    @classmethod
    def from_support(cls, exponents: Iterable[int], trunc: int) -> "ParitySeries":
        """Indicator series of a set of exponents."""
        bits = 0
        for e in exponents:
            if not 0 <= e <= trunc:
                raise ValueError(f"exponent {e} outside 0..{trunc}")
            bits |= 1 << e
        return cls(trunc, bits)

    @classmethod
    def from_values(cls, values: bytes) -> "ParitySeries":
        """The inverse of ``bit_values``: byte n of ``values``, 0 or 1, is the coefficient of q^n."""
        return cls(len(values) - 1, int(values[::-1].translate(_BIT_DIGITS), 2))

    def bit(self, n: int) -> int:
        if not 0 <= n <= self.trunc:
            raise IndexError(f"exponent {n} outside the known range 0..{self.trunc}")
        return (self.bits >> n) & 1

    def bit_values(self) -> bytes:
        """Byte n is the coefficient of q^n mod 2, for n in 0..trunc."""
        return format(self.bits, f"0{self.trunc + 1}b")[::-1].encode("ascii").translate(_BIT_VALUES)

    def odd_exponents(self) -> list[int]:
        """Exponents with odd coefficient, increasing."""
        return list(compress(range(self.trunc + 1), self.bit_values()))

    def count_odd(self, lo: int, hi: int) -> int:
        """Number of odd coefficients with exponent in [lo, hi] inclusive."""
        if not 0 <= lo <= hi <= self.trunc:
            raise ValueError(f"bad exponent range [{lo}, {hi}] for truncation {self.trunc}")
        return ((self.bits >> lo) & ((1 << (hi - lo + 1)) - 1)).bit_count()


# _REVERSED[b] is byte b with its 8 bits in reverse order: the bits of bytes
# 0..255 read backwards are each byte reversed, the last byte first
_REVERSED = int(format(int.from_bytes(bytes(range(256)), "big"), "02048b")[::-1],
                2).to_bytes(256, "little")


def _reverse(x: int, n: int) -> int:
    """Move bit e of x to bit n - e, for x < 2^(n+1); its own inverse."""
    size = n // 8 + 1
    raw = x.to_bytes(size, "little").translate(_REVERSED)
    return int.from_bytes(raw, "big") >> (8 * size - 1 - n)


def _scaled_add(coeffs: list, k: int):
    # in place coeffs *= (1 - q^k); reads are all pre-update values
    coeffs[k:] = map(sub, coeffs[k:], coeffs[: len(coeffs) - k])
    if (tally := stats.counts) is not None:
        tally["exact_passes"] += 1


def _divide(coeffs: list, k: int):
    # in place coeffs /= (1 - q^k): a prefix sum along each residue class mod k
    if k * k <= len(coeffs):
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:                           # classes shorter than k: add one block of k at a time
        for start in range(k, len(coeffs), k):
            coeffs[start:start + k] = map(add, coeffs[start:start + k], coeffs[start - k:start])
    if (tally := stats.counts) is not None:
        tally["exact_passes"] += 1
        tally["coeff_bits"] = max(tally["coeff_bits"], *map(int.bit_length, coeffs))


def _exact_sum_factor(coeffs: list, f: FactorSpec):
    """In place ``coeffs`` times f by its sum (module docstring, step 1):
    Euler's for (q^c;q^m), term k added with sign (-1)^k, all plus for
    (-q^c;q^m), Cauchy's for 1/(q^c;q^m).  The term is a list aligned to q^n:
    its shift to term k drops the top entries, then ``_divide`` divides it by
    1 - q^(mk) (Cauchy: and by 1 - q^(c + m(k-1)))."""
    c, m = f.c, f.m
    cauchy = f.sign == RECIPROCAL
    op = sub if f.sign == POCHHAMMER else add
    g = coeffs[:]
    at, shift, d = 0, c, m          # term k: the shift to it from term k - 1, d = mk
    while shift < len(g):
        at += shift
        del g[len(g) - shift:]
        _divide(g, d)
        if cauchy:
            _divide(g, d + c - m)
        coeffs[at:] = map(op, coeffs[at:], g)
        if f.sign == POCHHAMMER:
            op = add if op is sub else sub
        shift, d = c + (2 * d if cauchy else d), d + m


def expand_factors(factors: Sequence[FactorSpec], n: int) -> ExactSeries:
    """Expand a product of infinite-product factors through exponent n by one
    sum per factor, the Pochhammer ones first, on the bare 1, so that the
    reciprocal sums' terms stay narrow (module docstring, step 1); terms
    above n contribute the identity."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    coeffs = [1] + [0] * n
    for f in sorted(factors, key=lambda f: f.sign == RECIPROCAL):
        _exact_sum_factor(coeffs, f)
    return ExactSeries(tuple(coeffs))


def _chain_divide(g: int, d: int) -> int:
    """g / (1 + q^d) mod 2 on reversed bits: a pass at each d * 2^i below g's width."""
    width = g.bit_length()
    if (tally := stats.counts) is not None and d < width:
        passes = ((width - 1) // d).bit_length()
        tally["sums_passes"] += passes
        tally["mod2_bits"] += passes * width
    while d < width:
        g ^= g >> d
        d <<= 1
    return g


def _sum_factor(rev: int, c: int, m: int, cauchy: bool) -> int:
    """``rev`` times 1/(q^c;q^m) by Cauchy's sum (``cauchy``) or (q^c;q^m) by
    Euler's, mod 2 on reversed bits: term k is term k - 1 times q^(c + m(k-1))
    over 1 + q^(mk), and for Cauchy times q^(m(k-1)) over 1 + q^(c + m(k-1)) too."""
    s = g = rev
    shift, d = c, m                 # term k: the shift to it from term k - 1, d = mk
    while g := g >> shift:
        g = _chain_divide(g, d)
        if cauchy:
            g = _chain_divide(g, d + c - m)
        s ^= g
        shift, d = c + (2 * d if cauchy else d), d + m
    return s


def expand_factors_mod2(factors: Sequence[FactorSpec], n: int) -> ParitySeries:
    """Parity of ``expand_factors(factors, n)``: the level walk's sums alone."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    return _level_product(n, (), (), 0, factors)


# _SPREAD_LOW[b] (_SPREAD_HIGH[b]) is bits 0-3 (4-7) of b moved to bits 0, 2,
# 4, 6; a nibble's binary digits read in base 4 are its spread
_NIBBLE_SPREAD = bytes(int(f"{i:b}", 4) for i in range(16))
_SPREAD_LOW = _NIBBLE_SPREAD * 16
_SPREAD_HIGH = bytes(s for s in _NIBBLE_SPREAD for _ in range(16))


def _spread(x: int, n: int) -> int:
    """Move bit k of x to bit 2k, dropping every bit that would land above n."""
    x &= (1 << (n // 2 + 1)) - 1
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LOW)
    out[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _level_product(n: int, steps: Sequence[int], numerator: Sequence[int], at: int,
                   factors: Sequence[FactorSpec]) -> ParitySeries:
    """N(q^(2^at)) / D(q) times the factors, mod 2 through q^n; D (N) is 1
    plus q^e over the increasing nonzero ``steps`` (``numerator``).  Level v
    holds F_v(x) = D(x) S_v(x) F_(v+1)(x^2) (times N(x) at v = at) in
    x = q^(2^v), reversed through x^(n >> v), where S_v is the product of the
    folded sums of level v; F_0, reversed back, is the product (module
    docstring, steps 2 and 3)."""
    net: dict = {}                  # (c, m) in x = q^(2^v): the net count in q
    for f in factors:
        if f.c <= n:
            m = f.m if f.m <= n else 0          # a factor of one term: c alone sets v,
            low = f.c | m
            v = (low & -low).bit_length() - 1
            key = f.c >> v, m >> v or n + 1     # and its step is n + 1 on every level
            net[key] = net.get(key, 0) + ((1 if f.sign == RECIPROCAL else -1) << v)
    sums: dict = {}                 # level: its sums, (c, m, cauchy) in x
    for (c, m), count in net.items():
        for j in range(abs(count).bit_length()):
            if abs(count) >> j & 1:
                sums.setdefault(j, []).append((c, m, count > 0))
    top = max(at, (n // steps[0]).bit_length() - 1 if steps else 0, *sums)
    tally = stats.counts
    rev = 1 << (n >> top)
    for v in range(top, -1, -1):
        w = n >> v
        if v < top:
            rev = _spread(rev, w) << (w & 1)      # bit w // 2 - e moves to w - 2e
        for terms in (steps, numerator) if v == at else (steps,):
            acc = rev
            for e in terms:
                if e > w:
                    break
                acc ^= rev >> e
            rev = acc
            if tally is not None:
                passes = bisect_right(terms, w)
                tally["mod2_passes"] += passes
                tally["mod2_bits"] += passes * w
        for c, m, cauchy in sums.get(v, ()):
            rev = _sum_factor(rev, c, m, cauchy)
    return ParitySeries(n, _reverse(rev, n))


def copartition_factors(params: CpParams) -> list[FactorSpec]:
    """The copartition generating product (q^(a+b);q^m) / ((q^b;q^m)(q^a;q^m))."""
    return [
        pochhammer(params.a + params.b, params.m),
        reciprocal(params.b, params.m),
        reciprocal(params.a, params.m),
    ]


def _theta_terms(a: int, m: int, n: int) -> list[list[int]]:
    """The exponents up to n >= 0 of theta(a, m) = sum_k (-1)^k q^(a*k + m*k*(k-1)/2)
    for k = 1, 2, ... and for k = -1, -2, ..., each increasing: the partial
    sums of a, a + m, a + 2m, ... and of m - a, 2m - a, ...  Needs 0 <= a <= m
    so that no exponent is negative; the term of k = 0 is 1.  By the Jacobi
    triple product theta(a, m) is (q^a;q^m)(q^(m-a);q^m)(q^m;q^m); Euler's
    (q^m;q^m) is the case (m, 3m).  For 0 < a < m the exponents are distinct
    unless 2a = m (a*k^2 for k and -k)."""
    # partial sum j of d, d + m, ... is d*j + m*j*(j-1)/2, at most n for j up
    # to (r + m - 2d) // 2m, r the isqrt of the discriminant (m - 2d)^2 + 8mn,
    # the same for d = a and d = m - a
    r = isqrt((m - 2 * a) ** 2 + 8 * m * n)
    return [list(accumulate(range(d, d + m * ((r + m - 2 * d) // (2 * m)), m)))
            for d in (a, m - a)]


def _signed_terms(a: int, m: int, n: int) -> list[tuple[int, int]]:
    """(exponent, sign) for every term of theta(a, m) through q^n, the term
    of k = 0 first: term k of either side of ``_theta_terms`` has sign (-1)^k."""
    return [(0, 1)] + [(e, 1 if k & 1 else -1) for side in _theta_terms(a, m, n)
                       for k, e in enumerate(side)]


def _theta_quotient(c: int, step: int, square: bool, n: int) -> list[int]:
    """E(q^step)^2 / theta(c, step) through q^n, or 1 / theta(c, step) unless
    ``square``, for 1 <= c < step: solves x * theta = N by
    x[j] = N[j] - sum_{e > 0} theta_e * x[j - e]."""
    theta: dict[int, int] = {}
    for e, sign in _signed_terms(c, step, n)[1:]:
        theta[e] = theta.get(e, 0) + sign       # 2c = step: k and -k add up
    steps = sorted(theta.items())
    if (tally := stats.counts) is not None:    # taps: j from e to n per exponent e
        tally["theta_taps"] += len(steps) * (n + 1) - sum(theta)
    x = [1] + [0] * n
    if square:
        euler = _signed_terms(step, 3 * step, n)
        x[0] = 0
        for e, s in euler:
            for f, t in euler:
                if e + f <= n:
                    x[e + f] += s * t
    for j in range(n + 1):
        acc = x[j]
        for e, t in steps:
            if e > j:
                break
            acc -= t * x[j - e]
        x[j] = acc
    return x


def _odd_steps(a: int, m: int, n: int) -> list[int]:
    """Nonzero exponents of theta(a, m) mod 2 through q^n, increasing; none when 2a = m."""
    if 2 * a == m:
        return []
    up, down = _theta_terms(a, m, n)
    return sorted(up + down)


def _theta_times_mod2(a: int, m: int, factors: Sequence[FactorSpec], n: int) -> ParitySeries:
    """theta(a, m) times the factors, mod 2 through q^n: the level walk's sums
    with theta's odd steps as its numerator on level 0."""
    return _level_product(n, (), _odd_steps(a, m, n), 0, factors)


def _plan(params: CpParams, n: int, mod2: bool):
    """The route of the family's product through q^n (module docstring, step
    4), from the residue coincidences of (a, b, m): (head, up, down), the
    product being the head's times prod (1 - q^k) over k in ``up`` over
    prod (1 - q^k) over k in ``down``, each k <= n.  On routes 1 and 2 the
    head is (c, step, square), for ``_theta_quotient``; on routes 3
    (``mod2`` only) and 4 it is a list of infinite factors."""
    a, b, m = params.a, params.b, params.m
    top = n + 1
    if a % m == 0 and (b % m or a < b):     # b the multiple of m, the smaller one
        a, b = b, a
    if b % m == 0:
        return (m, 3 * m, False), range(m, min(b, top), m), range(a, min(a + b, top), m)
    if (a + b) % m == 0:
        a0 = a % m
        up = [*range(a0, min(a, top), m), *range(m - a0, min(b, top), m)]
        return (a0, m, True), up, range(m, min(a + b, top), m)
    if mod2 and (b - a) % m == 0:
        a, b = min(a, b), max(a, b)
        up, down = range(a + b, min(2 * b, top), m), range(a, min(b, top), m)
        return [pochhammer(2 * b + m, 2 * m)], up, down
    return copartition_factors(params), (), ()


def copartition_series(params: CpParams, n: int) -> ExactSeries:
    """Exact counting series of the (a, b, m) copartition family through n."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    head, up, down = _plan(params, n, False)
    if isinstance(head, list):
        return expand_factors(head, n)
    coeffs = _theta_quotient(*head, n)
    for k in up:                    # the numerator first, as in expand_factors
        _scaled_add(coeffs, k)
    for k in down:
        _divide(coeffs, k)
    return ExactSeries(tuple(coeffs))


def copartition_parity(params: CpParams, n: int) -> ParitySeries:
    """Counting series of the (a, b, m) family reduced mod 2, through n, by the
    route ``_plan`` takes."""
    if n < 0:
        raise ValueError("truncation must be >= 0")
    head, up, down = _plan(params, n, True)
    finite = [pochhammer(k, n + 1) for k in up] + [reciprocal(k, n + 1) for k in down]
    if isinstance(head, list):
        return expand_factors_mod2(head + finite, n)
    c, step, square = head
    euler, at = [], 0
    if square:
        at = (step & -step).bit_length()    # E(q^(2m)) = E(x^(m >> v(m))) at level 1 + v(m)
        euler = _odd_steps(step >> at - 1, 3 * step >> at - 1, n >> at)
    return _level_product(n, _odd_steps(c, step, n), euler, at if euler else 0, finite)


def self_conjugate_series(a: int, m: int, n: int) -> ExactSeries:
    """Counts partitions into distinct parts that are >= m+2a and congruent
    to m+2a mod 2m; these are exactly the hook sizes of self-conjugate
    (a, a, m)-copartitions, so coefficient k also counts those."""
    if a < 1 or m < 1:
        raise ValueError("need a >= 1 and m >= 1")
    return expand_factors([negated_pochhammer(m + 2 * a, 2 * m)], n)


def self_conjugate_parity(a: int, m: int, n: int) -> ParitySeries:
    if a < 1 or m < 1:
        raise ValueError("need a >= 1 and m >= 1")
    return expand_factors_mod2([negated_pochhammer(m + 2 * a, 2 * m)], n)


def pentagonal_support(scale: int, n: int) -> set[int]:
    """{scale * k * (3k - 1) : k any integer} intersected with [0, n]: the
    exponents of Euler's (q^(2 scale); q^(2 scale)), theta(2 scale, 6 scale)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return {0, *_odd_steps(2 * scale, 6 * scale, n)} if n >= 0 else set()


def reduce_mod2(x: ExactSeries) -> ParitySeries:
    """Coefficient-wise reduction mod 2 into packed bits."""
    return ParitySeries.from_values(bytes([c & 1 for c in x.coeffs]))
