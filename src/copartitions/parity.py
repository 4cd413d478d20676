"""Parity analysis of copartition families.

The density reports and the parity checks read the packed GF(2) path.  The
oracle and self-conjugate checks compare the exact series with the
enumeration, and the oracle also with the packed path; parity-gf runs the
GF(2) sums of the counting product, andrews reads the exact series mod 5 and
the enumeration's cranks, and the form checks (Lemma 13) read no series.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt
from typing import Iterable, Iterator, Sequence

from . import stats
from .enumeration import (
    Copartition,
    _partitions_upto,
    crank_distribution,
    distinct_parts_to_hooks,
    hooks_to_distinct_parts,
    size_counts,
)
from .params import CpParams, Record, _set
from .series import (
    ParitySeries,
    _theta_times_mod2,
    copartition_factors,
    copartition_parity,
    copartition_series,
    expand_factors_mod2,
    pentagonal_support,
    reciprocal,
    reduce_mod2,
    self_conjugate_parity,
    self_conjugate_series,
)

TWO_SQUARES = "two_squares"
X2_PLUS_3Y2 = "x2_3y2"


class CheckResult(Record):
    """Outcome of one verification.

    ``checked`` counts the indices (sizes or exponents, unless a check says
    otherwise) a check tested, through the first failing one; it fails
    exactly when it names that ``counterexample`` (``passed`` is derived),
    and ``left`` and ``right`` are the claim's two sides there.  None tested
    is ``vacuous``.  ``status``, which each row and the CLI's verdict print,
    is "fail" unless it passed, else "vacuous" or "pass".  ``rows`` are the
    report rows, one per check, as the CLI prints them, stored as a tuple;
    rows holding dicts, as every check's do, make a result unhashable.
    """

    __slots__ = ("checked", "counterexample", "left", "right", "rows")

    def __init__(self, checked: int = 0, counterexample: int | None = None,
                 left: object = None, right: object = None, rows: tuple[dict, ...] = ()):
        _set(self, "checked", checked)
        _set(self, "counterexample", counterexample)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "rows", tuple(rows))

    @property
    def passed(self) -> bool:
        return self.counterexample is None      # index 0 is a real counterexample

    @property
    def vacuous(self) -> bool:
        return self.checked == 0

    @property
    def status(self) -> str:
        return "fail" if not self.passed else "vacuous" if self.vacuous else "pass"

    def __bool__(self) -> bool:
        return self.passed


def _needs(low: int, **sizes: int | None) -> None:
    """Refuses a size below ``low``: when any of ``sizes`` but None is, the
    ValueError names them all, as "needs n >= 0 and brute_max >= 0"."""
    if any(size is not None and size < low for size in sizes.values()):
        raise ValueError("needs " + " and ".join(f"{k} >= {low}" for k in sizes))


def _scan(row: dict, checked: int, bad: int | None = None, left=None, right=None,
          count_key: str | None = None) -> CheckResult:
    """Result of a scan that tested ``checked`` indices and failed at ``bad``
    (None when all passed); its one row is ``row``, then ``checked`` under
    ``count_key`` if given, then the status and the counterexample."""
    if count_key:
        row[count_key] = checked
    result = CheckResult(checked, bad, left, right, (row,))
    row.update(status=result.status, counterexample=bad)
    return result


def _compare(left: ParitySeries, right: ParitySeries, row: dict, mask: ParitySeries | None = None,
             count_key: str | None = None) -> CheckResult:
    """Bit-for-bit comparison on the exponents ``mask`` covers, by default all of ``left``'s."""
    covered = (2 << left.trunc) - 1 if mask is None else mask.bits
    diff = (left.bits ^ right.bits) & covered
    if not diff:
        return _scan(row, covered.bit_count(), count_key=count_key)
    k = (diff & -diff).bit_length() - 1
    return _scan(row, (covered & ((2 << k) - 1)).bit_count(), k, left.bit(k), right.bit(k),
                 count_key)


def _progression_bits(start: int, step: int, n: int) -> int:
    """The int with bits start, start + step, start + 2*step, ... through n
    (0 when start > n), built by doubling in O(log n) big-int operations."""
    if start > n:
        return 0
    span = n - start
    mask, width = 1, step           # bits 0, step, 2*step, ... below width
    while width <= span:
        mask |= mask << width
        width <<= 1
    return (mask & ((2 << span) - 1)) << start


def _sweep(row: dict, indices: Iterable[int], left, right) -> CheckResult:
    """Compares ``left(k)`` with ``right(k)`` at each index in turn; fails at
    the first k where they differ."""
    checked = 0
    for k in indices:
        checked += 1
        lv, rv = left(k), right(k)
        if lv != rv:
            return _scan(row, checked, k, lv, rv)
    return _scan(row, checked)


def merge_checks(results: Iterable[CheckResult]) -> CheckResult:
    """One result for a sweep: the first failing result's counterexample and
    values (so it passes when all pass), the checked counts summed, and the
    rows concatenated; vacuous when nothing was checked."""
    results = list(results)
    first = next((r for r in results if not r.passed), CheckResult())
    return CheckResult(sum(r.checked for r in results), first.counterexample, first.left,
                       first.right, tuple(row for r in results for row in r.rows))


def is_prime(n: int) -> bool:
    """Deterministic trial division; fine at desk scale."""
    if n < 4:
        return n > 1
    if n % 6 not in (1, 5):         # divisible by 2 or 3
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


# form tag -> (C, modulus, residue): n = A^2 + C*B^2 is solvable exactly
# when every prime p with p % modulus == residue (the form's bad class)
# divides n to an even power
_FORMS = {
    TWO_SQUARES: (1, 4, 3),
    X2_PLUS_3Y2: (3, 3, 2),
}
_BLOCK = 4096      # k per sieve block, whose values are one list of ints


def _primes(limit: int) -> list[int]:
    # Eratosthenes: the primes <= limit
    marks = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in compress(range(isqrt(limit) + 1), marks):
        marks[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), marks))


def _sieve(form: str, unit: int, shift: int, count: int) -> Iterator[bytes]:
    """The form's verdicts on unit*k + shift for 0 <= k < count as 0/1 flags,
    one bytes object per ``_BLOCK`` consecutive k.  Needs gcd(unit, shift) = 1.
    One table holds the primes p not 1 mod the modulus and not dividing the
    unit up to the root of the last value; each block divides out those up
    to the root of its own top value, on k = -shift/unit mod p.  An odd power
    of a bad-class prime clears the flag, and so does a cofactor in the bad
    class (primes 1 mod the modulus and at most one other prime)."""
    _, modulus, residue = _FORMS[form]
    tally = stats.counts
    top = isqrt(unit * (count - 1) + shift) if count else 0
    primes = [p for p in _primes(top) if unit % p and p % modulus != 1]
    for start in range(0, count, _BLOCK):
        rest = list(range(unit * start + shift, unit * min(start + _BLOCK, count) + shift, unit))
        flags = bytearray([1]) * len(rest)
        for p in primes[:bisect_right(primes, isqrt(rest[-1]))]:
            bad = p % modulus == residue
            hits = range((-shift * pow(unit, -1, p) - start) % p, len(rest), p)
            for i in hits:
                v, odd = rest[i] // p, True
                while v % p == 0:
                    v, odd = v // p, not odd
                rest[i] = v
                if bad and odd:
                    flags[i] = 0
            if tally is not None:
                tally["sieve_hits"] += len(hits)
        if tally is not None:
            tally["sieve_values"] += len(rest)
        yield bytes(f and v % modulus != residue for f, v in zip(flags, rest))


def _represents(form: str, n: int) -> bool:
    """The sieve's criterion on one value, by trial division up to the root of
    the cofactor left, which is then 1 or a prime."""
    _needs(1, n=n)
    _, modulus, residue = _FORMS[form]
    p = 2
    while p * p <= n:
        odd = False
        while n % p == 0:
            n, odd = n // p, not odd
        if odd and p % modulus == residue:
            return False
        p += 1 if p == 2 else 2
    return n % modulus != residue


def is_sum_of_two_squares(n: int) -> bool:
    """Sieve criterion: n = A^2 + B^2 is solvable exactly when every prime of
    the form's bad class (``_FORMS``) divides n to an even power."""
    return _represents(TWO_SQUARES, n)


def is_x2_plus_3y2(n: int) -> bool:
    """The same criterion for A^2 + 3B^2, used for n congruent to 1 mod 6.
    Defined for all n >= 1, but the representability reading is only
    claimed on the 1 mod 6 class."""
    return _represents(X2_PLUS_3Y2, n)


def brute_force_representable(n: int, form: str) -> bool:
    """Exhaustive search for n = A^2 + C*B^2 with A, B >= 0 (C from the form
    table); the independent check on the sieve's verdicts."""
    _needs(0, n=n)
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}")
    coef = _FORMS[form][0]
    a = 0
    while a * a <= n:
        q, r = divmod(n - a * a, coef)
        if r == 0:
            b = isqrt(q)
            if b * b == q:
                return True
        a += 1
    return False


def _restricted_form(n: int) -> bool:
    # 4n = u^2 + 3v^2 with u and v both coprime to 6
    target = 4 * n
    u = 1
    while u * u <= target:
        if u % 6 in (1, 5):
            q, r = divmod(target - u * u, 3)
            if r == 0:
                v = isqrt(q)
                if v * v == q and v % 6 in (1, 5):
                    return True
        u += 1
    return False


def form_equivalence_check(n: int) -> CheckResult:
    """For n congruent to 1 mod 6: n = A^2 + 3B^2 is solvable exactly when
    4n = u^2 + 3v^2 is solvable with u and v both coprime to 6.  Both sides
    are decided by brute search, as ``left`` and ``right``, at the one index n."""
    if n < 1 or n % 6 != 1:
        raise ValueError("needs n >= 1 with n congruent to 1 mod 6")
    return _sweep({"n": n}, (n,), lambda k: brute_force_representable(k, X2_PLUS_3Y2),
                  _restricted_form)


def form_equivalence_sweep_check(n_max: int) -> CheckResult:
    """``form_equivalence_check`` at every n congruent to 1 mod 6 up to
    n_max, the indices checked; each side is one brute search that marks
    the values up to n_max its form represents, and the two are compared as
    packed bits under the mask of 1 mod 6 (``left`` and ``right`` are the
    two bits at a counterexample)."""
    _needs(0, n_max=n_max)
    direct = bytearray(n_max + 1)
    threes = [3 * b * b for b in range(isqrt(n_max // 3) + 1)]
    for a in range(isqrt(n_max) + 1):
        square = a * a                  # b up to isqrt((n_max - a^2) / 3)
        for t in threes[:isqrt((n_max - square) // 3) + 1]:
            direct[square + t] = 1
    coprime = [u for u in range(isqrt(4 * n_max) + 1) if u % 6 in (1, 5)]
    threes = [3 * v * v for v in coprime]
    restricted = bytearray(n_max + 1)
    for u in coprime:
        square = u * u                  # v up to isqrt((4 n_max - u^2) / 3)
        for t in threes[:bisect_right(coprime, isqrt((4 * n_max - square) // 3))]:
            restricted[(square + t) // 4] = 1
    return _compare(ParitySeries.from_values(direct), ParitySeries.from_values(restricted),
                    {"n_max": n_max}, ParitySeries(n_max, _progression_bits(1, 6, n_max)),
                    "checked")


# family tag -> (unit, shift, parameters, form): the family's count at k is
# forced even when the form does not represent unit*k + shift
_FAMILIES = {
    "cp314": (24, 5, CpParams(3, 1, 4), TWO_SQUARES),
    "cp516": (6, 1, CpParams(5, 1, 6), X2_PLUS_3Y2),
}
FAMILIES = tuple(_FAMILIES)


def _family(family: str) -> tuple[int, int, CpParams, str]:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILIES[family]


def _forced_even(family: str, k: int) -> bool:
    _needs(0, n=k)
    unit, shift, _, form = _FAMILIES[family]
    return not _represents(form, unit * k + shift)


def even_guarantee_314(n: int) -> bool:
    """True when the (3,1,4) count at n is forced even: 24n+5 is not a sum
    of two squares.  Sufficient only."""
    return _forced_even("cp314", n)


def even_guarantee_516(n: int) -> bool:
    """True when the (5,1,6) count at n is forced even: 6n+1 is not of the
    form A^2 + 3B^2.  Sufficient only."""
    return _forced_even("cp516", n)


def even_guarantee_check(family: str, n: int, brute_max: int | None = None) -> CheckResult:
    """The family's count is even at every k <= n its guarantee covers
    (``even_guarantee_314`` or ``even_guarantee_516``): ``checked`` counts
    those k, ``left`` is the parity bit and ``right`` 0.  With ``brute_max``,
    also checks the sieve's verdict (``left``) against brute search on every
    value unit*k + shift <= brute_max, which is then the index."""
    unit, shift, params, form = _family(family)
    _needs(0, n=n, brute_max=brute_max)
    parity = copartition_parity(params, n)
    count = n + 1 if brute_max is None else max(n + 1, (brute_max - shift) // unit + 1)
    flags = b"".join(_sieve(form, unit, shift, count))
    covered = ParitySeries(n, ParitySeries.from_values(flags[:n + 1]).bits ^ ((2 << n) - 1))
    scan = _compare(parity, ParitySeries(n, 0), {"n": n}, covered, "guaranteed_even")
    if brute_max is None:
        return scan
    return merge_checks([scan, _sweep(
        {"brute_max": brute_max}, range(shift, brute_max + 1, unit),
        lambda value: bool(flags[(value - shift) // unit]),
        lambda value: brute_force_representable(value, form))])


class ProgressionFamily(Record):
    """One prime's worth of guaranteed-even arithmetic progressions: the
    residues r mod p^2 with the family count always even on r, r+p^2, ...

    p must be a prime of the bad class of the family's form that does not
    divide the unit, so that ``delta``, the inverse of the unit mod p^2,
    exists; p then divides unit*k + shift exactly once on the residues."""

    __slots__ = ("family", "p")

    def __init__(self, family: str, p: int):
        unit, _, _, form = _family(family)
        _, modulus, residue = _FORMS[form]
        if not (p % modulus == residue and unit % p and is_prime(p)):
            raise ValueError(f"{family} needs a prime p = {residue} mod {modulus} "
                             f"that does not divide {unit}, got {p}")
        _set(self, "family", family)
        _set(self, "p", p)

    @property
    def modulus(self) -> int:
        return self.p * self.p

    @property
    def delta(self) -> int:
        return pow(_FAMILIES[self.family][0], -1, self.modulus)

    @property
    def params(self) -> CpParams:
        return _FAMILIES[self.family][2]

    @property
    def residues(self) -> tuple[int, ...]:
        shift, delta = _FAMILIES[self.family][1], self.delta
        return tuple(sorted((self.p * t - shift * delta) % self.modulus for t in range(1, self.p)))


def verify_even_progression(parity: ParitySeries, modulus: int, residue: int,
                            n: int) -> CheckResult:
    """Confirm the ``parity`` bit (``left``; ``right`` is 0) is 0 at every
    index congruent to ``residue`` mod ``modulus`` up to n, each one checked,
    by one packed comparison under the mask of that class.  ``parity`` must
    reach n, even when no index up to n lies in the class."""
    _needs(0, n=n)
    if not 0 <= residue < modulus:
        raise ValueError(f"residue {residue} outside 0..{modulus - 1}")
    if parity.trunc < n:
        raise ValueError(f"supplied parity series stops at {parity.trunc} < {n}")
    mask = ParitySeries(n, _progression_bits(residue, modulus, n))
    return _compare(parity, ParitySeries(n, 0), {"residue": residue, "n": n}, mask)


def progression_check(family: str, p: int, n: int) -> CheckResult:
    """``verify_even_progression`` on every residue class of
    ``ProgressionFamily(family, p)`` up to n, after a row describing the
    family, merged by ``merge_checks``; the classes share one parity series,
    and each builds its mask in O(log n) big-int operations."""
    _needs(0, n=n)
    fam = ProgressionFamily(family, p)
    parity = copartition_parity(fam.params, n)
    header = {"family": fam.family, "p": fam.p, "modulus": fam.modulus,
              "delta": fam.delta, "residues": list(fam.residues)}
    return merge_checks([CheckResult(rows=(header,))] + [
        verify_even_progression(parity, fam.modulus, r, n) for r in fam.residues])


def format_proportion(num: int, den: int) -> str:
    """num/den >= 0 rounded half away from zero, printed with exactly three
    fractional digits."""
    if den <= 0 or num < 0:
        raise ValueError("needs num >= 0 and den > 0")
    q = (2000 * num + den) // (2 * den)
    return f"{q // 1000}.{q % 1000:03d}"


def _increasing_checkpoints(checkpoints: Iterable[int]) -> tuple[int, ...]:
    cs = tuple(checkpoints)
    if not cs or list(cs) != sorted(set(cs)) or cs[0] < 1:
        raise ValueError("checkpoints must be increasing and >= 1")
    return cs


class DensityReport(Record):
    """Even-value proportions of one family at increasing checkpoints.

    even_counts[i] is #{1 <= k <= checkpoints[i] : count(k) even};
    ``rounded`` divides it by the checkpoint and rounds to 3 decimals, half
    away from zero.
    """

    __slots__ = ("params", "checkpoints", "even_counts")

    def __init__(self, params: CpParams, checkpoints: tuple[int, ...],
                 even_counts: tuple[int, ...]):
        cs, es = _increasing_checkpoints(checkpoints), tuple(even_counts)
        if len(es) != len(cs):
            raise ValueError("per-checkpoint sequences must align")
        if any(e1 > e2 for e1, e2 in zip(es, es[1:])):
            raise ValueError("even counts cannot decrease")
        if any(not 0 <= e <= n for e, n in zip(es, cs)):
            raise ValueError("even counts must lie in [0, n]")
        _set(self, "params", params)
        _set(self, "checkpoints", cs)
        _set(self, "even_counts", es)

    @property
    def rounded(self) -> tuple[str, ...]:
        return tuple(map(format_proportion, self.even_counts, self.checkpoints))


def density_report(params: CpParams, checkpoints: Sequence[int],
                   parity: ParitySeries | None = None) -> DensityReport:
    """Proportion of even counts among indices 1..n at each checkpoint n."""
    cs = _increasing_checkpoints(checkpoints)
    if parity is None:
        parity = copartition_parity(params, cs[-1])
    elif parity.trunc < cs[-1]:
        raise ValueError(f"supplied parity series stops at {parity.trunc} < {cs[-1]}")
    return DensityReport(params, cs, tuple(n - parity.count_odd(1, n) for n in cs))


def _pentagonal_identity(a: int, m: int, n: int, row: dict) -> CheckResult:
    # the sums: the theta quotient would make the identity a tautology
    left = _theta_times_mod2(a, m, copartition_factors(CpParams(a, m - a, m)), n)
    return _compare(left, ParitySeries.from_support(pentagonal_support(m, n), n), row)


def lacunary_odd_support_check(a: int, n: int) -> CheckResult:
    """For odd a: the odd values of the (a, a, 2a) family up to n sit exactly
    on {2a * k * (3k - 1)}, the pentagonal exponents scaled by 2a.  This is
    ``theta_product_identity_check`` at m = 2a, where theta(a, 2a) is 1 mod 2."""
    if a < 1 or a % 2 == 0:
        raise ValueError(f"needs odd a >= 1, got {a}")
    _needs(0, n=n)
    return _pentagonal_identity(a, 2 * a, n, {"a": a, "n": n})


def theta_product_identity_check(a: int, m: int, n: int) -> CheckResult:
    """Mod 2, the (a, m-a, m) counting series times the signed theta series
    of its denominator (``left``) equals the indicator of {m * k * (3k - 1)}
    (``right``) through n."""
    if not 1 <= a < m:
        raise ValueError(f"needs 1 <= a < m, got a={a}, m={m}")
    _needs(0, n=n)
    return _pentagonal_identity(a, m, n, {"a": a, "m": m, "n": n})


def parity_gf_check(a: int, m: int, n: int) -> CheckResult:
    """The (a, a, m) counting series mod 2 (``left``) equals the parity of the
    self-conjugate series (-q^(m+2a); q^(2m)) (``right``) through n.  ``left``
    is the GF(2) sums of the three factors, not ``copartition_parity``, whose
    route 3 starts from ``right``; the sums' f(q)^2 = f(q^2) step is checked
    over Z by ``test_three_paths_match_the_log_derivative_recurrence`` and by
    ``oracle_check`` (n <= 35)."""
    _needs(0, n=n)
    left = expand_factors_mod2(copartition_factors(CpParams(a, a, m)), n)
    return _compare(left, self_conjugate_parity(a, m, n), {"a": a, "m": m, "n": n})


def self_conjugate_check(a: int, m: int, n: int) -> CheckResult:
    """At every size k <= n, the self-conjugate (a, a, m)-copartitions are
    as many as the self-conjugate series says, and each one survives the
    round trip through its hook sizes.  At a counterexample ``left`` is the
    enumerated count and ``right`` the coefficient, equal to it when only
    the round trip failed."""
    _needs(0, n=n)
    series = self_conjugate_series(a, m, n)
    params = CpParams(a, a, m)
    found = [[] for _ in range(n + 1)]
    # ground == sky with s parts has size 2*sum + m*s^2 <= n; as s^2 >= 2s - 1,
    # its cost sum + m*s is at most (n + m) // 2, and so is every prefix's
    for cost, ground in _partitions_upto((n + m) // 2, a, m, m):
        s = len(ground)
        if (size := 2 * cost + m * s * (s - 2)) <= n:
            found[size].append(Copartition(ground, ground, params))
    for k in range(n + 1):
        round_trips = all(sum(hooks := hooks_to_distinct_parts(cp)) == k
                          and distinct_parts_to_hooks(hooks, a, m) == cp for cp in found[k])
        if not round_trips or len(found[k]) != series[k]:
            return _scan({"a": a, "m": m, "n_max": n}, k + 1, k, len(found[k]), series[k])
    return _scan({"a": a, "m": m, "n_max": n}, n + 1)


def oracle_check(params: CpParams, n: int) -> CheckResult:
    """The three paths to a count agree at every size up to n: brute-force
    enumeration counts equal the counting-series coefficients, and the packed
    parity series is those coefficients mod 2.  At a counterexample ``left``
    and ``right`` are the count and the coefficient, or, when all counts
    agree, the packed bit and the coefficient's."""
    _needs(0, n=n)
    series, counts = copartition_series(params, n), size_counts(params, n)
    row = {"a": params.a, "b": params.b, "m": params.m, "n_max": n}
    check = _sweep(dict(row), range(n + 1), counts.__getitem__, series.__getitem__)
    if not check:
        return check
    return _compare(copartition_parity(params, n), reduce_mod2(series), row)


def odd_term_count_check(a: int, m: int, n_max: int) -> CheckResult:
    """Quantitative check on the theta series divided by (1 - q), mod 2.

    The quotient expands into blocks of consecutive odd exponents: block j
    has a*(2j+1) of them from -a*j + m*j*(j+1)/2, then a gap of
    (j+1)*(m - 2a) + 1.  With 1 <= a < m/2 (required), blocks j < N end at
    or below floor(m*N^2/2) and block N starts above it, so exponents
    0..floor(m*N^2/2) hold exactly a*N^2 odd terms for every N.  Compares
    the expansion bit for bit with the series product through
    m*n_max^2//2, every exponent checked (m*n_max^2//2 + 1 on a pass); the
    only counterexample is the first exponent where they differ, ``left``
    the product's bit and ``right`` the blocks'.
    """
    if not (1 <= a and 2 * a < m):
        raise ValueError(f"needs 1 <= a < m/2, got a={a}, m={m}")
    _needs(1, n_max=n_max)
    top = m * n_max * n_max // 2
    blocks = 0
    j = 0
    while True:
        start, length = -a * j + m * j * (j + 1) // 2, a * (2 * j + 1)
        if start > top:
            break
        clipped = min(length, top - start + 1)
        blocks |= ((1 << clipped) - 1) << start
        j += 1
    quotient = _theta_times_mod2(a, m, [reciprocal(1, top + 1)], top)     # 1/(1 - q)
    return _compare(quotient, ParitySeries(top, blocks), {"a": a, "m": m, "n_max": n_max})


def both_parities_prefix_check(a: int, m: int, n: int, witness_min: int) -> CheckResult:
    """Both parities occur at least ``witness_min`` (``right``) times among the
    (a, m-a, m) counts at indices 0..n, all checked; else the counterexample
    is n and ``left`` the count of the scarcer parity."""
    if not 1 <= a < m:
        raise ValueError(f"needs 1 <= a < m, got a={a}, m={m}")
    _needs(0, n=n, witness_min=witness_min)
    odd = copartition_parity(CpParams(a, m - a, m), n).bits.bit_count()
    scarcer = min(odd, n + 1 - odd)
    row = {"a": a, "m": m, "n": n, "witness_min": witness_min}
    failure = (n, scarcer, witness_min) if scarcer < witness_min else ()
    result = CheckResult(n + 1, *failure, rows=(row,))
    row["status"] = result.status
    return result


ENUMERABLE_CRANK_SIZES = (4, 9, 14, 19, 24)


def andrews_mod5_check(n: int, enum_sizes: Iterable[int]) -> CheckResult:
    """The (1, 1, 2) count at 5k+4 is divisible by 5 for all 5k+4 <= n, on the
    exact path (``left`` the count mod 5, ``right`` 0), and the crank is
    equidistributed mod 5 at each requested enumerable size, one index each:
    the size, with ``left`` and ``right`` the fewest and the most copartitions
    in one crank class mod 5, where an absent class counts 0."""
    sizes = tuple(enum_sizes)
    if not set(sizes) <= set(ENUMERABLE_CRANK_SIZES):
        raise ValueError(f"enumerable sizes are {ENUMERABLE_CRANK_SIZES}, got {sizes}")
    _needs(0, n=n)
    series = copartition_series(CpParams(1, 1, 2), n)
    results = [_sweep({"n": n}, range(4, n + 1, 5), lambda k: series[k] % 5, lambda k: 0)]
    for s in sizes:
        dist = crank_distribution(CpParams(1, 1, 2), s, 5)
        counts = [dist.get(r, 0) for r in range(5)]
        row = {"size": s, "distribution": {str(k): v for k, v in dist.items()}}
        failure = () if 0 < min(counts) == max(counts) else (s, min(counts), max(counts))
        results.append(crank := CheckResult(1, *failure, rows=(row,)))
        row["status"] = crank.status
    return merge_checks(results)
