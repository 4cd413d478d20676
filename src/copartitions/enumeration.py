"""Copartitions as explicit triples, with conjugation, hooks, and the crank.

A copartition for parameters (a, b, m) is a triple of partitions
(ground, rectangle, sky): ground parts are >= a and congruent to a mod m,
sky parts are >= b and congruent to b mod m, and the rectangle carries one
part of size m * (number of ground parts) for every sky part, so the ground
and the sky fix it: a ``Copartition`` stores those two and derives the
rectangle, empty whenever either is.  Its size is the total of all three.

The graphical picture drives the bijections below.  Rows of the rectangle
sit left of the sky rows (each sky part km+b drawn as a b-cell followed by
k m-cells); the ground hangs underneath the rectangle, transposed, with its
a-cells on top.  Conjugation reflects this diagram, swapping ground and sky
and transposing the rectangle.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from . import stats
from .params import CpParams, Record, _set

Parts = tuple[int, ...]


def _check_partition(parts: Parts, label: str):
    if any(u < v for u, v in zip(parts, parts[1:])):
        raise ValueError(f"{label} parts must be weakly decreasing, got {parts}")
    if parts and parts[-1] < 1:
        raise ValueError(f"{label} parts must be positive, got {parts}")


class Copartition(Record):
    """A copartition stored as its ground and sky; the rectangle is derived."""

    __slots__ = ("ground", "sky", "params")

    def __init__(self, ground: Parts, sky: Parts, params: CpParams):
        a, b, m = params.a, params.b, params.m
        _check_partition(ground, "ground")
        _check_partition(sky, "sky")
        for p in ground:
            if p < a or (p - a) % m:
                raise ValueError(f"ground part {p} is not >= {a} and congruent to {a} mod {m}")
        for p in sky:
            if p < b or (p - b) % m:
                raise ValueError(f"sky part {p} is not >= {b} and congruent to {b} mod {m}")
        _set(self, "ground", tuple(ground))
        _set(self, "sky", tuple(sky))
        _set(self, "params", params)

    @property
    def rectangle(self) -> Parts:
        """m * (number of ground parts) once per sky part; () when the ground is empty."""
        return (self.params.m * len(self.ground),) * len(self.sky) if self.ground else ()

    def crank(self) -> int:
        """Number of ground parts minus number of sky parts."""
        return len(self.ground) - len(self.sky)

    def conjugate(self) -> "Copartition":
        """Reflect the diagram: (ground, rectangle, sky) of the (a, b, m)
        family maps to (sky, transposed rectangle, ground) of (b, a, m)."""
        return Copartition(self.sky, self.ground, self.params.swapped())

    def is_self_conjugate(self) -> bool:
        """``conjugate() == self``, read from the fields."""
        return self.ground == self.sky and self.params.a == self.params.b


def _partitions_upto(budget: int, base: int, step: int,
                     extra: int) -> Iterator[tuple[int, Parts]]:
    """Every weakly decreasing tuple of parts from {base, base+step, ...}
    whose cost, the part total plus ``extra`` per part, is at most budget,
    as (cost, parts), the empty tuple first.  An iterative depth-first walk:
    each node extends its parent by one part no larger than the last, so
    every node it visits is a partition and none is visited twice."""
    tally = stats.counts
    stack = [(0, (), budget)]
    pop, push = stack.pop, stack.append
    while stack:
        cost, parts, top = pop()
        if tally is not None:
            tally["partitions_walked"] += 1
        yield cost, parts
        hi = budget - cost - extra
        if top < hi:
            hi = top
        for p in range(base, hi + 1, step):
            push((cost + p + extra, parts + (p,), p))


def _walk(params: CpParams, n: int) -> Iterator[tuple[int, Parts, Parts]]:
    """(size, ground, sky) once for every copartition of size <= n: an outer
    walk over the grounds, an inner one over the skies, where a sky part
    also pays its rectangle row, m cells per ground part."""
    if n < 0:
        raise ValueError("size must be >= 0")
    a, b, m = params.a, params.b, params.m
    for ground_total, ground in _partitions_upto(n, a, m, 0):
        for sky_cost, sky in _partitions_upto(n - ground_total, b, m, m * len(ground)):
            yield ground_total + sky_cost, ground, sky


def size_counts(params: CpParams, n: int) -> list[int]:
    """Number of copartitions of each size 0..n, by direct enumeration: the
    nodes of :func:`_walk`, one per copartition of size <= n, each counted
    once, in one flat loop that builds no parts.  A ground node is (total,
    number of parts, largest part allowed); under each, a sky node is (size,
    largest part allowed), where a sky part also pays m cells per ground part.

    This is the counting oracle the generating series is checked against;
    it never touches the series code.
    """
    if n < 0:
        raise ValueError("size must be >= 0")
    a, b, m = params.a, params.b, params.m
    counts = [0] * (n + 1)
    grounds, skies = [(0, 0, n)], []
    pop, push = skies.pop, skies.append
    while grounds:
        total, length, top = grounds.pop()
        for p in range(a, min(top, n - total) + 1, m):
            grounds.append((total + p, length + 1, p))
        row = m * length
        room = n - row                  # a sky part p fits under size s when p <= room - s
        push((total, n))
        while skies:
            size, top = pop()
            counts[size] += 1
            hi = room - size
            if top < hi:
                hi = top
            if hi >= b:
                size += row
                for p in range(b, hi + 1, m):
                    push((size + p, p))
    if (tally := stats.counts) is not None:
        tally["copartitions_counted"] += sum(counts)
    return counts


def enumerate_copartitions(params: CpParams, n: int) -> list[Copartition]:
    """All copartitions of size exactly n, in descending lexicographic
    (ground, sky) order."""
    triples = sorted(((g, s) for size, g, s in _walk(params, n) if size == n), reverse=True)
    return [Copartition(ground, sky, params) for ground, sky in triples]


def count_copartitions(params: CpParams, n: int) -> int:
    """Number of copartitions of size exactly n, by direct enumeration."""
    return size_counts(params, n)[n]


def crank_distribution(params: CpParams, n: int, modulus: int) -> dict[int, int]:
    """Histogram of crank values mod ``modulus`` over all copartitions of n.

    Residues that never occur are omitted.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    counts = Counter((len(g) - len(s)) % modulus for size, g, s in _walk(params, n) if size == n)
    return dict(sorted(counts.items()))


def hooks_to_distinct_parts(cp: Copartition) -> Parts:
    """Diagonal hook sizes of a self-conjugate copartition, largest first.

    A self-conjugate copartition has ground == sky (s parts) and an s-by-s
    rectangle of m-cells.  The hook at diagonal cell i (0-based from the top
    left) takes that cell, the rectangle cells below and to the right of it,
    one full sky row, and one full ground column: an odd number of m-cells
    plus exactly two a-cells.  With sky part a + m*k_i in row i the hook size
    is m*(2*(s-1-i+k_i) + 1) + 2a, so the hooks are distinct and congruent
    to m+2a mod 2m, and they sum to the copartition's size.
    """
    if not cp.is_self_conjugate():
        raise ValueError("hook decomposition needs a self-conjugate copartition")
    a, m = cp.params.a, cp.params.m
    s = len(cp.sky)
    hooks = []
    for i, part in enumerate(cp.sky):
        k = (part - a) // m
        hooks.append(m * (2 * (s - 1 - i + k) + 1) + 2 * a)
    return tuple(hooks)


def distinct_parts_to_hooks(parts, a: int, m: int) -> Copartition:
    """Rebuild the self-conjugate (a, a, m)-copartition whose hooks are
    ``parts``; inverse of :func:`hooks_to_distinct_parts`.

    Parts must be distinct, each >= m+2a and congruent to m+2a mod 2m.
    """
    params = CpParams(a, a, m)
    ordered = tuple(sorted(parts, reverse=True))
    if len(set(ordered)) != len(ordered):
        raise ValueError("hook parts must be distinct")
    lo = m + 2 * a
    s = len(ordered)
    sky = []
    for i, d in enumerate(ordered):
        if d < lo or (d - lo) % (2 * m):
            raise ValueError(f"part {d} is not >= {lo} and congruent to {lo} mod {2 * m}")
        k = (d - lo) // (2 * m) - (s - 1 - i)
        # distinct sorted parts make k weakly decreasing and >= 0
        sky.append(a + m * k)
    return Copartition(sky, sky, params)
