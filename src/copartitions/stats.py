"""Counters of the kernels' work that do not depend on the machine.

``counts`` is None except inside ``recording()``.  Each counted site reads
it once per call and adds to it only while it is a ``Counter``:

- ``exact_passes``: calls of ``series._scaled_add`` and ``series._divide``;
- ``coeff_bits``: the bit length of the widest coefficient a ``series._divide`` leaves;
- ``theta_taps``: the recurrence steps ``acc -= t * x[j - e]`` of ``series._theta_quotient``;
- ``mod2_passes``: the sparse-term passes of ``series._level_product``;
- ``sums_passes``: the doubling passes of ``series._chain_divide``, in the GF(2) sums;
- ``mod2_bits``: the bits both GF(2) kinds of pass run on, each pass weighted by its width;
- ``sieve_values``: the values ``parity._sieve`` decides;
- ``sieve_hits``: the (prime, value) pairs of ``parity._sieve`` where a sieving prime divides the value;
- ``partitions_walked``: the partitions ``enumeration._partitions_upto`` yields;
- ``copartitions_counted``: the sum of the counts ``enumeration.size_counts`` returns.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

counts: Counter | None = None


@contextmanager
def recording() -> Iterator[Counter]:
    """Count the kernels' work into a fresh Counter while the block runs;
    the counts outside it are restored on exit, also when the block raises."""
    global counts
    outer, counts = counts, Counter()
    try:
        yield counts
    finally:
        counts = outer
