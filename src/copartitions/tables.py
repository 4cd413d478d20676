"""Density-table definitions and regeneration.

Three tables, regenerated from scratch on the packed parity path:

* table 1: families (3,3,4) and (1,1,6) at checkpoints 1000, 3000, ..., 15000;
* table 2: the m=14 complementary families at checkpoints 1000..32000,
  including both readings of the ambiguous first column, (1,11,14) as
  labelled and (1,13,14) as the a + b = m pattern dictates;
* table 3: families (1, m-1, m) for the printed m values, same checkpoints.
"""

from __future__ import annotations

from .params import CpParams, Record, _set
from .parity import DensityReport, density_report

TABLE1_CHECKPOINTS = tuple(range(1000, 15001, 2000))
TABLE2_CHECKPOINTS = (1000, 2000, 4000, 8000, 16000, 32000)
TABLE3_CHECKPOINTS = TABLE2_CHECKPOINTS
TABLE3_MODULI = (3, 4, 5, 6, 7, 8, 9, 10, 12) + tuple(range(14, 33, 2))

TABLE1_FAMILIES = (CpParams(3, 3, 4), CpParams(1, 1, 6))
TABLE2_FAMILIES = (
    CpParams(1, 11, 14),   # as labelled
    CpParams(1, 13, 14),   # the a + b = m reading
    CpParams(3, 11, 14),
    CpParams(5, 9, 14),
)
TABLE3_FAMILIES = tuple(CpParams(1, m - 1, m) for m in TABLE3_MODULI)


_TABLE_PLANS = {
    1: (TABLE1_CHECKPOINTS, TABLE1_FAMILIES),
    2: (TABLE2_CHECKPOINTS, TABLE2_FAMILIES),
    3: (TABLE3_CHECKPOINTS, TABLE3_FAMILIES),
}


class TableData(Record):
    """One density report per family column, all at the same checkpoints."""

    __slots__ = ("reports",)

    def __init__(self, reports: tuple[DensityReport, ...]):
        _set(self, "reports", tuple(reports))

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return self.reports[0].checkpoints

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.params.label() for r in self.reports)

    def column(self, label: str) -> DensityReport:
        for r in self.reports:
            if r.params.label() == label:
                return r
        raise KeyError(label)

    def rows(self) -> list[list]:
        columns = [r.rounded for r in self.reports]
        return [[n, *cells] for n, *cells in zip(self.checkpoints, *columns)]


def generate_table(which: int) -> TableData:
    """Regenerate one table from scratch."""
    if which not in _TABLE_PLANS:
        raise ValueError(f"no table {which}; choose 1, 2 or 3")
    checkpoints, families = _TABLE_PLANS[which]
    return TableData(tuple(density_report(params, checkpoints) for params in families))
