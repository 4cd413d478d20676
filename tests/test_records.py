"""The contract every library record keeps: immutable, equal and hashed by
class and fields, printed as Name(field=value, ...), validated when built."""

import copy
import pickle

import pytest

from copartitions import (
    CheckResult,
    Copartition,
    CpParams,
    DensityReport,
    ExactSeries,
    FactorSpec,
    ParitySeries,
    ProgressionFamily,
    TableData,
)
from copartitions.params import Record

P = CpParams(1, 2, 3)
REPORT = DensityReport(P, (1, 2), (0, 1))

RECORDS = [
    (CpParams, (1, 2, 3), (1, 2, 4), "CpParams(a=1, b=2, m=3)"),
    (FactorSpec, (2, 3, "pochhammer"), (2, 3, "reciprocal"),
     "FactorSpec(c=2, m=3, sign='pochhammer')"),
    (ExactSeries, ((1, 0, 4),), ((1, 0, 5),), "ExactSeries(coeffs=(1, 0, 4))"),
    (ParitySeries, (2, 5), (2, 4), "ParitySeries(trunc=2, bits=5)"),
    (Copartition, ((4, 1), (2,), P), ((1,), (2,), P),
     "Copartition(ground=(4, 1), sky=(2,), params=CpParams(a=1, b=2, m=3))"),
    (CheckResult, (3, 2, 1, 0, ()), (3, 2, 1, 1, ()),
     "CheckResult(checked=3, counterexample=2, left=1, right=0, rows=())"),
    (ProgressionFamily, ("cp314", 19), ("cp314", 23),
     "ProgressionFamily(family='cp314', p=19)"),
    (DensityReport, (P, (1, 2), (0, 1)), (P, (1, 2), (0, 2)),
     "DensityReport(params=CpParams(a=1, b=2, m=3), checkpoints=(1, 2), even_counts=(0, 1))"),
    (TableData, ((REPORT,),), ((REPORT, REPORT),),
     "TableData(reports=(DensityReport(params=CpParams(a=1, b=2, m=3), checkpoints=(1, 2), "
     "even_counts=(0, 1)),))"),
]
RECORD_IDS = [cls.__name__ for cls, *_ in RECORDS]

# each validation with the ValueError text it has always raised
INVALID = [
    (CpParams, (0, 2, 3), "copartition parameters must be >= 1, got (0, 2, 3)"),
    (CpParams, (1, 2, -1), "copartition parameters must be >= 1, got (1, 2, -1)"),
    (FactorSpec, (0, 3, "pochhammer"), "factor needs c >= 1 and m >= 1, got c=0, m=3"),
    (FactorSpec, (2, 0, "reciprocal"), "factor needs c >= 1 and m >= 1, got c=2, m=0"),
    (FactorSpec, (2, 3, "sideways"), "unknown factor sign 'sideways'"),
    (ExactSeries, ((),), "truncation must be >= 0"),
    (ParitySeries, (-1, 0), "truncation must be >= 0"),
    (ParitySeries, (2, 8), "bits outside the exponent range 0..trunc"),
    (ParitySeries, (2, -1), "bits outside the exponent range 0..trunc"),
    (Copartition, ((1, 4), (), P), "ground parts must be weakly decreasing, got (1, 4)"),
    (Copartition, ((0,), (), P), "ground parts must be positive, got (0,)"),
    (Copartition, ((), (2, 5), P), "sky parts must be weakly decreasing, got (2, 5)"),
    (Copartition, ((), (-1,), P), "sky parts must be positive, got (-1,)"),
    (Copartition, ((2,), (), P), "ground part 2 is not >= 1 and congruent to 1 mod 3"),
    (Copartition, ((), (3,), P), "sky part 3 is not >= 2 and congruent to 2 mod 3"),
    (ProgressionFamily, ("cp400", 7), "unknown family 'cp400'"),
    (ProgressionFamily, ("cp314", 5),
     "cp314 needs a prime p = 3 mod 4 that does not divide 24, got 5"),
    (ProgressionFamily, ("cp516", 2),
     "cp516 needs a prime p = 2 mod 3 that does not divide 6, got 2"),
    (DensityReport, (P, (2, 1), (0, 0)), "checkpoints must be increasing and >= 1"),
    (DensityReport, (P, (), ()), "checkpoints must be increasing and >= 1"),
    (DensityReport, (P, (1, 2), (0,)), "per-checkpoint sequences must align"),
    (DensityReport, (P, (1, 2), (1, 0)), "even counts cannot decrease"),
    (DensityReport, (P, (1, 2), (0, 3)), "even counts must lie in [0, n]"),
]


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=RECORD_IDS)
def test_record_contract(cls, args, changed, text):
    record = cls(*args)
    twin = cls(*args)
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record is not twin
    assert record != cls(*changed) and not record == cls(*changed)

    other = object.__new__(type("Other", (Record,), {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, args):
        object.__setattr__(other, name, value)
    assert record != other and other != record and other == other
    assert record != args and args != record

    fields = [name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())]
    assert fields and not hasattr(record, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in fields) == args

    assert repr(record) == text
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, args, text", INVALID,
                         ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(INVALID)])
def test_record_validation_text(cls, args, text):
    with pytest.raises(ValueError) as err:
        cls(*args)
    assert str(err.value) == text


def test_check_result_keywords_defaults_and_truth():
    assert CheckResult() == CheckResult(checked=0, counterexample=None, left=None, right=None,
                                        rows=())
    failed = CheckResult(checked=4, counterexample=0, rows=({"n": 4},))
    assert (failed.passed, failed.vacuous, failed.left, failed.right) == (False, False, None, None)
    assert failed.checked == 4 and failed.rows == ({"n": 4},)
    assert bool(CheckResult()) is True and bool(failed) is False


def test_sequence_fields_are_stored_as_tuples():
    # a caller's lists become tuples, so the record is hashable and equal to the tuple-built one
    assert DensityReport(P, [1, 2], [0, 1]) == DensityReport(P, (1, 2), (0, 1))
    assert hash(ExactSeries([1, 0, 4])) == hash(ExactSeries((1, 0, 4)))
    built = [
        (ExactSeries([1, 0, 4]), ("coeffs",)),
        (DensityReport(P, [1, 2], [0, 1]), ("checkpoints", "even_counts")),
        (TableData([REPORT]), ("reports",)),
        (Copartition([4, 1], [2], P), ("ground", "rectangle", "sky")),
        (CheckResult(3, None, None, None, []), ("rows",)),
    ]
    for record, names in built:
        for name in names:
            assert type(getattr(record, name)) is tuple, (type(record).__name__, name)
        hash(record)
    same = (1, 2)
    assert DensityReport(P, same, (0, 1)).checkpoints is same   # a tuple is kept, not copied
