from copartitions import CpParams, TableData, count_copartitions, generate_table
from copartitions.series import copartition_parity
from copartitions.tables import (
    TABLE1_CHECKPOINTS,
    TABLE2_CHECKPOINTS,
    TABLE3_MODULI,
)


class TestTablePlans:
    def test_table1_layout(self):
        assert TABLE1_CHECKPOINTS == (1000, 3000, 5000, 7000, 9000, 11000, 13000, 15000)

    def test_table2_has_both_first_column_readings(self):
        assert TABLE2_CHECKPOINTS == (1000, 2000, 4000, 8000, 16000, 32000)
        data = generate_table(2)
        assert "cp_1_11_14" in data.labels and "cp_1_13_14" in data.labels
        assert "cp_3_11_14" in data.labels and "cp_5_9_14" in data.labels

    def test_table3_moduli_as_printed(self):
        assert TABLE3_MODULI == (3, 4, 5, 6, 7, 8, 9, 10, 12,
                                 14, 16, 18, 20, 22, 24, 26, 28, 30, 32)


class TestGeneration:
    def test_table1_is_deterministic(self):
        first = generate_table(1)
        second = generate_table(1)
        assert first == second
        assert first.rows() == second.rows()

    def test_cell_lookup(self):
        data = generate_table(1)
        assert data.column("cp_3_3_4").rounded[0] == data.reports[0].rounded[0]

    def test_small_cells_match_enumeration(self):
        data = generate_table(1)
        params = CpParams(3, 3, 4)
        n = 1000
        parity = copartition_parity(params, n)
        brute = sum(1 for k in range(1, 41) if count_copartitions(params, k) % 2 == 0)
        assert 40 - parity.count_odd(1, 40) == brute
        report = data.column("cp_3_3_4")
        assert report.even_counts[0] == n - parity.count_odd(1, n)

    def test_checkpoints_are_derived_from_the_reports(self):
        data = generate_table(1)
        stored = [name for cls in TableData.__mro__ for name in getattr(cls, "__slots__", ())]
        assert stored == ["reports"] and not hasattr(data, "__dict__")
        assert data.checkpoints == TABLE1_CHECKPOINTS
        assert all(r.checkpoints == TABLE1_CHECKPOINTS for r in data.reports)

    def test_unknown_table(self):
        import pytest
        with pytest.raises(ValueError):
            generate_table(4)
