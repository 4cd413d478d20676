import hashlib
import json
import os
from dataclasses import fields

from copartitions import CpParams, TableData, count_copartitions, generate_table
from copartitions import cache
from copartitions.cache import load_parity, store_parity
from copartitions.series import ParitySeries, copartition_parity
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
        assert data.cell(1000, "cp_3_3_4") == data.reports[0].rounded[0]

    def test_small_cells_match_enumeration(self):
        data = generate_table(1)
        params = CpParams(3, 3, 4)
        n = 1000
        parity = copartition_parity(params, n)
        brute = sum(1 for k in range(1, 41) if count_copartitions(params, k) % 2 == 0)
        assert 40 - parity.count_odd(1, 40) == brute
        report = data.column("cp_3_3_4")
        assert report.even_counts[0] == n - parity.count_odd(1, n)

    def test_jobs_parallel_matches_serial(self):
        assert generate_table(1, jobs=2) == generate_table(1)

    def test_checkpoints_are_derived_from_the_reports(self):
        data = generate_table(1)
        assert [f.name for f in fields(TableData)] == ["reports"]
        assert data.checkpoints == TABLE1_CHECKPOINTS
        assert all(r.checkpoints == TABLE1_CHECKPOINTS for r in data.reports)

    def test_unknown_table(self):
        import pytest
        with pytest.raises(ValueError):
            generate_table(4)


class TestCache:
    def test_round_trip(self, tmp_path):
        params = CpParams(3, 1, 4)
        series = copartition_parity(params, 500)
        store_parity(tmp_path, params, 500, series)
        assert load_parity(tmp_path, params, 500) == series

    def test_miss_on_other_key(self, tmp_path):
        params = CpParams(3, 1, 4)
        store_parity(tmp_path, params, 500, copartition_parity(params, 500))
        assert load_parity(tmp_path, params, 400) is None
        assert load_parity(tmp_path, CpParams(1, 3, 4), 500) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        params = CpParams(3, 1, 4)
        series = copartition_parity(params, 300)
        store_parity(tmp_path, params, 300, series)
        entry = next(tmp_path.glob("parity-*.json"))
        entry.write_text(entry.read_text().replace('"bits_hex": "', '"bits_hex": "f'))
        assert load_parity(tmp_path, params, 300) is None

    def test_generate_table_populates_cache(self, tmp_path):
        generate_table(1, cache_dir=tmp_path)
        assert load_parity(tmp_path, CpParams(3, 3, 4), 15000) is not None
        # a poisoned entry for the wrong truncation must not be served
        bogus = ParitySeries(100, 1)
        store_parity(tmp_path, CpParams(3, 3, 4), 100, bogus)
        assert load_parity(tmp_path, CpParams(3, 3, 4), 100) == bogus

    def test_interleaved_writers_of_one_key(self, tmp_path, monkeypatch):
        # the second writer stores the same key while the first one is about
        # to rename its temporary file into place
        params = CpParams(3, 1, 4)
        series = copartition_parity(params, 200)
        real_replace = os.replace

        def replace_after_second_writer(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            store_parity(tmp_path, params, 200, series)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_second_writer)
        store_parity(tmp_path, params, 200, series)
        assert load_parity(tmp_path, params, 200) == series
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_entries_of_another_kernel_are_misses(self, tmp_path, monkeypatch):
        params = CpParams(3, 1, 4)
        series = copartition_parity(params, 300)
        monkeypatch.setattr(cache, "KERNEL_VERSION", cache.KERNEL_VERSION - 1)
        store_parity(tmp_path, params, 300, series)
        assert load_parity(tmp_path, params, 300) == series
        monkeypatch.undo()
        assert load_parity(tmp_path, params, 300) is None
        # the same payload under the current entry name is a miss too
        old = next(tmp_path.glob("parity-*.json"))
        old.rename(cache._entry_path(tmp_path, params, 300))
        assert load_parity(tmp_path, params, 300) is None

    def test_entries_without_a_kernel_version_are_misses(self, tmp_path):
        params = CpParams(3, 1, 4)
        bits_hex = format(copartition_parity(params, 300).bits, "x")
        legacy = {"version": 1, "a": 3, "b": 1, "m": 4, "n": 300, "bits_hex": bits_hex,
                  "sha256": hashlib.sha256(f"3:1:4:300:{bits_hex}".encode()).hexdigest()}
        for name in ("parity-v1-a3-b1-m4-n300.json", cache._entry_path(tmp_path, params, 300).name):
            (tmp_path / name).write_text(json.dumps(legacy))
        assert load_parity(tmp_path, params, 300) is None
