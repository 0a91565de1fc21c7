"""Tests for repro.data.io (CSV / export round trips)."""

import json

import pytest

from repro.data.io import (
    export_dataset,
    read_pairs_csv,
    read_table_csv,
    write_pairs_csv,
    write_table_csv,
)
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Schema
from repro.exceptions import DatasetError


@pytest.fixture()
def schema() -> Schema:
    return Schema.from_names(["title", "price"])


@pytest.fixture()
def table(schema) -> Table:
    table = Table("left", schema)
    table.add(Record("l0", {"title": "sony tv", "price": "100"}, entity_id="e0"))
    table.add(Record("l1", {"title": "lg monitor", "price": ""}))
    return table


class TestTableCSV:
    def test_roundtrip(self, tmp_path, table, schema):
        path = write_table_csv(table, tmp_path / "tableA.csv")
        loaded = read_table_csv(path, schema, name="left")
        assert len(loaded) == 2
        assert loaded["l0"].value("title") == "sony tv"
        assert loaded["l0"].entity_id == "e0"
        assert loaded["l1"].entity_id is None

    def test_missing_file_raises(self, tmp_path, schema):
        with pytest.raises(DatasetError):
            read_table_csv(tmp_path / "nope.csv", schema)

    def test_missing_id_column_raises(self, tmp_path, schema):
        path = tmp_path / "bad.csv"
        path.write_text("title,price\nsony tv,100\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            read_table_csv(path, schema)


class TestPairsCSV:
    def test_roundtrip_preserves_labels(self, tmp_path):
        pairs = PairSet([
            CandidatePair("p0", "l0", "r0", 1),
            CandidatePair("p1", "l1", "r1", 0),
            CandidatePair("p2", "l2", "r2", None),
        ])
        path = write_pairs_csv(pairs, tmp_path / "pairs.csv")
        loaded = read_pairs_csv(path)
        assert list(loaded) == list(pairs)

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            read_pairs_csv(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_pairs_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("label", ["1.0", "yes"])
    def test_malformed_label_names_file_and_line(self, tmp_path, label):
        path = tmp_path / "pairs.csv"
        path.write_text(f"ltable_id,rtable_id,label\nl0,r0,1\nl1,r1,{label}\n",
                        encoding="utf-8")
        with pytest.raises(DatasetError) as raised:
            read_pairs_csv(path)
        message = str(raised.value)
        assert str(path) in message
        assert "line 3" in message
        assert repr(label) in message


class TestDatasetExport:
    def test_export_layout(self, tmp_path, tiny_dataset):
        written = export_dataset(tiny_dataset, tmp_path / "bench")
        assert set(written) == {"tableA", "tableB", "pairs", "split"}
        for path in written.values():
            assert path.exists()
        split = json.loads(written["split"].read_text(encoding="utf-8"))
        assert set(split) == {"train", "validation", "test"}
        assert len(split["train"]) == len(tiny_dataset.train_indices)
