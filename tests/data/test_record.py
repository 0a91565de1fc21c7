"""Tests for repro.data.record."""

import pytest

from repro.data.record import Record, Table
from repro.data.schema import Schema
from repro.exceptions import DatasetError


@pytest.fixture()
def schema() -> Schema:
    return Schema.from_names(["title", "brand", "price"])


class TestRecord:
    def test_value_returns_default_for_missing(self):
        record = Record("r1", {"title": "sony tv"})
        assert record.value("brand") == ""
        assert record.value("brand", default="unknown") == "unknown"

    def test_value_stringifies(self):
        record = Record("r1", {"price": 19.99})
        assert record.value("price") == "19.99"

    def test_rejects_empty_id(self):
        with pytest.raises(DatasetError):
            Record("", {"title": "x"})

    def test_text_concatenation(self):
        record = Record("r1", {"title": "sony tv", "brand": "sony"})
        assert record.text(["title", "brand"]) == "sony tv sony"

    def test_text_skips_empty_values(self):
        record = Record("r1", {"title": "sony tv", "brand": ""})
        assert record.text(["title", "brand"]) == "sony tv"

    def test_values_are_copied(self):
        source = {"title": "tv"}
        record = Record("r1", source)
        source["title"] = "changed"
        assert record.value("title") == "tv"


class TestTable:
    def test_add_and_lookup(self, schema):
        table = Table("left", schema)
        table.add(Record("r1", {"title": "sony tv"}))
        assert len(table) == 1
        assert table["r1"].value("title") == "sony tv"
        assert "r1" in table

    def test_duplicate_id_rejected(self, schema):
        table = Table("left", schema)
        table.add(Record("r1", {"title": "a"}))
        with pytest.raises(DatasetError):
            table.add(Record("r1", {"title": "b"}))

    def test_unknown_attribute_rejected(self, schema):
        table = Table("left", schema)
        with pytest.raises(DatasetError):
            table.add(Record("r1", {"color": "red"}))

    def test_missing_record_raises(self, schema):
        table = Table("left", schema)
        with pytest.raises(DatasetError):
            table["missing"]

    def test_empty_name_rejected(self, schema):
        with pytest.raises(DatasetError):
            Table("", schema)

    def test_record_ids_preserve_insertion_order(self, schema):
        table = Table("left", schema)
        for i in (3, 1, 2):
            table.add(Record(f"r{i}", {"title": str(i)}))
        assert [record.record_id for record in table] == ["r3", "r1", "r2"]
