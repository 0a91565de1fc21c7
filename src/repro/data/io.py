"""Reading and writing tables and candidate pairs.

The Magellan / WDC benchmarks ship as CSV files (``tableA.csv``,
``tableB.csv``, ``train.csv`` with ``ltable_id, rtable_id, label`` columns).
This module provides the same on-disk layout so users with access to the real
benchmark downloads can load them into :class:`~repro.data.dataset.EMDataset`
objects, and so the synthetic benchmarks can be exported for inspection.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.data.dataset import EMDataset
from repro.data.pair import CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Schema
from repro.exceptions import DatasetError

_ID_COLUMN = "id"
_ENTITY_COLUMN = "entity_id"


def write_table_csv(table: Table, path: str | Path) -> Path:
    """Write ``table`` to ``path`` as CSV with ``id`` plus attribute columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = [_ID_COLUMN, *table.schema.attribute_names, _ENTITY_COLUMN]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in table:
            row = {_ID_COLUMN: record.record_id, _ENTITY_COLUMN: record.entity_id or ""}
            for name in table.schema.attribute_names:
                row[name] = record.value(name)
            writer.writerow(row)
    return path


def read_table_csv(path: str | Path, schema: Schema, name: str | None = None) -> Table:
    """Read a table written by :func:`write_table_csv` (or benchmark CSVs)."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"Table file does not exist: {path}")
    table = Table(name or path.stem, schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or _ID_COLUMN not in reader.fieldnames:
            raise DatasetError(f"Table CSV {path} must contain an {_ID_COLUMN!r} column")
        for row in reader:
            values = {
                attr: row.get(attr, "") or ""
                for attr in schema.attribute_names
                if attr in row
            }
            entity_id = row.get(_ENTITY_COLUMN) or None
            table.add(Record(record_id=row[_ID_COLUMN], values=values, entity_id=entity_id))
    return table


def write_pairs_csv(pairs: PairSet, path: str | Path) -> Path:
    """Write candidate pairs to CSV with ``ltable_id, rtable_id, label`` columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pair_id", "ltable_id", "rtable_id", "label"])
        for pair in pairs:
            label = "" if pair.label is None else pair.label
            writer.writerow([pair.pair_id, pair.left_id, pair.right_id, label])
    return path


def read_pairs_csv(path: str | Path) -> PairSet:
    """Read candidate pairs written by :func:`write_pairs_csv`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"Pairs file does not exist: {path}")
    pairs = PairSet()
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"ltable_id", "rtable_id"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DatasetError(
                f"Pairs CSV {path} must contain columns {sorted(required)}"
            )
        for index, row in enumerate(reader):
            raw_label = row.get("label", "")
            try:
                label = int(raw_label) if raw_label not in ("", None) else None
            except ValueError:
                raise DatasetError(
                    f"Pairs CSV {path}, line {reader.line_num}: label must be "
                    f"0, 1 or empty, got {raw_label!r}"
                ) from None
            pair_id = row.get("pair_id") or f"p{index}"
            pairs.add(CandidatePair(pair_id, row["ltable_id"], row["rtable_id"], label))
    return pairs


def export_dataset(dataset: EMDataset, directory: str | Path) -> dict[str, Path]:
    """Export an :class:`EMDataset` as the standard benchmark file layout.

    Returns a mapping from logical file name to the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {
        "tableA": write_table_csv(dataset.left, directory / "tableA.csv"),
        "tableB": write_table_csv(dataset.right, directory / "tableB.csv"),
        "pairs": write_pairs_csv(dataset.pairs, directory / "pairs.csv"),
    }
    split_payload = {
        "train": dataset.split.train.tolist(),
        "validation": dataset.split.validation.tolist(),
        "test": dataset.split.test.tolist(),
    }
    split_path = directory / "split.json"
    split_path.write_text(json.dumps(split_payload, indent=2), encoding="utf-8")
    written["split"] = split_path
    return written

