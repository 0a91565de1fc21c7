"""Records and tables.

A :class:`Record` is one tuple of an entity table: an identifier plus a mapping
from attribute name to (string) value.  A :class:`Table` is an ordered
collection of records sharing a :class:`~repro.data.schema.Schema`, as in the
clean-clean matching setting of Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.data.schema import Schema
from repro.exceptions import DatasetError, SchemaError


@dataclass(frozen=True)
class Record:
    """A single tuple of an entity table.

    Attributes
    ----------
    record_id:
        Identifier unique within the record's table.
    values:
        Mapping from attribute name to string value.  Missing attributes are
        simply absent (or mapped to an empty string).
    entity_id:
        Optional ground-truth identifier of the real-world entity this record
        describes.  Synthetic benchmarks populate it so a perfect oracle can be
        derived; real-world data may leave it ``None``.
    """

    record_id: str
    values: Mapping[str, str]
    entity_id: str | None = None

    def __post_init__(self) -> None:
        if not self.record_id:
            raise DatasetError("record_id must be a non-empty string")
        object.__setattr__(self, "values", dict(self.values))

    def value(self, attribute: str, default: str = "") -> str:
        """Return the value of ``attribute`` or ``default`` when missing."""
        raw = self.values.get(attribute, default)
        return default if raw is None else str(raw)

    def text(self, attributes: Iterable[str] | None = None, separator: str = " ") -> str:
        """Concatenate attribute values into a single text blob."""
        names = tuple(attributes) if attributes is not None else tuple(self.values)
        parts = [self.value(name) for name in names]
        return separator.join(part for part in parts if part)


class Table:
    """An ordered, id-indexed collection of :class:`Record` objects."""

    def __init__(self, name: str, schema: Schema, records: Iterable[Record] = ()) -> None:
        if not name:
            raise DatasetError("Table name must be non-empty")
        self.name = name
        self.schema = schema
        self._records: list[Record] = []
        self._by_id: dict[str, int] = {}
        for record in records:
            self.add(record)

    def add(self, record: Record) -> None:
        """Append ``record``, validating its attributes against the schema."""
        try:
            self.schema.validate_values(dict(record.values))
        except SchemaError as exc:
            raise DatasetError(f"Record {record.record_id!r} does not fit table "
                               f"{self.name!r}: {exc}") from exc
        if record.record_id in self._by_id:
            raise DatasetError(
                f"Duplicate record_id {record.record_id!r} in table {self.name!r}"
            )
        self._by_id[record.record_id] = len(self._records)
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._by_id

    def __getitem__(self, record_id: str) -> Record:
        try:
            return self._records[self._by_id[record_id]]
        except KeyError:
            raise DatasetError(
                f"Table {self.name!r} has no record with id {record_id!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(name={self.name!r}, records={len(self)}, schema={self.schema.name!r})"
