"""Relational schema description for entity tables.

Entity matching operates over tuples drawn from (usually two) tables.  Every
tuple is a set of ``(attribute, value)`` pairs (Section 2.1 of the paper).  A
:class:`Schema` declares the attribute names and their types;
:class:`Attribute` carries per-attribute metadata used by the similarity
features and the synthetic data generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from repro.exceptions import SchemaError


class AttributeType(str, Enum):
    """Value domain of an attribute.

    ``TEXT`` attributes hold free text (titles, descriptions), ``CATEGORICAL``
    hold short controlled vocabulary values (brand, venue), ``NUMERIC`` hold
    numbers serialized as strings (price, year).
    """

    TEXT = "text"
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Attribute:
    """A single attribute of a table schema.

    Attributes
    ----------
    name:
        Attribute name as records and datasets refer to it, e.g. ``"title"``.
    kind:
        The :class:`AttributeType` of the attribute.
    weight:
        Relative importance of the attribute (positive, default ``1.0``).
        No feature reads it; it stays because
        :func:`~repro.datasets.registry.benchmark_fingerprint` hashes it.
    """

    name: str
    kind: AttributeType = AttributeType.TEXT
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("Attribute name must be a non-empty string")
        if self.weight <= 0:
            raise SchemaError(
                f"Attribute weight must be positive, got {self.weight} for {self.name!r}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Attribute` objects.

    The order is significant: a record's text and its similarity features
    walk the attributes in schema order unless the dataset names its own.
    """

    attributes: tuple[Attribute, ...]
    name: str = "schema"

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("Schema must declare at least one attribute")
        names = [attribute.name for attribute in self.attributes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SchemaError(f"Duplicate attribute names in schema: {sorted(duplicates)}")

    @classmethod
    def from_names(
        cls,
        names: Iterable[str],
        kinds: dict[str, AttributeType] | None = None,
        name: str = "schema",
    ) -> "Schema":
        """Build a schema from attribute names, all ``TEXT`` unless overridden."""
        kinds = kinds or {}
        attributes = tuple(
            Attribute(name=attr_name, kind=kinds.get(attr_name, AttributeType.TEXT))
            for attr_name in names
        )
        return cls(attributes=attributes, name=name)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes in declaration order."""
        return tuple(attribute.name for attribute in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        return any(attribute.name == name for attribute in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises
        ------
        SchemaError
            If no attribute with that name exists.
        """
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"Schema {self.name!r} has no attribute named {name!r}")

    def validate_values(self, values: dict[str, str]) -> None:
        """Check that ``values`` only uses attributes declared by this schema."""
        unknown = set(values) - set(self.attribute_names)
        if unknown:
            raise SchemaError(
                f"Values reference attributes not in schema {self.name!r}: {sorted(unknown)}"
            )


def product_schema(attribute_names: Iterable[str] | None = None) -> Schema:
    """Convenience factory for a typical product-matching schema."""
    names = tuple(attribute_names or ("title", "manufacturer", "price"))
    kinds = {"price": AttributeType.NUMERIC, "manufacturer": AttributeType.CATEGORICAL}
    return Schema.from_names(names, kinds={k: v for k, v in kinds.items() if k in names},
                             name="product")


def bibliographic_schema() -> Schema:
    """Convenience factory for a DBLP-Scholar style bibliographic schema."""
    return Schema(
        attributes=(
            Attribute("title", AttributeType.TEXT),
            Attribute("authors", AttributeType.TEXT),
            Attribute("venue", AttributeType.CATEGORICAL),
            Attribute("year", AttributeType.NUMERIC),
        ),
        name="bibliographic",
    )
