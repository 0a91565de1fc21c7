"""Content fingerprints: one hash recipe and structural field coverage.

:func:`content_hash` is the one recipe every content fingerprint of the
package uses: sha256 of the payload's canonical JSON (sorted keys, no
whitespace), as hex, cut to a fixed length.

Every content fingerprint of the package (settings, scenarios, configs) used
to enumerate its payload field by field — which is exactly how the PR 6/7
drift bugs happened: a dataclass gained a field and the hand-maintained
payload silently did not.  :func:`fingerprint_fields` derives the field list
from the dataclass itself, so a new field is hashed *by construction* and
forgetting it is impossible; the only editorial decision left is the
explicit ``exclude`` list, which :func:`fingerprint_fields` validates against
the real fields so a typo (or a renamed field) fails loudly instead of
silently widening coverage.

The payload *values* keep their established serialization
(``dataclasses.asdict`` for nested dataclasses, the raw value otherwise), so
switching a fingerprint to this helper is provably value-preserving — the
regression tests pin the old hand-built payloads against the derived ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Iterable


def content_hash(payload: Any, length: int = 16) -> str:
    """The first ``length`` hex characters of sha256 over canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


def fingerprint_fields(cls: type, exclude: Iterable[str] = ()) -> tuple[str, ...]:
    """Field names of dataclass ``cls`` that a fingerprint must cover.

    ``exclude`` names fields deliberately left out of the hash (grid-shaping
    knobs, human-facing descriptions); every excluded name must actually be
    a field, so stale exclusions are impossible.  The returned order is the
    dataclass declaration order — stable, and irrelevant to the hash because
    payloads are serialized with ``sort_keys=True``.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    names = tuple(field.name for field in dataclasses.fields(cls))
    excluded = tuple(exclude)
    unknown = sorted(set(excluded) - set(names))
    if unknown:
        raise ValueError(
            f"exclude names {unknown} are not fields of {cls.__name__}; "
            f"fields are {sorted(names)}")
    return tuple(name for name in names if name not in excluded)


def fingerprint_payload(obj: Any, fields: Iterable[str]) -> dict[str, Any]:
    """JSON-ready payload of ``obj``'s ``fields`` for canonical hashing.

    Nested dataclasses are expanded with :func:`dataclasses.asdict` (the
    serialization every existing fingerprint already used); everything else
    passes through untouched.
    """
    payload: dict[str, Any] = {}
    for name in fields:
        value = getattr(obj, name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        payload[name] = value
    return payload
