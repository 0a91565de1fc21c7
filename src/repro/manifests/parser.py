"""Manifest file loading: TOML parsing plus a line-number source map.

Parsing is deliberately dumb: it produces the raw nested dictionaries of the
file and a :class:`SourceMap` from field paths to line numbers, and raises
:class:`~repro.exceptions.ManifestError` only for *syntax* errors (a file the
format itself cannot read).  All semantic validation — unknown names, type
mismatches, cross-field constraints — lives in :mod:`repro.manifests.lint`,
which reports every problem in one pass instead of stopping at the first.
"""

from __future__ import annotations

import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ManifestError

#: A field path like ``("grid", 0, "datasets")``.
FieldPath = tuple[object, ...]

_TOML_HEADER = re.compile(r"^\s*(\[\[?)\s*([A-Za-z0-9_.\-]+)\s*\]\]?")
_TOML_KEY = re.compile(r"^\s*([A-Za-z0-9_\-]+|\"[^\"]+\"|'[^']+')\s*=")


@dataclass(frozen=True)
class SourceMap:
    """Best-effort map from field paths to 1-based line numbers.

    TOML has no standard-library AST with positions, so the map is built by a
    line scan that tracks table headers (``[settings]``, ``[[grid]]``) and
    top-level ``key =`` assignments.  Values nested inside inline arrays or
    tables resolve to the line of their enclosing assignment —
    :meth:`line_for` drops trailing path components until something matches,
    so a lint issue at ``grid[0].datasets[2]`` points at the ``datasets``
    line.
    """

    lines: dict[FieldPath, int] = field(default_factory=dict)

    def line_for(self, path: FieldPath) -> int | None:
        probe = tuple(path)
        while probe:
            if probe in self.lines:
                return self.lines[probe]
            probe = probe[:-1]
        return None


def _scan_toml_lines(text: str) -> SourceMap:
    lines: dict[FieldPath, int] = {}
    header: FieldPath = ()
    array_counts: dict[FieldPath, int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        matched = _TOML_HEADER.match(line)
        if matched:
            is_array = matched.group(1) == "[["
            parts: FieldPath = tuple(matched.group(2).split("."))
            if is_array:
                index = array_counts.get(parts, 0)
                array_counts[parts] = index + 1
                header = parts + (index,)
            else:
                header = parts
            lines.setdefault(header, number)
            continue
        matched = _TOML_KEY.match(line)
        if matched:
            key = matched.group(1).strip("\"'")
            lines.setdefault(header + (key,), number)
    return SourceMap(lines)


@dataclass(frozen=True)
class ManifestSource:
    """One parsed manifest file, before any semantic validation."""

    data: dict[str, object]
    source_map: SourceMap
    path: Path | None = None

    @property
    def display_path(self) -> str:
        return str(self.path) if self.path is not None else "<manifest>"


def parse_manifest_text(text: str, path: Path | None = None) -> ManifestSource:
    """Parse TOML ``text``; raises :class:`ManifestError` on syntax errors."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ManifestError(
            f"{path or '<manifest>'}: invalid TOML: {error}") from error
    return ManifestSource(data=data, source_map=_scan_toml_lines(text),
                          path=path)


def load_manifest(path: str | Path) -> ManifestSource:
    """Read and parse the ``.toml`` manifest file at ``path``."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"Manifest file not found: {path}")
    suffix = path.suffix.lower()
    if suffix != ".toml":
        raise ManifestError(
            f"{path}: unsupported manifest extension {suffix!r}; use .toml")
    return parse_manifest_text(path.read_text(encoding="utf-8"), path=path)
