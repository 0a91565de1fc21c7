"""Persistent JSON artifact store for active-learning runs.

One completed :class:`~repro.active.loop.ActiveLearningResult` is one JSON
file named after the :meth:`~repro.experiments.engine.RunSpec.fingerprint` of
the spec that produced it.  The spec itself is embedded in the payload, so a
store directory is self-describing: results can be re-aggregated into new
figures and tables long after the sweep that produced them, and a re-executed
sweep skips every run whose artifact already exists (resume).

Layout::

    <root>/
        3f2a…c9.json   # {"format_version": 1, "spec": {…}, "result": {…}}
        71be…04.json
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.active.loop import ActiveLearningResult
from repro.exceptions import ConfigurationError
from repro.experiments.faults import TornWriteError, active_injector

if TYPE_CHECKING:  # avoid a circular import; engine imports the store
    from repro.experiments.engine import RunSpec

#: Bumped whenever the artifact payload layout changes incompatibly.
FORMAT_VERSION = 1

#: Active collectors for deferred corruption warnings (innermost last).
_DEFERRED_CORRUPTION: list[list[str]] = []


@contextmanager
def collect_corruption_warnings(action: str = "resume") -> Iterator[list[str]]:
    """Collapse per-artifact corruption warnings into one summary.

    While the context is active, every corrupt artifact the store skips is
    collected instead of warned about individually; on exit a single summary
    warning names the action and the affected artifacts.  A 500-run resume
    against a damaged store then produces one line, not 500.  Outside the
    context (direct ``get`` calls, tests) the per-artifact warning remains.
    """
    collected: list[str] = []
    _DEFERRED_CORRUPTION.append(collected)
    try:
        yield collected
    finally:
        _DEFERRED_CORRUPTION.pop()
        if collected:
            shown = ", ".join(collected[:5])
            more = (f", … {len(collected) - 5} more"
                    if len(collected) > 5 else "")
            warnings.warn(
                f"Skipped {len(collected)} corrupt artifact(s) during "
                f"{action} ({shown}{more}); each affected run will be "
                "re-executed",
                stacklevel=3)


class ArtifactStore:
    """Directory of per-run JSON artifacts keyed by RunSpec fingerprint."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # A crash between temp-write and rename strands a ``*.json.tmp``
        # file; it describes no completed run, so it is garbage by
        # definition — and left around it would shadow the *next* writer's
        # temp file semantics.  Clean on init, when no writer can be active.
        for stale in self.root.glob("*.json.tmp"):
            stale.unlink(missing_ok=True)

    def path_for(self, spec: "RunSpec") -> Path:
        """The artifact file a result for ``spec`` lives at."""
        return self.root / f"{spec.fingerprint()}.json"

    def __contains__(self, spec: "RunSpec") -> bool:
        return self.path_for(spec).exists()

    def _read_payload(self, path: Path) -> dict[str, object]:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "format_version" not in payload:
            # Valid JSON of some other shape — foreign file or torn write,
            # not a genuine version conflict.  Treat as corruption (skip +
            # warn + re-execute) rather than halting the whole resume.
            raise KeyError("format_version")
        version = payload["format_version"]
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"Artifact {path} has format version {version!r}, expected "
                f"{FORMAT_VERSION}; use a fresh --store directory (or delete "
                f"the stale artifacts) to re-execute these runs")
        return payload

    def _load(self, path: Path) -> tuple[dict[str, object], ActiveLearningResult] | None:
        """Parse one artifact into ``(payload, result)``, tolerating damage.

        A truncated or otherwise corrupt artifact (killed process, full disk,
        manual edit) is reported with a warning and treated as absent, so a
        resumed sweep re-executes that one run instead of crashing.  An
        explicit format-version mismatch still raises: those artifacts are
        *valid* files the current code genuinely cannot interpret, and
        silently re-executing a whole store would be far more expensive than
        the instructed fix.
        """
        try:
            payload = self._read_payload(path)
            if not isinstance(payload.get("spec"), dict):
                raise KeyError("spec")
            return payload, ActiveLearningResult.from_dict(payload["result"])
        except ConfigurationError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
                ValueError) as error:
            if _DEFERRED_CORRUPTION:
                _DEFERRED_CORRUPTION[-1].append(path.name)
                return None
            warnings.warn(
                f"Skipping corrupt artifact {path} ({error.__class__.__name__}: "
                f"{error}); the run will be re-executed",
                stacklevel=3)
            return None

    def get(self, spec: "RunSpec") -> ActiveLearningResult | None:
        """Load the stored result for ``spec``, or ``None`` if absent/corrupt."""
        path = self.path_for(spec)
        if not path.exists():
            return None
        loaded = self._load(path)
        return loaded[1] if loaded is not None else None

    def put(self, spec: "RunSpec", result: ActiveLearningResult) -> Path:
        """Persist ``result`` under ``spec``'s fingerprint (atomically)."""
        path = self.path_for(spec)
        payload: dict[str, object] = {
            "format_version": FORMAT_VERSION,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        # Serialize before touching the filesystem: a result that cannot be
        # serialized must not leave a partial temp file behind.
        text = json.dumps(payload, indent=1, sort_keys=True)
        injector = active_injector()
        if injector is not None and injector.tear_next_write(path.stem):
            # Chaos: simulate a crash mid-write on a filesystem without
            # atomic-rename semantics — a truncated artifact lands at the
            # *final* path, exactly the damage `_load` must absorb on the
            # next resume.
            path.write_text(text[:max(1, len(text) // 3)], encoding="utf-8")
            raise TornWriteError(
                f"chaos: torn artifact write for {path.name}")
        # Write-then-fsync-then-rename so neither a crashed run nor a power
        # loss right after the rename can publish a truncated or empty
        # artifact that a resume would try to load.
        temporary = path.with_suffix(".json.tmp")
        try:
            with open(temporary, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        os.replace(temporary, path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def items(self) -> Iterator[tuple[dict[str, object], ActiveLearningResult]]:
        """Iterate ``(spec_dict, result)`` over every stored artifact.

        Yields the raw spec dictionary (not a RunSpec) so re-aggregation
        scripts can filter without importing the engine.  Corrupt artifacts
        are skipped and reported as one summary warning for the whole scan.
        """
        with collect_corruption_warnings("store scan"):
            for path in sorted(self.root.glob("*.json")):
                loaded = self._load(path)
                if loaded is None:
                    continue
                payload, result = loaded
                yield payload["spec"], result
