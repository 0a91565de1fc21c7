"""Fault-tolerance primitives for campaign execution.

At manifest-campaign scale a sweep is only as reliable as its weakest worker:
one transient exception, one OOM-killed process, or one hung job must cost a
single retried run — never the whole sweep.  This module hosts the three
pieces the engine builds that guarantee on:

* :class:`RetryPolicy` — how often a failed job is retried and how long one
  attempt may take, on a fixed exponential backoff whose jitter is
  *deterministic* (seeded by spec fingerprint × attempt, no RNG), and the
  transient-vs-permanent error classification.
* :class:`FaultInjector` — a deterministic chaos harness: directives keyed by
  RunSpec fingerprint × attempt raise transient or permanent errors, hard-kill
  the worker (``os._exit``), stall a job, or tear an artifact write.  It is
  activated only through ``--chaos`` (or an executor built with an
  injector), so production sweeps never pay for it; tests and CI use it to
  exercise the recovery machinery on demand (robustness code that cannot be
  broken deliberately cannot be trusted).
* :class:`FailureLedger` — the persisted record of permanently failed jobs,
  written next to the :class:`~repro.experiments.store.ArtifactStore` so a
  ``--keep-going`` campaign can be resumed and retries exactly the jobs that
  failed (their siblings resume from the store).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.exceptions import ConfigurationError, ReproError

if TYPE_CHECKING:  # avoid a circular import; the engine imports this module
    from repro.experiments.engine import RunSpec

#: Exit code an injected worker kill dies with (visible in pool diagnostics).
KILL_EXIT_CODE = 87

#: How long an injected hang stalls by default (seconds).  Finite, so a test
#: that forgets a ``--timeout`` eventually completes instead of deadlocking.
DEFAULT_HANG_SECONDS = 300.0

#: A spec whose attempts killed their worker this many times is quarantined
#: (recorded as a permanent failure) instead of resubmitted — a job that
#: reliably OOM-kills its worker must not take the sweep down with it on
#: every retry.
POOL_KILL_QUARANTINE = 2

#: Bumped whenever the failure-ledger layout changes incompatibly.
LEDGER_FORMAT_VERSION = 1

#: The backoff schedule: ``_BACKOFF_BASE * _BACKOFF_FACTOR**n`` seconds
#: before retrying failed attempt ``n`` (0-based), capped at
#: ``_BACKOFF_MAX`` and spread by ±``_BACKOFF_JITTER`` (a fraction).
_BACKOFF_BASE = 0.05
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 30.0
_BACKOFF_JITTER = 0.25


class InjectedTransientError(ReproError):
    """A chaos-injected failure the retry machinery should absorb."""


class InjectedPermanentError(ReproError):
    """A chaos-injected failure that must *not* be retried."""


class JobTimeoutError(ReproError):
    """A job exceeded its per-job wall-clock timeout and was cancelled."""


class WorkerCrashError(ReproError):
    """A job's worker process died (OOM, signal, ``os._exit``)."""


class TornWriteError(ReproError):
    """A chaos-injected torn artifact write (crash mid-``put`` simulation)."""


#: Error classes worth retrying: infrastructure faults that a fresh attempt
#: on a healthy worker can survive.  Everything else — assertion errors,
#: configuration errors, genuine bugs — is permanent: retrying deterministic
#: code on the same inputs re-raises the same error and wastes the budget.
TRANSIENT_ERROR_TYPES: tuple[type[BaseException], ...] = (
    InjectedTransientError,
    TornWriteError,
    JobTimeoutError,
    WorkerCrashError,
    BrokenProcessPool,
    OSError,  # ConnectionError and TimeoutError included
)


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` belongs to the retryable (transient) class."""
    return isinstance(error, TRANSIENT_ERROR_TYPES)


def _unit_interval(fingerprint: str, attempt: int) -> float:
    """Deterministic pseudo-uniform draw in [0, 1] for jitter.

    Derived from a content hash instead of an RNG: the same (fingerprint,
    attempt) pair always backs off identically, in every process, under any
    start method — so fault-injected sweeps replay bit-identically.
    """
    digest = hashlib.sha256(
        f"{fingerprint}:{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) / 0xFFFFFFFF


@dataclass(frozen=True)
class RetryPolicy:
    """How failed jobs are retried.

    ``max_attempts`` counts *attempts*, not retries: the default of 3 means
    one initial run plus up to two retries.  ``timeout`` is the per-job
    wall-clock limit, enforced only with ``jobs>=2`` (at ``jobs=1`` jobs run
    in the calling process, which cannot preempt itself).  The backoff
    before a retry is a fixed schedule, not a setting: 0.05 s doubling per
    failed attempt, capped at 30 s, spread by ±25% jitter that is a
    deterministic function of spec fingerprint × attempt — identical across
    reruns and processes, so chaos tests stay reproducible.
    """

    max_attempts: int = 3
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0 seconds, got {self.timeout}")

    def backoff_seconds(self, fingerprint: str, attempt: int) -> float:
        """Deterministic backoff before retrying ``attempt`` (0-based)."""
        raw = min(_BACKOFF_MAX, _BACKOFF_BASE * _BACKOFF_FACTOR ** attempt)
        spread = (_unit_interval(fingerprint, attempt) - 0.5) * 2 * _BACKOFF_JITTER
        return max(0.0, min(_BACKOFF_MAX, raw * (1.0 + spread)))

    def retryable(self, error: BaseException, failed_attempts: int) -> bool:
        """Whether a job that failed ``failed_attempts`` times should retry."""
        return failed_attempts < self.max_attempts and is_transient(error)


# --------------------------------------------------------------------------- #
# Deterministic fault injection
# --------------------------------------------------------------------------- #
#: The failure modes a directive can inject.
FAULT_KINDS = ("raise", "permanent", "kill", "hang", "torn")


@dataclass(frozen=True)
class FaultDirective:
    """One injected fault: *which* job, *which* attempt, *what* happens.

    ``rank`` addresses the job by its position in the submitted batch;
    :meth:`FaultInjector.resolve` turns ranks into concrete fingerprints
    before anything executes, so the directive fires identically under
    serial, parallel, and respawned-worker execution.  ``attempt`` is the
    0-based attempt the fault fires on — a directive for attempt 0 makes the
    first attempt fail and every retry run clean, which is exactly the
    "transient fault costs one retry" contract the acceptance tests pin.
    """

    kind: str
    rank: int = 0
    attempt: int = 0
    value: float | None = None  # hang duration (seconds)
    fingerprint: str | None = None  # filled by resolve()

    def matches(self, fingerprint: str, attempt: int) -> bool:
        return (self.fingerprint is not None
                and fingerprint.startswith(self.fingerprint)
                and attempt == self.attempt)


def _parse_directive(text: str) -> FaultDirective:
    """Parse ``KIND[=VALUE][@RANK][:ATTEMPT]`` (e.g. ``kill@0``, ``raise@1:0``,
    ``hang=20@2``)."""
    original = text
    attempt = 0
    rank = 0
    value: float | None = None
    if "@" in text:
        text, _, target = text.partition("@")
        if ":" in target:
            target, _, attempt_text = target.partition(":")
            attempt = _parse_int(attempt_text, original, "attempt")
        rank = _parse_int(target, original, "rank")
    elif ":" in text:
        text, _, attempt_text = text.partition(":")
        attempt = _parse_int(attempt_text, original, "attempt")
    if "=" in text:
        text, _, value_text = text.partition("=")
        try:
            value = float(value_text)
        except ValueError:
            raise ConfigurationError(
                f"chaos directive {original!r}: {value_text!r} is not a "
                "number") from None
    kind = text.strip()
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"chaos directive {original!r}: unknown fault kind {kind!r} "
            f"(choose from {', '.join(FAULT_KINDS)})")
    if rank < 0 or attempt < 0:
        raise ConfigurationError(
            f"chaos directive {original!r}: rank and attempt must be >= 0")
    return FaultDirective(kind=kind, rank=rank, attempt=attempt, value=value)


def _parse_int(text: str, original: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"chaos directive {original!r}: {text!r} is not an integer "
            f"{what}") from None


@dataclass
class FaultInjector:
    """Deterministically inject failures keyed by fingerprint × attempt.

    Built from a chaos spec — a comma-separated list of
    ``KIND[=VALUE][@RANK][:ATTEMPT]`` directives — and resolved against the
    submitted batch so every directive is bound to a concrete fingerprint.
    The injector is picklable and travels to pool workers through the pool
    initializer, so injection is identical under every start method.

    The kinds: ``raise`` and ``permanent`` raise a transient or a permanent
    error, ``hang=SECONDS`` stalls the job, and ``torn`` truncates an
    artifact write.  ``kill`` ends the job's worker with ``os._exit`` — no
    exception, no cleanup, as the OOM killer would.  At ``jobs>=2`` each
    worker runs one job at a time, so the executor charges exactly the
    killed job one attempt (a :class:`WorkerCrashError`) and gives only
    that lane a new worker.  At ``jobs=1`` the job runs in the calling
    process, so a ``kill`` ends that process.
    """

    directives: tuple[FaultDirective, ...] = ()
    #: Per-process count of torn writes already injected per fingerprint;
    #: a ``torn`` directive's ``attempt`` indexes into this sequence, so the
    #: k-th write of a fingerprint tears and the (k+1)-th lands clean.
    _torn_counts: dict[str, int] = field(default_factory=dict, compare=False)

    @classmethod
    def from_spec(cls, text: str | None) -> "FaultInjector | None":
        """Parse a chaos spec; ``None``/blank means chaos stays off."""
        if text is None or not text.strip():
            return None
        directives = tuple(_parse_directive(part.strip())
                           for part in text.split(",") if part.strip())
        return cls(directives=directives) if directives else None

    def resolve(self, specs: "list[RunSpec] | tuple[RunSpec, ...]",
                ) -> "FaultInjector":
        """Bind rank-addressed directives to the batch's fingerprints."""
        fingerprints = [spec.fingerprint() for spec in specs]
        resolved = []
        for directive in self.directives:
            if directive.fingerprint is not None:
                resolved.append(directive)
                continue
            if directive.rank >= len(fingerprints):
                raise ConfigurationError(
                    f"chaos directive {directive.kind}@{directive.rank} "
                    f"addresses job {directive.rank}, but the batch has only "
                    f"{len(fingerprints)} job(s)")
            resolved.append(FaultDirective(
                kind=directive.kind, rank=directive.rank,
                attempt=directive.attempt, value=directive.value,
                fingerprint=fingerprints[directive.rank]))
        return FaultInjector(directives=tuple(resolved))

    # -- worker-side hooks -------------------------------------------------- #
    def fire(self, fingerprint: str, attempt: int) -> None:
        """Act on every directive matching this (fingerprint, attempt)."""
        for directive in self.directives:
            if directive.kind == "torn" or not directive.matches(fingerprint,
                                                                 attempt):
                continue
            if directive.kind == "raise":
                raise InjectedTransientError(
                    f"chaos: injected transient failure "
                    f"({fingerprint[:8]} attempt {attempt})")
            if directive.kind == "permanent":
                raise InjectedPermanentError(
                    f"chaos: injected permanent failure "
                    f"({fingerprint[:8]} attempt {attempt})")
            if directive.kind == "kill":
                # A hard kill: no exception, no cleanup — exactly what the
                # OOM killer or a SIGKILL does to a worker.
                os._exit(KILL_EXIT_CODE)
            if directive.kind == "hang":
                time.sleep(directive.value if directive.value is not None
                           else DEFAULT_HANG_SECONDS)

    # -- store-side hook ---------------------------------------------------- #
    def tear_next_write(self, fingerprint: str) -> bool:
        """Whether the next artifact write for ``fingerprint`` should tear.

        Write counts are tracked per process; a ``torn`` directive's
        ``attempt`` selects which write tears, so the retried write lands
        clean.
        """
        matching = [d for d in self.directives if d.kind == "torn"
                    and d.fingerprint is not None
                    and fingerprint.startswith(d.fingerprint)]
        if not matching:
            return False
        count = self._torn_counts.get(fingerprint, 0)
        self._torn_counts[fingerprint] = count + 1
        return any(d.attempt == count for d in matching)


# The process-wide active injector.  In pool workers it is installed by the
# executor's initializer; in the parent (which runs the jobs at jobs=1) by
# the executor before the batch starts.  ``None`` — the production default —
# makes every hook a no-op.
_ACTIVE_INJECTOR: FaultInjector | None = None


def init_injector(injector: FaultInjector | None) -> None:
    """Install ``injector`` as this process's active chaos injector.

    Called from the pool initializer chain (workers) and from the executor
    (parent process) — injector state must travel through initializers, never
    through ambient parent globals, to stay spawn-safe.
    """
    global _ACTIVE_INJECTOR
    _ACTIVE_INJECTOR = injector


def active_injector() -> FaultInjector | None:
    """The injector installed in this process, if chaos is active."""
    return _ACTIVE_INJECTOR


def fault_injection_point(fingerprint: str, attempt: int) -> None:
    """Fire the active injector (no-op when chaos is off)."""
    if _ACTIVE_INJECTOR is not None:
        _ACTIVE_INJECTOR.fire(fingerprint, attempt)


# --------------------------------------------------------------------------- #
# Failure ledger
# --------------------------------------------------------------------------- #
def format_error(error: BaseException) -> str:
    """One-line ``Type: message`` rendering used in records and reports."""
    return f"{type(error).__name__}: {error}"


@dataclass
class FailureRecord:
    """Everything known about one permanently failed job."""

    fingerprint: str
    spec: dict[str, object]
    error_type: str
    error: str
    attempts: int
    tracebacks: tuple[str, ...] = ()
    elapsed_seconds: tuple[float, ...] = ()
    quarantined: bool = False

    @classmethod
    def from_failure(
        cls,
        spec: "RunSpec",
        fingerprint: str,
        error: BaseException,
        attempts: int,
        tracebacks: tuple[str, ...] = (),
        elapsed_seconds: tuple[float, ...] = (),
        quarantined: bool = False,
    ) -> "FailureRecord":
        return cls(
            fingerprint=fingerprint,
            spec=spec.to_dict(),
            error_type=type(error).__name__,
            error=str(error),
            attempts=attempts,
            tracebacks=tracebacks,
            elapsed_seconds=tuple(round(seconds, 6)
                                  for seconds in elapsed_seconds),
            quarantined=quarantined,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "spec": dict(self.spec),
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
            "tracebacks": list(self.tracebacks),
            "elapsed_seconds": list(self.elapsed_seconds),
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, fingerprint: str,
                  payload: Mapping[str, object]) -> "FailureRecord":
        return cls(
            fingerprint=fingerprint,
            spec=dict(payload["spec"]),  # type: ignore[call-overload, arg-type]
            error_type=str(payload["error_type"]),
            error=str(payload["error"]),
            attempts=int(payload["attempts"]),  # type: ignore[arg-type]
            tracebacks=tuple(payload.get("tracebacks", ())),  # type: ignore[arg-type]
            elapsed_seconds=tuple(payload.get("elapsed_seconds", ())),  # type: ignore[arg-type]
            quarantined=bool(payload.get("quarantined", False)),
        )


def record_traceback(error: BaseException) -> str:
    """The full traceback text of ``error`` (ledger forensics)."""
    return "".join(traceback.format_exception(type(error), error,
                                              error.__traceback__))


class FailureLedger:
    """Persisted record of permanently failed jobs, next to the store.

    The ledger lives at ``<store-root>.failures.json`` — a *sibling* of the
    artifact directory, so store scans never mistake it for an artifact.  A
    resumed ``--keep-going`` campaign naturally retries exactly the jobs in
    the ledger: their siblings resume from the store, and a later success
    removes the entry.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.entries: dict[str, FailureRecord] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            warnings.warn(
                f"Ignoring corrupt failure ledger {self.path} "
                f"({format_error(error)}); starting a fresh ledger",
                stacklevel=3)
            return
        if not isinstance(payload, dict):
            warnings.warn(
                f"Ignoring corrupt failure ledger {self.path} (not a JSON "
                "object); starting a fresh ledger", stacklevel=3)
            return
        version = payload.get("format_version")
        if version != LEDGER_FORMAT_VERSION:
            raise ConfigurationError(
                f"Failure ledger {self.path} has format version {version!r}, "
                f"expected {LEDGER_FORMAT_VERSION}; delete it to start fresh")
        failures = payload.get("failures", {})
        if not isinstance(failures, dict):
            warnings.warn(
                f"Ignoring corrupt failure ledger {self.path} (bad 'failures' "
                "payload); starting a fresh ledger", stacklevel=3)
            return
        for fingerprint, entry in failures.items():
            try:
                self.entries[fingerprint] = FailureRecord.from_dict(
                    fingerprint, entry)
            except (KeyError, TypeError, ValueError) as error:
                warnings.warn(
                    f"Skipping corrupt ledger entry {fingerprint} "
                    f"({format_error(error)})", stacklevel=3)

    def record(self, failure: FailureRecord) -> None:
        self.entries[failure.fingerprint] = failure

    def discard(self, fingerprint: str) -> bool:
        """Remove ``fingerprint`` (a later attempt succeeded); True if present."""
        return self.entries.pop(fingerprint, None) is not None

    def to_dict(self) -> dict[str, object]:
        return {
            "format_version": LEDGER_FORMAT_VERSION,
            "failures": {fingerprint: self.entries[fingerprint].to_dict()
                         for fingerprint in sorted(self.entries)},
        }

    def save(self) -> Path:
        """Atomically persist the ledger (or remove the file when empty)."""
        if not self.entries:
            self.path.unlink(missing_ok=True)
            return self.path
        temporary = self.path.with_suffix(self.path.suffix + ".tmp")
        text = json.dumps(self.to_dict(), indent=1, sort_keys=True)
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, self.path)
        return self.path

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def fingerprints(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


def ledger_path(store_root: str | os.PathLike[str]) -> Path:
    """``artifacts/`` → ``artifacts.failures.json`` (sibling of the store)."""
    root = Path(store_root)
    return root.parent / f"{root.name}.failures.json"
