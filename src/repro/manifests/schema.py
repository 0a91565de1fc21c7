"""Typed statements of a linted experiment manifest.

A manifest file (TOML) declares a labeling campaign: which benchmarks to run,
which selectors, under which scenarios, over which seeds and α values, and
which settings overrides apply to every run.  The parser
(:mod:`repro.manifests.parser`) turns the file into raw dictionaries, the
linter (:mod:`repro.manifests.lint`) validates those into the frozen
statement types below, and the builder (:mod:`repro.manifests.build`)
expands the statements into the :class:`~repro.experiments.engine.RunSpec`
grid.  Everything here is immutable and content-hashable so a manifest has a
stable :meth:`~ManifestDocument.fingerprint` usable as a store-side identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._fingerprints import content_hash

#: Bumped whenever the manifest schema changes incompatibly.
MANIFEST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GridStatement:
    """One ``[[grid]]`` section: the cross product of its axes."""

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    scenarios: tuple[str, ...] = ("perfect",)
    seeds: tuple[int, ...] | None = None
    alphas: tuple[float, ...] | None = None
    beta: float = 0.5
    weak_supervision: str = "selector"

    def seed_values(self, default_seed: int) -> tuple[int, ...]:
        """The seeds this grid runs over (its list, else the default)."""
        return self.seeds if self.seeds is not None else (default_seed,)

    def to_dict(self) -> dict[str, object]:
        return {
            "datasets": list(self.datasets),
            "methods": list(self.methods),
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "seed_range": None,  # see ManifestDocument.to_dict
            "alphas": list(self.alphas) if self.alphas is not None else None,
            "beta": self.beta,
            "weak_supervision": self.weak_supervision,
        }


@dataclass(frozen=True)
class ManifestSettings:
    """The ``[settings]`` section: run-shaping knobs shared by every job.

    ``None`` means "take the scale profile's value", so a manifest only
    spells out what it overrides.  Config overrides are stored as sorted
    ``(field, value)`` pairs to stay hashable and order-insensitive.
    """

    scale: str = "small"
    iterations: int | None = None
    budget_per_iteration: int | None = None
    seed_size: int | None = None
    base_random_seed: int = 7
    matcher_overrides: tuple[tuple[str, object], ...] = ()
    featurizer_overrides: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "scale": self.scale,
            "iterations": self.iterations,
            "budget_per_iteration": self.budget_per_iteration,
            "seed_size": self.seed_size,
            "base_random_seed": self.base_random_seed,
            "matcher": {key: value for key, value in self.matcher_overrides},
            "featurizer": {key: value
                           for key, value in self.featurizer_overrides},
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """The ``[execution]`` section: how the campaign's jobs are retried.

    The same three settings as ``--retries``, ``--timeout`` and
    ``--keep-going``; ``None`` means "take the
    :class:`repro.experiments.faults.RetryPolicy` default", so a manifest
    only spells out what it overrides.  The section is *declarative* fault
    tolerance: the campaign file records how its runs survive transient
    faults, so a sweep replayed on another machine retries the same way.
    """

    max_attempts: int | None = None
    timeout: float | None = None
    keep_going: bool = False


@dataclass(frozen=True)
class ManifestDocument:
    """A fully linted manifest: name, settings, and its grid statements."""

    name: str
    description: str = ""
    settings: ManifestSettings = field(default_factory=ManifestSettings)
    grids: tuple[GridStatement, ...] = ()
    execution: ExecutionPolicy | None = None

    def referenced_datasets(self) -> tuple[str, ...]:
        """Every benchmark the manifest names, in first-reference order."""
        ordered: dict[str, None] = {}
        for grid in self.grids:
            for dataset in grid.datasets:
                ordered[dataset] = None
        return tuple(ordered)

    def referenced_scenarios(self) -> tuple[str, ...]:
        """Every scenario the manifest names, in first-reference order."""
        ordered: dict[str, None] = {}
        for grid in self.grids:
            for scenario in grid.scenarios:
                ordered[scenario] = None
        return tuple(ordered)

    def to_dict(self) -> dict[str, object]:
        """What the manifest declares to run; ``execution`` is left out.

        How a campaign retries never changes what its runs compute, so
        editing ``[execution]`` moves neither :meth:`fingerprint`,
        :meth:`manifest_id` nor the lockfile.
        """
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "name": self.name,
            "description": self.description,
            "settings": self.settings.to_dict(),
            "grids": [grid.to_dict() for grid in self.grids],
            # The schema no longer has [[run]]s or seed ranges, but their
            # keys stay, always empty, so every manifest that still lints
            # keeps the fingerprint and the lockfile it had.
            "runs": [],
        }

    def fingerprint(self) -> str:
        """Content hash of :meth:`to_dict` (description included)."""
        return content_hash(self.to_dict())

    def manifest_id(self) -> str:
        """Human-readable identity, ``name@hash``, for report titles."""
        return f"{self.name}@{self.fingerprint()[:12]}"
