"""The frozen :class:`Scenario` triple and its two declarative axes.

A scenario answers, for one active-learning run, three questions the paper's
evaluation fixes to a single choice:

1.  *Who labels?* — an :class:`OracleModel` (perfect, uniformly noisy,
    class-conditionally noisy, or abstaining annotator);
2.  *How dirty is the data?* — a :class:`CorruptionRegime` overriding the
    source-noise profiles the benchmark is generated with;
3.  *What does the pool look like?* — an optional pool-skew transform from
    :mod:`repro.datasets.transforms`.

Every piece is a frozen dataclass so a scenario is hashable, picklable
(parallel workers receive it inside a RunSpec), and content-addressable: the
:meth:`Scenario.fingerprint` feeds the artifact-store key of every run
executed under the scenario, so changing a scenario definition invalidates
exactly the stored runs it produced.

Seeding policy: the scenario derives every random stream it owns (oracle
flips, abstention masks, pool skew) from crc32-mixed seeds that include the
scenario name, then hands them to components which spawn their own child
generators (:func:`repro._rng.spawn_rng`).  The streams are therefore
independent of the active-learning loop's seed/selection streams — running
the *perfect* scenario is bit-identical to running with no scenario at all.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro._fingerprints import content_hash, fingerprint_fields, fingerprint_payload
from repro.active.oracle import (
    AbstainingOracle,
    ClassConditionalNoisyOracle,
    LabelingOracle,
    NoisyOracle,
)
from repro.config import ScaleProfile
from repro.data.dataset import EMDataset
from repro.datasets.base import BenchmarkSpec, build_benchmark
from repro.datasets.corruptions import CorruptionConfig
from repro.datasets.registry import benchmark_spec
from repro.datasets.transforms import apply_pool_transform, available_pool_transforms
from repro.exceptions import ConfigurationError

#: Oracle kinds an :class:`OracleModel` can describe.
ORACLE_KINDS = ("perfect", "noisy", "class-conditional", "abstaining")


def _mixed_seed(*parts: object) -> int:
    """Deterministic 32-bit seed derived from string/number parts."""
    text = ":".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class OracleModel:
    """Declarative description of the annotator answering label queries.

    Attributes
    ----------
    kind:
        One of :data:`ORACLE_KINDS`.
    flip_probability:
        Uniform answer-flip probability (``noisy`` kind).
    false_positive_rate / false_negative_rate:
        Class-conditional flip rates (``class-conditional`` kind).
    abstain_probability:
        Fraction of pairs the annotator declines (``abstaining`` kind).
    """

    kind: str = "perfect"
    flip_probability: float = 0.0
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    abstain_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ConfigurationError(
                f"Unknown oracle kind {self.kind!r}; expected one of {ORACLE_KINDS}")

    @property
    def noise_level(self) -> float:
        """Scalar noise magnitude (the x-axis of the robustness figure)."""
        if self.kind == "noisy":
            return self.flip_probability
        if self.kind == "class-conditional":
            return max(self.false_positive_rate, self.false_negative_rate)
        if self.kind == "abstaining":
            return self.abstain_probability
        return 0.0

    def build(self, dataset: EMDataset,
              rng: np.random.Generator) -> LabelingOracle | None:
        """Instantiate the oracle for ``dataset`` (``None`` means perfect).

        Returning ``None`` for the perfect kind lets the loop fall back to
        its default :class:`~repro.active.oracle.PerfectOracle`, keeping
        perfect-scenario runs bit-identical to scenario-less ones.
        """
        if self.kind == "perfect":
            return None
        if self.kind == "noisy":
            return NoisyOracle(dataset, flip_probability=self.flip_probability,
                               random_state=rng)
        if self.kind == "class-conditional":
            return ClassConditionalNoisyOracle(
                dataset,
                false_positive_rate=self.false_positive_rate,
                false_negative_rate=self.false_negative_rate,
                random_state=rng)
        return AbstainingOracle(dataset,
                                abstain_probability=self.abstain_probability,
                                random_state=rng)


@dataclass(frozen=True)
class CorruptionRegime:
    """Override of the source-noise profiles a benchmark is generated with.

    ``left``/``right`` replace the benchmark's own corruption configs when
    given; ``scale_factor`` then multiplies every corruption probability
    (:meth:`CorruptionConfig.scaled`).  The default regime — no overrides,
    factor 1 — reproduces each benchmark exactly as its spec defines it.
    """

    name: str = "benchmark"
    left: CorruptionConfig | None = None
    right: CorruptionConfig | None = None
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.scale_factor < 0:
            raise ConfigurationError(
                f"scale_factor must be >= 0, got {self.scale_factor}")

    def apply_to(self, spec: BenchmarkSpec) -> BenchmarkSpec:
        """The benchmark spec with this regime's corruption profiles."""
        left = self.left if self.left is not None else spec.left_corruption
        right = self.right if self.right is not None else spec.right_corruption
        if self.scale_factor != 1.0:
            left = left.scaled(self.scale_factor)
            right = right.scaled(self.scale_factor)
        return dataclasses.replace(spec, left_corruption=left,
                                   right_corruption=right)


@dataclass(frozen=True)
class Scenario:
    """One point of the robustness matrix: oracle × corruption × pool skew."""

    name: str
    oracle: OracleModel = field(default_factory=OracleModel)
    corruption: CorruptionRegime = field(default_factory=CorruptionRegime)
    pool_skew: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("Scenario name must be non-empty")
        if (self.pool_skew is not None
                and self.pool_skew not in available_pool_transforms()):
            raise ConfigurationError(
                f"Unknown pool transform {self.pool_skew!r}; available: "
                f"{sorted(available_pool_transforms())}")

    def fingerprint(self) -> str:
        """Content hash of everything that changes a run's outcome.

        The human-facing ``description`` is excluded; every behavioural field
        is included *by construction* — the payload is derived from the
        dataclass fields (:func:`repro._fingerprints.fingerprint_fields`), so
        a field added to :class:`Scenario` is hashed without anyone
        remembering to list it, and editing a scenario definition invalidates
        its stored artifacts (the fingerprint feeds
        :meth:`repro.experiments.engine.RunSpec.fingerprint`).
        """
        fields = fingerprint_fields(Scenario, exclude=("description",))
        payload = fingerprint_payload(self, fields)
        return content_hash(payload)

    def dataset_fingerprint(self) -> str:
        """Hash of only the fields that shape the *dataset* (not the oracle).

        Scenarios differing solely in their oracle model share this value,
        so the engine's dataset cache builds each benchmark variant once,
        not once per scenario.  The empty string marks the untouched
        benchmark (shared with scenario-less callers).  The scenario name is
        included only when a pool skew is active, because the skew's random
        stream is derived from it.
        """
        if self.is_default:
            return ""
        # This payload is deliberately a *subset* of the fields (the oracle
        # must not invalidate the dataset cache), so it cannot be derived
        # from fingerprint_fields; full coverage is owned by fingerprint().
        payload = {  # repro: noqa[FP001] intentional field subset for dataset-cache sharing; fingerprint() above carries the structural coverage
            "corruption": dataclasses.asdict(self.corruption),
            "pool_skew": self.pool_skew,
            "skew_scope": self.name if self.pool_skew is not None else None,
        }
        return content_hash(payload)

    @property
    def is_default(self) -> bool:
        """Whether this scenario leaves dataset generation untouched."""
        return (self.corruption.left is None and self.corruption.right is None
                and self.corruption.scale_factor == 1.0
                and self.pool_skew is None)

    def build_dataset(
        self,
        dataset_name: str,
        scale: ScaleProfile | str | None = None,
        random_state: int = 0,
    ) -> EMDataset:
        """Generate ``dataset_name`` under this scenario's corruption and skew.

        ``random_state`` is the benchmark seed (the engine passes the
        settings' ``base_random_seed``); the pool-skew stream is derived from
        it and the scenario name, so two scenarios sharing a transform still
        skew independently.
        """
        spec = self.corruption.apply_to(benchmark_spec(dataset_name))
        dataset = build_benchmark(spec, scale=scale, random_state=random_state)
        if self.pool_skew is not None:
            skew_rng = np.random.default_rng(
                _mixed_seed("pool-skew", self.name, dataset_name, random_state))
            dataset = apply_pool_transform(self.pool_skew, dataset, skew_rng)
        return dataset

    def build_oracle(self, dataset: EMDataset,
                     run_seed: int) -> LabelingOracle | None:
        """Instantiate this scenario's oracle for one run (``None`` = perfect).

        The oracle stream is derived from the run seed *and* the scenario
        name, mixed through crc32, so it never collides with the loop's own
        seed/selection streams (which consume ``default_rng(run_seed)``
        directly).
        """
        oracle_rng = np.random.default_rng(
            _mixed_seed("oracle", self.name, run_seed))
        return self.oracle.build(dataset, oracle_rng)

    def as_row(self) -> dict[str, object]:
        """Flat description for the CLI listing."""
        oracle = self.oracle.kind
        if self.oracle.noise_level > 0:
            oracle = f"{oracle}({self.oracle.noise_level:g})"
        return {
            "scenario": self.name,
            "oracle": oracle,
            "corruption": self.corruption.name,
            "pool_skew": self.pool_skew or "-",
            "description": self.description,
        }
