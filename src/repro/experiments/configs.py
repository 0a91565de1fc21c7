"""Experiment settings mirroring Section 4.2 of the paper.

The paper runs 8 active-learning iterations with a budget of 100 labels per
iteration, a 100-sample seed (50 matches / 50 non-matches), averages the
battleship approach over α ∈ {0.25, 0.5, 0.75} with β = 0.5, and repeats every
configuration over 3 random seeds.  :func:`default_settings` scales those
counts with the active :class:`~repro.config.ScaleProfile` so the harness can
run on a laptop; ``REPRO_SCALE=paper`` restores the paper's numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro._fingerprints import content_hash
from repro.config import ScaleProfile, get_scale
from repro.datasets.registry import available_benchmarks
from repro.neural.featurizer import FeaturizerConfig
from repro.neural.matcher import MatcherConfig

#: The α values averaged by the paper's headline battleship configuration.
PAPER_ALPHAS: tuple[float, ...] = (0.25, 0.5, 0.75)
#: The β value fixed for the headline configuration.
PAPER_BETA: float = 0.5
#: Number of random seeds the paper averages over.
PAPER_NUM_SEEDS: int = 3

#: Datasets used for the component-analysis figures (Section 6).
ABLATION_DATASETS: tuple[str, ...] = ("walmart_amazon", "amazon_google")

#: :class:`ExperimentSettings` fields that only shape the experiment *grid*.
#: Every other field influences a single run and must be fingerprinted; the
#: engine's ``settings_fingerprint`` derives its payload as
#: ``fingerprint_fields(ExperimentSettings, exclude=GRID_ONLY_FIELDS)``, so a
#: new settings field is hashed by construction unless deliberately listed
#: here.
GRID_ONLY_FIELDS: tuple[str, ...] = ("datasets", "num_seeds", "alphas", "beta")


@dataclass(frozen=True)
class ExperimentSettings:
    """Resolved knobs shared by every experiment of the harness."""

    scale: ScaleProfile
    datasets: tuple[str, ...]
    iterations: int
    budget_per_iteration: int
    seed_size: int
    num_seeds: int
    alphas: tuple[float, ...]
    beta: float
    matcher_config: MatcherConfig = field(default_factory=MatcherConfig)
    featurizer_config: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    base_random_seed: int = 7

    @property
    def labeled_checkpoints(self) -> tuple[int, ...]:
        """Cumulative labeled counts at which the matcher is evaluated."""
        return tuple(self.seed_size + i * self.budget_per_iteration
                     for i in range(self.iterations + 1))

    @property
    def mid_checkpoint(self) -> int:
        """The "500 labels" analogue: the checkpoint halfway through the run."""
        checkpoints = self.labeled_checkpoints
        return checkpoints[len(checkpoints) // 2]

    @property
    def final_checkpoint(self) -> int:
        """The "900 labels" analogue: the last checkpoint."""
        return self.labeled_checkpoints[-1]

    def seeds(self) -> tuple[int, ...]:
        """The random seeds every configuration is repeated over."""
        return tuple(self.base_random_seed + 13 * run for run in range(self.num_seeds))


def config_fingerprint(config: object) -> str:
    """Content hash of a frozen config dataclass (featurizer, matcher, …).

    Manifest lockfiles pin these per-component fingerprints next to the
    run-level :func:`~repro.experiments.engine.settings_fingerprint`, so a
    drifted default (say, a new ``FeaturizerConfig`` field) is attributable
    to the component that changed rather than just "the settings hash moved".
    """
    payload = dataclasses.asdict(config)  # type: ignore[call-overload]
    return content_hash(payload)


def default_settings(
    scale: ScaleProfile | str | None = None,
    datasets: tuple[str, ...] | None = None,
    num_seeds: int | None = None,
    alphas: tuple[float, ...] | None = None,
) -> ExperimentSettings:
    """Build :class:`ExperimentSettings` for the active scale profile.

    At reduced scales the number of seeds and the battleship α sweep are
    trimmed (1 seed, α = 0.5 only) so the full harness stays fast; the paper
    profile restores the published configuration.
    """
    scale = get_scale(scale) if not isinstance(scale, ScaleProfile) else scale
    is_paper = scale.name == "paper"
    return ExperimentSettings(
        scale=scale,
        datasets=tuple(datasets or available_benchmarks()),
        iterations=scale.iterations,
        budget_per_iteration=scale.budget_per_iteration,
        seed_size=scale.seed_size,
        num_seeds=num_seeds if num_seeds is not None else (PAPER_NUM_SEEDS if is_paper else 1),
        alphas=tuple(alphas) if alphas is not None else (PAPER_ALPHAS if is_paper else (0.5,)),
        beta=PAPER_BETA,
    )
