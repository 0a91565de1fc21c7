"""Global configuration knobs for the reproduction.

The paper's experiments run six benchmarks with thousands of candidate pairs on
a 2-GPU server.  This reproduction replaces the GPU matcher with a NumPy one,
so full-scale runs are possible but slow on a laptop.  The ``REPRO_SCALE``
environment variable selects how large the synthetic benchmarks and experiment
sweeps are:

``tiny``
    4% of the paper's sizes (at least 200 training pairs) and 3 iterations.
    The CLI's default ``--scale``, the benchmark harness's default
    (``benchmarks/conftest.py``), and the scale most tests generate.
``small``  (default)
    12% of the paper's sizes and 4 iterations; what ``REPRO_SCALE`` resolves
    to when unset.  The ``small`` workloads of ``perfbench`` run at it.
``medium``
    30% of the paper's sizes and 6 iterations.
``paper``
    Full Table 3 sizes and the paper's iteration counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro._suggest import unknown_name_message
from repro.exceptions import ConfigurationError

_SCALE_ENV_VAR = "REPRO_SCALE"

#: Multiplicative factor applied to dataset sizes for each scale name.
_SCALE_FACTORS = {
    "tiny": 0.04,
    "small": 0.12,
    "medium": 0.30,
    "paper": 1.00,
}

#: Number of active-learning iterations run for each scale name.  The paper
#: uses 8 iterations with a budget of 100 labels per iteration.
_SCALE_ITERATIONS = {
    "tiny": 3,
    "small": 4,
    "medium": 6,
    "paper": 8,
}

#: Labeling budget per iteration for each scale name.
_SCALE_BUDGETS = {
    "tiny": 20,
    "small": 40,
    "medium": 60,
    "paper": 100,
}


@dataclass(frozen=True)
class ScaleProfile:
    """Resolved experiment scale.

    Attributes
    ----------
    name:
        One of ``tiny``, ``small``, ``medium``, ``paper``.
    size_factor:
        Fraction of the paper's dataset sizes to generate.
    iterations:
        Number of active-learning iterations per experiment.
    budget_per_iteration:
        Labels requested from the oracle in each iteration.
    """

    name: str
    size_factor: float
    iterations: int
    budget_per_iteration: int

    @property
    def seed_size(self) -> int:
        """Size of the labeled initialization seed (half matches, half not)."""
        return self.budget_per_iteration


def available_scales() -> tuple[str, ...]:
    """Return the names of the supported scale profiles."""
    return tuple(_SCALE_FACTORS)


def get_scale(name: str | None = None) -> ScaleProfile:
    """Resolve a :class:`ScaleProfile`.

    Parameters
    ----------
    name:
        Explicit scale name.  When ``None`` the ``REPRO_SCALE`` environment
        variable is consulted, defaulting to ``small``.
    """
    if name is None:
        name = os.environ.get(_SCALE_ENV_VAR, "small")
    name = name.strip().lower()
    if name not in _SCALE_FACTORS:
        raise ConfigurationError(
            unknown_name_message("scale", name, _SCALE_FACTORS))
    return ScaleProfile(
        name=name,
        size_factor=_SCALE_FACTORS[name],
        iterations=_SCALE_ITERATIONS[name],
        budget_per_iteration=_SCALE_BUDGETS[name],
    )


def scaled_size(paper_size: int, scale: ScaleProfile, minimum: int = 200) -> int:
    """Scale a paper-reported dataset size down to the active profile.

    The result never drops below ``minimum`` so that tiny profiles still have
    enough pairs for clustering and graph construction to be meaningful.
    """
    if paper_size <= 0:
        raise ConfigurationError(f"paper_size must be positive, got {paper_size}")
    return max(minimum, int(round(paper_size * scale.size_factor)))
