"""Random-number-generation helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng` normalizes
these into a ``Generator`` so call sites never have to branch.  Child
generators derived with :func:`spawn_rng` are independent streams, which keeps
experiments reproducible even when components consume randomness in different
orders.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RandomState = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` (fresh default-seeded generator), an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).
    """
    if random_state is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        f"random_state must be None, an int, or a numpy Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = rng.integers(0, 2**31 - 1, size=n)
    return [np.random.default_rng(int(seed)) for seed in seeds]

