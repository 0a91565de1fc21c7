"""Runtime determinism sanitizer — the dynamic half of ``reprolint``.

The static rules catch what is visible in the AST; this module catches what
is not.  :func:`determinism_guard` seeds *and freezes* the global RNGs for
the duration of a block: any code path that consumes ``random`` or the
legacy ``np.random`` global state — precisely the ND003 bug class, but
reached through a dependency the linter cannot see — moves the frozen state
and fails the guard loudly.  The guard also carries the read-only assertion
for cached arrays (the MU002 class at runtime) and the order helpers the
hypothesis property suites use to prove outputs are independent of
abstention/query order and of dict insertion order.

Surfaces:

* the engine — :func:`repro.experiments.engine.execute_spec` runs every job
  under a guard and asserts the shared feature matrix stayed
  ``writeable=False``;
* tests — the property suites wrap their subjects in ``determinism_guard``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")

#: Seed the guard pins the global RNGs to.  The value is arbitrary; what
#: matters is that the post-seed state is *known*, so drift is detectable.
GUARD_SEED = 20230


class DeterminismViolation(AssertionError):
    """A guarded block consumed global RNG state or mutated a shared array."""


def _numpy_state_equal(state_a: tuple, state_b: tuple) -> bool:
    if len(state_a) != len(state_b):
        return False
    return all(np.array_equal(part_a, part_b)
               for part_a, part_b in zip(state_a, state_b))


class DeterminismGuard:
    """Handle yielded by :func:`determinism_guard`; holds the frozen states."""

    def __init__(self, py_state: tuple, np_state: tuple) -> None:
        self._py_state = py_state
        self._np_state = np_state

    def check(self, label: str = "guarded block") -> None:
        """Fail loudly if any global RNG moved since the guard froze it."""
        if random.getstate() != self._py_state:
            raise DeterminismViolation(
                f"{label} consumed the stdlib global RNG (random.*); every "
                "random stream must flow through repro._rng seeded "
                "Generators")
        if not _numpy_state_equal(np.random.get_state(), self._np_state):
            raise DeterminismViolation(
                f"{label} consumed numpy's legacy global RNG (np.random.*); "
                "every random stream must flow through repro._rng seeded "
                "Generators")

    @staticmethod
    def assert_read_only(array: np.ndarray, name: str = "array") -> None:
        """Fail loudly if a cache-owned array became writeable."""
        if array.flags.writeable:
            raise DeterminismViolation(
                f"{name} is writeable: cached arrays are shared across runs "
                "and must stay writeable=False (copy before mutating)")


@contextmanager
def determinism_guard(label: str = "guarded block",
                      seed: int = GUARD_SEED) -> Iterator[DeterminismGuard]:
    """Seed-and-freeze the global RNGs around a block; fail on any drift.

    On entry the previous global states are snapshotted and both RNGs are
    seeded to a known state; on a clean exit the guard verifies the states
    never moved (a moved state means some code path consumed global
    randomness — nondeterministic under concurrency and invisible to the
    spawn-seeded streams), then restores the snapshots so the guard itself
    is side-effect free.
    """
    py_previous = random.getstate()
    np_previous = np.random.get_state()
    # The sanitizer owns the global state on purpose: pinning it to a known
    # value is what makes later drift detectable.
    random.seed(seed)  # repro: noqa[ND003] the guard pins global state by design
    np.random.seed(seed)  # repro: noqa[ND003] the guard pins global state by design
    guard = DeterminismGuard(random.getstate(), np.random.get_state())
    try:
        yield guard
        guard.check(label)
    finally:
        random.setstate(py_previous)  # repro: noqa[ND003] restoring the pre-guard snapshot
        np.random.set_state(np_previous)  # repro: noqa[ND003] restoring the pre-guard snapshot


def permuted(items: Sequence[_T], seed: int = 0) -> list[_T]:
    """A deterministic reordering of ``items`` (order-dependence probes).

    Property tests run a subject over ``items`` and ``permuted(items)`` and
    assert the per-item outputs agree — the runtime analogue of the ND005
    rule for orderings the AST cannot see (query order, abstention order).
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    return [items[index] for index in order]


def shuffled_dict(mapping: Mapping[str, Any], seed: int = 0) -> dict[str, Any]:
    """``mapping`` rebuilt with deterministically reordered insertion order.

    Probes dict-order dependence: code whose output changes between a
    mapping and its ``shuffled_dict`` sibling depends on insertion order —
    deterministic per run but brittle under refactors, exactly the bug class
    the sorted-output convention exists to prevent.
    """
    keys = permuted(list(mapping), seed=seed)
    return {key: mapping[key] for key in keys}
