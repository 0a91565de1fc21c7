"""Deterministic sharding of the blocking index build.

Blocking's per-record work (signature computation, feature extraction) is
embarrassingly parallel: records are partitioned into contiguous shards whose
boundaries depend only on the table size and the shard count — never on the
worker count — so any ``(num_shards, num_workers)`` combination produces
byte-identical shard inputs and, concatenated, byte-identical indexes.

The fan-out reuses the experiment engine's
:meth:`~repro.experiments.engine.ParallelExecutor.map_indexed` and its
spawn-safe initializer pattern: the blocker travels to each worker once
through the pool initializer, tasks carry only the shard's texts, and results
come back in shard order.  The engine import is lazy so the blocking package
stays importable without the experiment stack (and free of import cycles —
the engine never imports blocking).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def shard_ranges(total: int, num_shards: int) -> tuple[tuple[int, int], ...]:
    """Contiguous near-equal ``(start, stop)`` ranges covering ``range(total)``.

    The first ``total % num_shards`` shards get one extra record; empty
    tables produce no shards, and shard counts above ``total`` collapse to
    one record per shard.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if total == 0:
        return ()
    num_shards = min(num_shards, total)
    base, remainder = divmod(total, num_shards)
    ranges = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


# Worker-process state, set by the pool initializer (the spawn-safe pattern
# of the experiment engine's _init_worker).
_WORKER_BLOCKER = None


def _init_shard_worker(blocker) -> None:
    """Pool initializer: each worker receives the (picklable) blocker once."""
    global _WORKER_BLOCKER
    _WORKER_BLOCKER = blocker


def _run_shard(task: tuple[str, list[str]]):
    """Top-level (picklable) shard body: call a blocker method on the texts."""
    assert _WORKER_BLOCKER is not None, "shard worker initializer did not run"
    method_name, texts = task
    return getattr(_WORKER_BLOCKER, method_name)(texts)


def map_text_shards(
    blocker,
    method_name: str,
    texts: Sequence[str],
    num_shards: int,
    num_workers: int,
) -> list:
    """Apply ``blocker.<method_name>(shard_texts)`` to every shard, in order.

    With ``num_workers == 1`` (or a single shard) the shards run in-process —
    still through the same shard boundaries, so results are identical to the
    multi-worker path.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    ranges = shard_ranges(len(texts), num_shards)
    if not ranges:
        return []
    if num_workers > 1 and len(ranges) > 1:
        from repro.experiments.engine import ParallelExecutor
        tasks = [(method_name, list(texts[start:stop]))
                 for start, stop in ranges]
        return ParallelExecutor(jobs=num_workers).map_indexed(
            _run_shard, tasks,
            initializer=_init_shard_worker, initargs=(blocker,))
    method = getattr(blocker, method_name)
    return [method(texts[start:stop]) for start, stop in ranges]


def sharded_signatures(
    blocker,
    texts: Sequence[str],
    num_shards: int,
    num_workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-table ``(signature matrix, empty mask)`` from per-shard builds.

    Per-record signatures are independent, so vertically stacking the shard
    matrices reproduces the single-shard matrix exactly.
    """
    results = map_text_shards(blocker, "shard_signatures", texts,
                              num_shards, num_workers)
    if not results:
        return blocker.shard_signatures([])
    matrices = [matrix for matrix, _ in results]
    masks = [mask for _, mask in results]
    return np.vstack(matrices), np.concatenate(masks)
