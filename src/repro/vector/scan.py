"""Blocked similarity scans (Sections IV-C, V-B; Figures 6, 7, 13).

One copy of the two block loops every scan shares:

* :func:`run_left_blocks` drives an E-join's left blocks under the
  Figure 7 buffer budget; :func:`join_parts` folds their outputs.  The
  per-block kernels (the sinks) stay with the fp32 and quantized joins.
* :func:`reduce_candidates` reduces a multi-query scan to per-query top-k
  heaps and threshold hits, for the coalesced scan and shard workers.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..config import get_config
from ..engine import BatchPolicy, ExecutionEngine
from .topk import StreamingTopK, top_k_per_row


@dataclass
class BlockPart:
    """One left block's matches plus the counters it accumulated."""

    left_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    right_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    scores: np.ndarray = field(default_factory=lambda: np.empty(0, np.float32))
    similarity_evaluations: int = 0
    batch_invocations: int = 0
    peak_intermediate_bytes: int = 0
    rerank_candidates: int = 0


def run_left_blocks(
    left_n: np.ndarray,
    n_right: int,
    block: Callable[[int, int, int], BlockPart],
    stats,
    *,
    reserve: int,
    batch_left: int | None,
    batch_right: int | None,
    buffer_budget_bytes: int | None,
    engine: ExecutionEngine | None,
    policy: BatchPolicy | None,
    left_edge: Callable[[int], int] | None = None,
) -> list[BlockPart]:
    """Resolve the block shape (recorded on ``stats``), then run every block.

    ``block(l0, l1, br)`` joins left rows ``[l0, l1)`` against the right
    relation in right blocks of ``br`` rows; ``reserve`` is its per-left-row
    sink state, which the budget also covers.  ``left_edge(budget)`` picks
    the left edge when the caller pinned none.  A multi-threaded engine
    runs the blocks as tasks; results keep block order either way.
    """
    n_left = left_n.shape[0]
    if engine is not None:
        policy = engine.policy
    elif policy is None:
        policy = BatchPolicy(
            buffer_budget_bytes=get_config().default_buffer_budget_bytes
        )
    full_budget = (
        policy.buffer_budget_bytes
        if buffer_budget_bytes is None
        else buffer_budget_bytes
    )
    parallel = engine is not None and engine.n_threads > 1

    def _resolve(share: int) -> tuple[int, int]:
        eff = None if full_budget is None else max(full_budget // share, 1)
        requested = batch_left
        if requested is None and eff is not None and left_edge is not None:
            requested = left_edge(eff)
        bl, br = policy.resolve(
            n_left,
            n_right,
            left_n.shape[1],
            batch_left=requested,
            batch_right=batch_right,
            buffer_budget_bytes=eff,
            reserve_bytes_per_left_row=reserve,
        )
        if parallel and batch_left is None and bl >= n_left:
            # Neither the caller nor the (possibly generous) budget split
            # the left side: cap the left edge at the engine's morsel size
            # so the join actually parallelizes instead of degenerating to
            # one serial full-size block.
            morsels = engine.morsels_for(n_left)
            if len(morsels) > 1:
                bl = max(len(m) for m in morsels)
        return bl, br

    if parallel:
        # Split the budget by how many blocks are concurrently resident.
        # Shrinking the budget shrinks blocks and so *raises* the block
        # count, so iterate share = min(workers, blocks) to its fixed
        # point (monotone, bounded by n_threads); at the fixed point
        # holders * per-block <= budget.  A single-block join keeps the
        # whole budget instead of paying for concurrency it never gets.
        share = 1
        for _ in range(8):
            bl, br = _resolve(share)
            new_share = min(engine.n_threads, -(-n_left // bl))
            if new_share <= share:
                break
            share = new_share
        else:
            bl, br = _resolve(engine.n_threads)  # conservative, always safe
    else:
        bl, br = _resolve(1)
    stats.peak_buffer_elements = bl * br
    stats.extra["batch_shape"] = (bl, br)

    bounds = [(l0, min(l0 + bl, n_left)) for l0 in range(0, n_left, bl)]
    if not parallel or len(bounds) == 1:
        return [block(l0, l1, br) for l0, l1 in bounds]
    return engine.run(
        [lambda l0=l0, l1=l1: block(l0, l1, br) for l0, l1 in bounds]
    )


def join_parts(parts: list[BlockPart], stats, started: float):
    """Fold block parts and their counters into one ``JoinResult``."""
    from ..core.result import JoinResult  # core imports this module

    for part in parts:
        stats.similarity_evaluations += part.similarity_evaluations
        stats.batch_invocations += part.batch_invocations
        stats.extra["peak_intermediate_bytes"] = max(
            stats.extra.get("peak_intermediate_bytes", 0),
            part.peak_intermediate_bytes,
        )
    result = JoinResult.concat(parts, stats)
    stats.seconds = time.perf_counter() - started
    return result


def _floor_pruned(by_query: np.ndarray, floor: np.ndarray, offset: int):
    """Block candidates that can still enter an already-full top-k heap.

    Rows below their query's heap floor could never be retained (the floor
    only rises), so one vectorized compare replaces a per-query selection.
    Returns ``(ids, scores)`` padded to the widest query with ``-inf``
    scores — harmless against a full heap — or ``None`` if nothing passes.
    """
    mask = by_query >= floor[:, None]
    counts = mask.sum(axis=1)
    hmax = int(counts.max()) if len(counts) else 0
    if hmax == 0:
        return None
    b = by_query.shape[0]
    ids = np.full((b, hmax), -1, dtype=np.int64)
    scores = np.full((b, hmax), -np.inf, dtype=np.float32)
    for j in np.nonzero(counts)[0]:
        idx = np.nonzero(mask[j])[0]
        ids[j, : len(idx)] = idx + offset
        scores[j, : len(idx)] = by_query[j, idx]
    return ids, scores


def reduce_candidates(
    score: Callable[[int, int], np.ndarray],
    lo: int,
    hi: int,
    block_rows: int,
    topk_rows: Sequence[int],
    kpad: int,
    thr_rows: Sequence[int],
    thr_floors: np.ndarray,
    engine: ExecutionEngine | None,
    on_block: Callable[[], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One blocked pass over rows ``[lo, hi)`` for a batch of queries.

    ``score(start, stop)`` gives the ``(n_queries, stop - start)`` block.
    Queries in ``topk_rows`` keep their best ``kpad`` rows in one
    :class:`StreamingTopK`; queries in ``thr_rows`` keep every row scoring
    at least their ``thr_floors`` entry.  ``on_block`` runs after each
    block.  A multi-threaded engine scores blocks as tasks folded in
    order; otherwise blocks run inline and prune against the running heap
    floor.  Both give the same heap.

    Returns ``(heap_ids, heap_scores, thr_hits)``; the heap arrays are
    ``(0, 0)`` without top-k queries, and ``thr_hits`` holds one
    ascending id array per threshold query.
    """
    heap = StreamingTopK(len(topk_rows), kpad) if len(topk_rows) else None
    pools: list[list[np.ndarray]] = [[] for _ in thr_rows]

    def scan_block(start: int, floor: np.ndarray | None):
        stop = min(start + block_rows, hi)
        scores = score(start, stop)
        top = None
        if heap is not None:
            all_topk = len(topk_rows) == len(scores)
            by_query = scores if all_topk else scores[topk_rows]
            if floor is None:
                local = top_k_per_row(by_query, min(kpad, stop - start))
                top = (
                    local.astype(np.int64) + start,
                    np.take_along_axis(by_query, local, axis=1),
                )
            else:
                top = _floor_pruned(by_query, floor, start)
        thr_hits = [
            np.nonzero(scores[row] >= thr_floors[j])[0] + start
            for j, row in enumerate(thr_rows)
        ]
        if on_block is not None:
            on_block()
        return top, thr_hits

    def heap_floor():
        if heap is not None and heap.width >= kpad:
            return heap.finalize()[1].min(axis=1)
        return None

    starts = range(lo, hi, block_rows)
    if engine is not None and engine.n_threads > 1:
        partials = engine.run([lambda s=s: scan_block(s, None) for s in starts])
    else:
        # Lazy: each block is scored after the previous one was folded.
        partials = (scan_block(s, heap_floor()) for s in starts)
    for top, thr_hits in partials:
        if top is not None:
            heap.update(*top)
        for pool, hits in zip(pools, thr_hits):
            if len(hits):
                pool.append(hits)

    if heap is not None:
        heap_ids, heap_scores = heap.finalize()
    else:
        heap_ids = np.empty((0, 0), dtype=np.int64)
        heap_scores = np.empty((0, 0), dtype=np.float32)
    thr_hits = [
        np.concatenate(p) if p else np.empty(0, dtype=np.int64) for p in pools
    ]
    return heap_ids, heap_scores, thr_hits
