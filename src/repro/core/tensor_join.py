"""Tensor-join formulation (Sections IV-C, V-B; Figures 6, 7, 11-14).

The join becomes a block-matrix dot product: normalize both relations once
(cosine == dot for unit vectors), partition **along tuple boundaries, not
dimensions**, and compute ``D = R @ S.T`` block-by-block with BLAS GEMM.
Each block's dense intermediate is pruned to qualifying offset pairs before
the next block runs, so peak memory is ``batch_left * batch_right`` floats
regardless of input size (the Figure 7 buffer budget).  Top-k conditions
stream every block through a bounded :class:`~repro.vector.topk.StreamingTopK`
merge, so the budget also covers the candidate state, end to end.

Left blocks are independent tasks; handing the join an
:class:`~repro.engine.ExecutionEngine` schedules them on its work-stealing
workers, with batch shapes resolved by the engine's (possibly calibrated)
:class:`~repro.engine.BatchPolicy`.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import BatchPolicy, ExecutionEngine
from ..engine.adaptive import CELL_BYTES as _CELL_BYTES
from ..errors import DimensionalityError
from ..vector.norms import normalize_rows
from ..vector.scan import BlockPart, join_parts, run_left_blocks
from ..vector.topk import StreamingTopK
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .nlj import _as_matrix
from .result import JoinResult, JoinStats


def resolve_batch_shape(
    n_left: int,
    n_right: int,
    *,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
) -> tuple[int, int]:
    """Derive mini-batch edges from explicit sizes or a buffer budget.

    With only a budget, the edges are chosen square-ish:
    ``batch_l * batch_r * 4 bytes <= budget``.  Thin wrapper over
    :meth:`repro.engine.BatchPolicy.resolve` (the single budget-to-shape
    implementation), kept as the stable core-layer entry point.
    """
    return BatchPolicy().resolve(
        n_left,
        n_right,
        1,  # dim only matters to calibrated policies
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
    )


def tensor_join(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
    policy: BatchPolicy | None = None,
) -> JoinResult:
    """Scan-based exact E-join via blocked GEMM.

    Args:
        left, right: ``(n, d)`` embedding matrices, or raw items with
            ``model`` (prefetch-embedded once).
        condition: threshold or top-k join condition.
        batch_left, batch_right: explicit mini-batch edges in tuples.
        buffer_budget_bytes: alternatively, a memory budget for the dense
            intermediate (Figure 7's ``Buffer``); batch edges are derived.
            Under a top-k condition the budget also covers the streaming
            merge state, and with a multi-threaded engine it is split
            evenly across workers — peak intermediate memory is bounded
            end to end, counting all concurrent blocks.
        assume_normalized: skip normalization when inputs are already unit
            rows (ablation: pre-normalized storage).
        engine: execution engine scheduling left blocks across its workers
            and resolving batch shapes via its calibrated policy.  ``None``
            runs blocks inline with policy defaults from the global config.
        policy: batch-shape policy for engine-less calls (e.g. per-morsel
            joins inside :func:`~repro.core.parallel.parallel_join`, which
            forwards its engine's calibrated policy); ignored when an
            ``engine`` is supplied.

    Returns:
        Sparse offset-pair :class:`JoinResult`; ``stats`` records peak
        buffer cells and GEMM invocations for the Figure 13 trade-off.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor")
    start = time.perf_counter()

    left_m = _as_matrix(left, model, stats)
    right_m = _as_matrix(right, model, stats)
    if left_m.shape[1] != right_m.shape[1]:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {right_m.shape[1]}"
        )
    stats.n_left, stats.n_right = len(left_m), len(right_m)
    if stats.n_left == 0 or stats.n_right == 0:
        stats.seconds = time.perf_counter() - start
        return JoinResult.empty(stats)

    left_n = left_m if assume_normalized else normalize_rows(left_m)
    right_n = right_m if assume_normalized else normalize_rows(right_m)

    reserve = (
        StreamingTopK.state_bytes_per_row(condition.k)
        if isinstance(condition, TopKCondition)
        else 0
    )

    def block(l0: int, l1: int, br: int) -> BlockPart:
        if isinstance(condition, ThresholdCondition):
            return _threshold_block(left_n[l0:l1], l0, right_n, condition, br)
        assert isinstance(condition, TopKCondition)
        return _topk_block(left_n[l0:l1], l0, right_n, condition, br)

    parts = run_left_blocks(
        left_n, stats.n_right, block, stats, reserve=reserve,
        batch_left=batch_left, batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes, engine=engine, policy=policy,
    )
    return join_parts(parts, stats, start)


def _threshold_block(
    lb: np.ndarray,
    l0: int,
    right_n: np.ndarray,
    condition: ThresholdCondition,
    br: int,
) -> BlockPart:
    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    part = BlockPart()
    for r0 in range(0, right_n.shape[0], br):
        rb = right_n[r0 : r0 + br]
        scores = lb @ rb.T  # dense GEMM block (Figure 6 step 1)
        part.batch_invocations += 1
        part.similarity_evaluations += scores.size
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes, scores.size * _CELL_BYTES
        )
        li, ri = np.nonzero(scores >= condition.threshold)
        if len(li) == 0:
            continue
        # Map block-local offsets back via batch offsets (Fig. 6 step 2).
        out_l.append(li.astype(np.int64) + l0)
        out_r.append(ri.astype(np.int64) + r0)
        out_s.append(scores[li, ri].astype(np.float32))
    if out_l:
        part.left_ids = np.concatenate(out_l)
        part.right_ids = np.concatenate(out_r)
        part.scores = np.concatenate(out_s)
    return part


def _topk_block(
    lb: np.ndarray,
    l0: int,
    right_n: np.ndarray,
    condition: TopKCondition,
    br: int,
) -> BlockPart:
    k = condition.k
    n_lb = lb.shape[0]
    part = BlockPart()
    merger = StreamingTopK(n_lb, k)
    state_bytes = n_lb * StreamingTopK.state_bytes_per_row(k)
    for r0 in range(0, right_n.shape[0], br):
        rb = right_n[r0 : r0 + br]
        scores = lb @ rb.T
        part.batch_invocations += 1
        part.similarity_evaluations += scores.size
        part.peak_intermediate_bytes = max(
            part.peak_intermediate_bytes,
            scores.size * _CELL_BYTES + state_bytes,
        )
        merger.update_block(scores, r0)
    cand_ids, cand_scores = merger.finalize()
    kk = cand_ids.shape[1]
    li = np.repeat(np.arange(n_lb, dtype=np.int64) + l0, kk)
    ri = cand_ids.reshape(-1)
    sc = cand_scores.reshape(-1).astype(np.float32)
    if condition.min_similarity is not None:
        keep = sc >= condition.min_similarity
        li, ri, sc = li[keep], ri[keep], sc[keep]
    part.left_ids, part.right_ids, part.scores = li, ri, sc
    return part


def tensor_join_non_batched(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
) -> JoinResult:
    """Figure 12's "Tensor-Non-Batched" strategy.

    One input stays fully batched; the other is streamed **one vector at a
    time** through the BLAS kernel.  Numerically identical to
    :func:`tensor_join`, but each matrix-vector call re-reads the batched
    operand — the redundant data movement the fully-batched formulation
    eliminates.
    """
    validate_condition(condition)
    stats = JoinStats(strategy="tensor-non-batched")
    start = time.perf_counter()
    left_m = _as_matrix(left, model, stats)
    right_m = _as_matrix(right, model, stats)
    if left_m.shape[1] != right_m.shape[1]:
        raise DimensionalityError(
            f"dimensionality mismatch: {left_m.shape[1]} vs {right_m.shape[1]}"
        )
    stats.n_left, stats.n_right = len(left_m), len(right_m)
    left_n = normalize_rows(left_m)
    right_n = normalize_rows(right_m)

    from .nlj import _emit_row  # row-wise condition evaluation

    out_l: list[np.ndarray] = []
    out_r: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    for i in range(left_n.shape[0]):
        row = right_n @ left_n[i]  # matrix-vector: right batched, left streamed
        stats.batch_invocations += 1
        stats.similarity_evaluations += row.shape[0]
        idx, picked = _emit_row(row, condition)
        if len(idx) == 0:
            continue
        out_l.append(np.full(len(idx), i, dtype=np.int64))
        out_r.append(idx.astype(np.int64))
        out_s.append(picked.astype(np.float32))
    stats.seconds = time.perf_counter() - start
    if not out_l:
        return JoinResult.empty(stats)
    return JoinResult(
        np.concatenate(out_l),
        np.concatenate(out_r),
        np.concatenate(out_s),
        stats,
    )
