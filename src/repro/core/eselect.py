"""Context-enhanced selection: sigma_{E,mu,theta}(R) (Section III-C).

The selection counterpart of the E-join: given a relation of context-rich
items (or their embeddings) and a *query* item, return the tuples whose
similarity to the query satisfies theta.  Its cost is the paper's
E-Selection Cost equation, ``|R| * (A + M + C)`` — linear, with the model
term removable by prefetching exactly as in the join.

Both access paths are provided:

* :func:`eselect` — scan-based, exact, any condition;
* :func:`eselect_index` — probe-based, approximate, top-k-native.

The scan path runs as **prescreen + exact rescore**: a fast BLAS pass
produces approximate scores whose only job is to select a provable
candidate superset, and the emitted rows are then re-scored with the
shape-stable :func:`~repro.vector.kernels.stable_dot_scores` kernel.
Emitted ids and scores are therefore a pure function of the data and the
query — independent of how the scan was blocked or batched.  Both halves
live here: :func:`prescreen` runs one approximate pass for a batch of
queries and :func:`rescore` proves and selects each query's exact rows.
Serial :func:`eselect`, the service's coalesced shared scans and the
shard workers (through ``prescreen``'s ``scan`` callback) all take this
one path, so their results are bit-identical.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from ..embedding.base import EmbeddingModel
from ..errors import DimensionalityError, JoinError
from ..index.base import VectorIndex
from ..vector.kernels import stable_dot_scores
from ..vector.norms import normalize_rows, normalize_vector
from ..vector.scan import reduce_candidates
from .conditions import (
    JoinCondition,
    ThresholdCondition,
    TopKCondition,
    validate_condition,
)
from .nlj import _as_matrix
from .result import JoinStats

#: Margin subtracted from prescreen thresholds so float rounding in the
#: approximate BLAS pass can never exclude a row the exact kernel would
#: emit.  Dot products of unit vectors deviate from the exact value by
#: O(d * eps_fp32) ~ 1e-4 at d = 2048; 1e-3 is a safe bound for any
#: realistic embedding dimensionality.
PRESCREEN_MARGIN = 1e-3

#: Extra prescreen candidates retained beyond ``k`` for top-k conditions,
#: so the completeness guard in :func:`rescore` rarely has to widen.
TOPK_PRESCREEN_PAD = 32


class SelectionResult:
    """Offsets + scores of tuples satisfying an E-selection."""

    def __init__(self, ids: np.ndarray, scores: np.ndarray, stats: JoinStats):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.scores = np.asarray(scores, dtype=np.float32)
        if len(self.ids) != len(self.scores):
            raise JoinError(
                f"ragged selection result: {len(self.ids)} ids, "
                f"{len(self.scores)} scores"
            )
        self.stats = stats

    def __len__(self) -> int:
        return len(self.ids)


def _query_vector(query, model: EmbeddingModel | None, stats: JoinStats) -> np.ndarray:
    if isinstance(query, np.ndarray):
        if query.ndim != 1:
            raise DimensionalityError(
                f"query must be a 1-D vector, got ndim={query.ndim}"
            )
        return normalize_vector(np.asarray(query, dtype=np.float32))
    if model is None:
        raise JoinError("a raw query item requires an embedding model")
    stats.model_calls += 1
    # Unit-normalize unconditionally: downstream probes assume unit rows
    # (models normalize by default, but it is optional).
    return normalize_vector(model.embed(query))


def exact_threshold_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact threshold selection over a prescreened candidate superset.

    ``candidates`` must contain every row whose *exact* score could reach
    ``threshold`` (guaranteed when they were selected with approximate
    score >= ``threshold - PRESCREEN_MARGIN``).  Returns ``(ids, scores)``
    in ascending-id order with shape-stable exact scores — identical for
    any candidate superset, so serial and coalesced scans agree bitwise.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    exact = stable_dot_scores(normalized[candidates], qvec)
    keep = exact >= threshold
    return candidates[keep], exact[keep]


def exact_topk_select(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    k: int,
    *,
    min_similarity: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k selection over a prescreened candidate superset.

    ``candidates`` must contain every row whose exact score ties or beats
    the true k-th best.  Selection is by (exact score descending, id
    ascending) — :func:`top_k_indices` semantics — so any valid superset
    yields the same ids and scores.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    exact = stable_dot_scores(normalized[candidates], qvec)
    order = np.lexsort((candidates, -exact))[: min(k, len(candidates))]
    ids, scores = candidates[order], exact[order]
    if min_similarity is not None:
        keep = scores >= min_similarity
        ids, scores = ids[keep], scores[keep]
    return ids, scores


def topk_completeness_floor(
    normalized: np.ndarray,
    candidates: np.ndarray,
    qvec: np.ndarray,
    k: int,
):
    """The k-th best exact score among ``candidates``, less the margin.

    A row whose approximate score is below this cannot reach the exact
    top-k, so every row at or above it forms a provable top-k superset.
    """
    exact = stable_dot_scores(normalized[candidates], qvec)
    kth = np.sort(exact)[::-1][min(k, len(exact)) - 1]
    return kth - PRESCREEN_MARGIN


def prescreen(
    normalized: np.ndarray,
    queries: np.ndarray,
    conditions: Sequence[JoinCondition],
    scan: Callable | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """One approximate pass selecting candidate supersets for many queries.

    ``queries`` holds one unit vector per condition.  Identical vectors
    share one scan row; top-k rows keep their best ``k + TOPK_PRESCREEN_PAD``
    rows, threshold rows every row within ``PRESCREEN_MARGIN`` of their
    threshold.  ``scan(unique_queries, topk_rows, kpad, thr_rows,
    thr_floors)`` runs the pass and returns what
    :func:`~repro.vector.scan.reduce_candidates` does (default: that
    reducer over one inline block of ``q @ normalized.T``).

    Returns per-query ``(candidates, heap_floors)``: candidate id arrays,
    and for top-k queries the lowest approximate score the heap kept
    (``-inf`` for threshold queries).  :func:`rescore` turns each into
    the exact result.
    """
    n = len(normalized)
    queries = np.asarray(queries, dtype=np.float32)
    rows: dict[bytes, int] = {}
    urow_of = [rows.setdefault(q.tobytes(), len(rows)) for q in queries]
    unique = queries[np.unique(urow_of, return_index=True)[1]]

    topk_rows = sorted(
        {u for u, c in zip(urow_of, conditions) if isinstance(c, TopKCondition)}
    )
    thr_floor: dict[int, float] = {}
    for u, c in zip(urow_of, conditions):
        if isinstance(c, ThresholdCondition):
            bound = c.threshold - PRESCREEN_MARGIN
            thr_floor[u] = min(thr_floor.get(u, bound), bound)
    thr_rows = sorted(thr_floor)
    ks = [c.k for c in conditions if isinstance(c, TopKCondition)]
    kpad = max(1, min(n, max(ks) + TOPK_PRESCREEN_PAD)) if ks else 1
    thr_floors = np.asarray([thr_floor[u] for u in thr_rows], dtype=np.float32)

    if scan is None:
        def scan(q, topk_rows, kpad, thr_rows, thr_floors):
            return reduce_candidates(
                lambda s, e: q @ normalized[s:e].T, 0, n, max(n, 1),
                topk_rows, kpad, thr_rows, thr_floors, None,
            )

    heap_ids, heap_scores, thr_hits = scan(
        unique, topk_rows, kpad, thr_rows, thr_floors
    )
    heap_min = (
        heap_scores.min(axis=1)
        if heap_scores.shape[1]
        else np.full(len(topk_rows), -np.inf, dtype=np.float32)
    )
    heap_pos = {u: j for j, u in enumerate(topk_rows)}
    pool_pos = {u: j for j, u in enumerate(thr_rows)}
    is_thr = [isinstance(c, ThresholdCondition) for c in conditions]
    candidates = [
        thr_hits[pool_pos[u]] if thr else heap_ids[heap_pos[u]]
        for u, thr in zip(urow_of, is_thr)
    ]
    floors = np.asarray(
        [-np.inf if thr else heap_min[heap_pos[u]] for u, thr in zip(urow_of, is_thr)],
        dtype=np.float32,
    )
    return candidates, floors


def rescore(
    normalized: np.ndarray,
    qvec: np.ndarray,
    condition: JoinCondition,
    candidates: np.ndarray,
    heap_floor: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Exact selection over one query's :func:`prescreen` candidates.

    Threshold candidates are complete by the prescreen margin.  Top-k
    candidates pass a completeness guard: every row the heap dropped
    scored at most ``heap_floor``, so when that is no higher than
    :func:`topk_completeness_floor` none of them can reach the top-k.
    Otherwise the candidates widen to a one-query threshold rescan at
    that floor.  Returns ``(ids, scores, widened)``.
    """
    if isinstance(condition, ThresholdCondition):
        ids, scores = exact_threshold_select(
            normalized, candidates, qvec, condition.threshold
        )
        return ids, scores, False
    assert isinstance(condition, TopKCondition)
    widened = False
    if 0 < len(candidates) < len(normalized):
        floor = topk_completeness_floor(
            normalized, candidates, qvec, condition.k
        )
        if heap_floor > floor:
            candidates = np.nonzero(normalized @ qvec >= floor)[0]
            widened = True
    ids, scores = exact_topk_select(
        normalized,
        candidates,
        qvec,
        condition.k,
        min_similarity=condition.min_similarity,
    )
    return ids, scores, widened


def eselect(
    relation,
    query,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    assume_normalized: bool = False,
) -> SelectionResult:
    """Scan-based E-selection: exact, expression-flexible.

    The one-query case of :func:`prescreen` + :func:`rescore`.

    Args:
        relation: ``(n, d)`` embeddings or raw items (prefetch-embedded).
        query: a query vector or raw item.
        condition: threshold (``cos >= t``) or top-k condition.
        assume_normalized: skip row normalization when the relation is
            already unit-normalized (e.g. a context-cached normalized
            matrix shared across queries).
    """
    validate_condition(condition)
    stats = JoinStats(strategy="eselect/scan")
    start = time.perf_counter()
    matrix = _as_matrix(relation, model, stats)
    stats.n_left = len(matrix)
    qvec = _query_vector(query, model, stats)
    if matrix.shape[1] != qvec.shape[0]:
        raise DimensionalityError(
            f"relation dim {matrix.shape[1]} != query dim {qvec.shape[0]}"
        )
    normalized = matrix if assume_normalized else normalize_rows(matrix)
    (candidates,), (heap_floor,) = prescreen(normalized, qvec[None], [condition])
    ids, scores, _ = rescore(normalized, qvec, condition, candidates, heap_floor)
    stats.similarity_evaluations = len(normalized)
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(ids)
    return SelectionResult(ids, scores, stats)


def eselect_index(
    index: VectorIndex,
    query,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None = None,
    allowed: np.ndarray | None = None,
    probe_k: int = 32,
) -> SelectionResult:
    """Probe-based E-selection against a built vector index.

    Threshold conditions are emulated via top-``probe_k`` retrieval plus a
    post-filter — the same build-time-distance limitation as the index join.
    """
    validate_condition(condition)
    if probe_k < 1:
        raise JoinError(f"probe_k must be >= 1, got {probe_k}")
    stats = JoinStats(strategy=f"eselect/{type(index).__name__.lower()}")
    start = time.perf_counter()
    stats.n_left = len(index)
    qvec = _query_vector(query, model, stats)
    if qvec.shape[0] != index.dim:
        raise DimensionalityError(
            f"query dim {qvec.shape[0]} != index dim {index.dim}"
        )
    if isinstance(condition, TopKCondition):
        k, post = condition.k, condition.min_similarity
    else:
        assert isinstance(condition, ThresholdCondition)
        k, post = probe_k, condition.threshold
    found = index.search(qvec, k, allowed=allowed, assume_normalized=True)
    ids, scores = found.ids, found.scores
    if post is not None:
        keep = scores >= post
        ids, scores = ids[keep], scores[keep]
    stats.seconds = time.perf_counter() - start
    stats.pairs_emitted = len(ids)
    return SelectionResult(ids, scores, stats)
