"""Blocked-scan drivers: reducer fold equivalence and the budget split."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import JoinStats
from repro.engine import BatchPolicy, ExecutionEngine
from repro.engine.adaptive import CELL_BYTES
from repro.vector.scan import BlockPart, reduce_candidates, run_left_blocks
from repro.vector.topk import StreamingTopK, top_k_per_row

N_ROWS = 61
N_QUERIES = 5


@pytest.fixture(scope="module")
def operands():
    """Small-integer vectors: every score is exact, so ties are real.

    The relation repeats a handful of distinct rows (duplicate rows tie
    exactly), and two queries are identical.
    """
    rng = np.random.default_rng(7)
    distinct = rng.integers(-2, 3, size=(9, 6)).astype(np.float32)
    rows = distinct[rng.integers(0, len(distinct), size=N_ROWS)]
    queries = rng.integers(-2, 3, size=(N_QUERIES, 6)).astype(np.float32)
    queries[3] = queries[1]
    return queries, rows


def _reduce(operands, engine, block_rows, topk_rows, kpad, thr_rows):
    queries, rows = operands
    floors = np.full(len(thr_rows), 1.0, dtype=np.float32)
    return reduce_candidates(
        lambda start, stop: queries @ rows[start:stop].T,
        0,
        N_ROWS,
        block_rows,
        topk_rows,
        kpad,
        thr_rows,
        floors,
        engine,
    )


@pytest.mark.parametrize("block_rows", [4, 9, N_ROWS + 3])
@pytest.mark.parametrize("kpad", [1, 6, 12])
@pytest.mark.parametrize(
    "topk_rows, thr_rows",
    [
        ([0, 1, 2, 3, 4], [1, 3]),
        ([1, 3], []),
        ([], [0, 2, 4]),
    ],
    ids=["all-topk", "no-threshold", "no-topk"],
)
def test_inline_and_engine_folds_agree(operands, block_rows, kpad, topk_rows, thr_rows):
    inline = _reduce(operands, None, block_rows, topk_rows, kpad, thr_rows)
    single = _reduce(
        operands, ExecutionEngine(n_threads=1), block_rows, topk_rows, kpad, thr_rows
    )
    parallel = _reduce(
        operands, ExecutionEngine(n_threads=2), block_rows, topk_rows, kpad, thr_rows
    )
    for got in (single, parallel):
        assert np.array_equal(got[0], inline[0])
        assert np.array_equal(got[1], inline[1])
        assert len(got[2]) == len(inline[2]) == len(thr_rows)
        for a, b in zip(got[2], inline[2]):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)

    # Both equal one full-matrix selection (ties to the smallest id) and
    # a brute-force threshold scan.
    queries, rows = operands
    full = queries @ rows.T
    heap_ids, heap_scores, hits = inline
    if topk_rows:
        expect = top_k_per_row(full[topk_rows], kpad)
        assert np.array_equal(heap_ids, expect)
        assert np.array_equal(
            heap_scores, np.take_along_axis(full[topk_rows], expect, axis=1)
        )
    else:
        assert heap_ids.shape == heap_scores.shape == (0, 0)
    for row, got in zip(thr_rows, hits):
        assert np.array_equal(got, np.nonzero(full[row] >= 1.0)[0])


def test_on_block_runs_once_per_block(operands):
    ticks = []
    queries, rows = operands
    reduce_candidates(
        lambda start, stop: queries @ rows[start:stop].T,
        10,
        N_ROWS,
        8,
        [0],
        3,
        [],
        np.empty(0, dtype=np.float32),
        None,
        on_block=lambda: ticks.append(1),
    )
    assert len(ticks) == len(range(10, N_ROWS, 8))


def _split(n_left, n_right, budget, reserve, engine, **kwargs):
    """Run the driver with a recording block; return (stats, spans)."""
    spans = []

    def block(l0, l1, br):
        spans.append((l0, l1, br))
        return BlockPart()

    stats = JoinStats()
    run_left_blocks(
        np.zeros((n_left, 8), dtype=np.float32),
        n_right,
        block,
        stats,
        reserve=reserve,
        batch_left=kwargs.pop("batch_left", None),
        batch_right=None,
        buffer_budget_bytes=budget,
        engine=engine,
        policy=None if engine is not None else BatchPolicy(buffer_budget_bytes=budget),
        **kwargs,
    )
    return stats, spans


@pytest.mark.parametrize("n_threads", [2, 4])
@pytest.mark.parametrize("budget", [64 << 10, 256 << 10, 4 << 20])
@pytest.mark.parametrize("reserve", [0, StreamingTopK.state_bytes_per_row(10)])
def test_concurrent_blocks_fit_the_budget(n_threads, budget, reserve):
    n_left, n_right = 1000, 5000
    engine = ExecutionEngine(
        n_threads=n_threads, policy=BatchPolicy(buffer_budget_bytes=budget)
    )
    stats, spans = _split(n_left, n_right, None, reserve, engine)
    bl, br = stats.extra["batch_shape"]
    blocks = -(-n_left // bl)
    per_block = bl * br * CELL_BYTES + bl * reserve
    assert min(n_threads, blocks) * per_block <= budget
    # Every left row is covered once with the resolved edge (tasks may
    # run out of order on the engine's workers).
    assert sorted(s[:2] for s in spans) == [
        (l0, min(l0 + bl, n_left)) for l0 in range(0, n_left, bl)
    ]
    assert {s[2] for s in spans} == {br}


@pytest.mark.parametrize("n_left, batch_left", [(1, None), (300, 300)])
def test_single_block_join_keeps_whole_budget(n_left, batch_left):
    budget = 256 << 10
    reserve = StreamingTopK.state_bytes_per_row(10)
    engine = ExecutionEngine(
        n_threads=4, policy=BatchPolicy(buffer_budget_bytes=budget)
    )
    parallel, spans = _split(
        n_left, 5000, budget, reserve, engine, batch_left=batch_left
    )
    serial, _ = _split(n_left, 5000, budget, reserve, None, batch_left=batch_left)
    assert len(spans) == 1
    assert parallel.extra["batch_shape"] == serial.extra["batch_shape"]


def test_left_edge_caps_budget_derived_edge_only():
    budget = 4 << 20
    seen = []

    def left_edge(eff):
        seen.append(eff)
        return 16

    stats, _ = _split(200, 5000, budget, 0, None, left_edge=left_edge)
    assert seen == [budget] and stats.extra["batch_shape"][0] == 16
    stats, _ = _split(
        200, 5000, budget, 0, None, left_edge=left_edge, batch_left=50
    )
    assert len(seen) == 1 and stats.extra["batch_shape"][0] == 50
