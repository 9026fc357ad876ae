"""Cross-query shared-scan batching: the service-level tensor formulation.

The paper's economics argument is that embedding operators pay off when
model invocations and scans are *batched*; within a query the tensor join
does this with GEMM blocks.  The coalescing scheduler applies the same
amortization **across queries**: concurrently-submitted E-selections that
hit the same ``(table, column, model)`` scan source are fused into one
blocked scan whose right-hand operand stacks every query vector — one
GEMM streams the relation once for the whole group instead of once per
query — and per-query results are demuxed from the shared score blocks
through a :class:`~repro.vector.topk.StreamingTopK` heap (one row per
session's query).

Exactness: the shared scan is :func:`~repro.core.eselect.prescreen`
with a group-wide ``scan`` callback (engine blocks or the shard pool),
and each query's rows come from :func:`~repro.core.eselect.rescore` —
the same two steps serial :func:`~repro.core.eselect.eselect` runs — so
coalesced results are bit-identical to serial execution.  A top-k query
whose heap cannot prove completeness widens by a one-query rescan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..algebra.logical import (
    ESelectNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
)
from ..core.conditions import ThresholdCondition, TopKCondition
from ..core.eselect import prescreen, rescore
from ..errors import ServiceError, ShardError
from ..obs.trace import span
from ..relational.column import Column
from ..relational.schema import DataType, Field as SchemaField
from ..relational.table import Table
from ..vector.scan import reduce_candidates
from .qos import ArrivalRateEstimator

#: Fallback shared-scan block budget when no buffer budget is configured.
DEFAULT_SCAN_BLOCK_BYTES = 8 << 20


def unwrap_shared_scan(
    plan: LogicalNode,
) -> tuple[list[LogicalNode], ESelectNode] | None:
    """Match ``Project*/Limit*( ESelect( Scan(t) ) )`` plan shapes.

    Returns ``(wrappers outermost-first, eselect node)`` when the plan is
    a coalesceable E-selection over a base table scan, else ``None``.
    """
    wrappers: list[LogicalNode] = []
    node = plan
    while isinstance(node, (ProjectNode, LimitNode)):
        wrappers.append(node)
        node = node.child
    if not isinstance(node, ESelectNode):
        return None
    if not isinstance(node.child, ScanNode):
        return None
    if not isinstance(node.condition, (ThresholdCondition, TopKCondition)):
        return None
    return wrappers, node


@dataclass
class SharedScanRequest:
    """One query's slice of a shared scan group."""

    node: ESelectNode
    wrappers: list[LogicalNode]
    #: Unit-normalized query vector (the eselect query contract).
    qvec: np.ndarray
    tag: str
    result: Table | None = None
    error: BaseException | None = None
    #: The submitting query's :class:`~repro.obs.trace.Trace` (or ``None``
    #: when unsampled).  The group *leader* runs the shared scan on its own
    #: thread, so follower traces cannot see it ambiently; the leader
    #: attributes the work back by appending completed *foreign* spans
    #: (``coalesce.scan``, ``rescore``) to every member's trace.
    trace: object | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        child = self.node.child
        assert isinstance(child, ScanNode)
        return (child.table_name, self.node.column, self.node.model_name)


class _Group:
    """Requests gathered within one coalescing window."""

    __slots__ = ("key", "requests", "closed", "done")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.requests: list[SharedScanRequest] = []
        self.closed = False
        self.done = threading.Event()


@dataclass
class CoalescerStats:
    groups: int = 0
    coalesced_queries: int = 0
    #: Requests that shared a scan row with an identical concurrent query
    #: vector (the service-level embed-once win on hot traffic).
    deduped_queries: int = 0
    max_batch: int = 0
    shared_scan_blocks: int = 0
    #: Top-k queries whose shared-scan heap failed the completeness guard
    #: and were widened by a one-query rescan.
    fallbacks: int = 0
    #: Groups whose shared scan ran fanned out on the shard-process pool.
    sharded_groups: int = 0
    #: Groups that meant to shard but fell back in-process (pool error).
    shard_fallbacks: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


class CoalescingScheduler:
    """Groups concurrent same-source E-selections into shared scans.

    The first submission for a source becomes the group *leader*: it waits
    up to a gather window for concurrently-arriving queries on the same
    key (skipping the wait when the in-flight probe says nobody else is
    in flight), snapshots the group, and executes one shared blocked scan
    for all of them on the engine's morsel scheduler.  Followers block on
    the group's event and pick up their demuxed result.

    With ``adaptive=True`` the gather window is sized per group from an
    EWMA of observed arrival gaps — roughly the time needed for
    ``target_batch`` more queries to arrive — instead of the fixed
    ``window_s``.  ``window_s`` then acts as the upper bound, so the
    adaptive window never waits *longer* than the fixed one: heavy
    traffic batches in a fraction of the fixed window, light traffic
    pays (almost) nothing.
    """

    def __init__(
        self,
        engine,
        *,
        window_s: float = 0.002,
        max_batch: int = 64,
        inflight_probe=None,
        adaptive: bool = False,
        window_min_s: float = 0.0,
        target_batch: int = 8,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine  # repro.query.Engine
        self.window_s = max(0.0, window_s)
        self.max_batch = max_batch
        self.adaptive = adaptive
        self.window_min_s = max(0.0, window_min_s)
        self.target_batch = max(1, min(target_batch, max_batch))
        self._arrivals = ArrivalRateEstimator()
        #: Optional callable reporting how many queries are currently in
        #: flight service-wide; lets the leader stop waiting as soon as
        #: every in-flight query has had the chance to join the group.
        self._inflight_probe = inflight_probe
        self._groups: dict[tuple, _Group] = {}
        self._lock = threading.Lock()
        self.stats = CoalescerStats()
        #: Optional :class:`~repro.shard.ShardPool`; when set, group scans
        #: big enough to clear the fan-out cost model run on worker
        #: processes instead of this thread (service-attached).
        self.shard_pool = None

    def stats_snapshot(self) -> dict:
        """Consistent counter copy taken under the coalescer lock."""
        with self._lock:
            return self.stats.snapshot()

    def current_window_s(self) -> float:
        """The gather window a group leader would use right now."""
        if not self.adaptive:
            return self.window_s
        return self._arrivals.window(
            self.target_batch - 1, self.window_s, self.window_min_s
        )

    # ------------------------------------------------------------------
    # Submission path (runs on client threads)
    # ------------------------------------------------------------------
    def submit(self, request: SharedScanRequest) -> Table:
        """Join (or lead) the shared-scan group for this request's source.

        Blocks until the group executed; returns this request's demuxed,
        exact-rescored result (or re-raises its per-request error).
        """
        key = request.key
        self._arrivals.observe()
        with self._lock:
            group = self._groups.get(key)
            if (
                group is None
                or group.closed
                or len(group.requests) >= self.max_batch
            ):
                group = _Group(key)
                self._groups[key] = group
                is_leader = True
            else:
                is_leader = False
            group.requests.append(request)
        with span("coalesce.wait") as sp:
            if is_leader:
                self._lead(group)
            else:
                group.done.wait()
            sp.set(leader=is_leader, batch=len(group.requests))
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _lead(self, group: _Group) -> None:
        self._gather(group)
        with self._lock:
            group.closed = True
            if self._groups.get(group.key) is group:
                del self._groups[group.key]
            requests = list(group.requests)
        try:
            self._execute_group(group.key, requests)
        except BaseException as exc:
            # Deliberately broad: followers block on ``group.done`` and
            # must be released with an error even on KeyboardInterrupt or
            # SystemExit.  Nothing is swallowed — the leader's own request
            # carries ``exc`` too, so its ``submit`` re-raises it.
            for req in requests:
                if req.error is None and req.result is None:
                    req.error = exc
        finally:
            group.done.set()

    def _gather(self, group: _Group) -> None:
        """Hold the group open up to the coalescing window.

        The wait ends early once the group has absorbed every query the
        service currently has in flight (nobody else could join), so an
        uncontended service pays (almost) no coalescing latency while a
        loaded one batches aggressively.  Under ``adaptive`` sizing the
        window itself shrinks with the observed arrival rate.
        """
        window_s = self.current_window_s()
        if window_s <= 0:
            return
        deadline = time.perf_counter() + window_s
        poll = min(window_s / 8, 0.0002)
        while True:
            with self._lock:
                size = len(group.requests)
            if size >= self.max_batch:
                return
            if self._inflight_probe is not None and size >= min(
                self._inflight_probe(), self.max_batch
            ):
                return
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            time.sleep(min(remaining, poll))

    # ------------------------------------------------------------------
    # Shared scan execution (runs on the leader's thread)
    # ------------------------------------------------------------------
    def _execute_group(
        self, key: tuple, requests: list[SharedScanRequest]
    ) -> None:
        from ..algebra.physical_planner import _embed_column

        with self._lock:
            self.stats.groups += 1
            self.stats.coalesced_queries += len(requests)
            self.stats.max_batch = max(self.stats.max_batch, len(requests))

        scan_t0 = time.perf_counter()
        scan_c0 = time.thread_time()
        table_name, column, model_name = key
        ctx = self.engine.context(tag=f"svc/scan/{table_name}.{column}")
        table = ctx.catalog.get(table_name)
        vectors = _embed_column(table, column, model_name, ctx)
        normalized = ctx.normalized_matrix_for(key, vectors)
        n = len(normalized)
        shape: dict = {"shard": None}

        def scan(queries, topk_rows, kpad, thr_rows, thr_floors):
            # ``queries`` are the group's unique vectors: concurrent
            # clients asking the same (hot) question share one scan row.
            shape["unique"] = len(queries)
            block_rows = self._block_rows(ctx, len(queries))
            # Fan out to the shard-process pool when one is attached and
            # the cost model says the table is big enough to amortize
            # dispatch; a pool failure (ShardError) degrades to the
            # in-process scan rather than failing queries.
            if self.shard_pool is not None:
                try:
                    res = self.shard_pool.scan_candidates(
                        key, queries, n_rows=n, topk_rows=topk_rows,
                        kpad=kpad, thr_rows=thr_rows, thr_floors=thr_floors,
                        block_rows=block_rows,
                    )
                except ShardError:
                    with self._lock:
                        self.stats.shard_fallbacks += 1
                    res = None
                if res is not None:
                    shape.update(shard=res, blocks=res.blocks)
                    return res.heap_ids, res.heap_scores, res.thr_hits
            # One blocked pass over the relation.  Each block is one
            # stacked GEMM in (queries, rows) orientation — the relation
            # streams once for the whole group.
            shape["blocks"] = -(-n // block_rows)
            return reduce_candidates(
                lambda start, stop: queries @ normalized[start:stop].T,
                0, n, block_rows, topk_rows, kpad, thr_rows, thr_floors,
                ctx.engine,
            )

        candidates, heap_floors = prescreen(
            normalized,
            np.stack([req.qvec for req in requests]),
            [req.node.condition for req in requests],
            scan,
        )
        shard_res = shape["shard"]
        with self._lock:
            self.stats.deduped_queries += len(requests) - shape["unique"]
            self.stats.shared_scan_blocks += shape["blocks"]
            if shard_res is not None:
                self.stats.sharded_groups += 1

        # Attribute the shared scan to every member query: the scan ran
        # once on the leader's thread, but each sampled trace receives a
        # completed foreign span describing the batch it rode in.
        scan_wall = time.perf_counter() - scan_t0
        scan_cpu = time.thread_time() - scan_c0
        for req in requests:
            if req.trace is not None:
                req.trace.add_span(
                    "coalesce.scan",
                    wall_s=scan_wall,
                    cpu_s=scan_cpu,
                    batch=len(requests),
                    unique_vectors=shape["unique"],
                    blocks=shape["blocks"],
                    rows=n,
                    bytes_scanned=int(n) * int(normalized.shape[1]) * 4,
                    shards=0 if shard_res is None else shard_res.n_shards,
                )
                if shard_res is not None:
                    # One foreign span per shard worker: the member trace
                    # shows where the fanned-out scan actually spent its
                    # time, even though the work ran in other processes.
                    for sid, wall in enumerate(shard_res.shard_walls):
                        req.trace.add_span(
                            "shard.scan",
                            wall_s=wall,
                            cpu_s=wall,
                            shard=sid,
                        )

        # Per-request exact selection from the shared candidates.
        # Duplicate vectors share candidates but each request applies its
        # own condition, score column, and wrappers — and each fails
        # alone: a bad wrapper (e.g. projecting a missing column) must
        # not poison the other queries that happened to share its scan.
        for req, cand, heap_floor in zip(requests, candidates, heap_floors):
            rescore_t0 = time.perf_counter()
            rescore_c0 = time.thread_time()
            try:
                ids, scores, widened = rescore(
                    normalized, req.qvec, req.node.condition, cand, heap_floor
                )
                if widened:
                    with self._lock:
                        self.stats.fallbacks += 1
                req.result = self._materialize(table, ids, scores, req)
            except Exception as exc:
                req.error = exc
            if req.trace is not None:
                req.trace.add_span(
                    "rescore",
                    wall_s=time.perf_counter() - rescore_t0,
                    cpu_s=time.thread_time() - rescore_c0,
                    candidates=len(cand),
                    rows=0 if req.result is None else len(req.result),
                )

    def _block_rows(self, ctx, batch: int) -> int:
        """Rows per shared-scan block under the configured buffer budget."""
        from ..config import get_config

        budget = ctx.engine.policy.buffer_budget_bytes
        if budget is None:
            budget = get_config().default_buffer_budget_bytes
        if budget is None:
            budget = DEFAULT_SCAN_BLOCK_BYTES
        return max(1024, budget // max(1, 4 * batch))

    @staticmethod
    def _materialize(
        table: Table,
        ids: np.ndarray,
        scores: np.ndarray,
        req: SharedScanRequest,
    ) -> Table:
        return materialize_selection(
            table, ids, scores, req.node.score_column, req.wrappers
        )


def materialize_selection(
    table: Table,
    ids: np.ndarray,
    scores: np.ndarray,
    score_column: str,
    wrappers: list[LogicalNode],
) -> Table:
    """Mirror the planner's E-selection materialization + plan wrappers.

    Shared by the coalescer's per-request demux and the QoS layer's
    degraded (quantized prescreen-only) execution path, so both produce
    tables shaped exactly like the serial planner's output.
    """
    out = table.take(ids).with_column(
        Column(SchemaField(score_column, DataType.FLOAT32), scores)
    )
    for wrapper in reversed(wrappers):
        if isinstance(wrapper, ProjectNode):
            out = out.select(list(wrapper.names))
        else:
            assert isinstance(wrapper, LimitNode)
            out = out.slice(0, wrapper.n)
    return out
