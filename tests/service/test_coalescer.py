"""Coalescing scheduler: shared scans are bit-identical to serial runs."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.embedding import HashingEmbedder
from repro.engine import ExecutionEngine
from repro.query import Engine
from repro.relational import Catalog, DataType, Field, Table
from repro.relational.column import Column
from repro.service import QueryService, unwrap_shared_scan
from repro.workloads import unit_vectors

from _service_utils import DIM, MODEL, assert_tables_equal

pytestmark = pytest.mark.service


def _serial(engine, qvec, **cond):
    return (
        engine.query("corpus").esimilar("emb", qvec, model=MODEL, **cond).execute()
    )


def _concurrent(service, specs):
    """Run (qvec, cond) specs on one thread each; returns results in order."""
    results = [None] * len(specs)
    errors = []
    barrier = threading.Barrier(len(specs))

    def client(i, qvec, cond):
        try:
            with service.session() as session:
                barrier.wait()
                results[i] = session.execute(
                    session.query("corpus").esimilar(
                        "emb", qvec, model=MODEL, **cond
                    )
                )
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i, q, c), daemon=True)
        for i, (q, c) in enumerate(specs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


@pytest.fixture(params=[1, 2], ids=["inline-fold", "engine-fold"])
def pinned_engine(request, service_engine, monkeypatch):
    """The service engine with a pinned executor and multi-block scans.

    One worker thread takes the reducer's inline floor-pruned fold, two
    take the engine-task fold; 64-row blocks give every shared scan
    several blocks, so later blocks actually prune against the floor.
    """
    import repro.service.coalescer as mod

    service_engine.executor = ExecutionEngine(n_threads=request.param)
    monkeypatch.setattr(
        mod.CoalescingScheduler, "_block_rows", lambda self, ctx, batch: 64
    )
    return service_engine


def test_unwrap_shared_scan_shapes(service_engine, query_vectors):
    q = query_vectors[0]
    plain = service_engine.query("corpus").esimilar(
        "emb", q, model=MODEL, top_k=3
    )
    match = unwrap_shared_scan(plain.optimized_plan())
    assert match is not None and match[1].column == "emb"

    wrapped = plain.select(["id", "similarity"]).limit(2)
    match = unwrap_shared_scan(wrapped.optimized_plan())
    assert match is not None and len(match[0]) == 2

    joined = service_engine.query("corpus").ejoin(
        "other", left_on="emb", right_on="emb", model=MODEL, top_k=2
    )
    assert unwrap_shared_scan(joined.optimized_plan()) is None


def test_coalesced_topk_bit_identical(pinned_engine, query_vectors):
    service_engine = pinned_engine
    serial = [
        _serial(service_engine, q, top_k=5) for q in query_vectors[:12]
    ]
    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.2,
        result_cache_size=0,
    )
    # Deterministic batching for the assertion below: the adaptive
    # gather window otherwise races client-thread ramp-up.
    service.coalescer._inflight_probe = lambda: 12
    got = _concurrent(
        service, [(q, {"top_k": 5}) for q in query_vectors[:12]]
    )
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    snapshot = service.stats_snapshot()
    assert snapshot["coalescer"]["coalesced_queries"] == 12
    assert snapshot["coalescer"]["groups"] < 12  # real batching happened
    assert snapshot["coalescer"]["shared_scan_blocks"] > snapshot["coalescer"]["groups"]


def test_coalesced_threshold_bit_identical(service_engine, query_vectors):
    specs = [(q, {"threshold": 0.2}) for q in query_vectors[:8]]
    serial = [_serial(service_engine, q, threshold=0.2) for q, _ in specs]
    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.05,
        result_cache_size=0,
    )
    got = _concurrent(service, specs)
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")


def test_mixed_conditions_and_duplicates(pinned_engine, query_vectors):
    service_engine = pinned_engine
    q0, q1 = query_vectors[0], query_vectors[1]
    specs = [
        (q0, {"top_k": 4}),
        (q0, {"top_k": 4}),  # duplicate vector, duplicate condition
        (q0, {"threshold": 0.1}),  # duplicate vector, other condition
        (q1, {"top_k": 2, "min_similarity": 0.0}),
        (q1, {"threshold": 0.5}),
        (q0, {"top_k": 7}),  # duplicate vector, different k
    ]
    serial = [_serial(service_engine, q, **c) for q, c in specs]
    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.2,
        result_cache_size=0,
    )
    service.coalescer._inflight_probe = lambda: len(specs)
    got = _concurrent(service, specs)
    for i, (a, b) in enumerate(zip(serial, got)):
        assert_tables_equal(a, b, context=f"query {i}")
    assert service.coalescer.stats.deduped_queries >= 1


def test_wrapped_plans_coalesce_and_match_serial(service_engine, query_vectors):
    def build(engine_or_session, q):
        return (
            engine_or_session.query("corpus")
            .esimilar("emb", q, model=MODEL, top_k=6)
            .select(["id", "similarity"])
            .limit(3)
        )

    serial = [build(service_engine, q).execute() for q in query_vectors[:6]]
    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.2,
        result_cache_size=0,
    )
    service.coalescer._inflight_probe = lambda: 6
    results = [None] * 6
    barrier = threading.Barrier(6)

    def client(i):
        with service.session() as session:
            barrier.wait()
            results[i] = session.execute(build(session, query_vectors[i]))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (a, b) in enumerate(zip(serial, results)):
        assert_tables_equal(a, b, context=f"query {i}")
    assert service.coalescer.stats.coalesced_queries == 6


def test_bad_request_does_not_poison_groupmates(service_engine, query_vectors):
    """A request failing in demux/materialize fails alone; queries that
    shared its scan still succeed with correct results."""
    good_builder = service_engine.query("corpus").esimilar(
        "emb", query_vectors[0], model=MODEL, top_k=3
    )
    serial = good_builder.execute()
    bad_builder = (
        service_engine.query("corpus")
        .esimilar("emb", query_vectors[1], model=MODEL, top_k=3)
        .select(["no_such_column"])
    )
    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.2,
        result_cache_size=0,
    )
    service.coalescer._inflight_probe = lambda: 2
    outcome: dict = {}
    barrier = threading.Barrier(2)

    def run(name, builder):
        try:
            barrier.wait()
            outcome[name] = service.submit(builder)
        except Exception as exc:
            outcome[name] = exc

    threads = [
        threading.Thread(target=run, args=("good", good_builder), daemon=True),
        threading.Thread(target=run, args=("bad", bad_builder), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert isinstance(outcome["bad"], Exception)
    assert not isinstance(outcome["good"], Exception), outcome["good"]
    assert_tables_equal(serial, outcome["good"], context="groupmate")


def test_register_index_invalidates_result_cache(service_engine, query_vectors):
    """A new index can change the physical access path, so cached
    results from before the registration must not be served."""
    from repro.index import FlatIndex

    service = QueryService(service_engine, coalesce=False)
    builder = lambda: service_engine.query("corpus").esimilar(
        "emb", query_vectors[0], model=MODEL, top_k=3
    )
    service.submit(builder())
    service.submit(builder())
    assert service.stats.result_cache_hits == 1

    index = FlatIndex(query_vectors.shape[1])
    index.add(service_engine.catalog.get("corpus").array("emb"))
    service_engine.register_index("corpus", "emb", index)
    service.submit(builder())  # key changed: miss, re-executes
    assert service.stats.result_cache_hits == 1


def test_group_error_propagates_to_all_members(
    service_engine, query_vectors, monkeypatch
):
    import repro.service.coalescer as mod

    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.05,
        result_cache_size=0,
    )

    def boom(self, key, requests):
        raise RuntimeError("shared scan exploded")

    monkeypatch.setattr(mod.CoalescingScheduler, "_execute_group", boom)
    errors = []
    barrier = threading.Barrier(4)

    def client(q):
        builder = service_engine.query("corpus").esimilar(
            "emb", q, model=MODEL, top_k=2
        )
        try:
            barrier.wait()
            service.submit(builder)
        except RuntimeError as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(q,), daemon=True)
        for q in query_vectors[:4]
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(errors) == 4
    assert service.stats.failed == 4


def test_fallback_path_still_exact():
    """A heap of exact ties defeats the completeness guard; the widen is exact."""
    # 8 unit vectors x 50 exact copies: the 37-row top-k heap (k + pad)
    # holds only ties, so its floor equals the k-th exact score and cannot
    # prove that none of the dropped copies belongs in the top-k.
    base = unit_vectors(8, DIM, stream="svc-tests/dupes")
    vectors = np.repeat(base, 50, axis=0)
    catalog = Catalog()
    catalog.register(
        "corpus",
        Table.from_columns(
            [
                Column(Field("id", DataType.INT64), np.arange(len(vectors))),
                Column(Field("emb", DataType.TENSOR, dim=DIM), vectors),
            ]
        ),
    )
    engine = Engine(catalog)
    engine.models.register(MODEL, HashingEmbedder(dim=DIM))
    noise = unit_vectors(1, DIM, stream="svc-tests/dupes-noise")[0]
    query = base[3] + np.float32(0.05) * noise
    query /= np.linalg.norm(query)

    service = QueryService(engine, coalesce=True, result_cache_size=0)
    serial = _serial(engine, query, top_k=5)
    (got,) = _concurrent(service, [(query, {"top_k": 5})])
    assert_tables_equal(serial, got, context="tied copies")
    assert got.array("id").tolist() == list(range(150, 155))
    assert service.coalescer.stats.fallbacks >= 1


def test_interrupt_in_demux_propagates_from_leader(
    service_engine, query_vectors, monkeypatch
):
    """A KeyboardInterrupt stops the demux and reaches every submitter."""
    import repro.service.coalescer as mod

    service = QueryService(
        service_engine, coalesce=True, coalesce_window_s=0.5,
        result_cache_size=0,
    )
    service.coalescer._inflight_probe = lambda: 2
    groups = []
    lead = mod.CoalescingScheduler._lead

    def recording_lead(self, group):
        groups.append(group)
        lead(self, group)

    calls = []

    def interrupt(table, ids, scores, req):
        calls.append(req)
        raise KeyboardInterrupt

    monkeypatch.setattr(mod.CoalescingScheduler, "_lead", recording_lead)
    monkeypatch.setattr(
        mod.CoalescingScheduler, "_materialize", staticmethod(interrupt)
    )
    requests = [
        service._shared_scan_request(
            service_engine.query("corpus")
            .esimilar("emb", q, model=MODEL, top_k=3)
            .optimized_plan(),
            "t",
        )
        for q in query_vectors[:2]
    ]
    raised = []

    def client(req):
        try:
            service.coalescer.submit(req)
        except KeyboardInterrupt as exc:
            raised.append(exc)

    threads = [
        threading.Thread(target=client, args=(r,), daemon=True)
        for r in requests
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(groups) == 1 and groups[0].done.is_set()
    assert len(groups[0].requests) == 2
    assert len(calls) == 1  # demux stopped at the interrupt
    assert len(raised) == 2  # leader's submit re-raised, follower released
