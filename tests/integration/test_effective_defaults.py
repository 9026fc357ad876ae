"""Pin the effective defaults of the service, QoS, reliability,
observability and shard layers.

Each of these settings has exactly one home (a constructor default or a
module constant).  This test records the values a caller gets when it
sets nothing, so moving a default between homes cannot change behaviour.
"""

from __future__ import annotations

import pytest

from repro.query import Engine
from repro.relational import Catalog
from repro.reliability import BreakerRegistry, RetryPolicy
from repro.service import AsyncQueryService
from repro.shard import ShardPool


def test_engine_serve_defaults():
    service = Engine(Catalog()).serve()
    try:
        assert service.admission.max_inflight == 64
        assert service.admission.timeout_s == 30.0
        assert service.plans.capacity == 256

        results = service.results
        assert results.capacity == 512
        assert results.ttl_s == 300.0
        assert results.near_dup_threshold is None
        assert results.tinylfu is False

        coalescer = service.coalescer
        assert coalescer is not None
        assert coalescer.window_s == 0.002
        assert coalescer.max_batch == 64
        assert coalescer.adaptive is True
        assert coalescer.target_batch == 8

        tracker = service.qos_tracker
        assert tracker._alpha == 0.2
        assert tracker.safety == 1.5
        assert tracker.min_samples == 5

        tracer = service.tracer
        assert tracer.enabled is True
        assert tracer.sample_rate == 0.01
        assert tracer.ring.maxlen == 256
        assert tracer.sites is None

        assert service.slow_log.k == 32
        assert service.recorder is None
        assert service._http_server is None
        assert service.shard_pool is None

        assert AsyncQueryService(service).workers == 64
    finally:
        service.shutdown()


def test_reliability_defaults():
    breakers = BreakerRegistry()
    assert breakers.threshold == 3
    assert breakers.cooldown_s == 30.0

    policy = RetryPolicy.from_config()
    assert policy.max_attempts == 3
    assert policy.base_s == pytest.approx(0.001)
    assert policy.cap_s == pytest.approx(0.05)


def test_shard_pool_defaults(monkeypatch):
    # No worker processes: only the pool's settings are under test.
    monkeypatch.setattr(ShardPool, "_spawn", lambda self, sid: None)
    pool = ShardPool(Engine(Catalog()), 1)
    pool._workers = []
    try:
        assert pool.min_rows == 16384
        assert pool.policy.stall_s == 10.0
        assert pool.policy.max_respawns == 2
        assert pool._mp.get_start_method() == "spawn"
    finally:
        pool.close()
