"""Shard worker process: scans its row range, streams bounded heaps back.

``worker_main`` is the spawn entry point — a top-level function with
picklable arguments only, so it works under every start method.  The
worker is deliberately dumb: it holds zero-copy views over published
fp32 segments, and for each scan task it runs the same blocked reducer
over the same ``queries @ rows.T`` product as the in-process coalesced
scan (:func:`~repro.vector.scan.reduce_candidates`) over its shard's row
range, folding candidates into a bounded per-query
:class:`~repro.vector.topk.StreamingTopK`.  All exactness decisions
(margins, the completeness guard, exact rescoring) stay at the front
door; the worker only ever produces candidate supersets.

Liveness: during a scan the worker emits heartbeat envelopes between
blocks, so the pool's watchdog can tell "slow but alive" from "stuck"
without guessing from wall-clock alone.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ShardError
from ..vector.scan import reduce_candidates
from .envelope import make_task, open_task
from .store import AttachedSegment


def _run_scan(conn, shard_id: int, tables: dict, payload: dict) -> dict:
    key = tuple(payload["key"])
    entry = tables.get(key)
    if entry is None:
        raise ShardError(f"shard {shard_id} has no published store for {key}")
    if entry["version"] != payload["version"]:
        raise ShardError(
            f"shard {shard_id} store for {key} is at version "
            f"{entry['version']}, task wants {payload['version']}"
        )
    rows = entry["segment"].array
    lo, hi = entry["ranges"][shard_id]
    queries = np.ascontiguousarray(payload["queries"], dtype=np.float32)
    block_rows = max(1, int(payload["block_rows"]))
    hb_every_s = max(0.05, float(payload.get("heartbeat_s", 1.0)))
    started = time.perf_counter()
    last_beat = [started]

    def heartbeat() -> None:
        now = time.perf_counter()
        if now - last_beat[0] >= hb_every_s:
            last_beat[0] = now
            conn.send(make_task("heartbeat", shard=shard_id,
                                task_id=payload["task_id"]))

    # No engine: blocks run inline (processes replace threads here).
    heap_ids, heap_scores, thr_hits = reduce_candidates(
        lambda s, e: queries @ rows[s:e].T, lo, hi, block_rows,
        np.asarray(payload["topk_rows"], dtype=np.intp), int(payload["kpad"]),
        np.asarray(payload["thr_rows"], dtype=np.intp),
        np.asarray(payload["thr_floors"], dtype=np.float32),
        None, on_block=heartbeat,
    )
    return make_task(
        "result",
        task_id=payload["task_id"],
        shard=shard_id,
        heap_ids=heap_ids,
        heap_scores=heap_scores,
        thr_hits=thr_hits,
        rows=int(hi - lo),
        blocks=len(range(lo, hi, block_rows)),
        wall_s=time.perf_counter() - started,
    )


def _attach_store(tables: dict, payload: dict) -> None:
    key = tuple(payload["key"])
    old = tables.pop(key, None)
    if old is not None:
        old["segment"].close()
    tables[key] = {
        "version": payload["version"],
        "ranges": [tuple(r) for r in payload["ranges"]],
        "segment": AttachedSegment(payload["spec"]),
    }


def worker_main(conn, shard_id: int) -> None:
    """Entry point of one shard worker process (runs until shutdown)."""
    tables: dict = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # pool side went away; exit quietly
            try:
                kind, payload = open_task(message)
                if kind == "shutdown":
                    conn.send(make_task("bye", shard=shard_id))
                    break
                if kind == "publish":
                    _attach_store(tables, payload)
                    conn.send(make_task(
                        "published",
                        shard=shard_id,
                        key=list(payload["key"]),
                        version=payload["version"],
                    ))
                elif kind == "scan":
                    conn.send(_run_scan(conn, shard_id, tables, payload))
                else:
                    raise ShardError(f"unknown shard task kind {kind!r}")
            except Exception as exc:  # report, keep serving
                try:
                    conn.send(make_task(
                        "error",
                        shard=shard_id,
                        task_id=(message or {}).get("payload", {})
                        .get("task_id"),
                        error=f"{type(exc).__name__}: {exc}",
                    ))
                except (BrokenPipeError, OSError):
                    break
    finally:
        for entry in tables.values():
            entry["segment"].close()
        try:
            conn.close()
        except OSError:
            pass
