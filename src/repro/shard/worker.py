"""Shard worker process: scans its row range, streams bounded heaps back.

``worker_main`` is the spawn entry point — a top-level function with
picklable arguments only, so it works under every start method.  The
worker is deliberately dumb: it holds zero-copy views over published
segments, and for each scan task it runs the same blocked reducer as the
in-process coalesced scan (:func:`~repro.vector.scan.reduce_candidates`)
over its shard's row range, folding candidates into a bounded per-query
:class:`~repro.vector.topk.StreamingTopK`.  All exactness decisions
(margins, error bounds, exact rescoring) stay at the front door; the
worker only ever produces candidate supersets.

Liveness: during a scan the worker emits heartbeat envelopes between
blocks, so the pool's watchdog can tell "slow but alive" from "stuck"
without guessing from wall-clock alone.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..errors import ShardError
from ..vector.scan import reduce_candidates
from .envelope import make_task, open_task
from .store import AttachedSegment


def _scorer(precision: str, views: dict, queries: np.ndarray):
    """``score(start, stop)`` over this shard's store for ``queries``.

    Per-query state (int8 query codes, PQ lookup tables) is built once.
    """
    if precision == "int8":
        quantizer, codes = views["int8_quantizer"], views["int8"].array
        prepared = quantizer.prepare_queries(queries)
        return lambda s, e: quantizer.scores_block(prepared, codes[s:e])
    if precision == "pq":
        quantizer, codes = views["pq_quantizer"], views["pq"].array
        luts_t = quantizer.lookup_tables(queries).T
        return lambda s, e: np.asarray((quantizer.onehot(codes[s:e]) @ luts_t).T)
    if precision in ("fp32", "fp16"):
        rows = views[precision].array
        return lambda s, e: queries @ rows[s:e].astype(np.float32, copy=False).T
    raise ShardError(f"unknown shard scan precision {precision!r}")


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
    precision = payload["precision"]
    views = entry["views"]
    if precision not in views:
        raise ShardError(
            f"shard {shard_id} store for {key} lacks precision {precision!r}"
        )
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
        _scorer(precision, views, queries), lo, hi, block_rows,
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
        for view in old["views"].values():
            if isinstance(view, AttachedSegment):
                view.close()
    views: dict = {}
    for precision, spec in payload["specs"].items():
        views[precision] = AttachedSegment(spec)
    for name, quantizer in (payload.get("quantizers") or {}).items():
        views[f"{name}_quantizer"] = quantizer
    tables[key] = {
        "version": payload["version"],
        "ranges": [tuple(r) for r in payload["ranges"]],
        "views": views,
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
                if kind == "ping":
                    conn.send(make_task(
                        "pong", shard=shard_id, pid=os.getpid()
                    ))
                elif kind == "publish":
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
            for view in entry["views"].values():
                if isinstance(view, AttachedSegment):
                    view.close()
        try:
            conn.close()
        except OSError:
            pass
