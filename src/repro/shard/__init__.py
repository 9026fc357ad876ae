"""Sharded multiprocess execution: scale the shared scan past the GIL.

Partitions base tables into contiguous per-shard row ranges
(:class:`~repro.relational.catalog.ShardMap`), publishes scan-ready
column stores into ``multiprocessing.shared_memory`` segments mapped as
zero-copy numpy views, and fans the coalesced shared scan out across a
persistent pool of spawn-safe worker processes.  Workers score the
unit-fp32 rows with the in-process scan's product and return bounded
per-query heaps; the front door merges them under a total order and
exact-rescores, so sharded results are bit-identical to serial.
"""

from .envelope import ENVELOPE_VERSION, make_task, open_task
from .pool import ShardPool, ShardScanResult
from .store import (
    AttachedSegment,
    SegmentOwner,
    SegmentSpec,
    leaked_segments,
    segment_prefix,
)
from .worker import worker_main

__all__ = [
    "ENVELOPE_VERSION",
    "AttachedSegment",
    "SegmentOwner",
    "SegmentSpec",
    "ShardPool",
    "ShardScanResult",
    "leaked_segments",
    "make_task",
    "open_task",
    "segment_prefix",
    "worker_main",
]
