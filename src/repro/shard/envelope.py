"""Task envelope for the shard-worker wire protocol.

Messages between the pool and its worker processes travel over
``multiprocessing.Pipe`` as small dicts.  Query vectors and score arrays
are encoded with the flight recorder's plan wire format
(:func:`repro.obs.capture._encode_query`): float32 values widen to
float64 exactly, so a query crossing the pipe is *the same* query — the
bit-exactness contract the capture/replay loop already relies on holds
for shard dispatch too.  Values the wire format does not know (segment
specs, which are plain dataclasses) pass through untouched and ride the
pipe's own pickle.

Every envelope carries a version stamp; a worker that receives a version
it does not speak replies with an error instead of guessing.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShardError
from ..obs.capture import _decode_query, _encode_query

#: Wire-format version stamped into every task/reply envelope.
ENVELOPE_VERSION = 1


def _encode_value(value):
    if isinstance(value, np.ndarray):
        return _encode_query(value)
    if isinstance(value, dict):
        return {k: _encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return _decode_query(value)
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def make_task(kind: str, **payload) -> dict:
    """Build one versioned task/reply envelope."""
    return {
        "v": ENVELOPE_VERSION,
        "kind": kind,
        "payload": _encode_value(payload),
    }


def open_task(message: dict) -> tuple[str, dict]:
    """Validate an envelope and return ``(kind, decoded payload)``."""
    if not isinstance(message, dict) or "kind" not in message:
        raise ShardError(f"malformed shard envelope: {type(message).__name__}")
    version = message.get("v")
    if version != ENVELOPE_VERSION:
        raise ShardError(
            f"shard envelope version {version!r} != {ENVELOPE_VERSION}"
        )
    return message["kind"], _decode_value(message.get("payload") or {})
