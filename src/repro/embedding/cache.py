"""Embedding store: prefetch cache and lookup-table decoder (``E^-1``).

Two pieces of Section III-C / IV-A live here:

* the **prefetch optimization**: embedding each tuple once and reusing the
  tensor across all pairwise comparisons — :class:`EmbeddingStore` is the
  materialised "embed once" side-structure;
* the **lookup-table decode**: when a model has no decoder, the paper
  prescribes an object↔embedding mapping via unique IDs; the store keeps the
  originals and supports exact (by id) and nearest-neighbour decode.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import EmbeddingError
from .base import EmbeddingModel


class EmbeddingStore:
    """Materialised item → embedding mapping for one model.

    Thread-safe: concurrent sessions of the query service share one store
    per model, so the get-or-embed path is serialized by an internal lock —
    two threads racing on the same new items embed them exactly once, and
    readers never observe a half-updated ``items``/``vectors`` pair.

    Vectors live in a capacity buffer that doubles when full, so a stream
    of small adds (one new query string at a time, as the query service
    issues them) costs amortized O(1) copies per row instead of one copy
    of the whole store per add.
    """

    def __init__(self, model: EmbeddingModel) -> None:
        self.model = model
        self._items: list = []
        self._key_to_id: dict = {}
        self._buffer = np.empty((0, model.dim), dtype=np.float32)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def vectors(self) -> np.ndarray:
        """The ``(n, dim)`` embedding matrix (a view, no copy)."""
        with self._lock:
            return self._buffer[: len(self._items)]

    def add_items(self, items: list) -> np.ndarray:
        """Embed and store new items; returns their ids.

        Items already present are *not* re-embedded (each unique item incurs
        model cost M exactly once — the linear model-cost bound of the
        prefetch formulation).
        """
        with self._lock:
            new_items = [it for it in items if it not in self._key_to_id]
            if new_items:
                # De-duplicate while preserving order.
                seen: dict = {}
                uniques = [seen.setdefault(it, it) for it in new_items if it not in seen]
                vectors = self.model.embed_batch(uniques)
                base = len(self._items)
                end = base + len(uniques)
                if end > len(self._buffer):
                    grown = np.empty(
                        (max(end, 2 * len(self._buffer)), self.model.dim),
                        dtype=np.float32,
                    )
                    grown[:base] = self._buffer[:base]
                    self._buffer = grown
                self._buffer[base:end] = vectors
                for offset, item in enumerate(uniques):
                    self._key_to_id[item] = base + offset
                self._items.extend(uniques)
            return np.asarray(
                [self._key_to_id[it] for it in items], dtype=np.int64
            )

    def embed_items(self, items: list) -> np.ndarray:
        """Embeddings for ``items`` (adding any that are missing)."""
        with self._lock:
            ids = self.add_items(items)
            return self._buffer[ids]

    def id_of(self, item) -> int:
        with self._lock:
            if item not in self._key_to_id:
                raise EmbeddingError(f"item {item!r} is not in the store")
            return self._key_to_id[item]

    def decode_id(self, item_id: int):
        """Exact decode: unique id → original item (Section III-C)."""
        with self._lock:
            if not 0 <= item_id < len(self._items):
                raise EmbeddingError(
                    f"id {item_id} out of range [0, {len(self._items)})"
                )
            return self._items[item_id]

    def decode_vector(self, vector: np.ndarray):
        """Nearest-neighbour decode: vector → closest stored item."""
        with self._lock:
            if len(self._items) == 0:
                raise EmbeddingError("cannot decode against an empty store")
            vector = np.asarray(vector, dtype=np.float32)
            sims = self.vectors @ vector
            return self._items[int(np.argmax(sims))]

    def items(self) -> list:
        with self._lock:
            return list(self._items)
