"""Unit tests for the embedding store (prefetch cache + E^-1 decode)."""

import numpy as np
import pytest

from repro.embedding import EmbeddingStore, HashingEmbedder
from repro.errors import EmbeddingError


@pytest.fixture()
def store():
    return EmbeddingStore(HashingEmbedder(dim=16, seed=13))


class TestEmbedOnce:
    def test_add_items_returns_ids(self, store):
        ids = store.add_items(["a", "b", "c"])
        assert ids.tolist() == [0, 1, 2]
        assert len(store) == 3

    def test_duplicates_not_reembedded(self, store):
        """Each unique item incurs model cost M exactly once — the linear
        model-cost bound of the prefetch formulation."""
        store.add_items(["a", "b"])
        calls_after_first = store.model.usage.calls
        store.add_items(["a", "b", "c"])
        assert store.model.usage.calls == calls_after_first + 1  # only "c"

    def test_duplicates_within_batch(self, store):
        ids = store.add_items(["x", "x", "y"])
        assert ids.tolist() == [0, 0, 1]
        assert store.model.usage.calls == 2

    def test_embed_items_returns_vectors(self, store):
        vectors = store.embed_items(["p", "q"])
        assert vectors.shape == (2, 16)
        again = store.embed_items(["q", "p"])
        assert np.allclose(again[0], vectors[1])

    def test_vectors_property(self, store):
        store.add_items(["a", "b"])
        assert store.vectors.shape == (2, 16)

    def test_one_item_adds_match_one_bulk_add(self, store):
        """Growing one row at a time reallocates O(log n) times and stores
        exactly what a single bulk add stores."""
        items = [f"item-{i}" for i in range(1000)]
        ids = []
        reallocations = 0
        previous = None
        for item in items:
            ids.extend(store.add_items([item]).tolist())
            current = store.vectors
            if previous is not None and not np.shares_memory(current, previous):
                reallocations += 1
            previous = current
        bulk = EmbeddingStore(HashingEmbedder(dim=16, seed=13))
        assert ids == bulk.add_items(items).tolist()
        assert np.array_equal(store.vectors, bulk.vectors)
        assert reallocations <= 10  # capacity 1 -> 2 -> 4 -> ... -> 1024


class TestDecode:
    def test_decode_id(self, store):
        store.add_items(["alpha", "beta"])
        assert store.decode_id(1) == "beta"

    def test_decode_id_out_of_range(self, store):
        store.add_items(["alpha"])
        with pytest.raises(EmbeddingError, match="out of range"):
            store.decode_id(5)

    def test_decode_vector_nearest(self, store):
        store.add_items(["alpha", "beta", "gamma"])
        vec = store.model.embed("beta")
        assert store.decode_vector(vec) == "beta"

    def test_decode_vector_empty_store(self, store):
        with pytest.raises(EmbeddingError, match="empty"):
            store.decode_vector(np.ones(16))

    def test_id_of(self, store):
        store.add_items(["alpha"])
        assert store.id_of("alpha") == 0
        with pytest.raises(EmbeddingError):
            store.id_of("missing")

    def test_items_listing(self, store):
        store.add_items(["a", "b"])
        assert store.items() == ["a", "b"]
