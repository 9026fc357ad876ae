"""Unit tests for the E-selection operator."""

import numpy as np
import pytest

from repro.core import (
    ThresholdCondition,
    TopKCondition,
    eselect,
    eselect_index,
    exact_threshold_select,
    exact_topk_select,
)
from repro.errors import DimensionalityError, JoinError
from repro.index import FlatIndex, HNSWIndex
from repro.vector import normalize_rows
from repro.workloads import unit_vectors


@pytest.fixture()
def relation(small_vectors):
    left, _ = small_vectors
    return left


@pytest.fixture()
def query(small_vectors):
    _, right = small_vectors
    return right[0]


class TestScanSelection:
    def test_threshold_matches_bruteforce(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        scores = normalize_rows(relation) @ query
        expected = set(np.nonzero(scores >= 0.3)[0].tolist())
        assert set(result.ids.tolist()) == expected

    def test_topk(self, relation, query):
        result = eselect(relation, query, TopKCondition(5))
        scores = normalize_rows(relation) @ query
        expected = np.argsort(-scores, kind="stable")[:5]
        assert result.ids.tolist() == expected.tolist()

    def test_topk_min_similarity(self, relation, query):
        result = eselect(
            relation, query, TopKCondition(10, min_similarity=0.5)
        )
        assert (result.scores >= 0.5).all()

    def test_raw_items_with_model(self, hash_model):
        items = ["barbecue", "barbeque", "piano"]
        result = eselect(items, "barbecue", TopKCondition(2), model=hash_model)
        assert result.ids[0] == 0  # exact match first
        assert result.ids[1] == 1  # misspelling second
        # |R| + 1 model calls: linear cost (E-Selection Cost).
        assert hash_model.usage.calls == len(items) + 1

    def test_query_dim_mismatch(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones(3, dtype=np.float32), TopKCondition(1))

    def test_query_must_be_1d(self, relation):
        with pytest.raises(DimensionalityError):
            eselect(relation, np.ones((2, 8)), TopKCondition(1))

    def test_raw_query_needs_model(self, relation):
        with pytest.raises(JoinError, match="model"):
            eselect(relation, "word", TopKCondition(1))

    def test_stats(self, relation, query):
        result = eselect(relation, query, ThresholdCondition(0.3))
        assert result.stats.strategy == "eselect/scan"
        assert result.stats.similarity_evaluations == len(relation)
        assert result.stats.pairs_emitted == len(result)


def _reference(normalized, query, condition):
    """Exact selection over every row: what any candidate superset yields."""
    all_rows = np.arange(len(normalized))
    if isinstance(condition, ThresholdCondition):
        return exact_threshold_select(
            normalized, all_rows, query, condition.threshold
        )
    return exact_topk_select(normalized, all_rows, query, condition.k)


def _assert_matches_reference(relation, query, condition):
    normalized = normalize_rows(relation)
    got = eselect(normalized, query, condition, assume_normalized=True)
    ids_ref, scores_ref = _reference(normalized, query, condition)
    assert np.array_equal(got.ids, ids_ref)
    assert np.array_equal(got.scores, scores_ref)
    return got


class TestScanEdgeInputs:
    """Inputs that stress the prescreen's heap and completeness guard."""

    @pytest.mark.parametrize(
        "condition",
        [TopKCondition(5), TopKCondition(64), ThresholdCondition(0.0)],
        ids=["top5", "top64", "threshold"],
    )
    def test_all_tied_relation(self, condition):
        # Every row scores the same: the prescreen heap holds only ties.
        relation = np.repeat(unit_vectors(1, 8, seed=7), 400, axis=0)
        query = unit_vectors(1, 8, seed=8)[0]
        got = _assert_matches_reference(relation, query, condition)
        if isinstance(condition, TopKCondition):
            assert got.ids.tolist() == list(range(condition.k))

    @pytest.mark.parametrize("k", [400, 1000])
    def test_k_at_least_n(self, k):
        relation = unit_vectors(400, 8, seed=9)
        query = unit_vectors(1, 8, seed=10)[0]
        got = _assert_matches_reference(relation, query, TopKCondition(k))
        assert len(got) == 400

    @pytest.mark.parametrize(
        "condition",
        [TopKCondition(3), ThresholdCondition(0.1)],
        ids=["topk", "threshold"],
    )
    def test_empty_relation(self, condition):
        relation = np.empty((0, 8), dtype=np.float32)
        query = unit_vectors(1, 8, seed=11)[0]
        got = _assert_matches_reference(relation, query, condition)
        assert len(got) == 0


class TestIndexSelection:
    @pytest.fixture()
    def index(self, relation):
        idx = FlatIndex(relation.shape[1])
        idx.add(relation)
        return idx

    def test_topk_matches_scan(self, relation, query, index):
        got = eselect_index(index, query, TopKCondition(4))
        expected = eselect(relation, query, TopKCondition(4))
        assert got.ids.tolist() == expected.ids.tolist()

    def test_threshold_emulation_complete_with_large_probe_k(
        self, relation, query, index
    ):
        got = eselect_index(
            index, query, ThresholdCondition(0.3), probe_k=len(relation)
        )
        expected = eselect(relation, query, ThresholdCondition(0.3))
        assert set(got.ids.tolist()) == set(expected.ids.tolist())

    def test_small_probe_k_truncates(self, relation, query, index):
        got = eselect_index(index, query, ThresholdCondition(-1.0), probe_k=3)
        assert len(got) == 3

    def test_prefilter(self, relation, query, index):
        allowed = np.zeros(len(relation), dtype=bool)
        allowed[:10] = True
        got = eselect_index(index, query, TopKCondition(5), allowed=allowed)
        assert set(got.ids.tolist()) <= set(range(10))

    def test_hnsw_variant(self, relation, query):
        idx = HNSWIndex(relation.shape[1], m=8, ef_construction=64, seed=8)
        idx.add(relation)
        got = eselect_index(idx, query, TopKCondition(3))
        expected = eselect(relation, query, TopKCondition(3))
        overlap = set(got.ids.tolist()) & set(expected.ids.tolist())
        assert len(overlap) >= 2

    def test_invalid_probe_k(self, query, index):
        with pytest.raises(JoinError):
            eselect_index(index, query, ThresholdCondition(0.1), probe_k=0)

    def test_dim_mismatch(self, index):
        with pytest.raises(DimensionalityError):
            eselect_index(index, np.ones(5, dtype=np.float32), TopKCondition(1))
