"""Shared test fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as _hypothesis_settings

# Property tests explore deterministically so the tier-1 gate cannot flake
# on a lucky random walk; per-test @settings still override other fields.
_hypothesis_settings.register_profile("deterministic", derandomize=True)
# CI explores ten times deeper (``--hypothesis-profile=ci``); tests that
# pin ``max_examples`` keep their pin, the rest scale with the profile.
_deterministic = _hypothesis_settings.get_profile("deterministic")
_hypothesis_settings.register_profile(
    "ci", parent=_deterministic, max_examples=10 * _deterministic.max_examples
)
_hypothesis_settings.load_profile("deterministic")

from repro.embedding import HashingEmbedder
from repro.relational import DataType, Field, Schema, Table
from repro.workloads import unit_vectors


@pytest.fixture()
def small_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Two small, deterministic unit-vector relations."""
    left = unit_vectors(30, 8, seed=101)
    right = unit_vectors(40, 8, seed=202)
    return left, right


@pytest.fixture()
def hash_model() -> HashingEmbedder:
    return HashingEmbedder(dim=16, seed=7)


@pytest.fixture()
def people_table() -> Table:
    schema = Schema.of(
        Field("id", DataType.INT64),
        Field("name", DataType.STRING),
        Field("age", DataType.INT64),
        Field("score", DataType.FLOAT64),
    )
    rows = [
        {"id": 1, "name": "ada", "age": 36, "score": 9.5},
        {"id": 2, "name": "bob", "age": 41, "score": 7.25},
        {"id": 3, "name": "cyd", "age": 29, "score": 8.0},
        {"id": 4, "name": "dan", "age": 36, "score": 5.5},
        {"id": 5, "name": "eve", "age": 52, "score": 6.75},
    ]
    return Table.from_dicts(schema, rows)
