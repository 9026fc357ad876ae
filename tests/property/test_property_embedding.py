"""Property-based tests for embedding substrate invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.embedding import (
    EmbeddingStore,
    HashingEmbedder,
    char_ngrams,
    hash_ngram,
    pluralize,
)
from repro.vector import normalize_rows

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=12,
)


@pytest.fixture(scope="module")
def model():
    return HashingEmbedder(dim=24, seed=55)


class TestEmbedderProperties:
    @given(word=words)
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, word):
        model = HashingEmbedder(dim=16, seed=56)
        assert np.allclose(model.embed(word), model.embed(word))

    @given(word=words)
    @settings(max_examples=100, deadline=None)
    def test_unit_norm_output(self, word):
        model = HashingEmbedder(dim=16, seed=56)
        vec = model.embed(word)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-4)

    @given(
        word=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=4,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_plural_closer_than_scrambled(self, word):
        """A word (long enough to have shared n-grams) is more similar to
        its plural than to an unrelated token."""
        model = HashingEmbedder(dim=64, seed=57)
        plural = pluralize(word)
        unrelated = "zq" + word[::-1] + "xv"
        if plural == unrelated or word == word[::-1]:
            return
        # The reversal only works as an "unrelated" token when it shares no
        # character bigrams with the word (e.g. 'fcyy' vs 'yycf' share 'yy'
        # and are legitimately similar to an n-gram embedder).
        bigrams = {word[i : i + 2] for i in range(len(word) - 1)}
        rev = word[::-1]
        rev_bigrams = {rev[i : i + 2] for i in range(len(rev) - 1)}
        assume(not (bigrams & rev_bigrams))
        base = model.embed(word)
        assert float(base @ model.embed(plural)) >= float(
            base @ model.embed(unrelated)
        ) - 0.05


def scalar_embed(model: HashingEmbedder, items: list) -> np.ndarray:
    """The embedder's definition, one gram and one row at a time."""
    rows = np.empty((len(items), model.dim), dtype=np.float32)
    for row, item in enumerate(items):
        grams = char_ngrams(str(item).lower(), model.n_min, model.n_max)
        ids = [hash_ngram(g, model.n_buckets) for g in grams]
        rows[row] = model._table[ids].mean(axis=0)
    return normalize_rows(rows, copy=False)


# Any Unicode text (no surrogates: they cannot be UTF-8 encoded), empty and
# shorter-than-n_min strings included.
unicode_text = st.text(st.characters(exclude_categories=["Cs"]), max_size=40)
# Characters whose lowercase form changes length in characters or bytes.
case_shifting = st.text(st.sampled_from("İẞΣσßﬃAa"), max_size=8)
embed_items = st.one_of(
    unicode_text,
    case_shifting,
    st.integers(),
    st.floats(allow_nan=True),
)
hashing_models = st.builds(
    HashingEmbedder,
    dim=st.integers(2, 24),
    n_buckets=st.sampled_from([1, 7, 97, 4096]),
    n_min=st.integers(1, 4),
    n_max=st.integers(4, 7),
    seed=st.integers(0, 3),
)


class TestBatchedEmbedderDifferential:
    """Batched ``embed_batch`` against the scalar definition, bit for bit.

    Budgets come from the active hypothesis profile (the ``ci`` profile
    runs ten times as many examples)."""

    @given(model=hashing_models, items=st.lists(embed_items, min_size=1), data=st.data())
    @settings(deadline=None)
    def test_bit_identical_to_scalar_oracle(self, model, items, data):
        # Duplicates and reorderings: a row must not depend on its batch.
        batch = items + data.draw(st.lists(st.sampled_from(items), max_size=8))
        expected = np.concatenate([scalar_embed(model, [item]) for item in batch])
        assert np.array_equal(model.embed_batch(batch), expected)

    @given(
        prefix=unicode_text,
        surrogate=st.characters(categories=["Cs"]),
        suffix=unicode_text,
    )
    @settings(deadline=None)
    def test_lone_surrogate_raises_in_both_paths(self, prefix, surrogate, suffix):
        model = HashingEmbedder(dim=8, seed=1)
        item = prefix + surrogate + suffix
        with pytest.raises(UnicodeEncodeError):
            scalar_embed(model, [item])
        with pytest.raises(UnicodeEncodeError):
            model.embed_batch(["fine", item])


class TestStoreProperties:
    @given(items=st.lists(words, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_model_calls_equal_unique_items(self, items):
        """The prefetch bound: M is paid once per distinct item."""
        model = HashingEmbedder(dim=16, seed=58)
        store = EmbeddingStore(model)
        store.add_items(items)
        store.add_items(items)  # repeat: no new calls
        assert model.usage.calls == len(set(items))

    @given(items=st.lists(words, min_size=1, max_size=20, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_id_decode_roundtrip(self, items):
        store = EmbeddingStore(HashingEmbedder(dim=16, seed=59))
        ids = store.add_items(items)
        for item, item_id in zip(items, ids.tolist()):
            assert store.decode_id(item_id) == item
            assert store.id_of(item) == item_id

    @given(items=st.lists(words, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_embed_items_consistent(self, items):
        store = EmbeddingStore(HashingEmbedder(dim=16, seed=60))
        first = store.embed_items(items)
        second = store.embed_items(items)
        assert np.allclose(first, second)
