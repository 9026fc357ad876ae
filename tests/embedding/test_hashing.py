"""Unit tests for the hashing n-gram embedder."""

import numpy as np
import pytest

from repro.embedding import HashingEmbedder, char_ngrams, hash_ngram
from repro.embedding.hashing_model import ngram_buckets
from repro.vector import cosine_vectorized


class TestCharNgrams:
    def test_includes_wrapped_word(self):
        grams = char_ngrams("cat", 3, 5)
        assert "<cat>" in grams

    def test_boundary_markers(self):
        grams = char_ngrams("cat", 3, 3)
        assert "<ca" in grams
        assert "at>" in grams

    def test_gram_lengths(self):
        grams = char_ngrams("database", 3, 5)
        lengths = {len(g) for g in grams if g != "<database>"}
        assert lengths <= {3, 4, 5}

    def test_short_word(self):
        grams = char_ngrams("ab", 3, 5)
        assert "<ab>" in grams
        assert all(len(g) <= 4 for g in grams)


class TestHashNgram:
    def test_deterministic(self):
        assert hash_ngram("abc", 100) == hash_ngram("abc", 100)

    def test_in_range(self):
        for gram in ["a", "xyz", "<word>"]:
            assert 0 <= hash_ngram(gram, 37) < 37

    def test_different_grams_usually_differ(self):
        buckets = {hash_ngram(f"gram{i}", 1 << 20) for i in range(100)}
        assert len(buckets) > 95


class TestNgramBuckets:
    """The batched hash pass against the scalar definition it replaces."""

    TOKENS = ["", "a", "ab", "cat", "database", "İi", "straße", "\U0001f600ok", "<>"]

    @pytest.mark.parametrize("n_min,n_max", [(3, 5), (1, 1), (2, 7)])
    def test_matches_scalar_grams_in_order(self, n_min, n_max):
        ids, counts = ngram_buckets(self.TOKENS, n_min, n_max, 997)
        expected = [
            [hash_ngram(g, 997) for g in char_ngrams(t, n_min, n_max)]
            for t in self.TOKENS
        ]
        assert counts.tolist() == [len(e) for e in expected]
        assert ids.tolist() == [i for e in expected for i in e]

    def test_empty_batch(self):
        ids, counts = ngram_buckets([], 3, 5, 16)
        assert ids.shape == counts.shape == (0,)


class TestHashingEmbedder:
    def test_deterministic_across_instances(self):
        a = HashingEmbedder(dim=16, seed=5).embed("barbecue")
        b = HashingEmbedder(dim=16, seed=5).embed("barbecue")
        assert np.array_equal(a, b)

    def test_case_insensitive(self):
        model = HashingEmbedder(dim=16, seed=5)
        assert np.allclose(model.embed("Word"), model.embed("word"))

    def test_batch_matches_single(self):
        model = HashingEmbedder(dim=16, seed=5)
        batch = model.embed_batch(["alpha", "beta"])
        assert np.array_equal(batch[0], model.embed("alpha"))
        assert np.array_equal(batch[1], model.embed("beta"))

    def test_misspelling_closer_than_unrelated(self):
        """Shared subwords pull edit-variants together (the FastText
        property the paper relies on, here untrained)."""
        model = HashingEmbedder(dim=64, seed=5)
        word = model.embed("barbecue")
        typo = model.embed("barbeque")
        unrelated = model.embed("xylophone")
        assert cosine_vectorized(word, typo) > cosine_vectorized(word, unrelated)

    def test_plural_closer_than_unrelated(self):
        model = HashingEmbedder(dim=64, seed=5)
        word = model.embed("cloth")
        plural = model.embed("cloths")
        unrelated = model.embed("quasar")
        assert cosine_vectorized(word, plural) > cosine_vectorized(word, unrelated)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=8, n_buckets=0)
        with pytest.raises(ValueError):
            HashingEmbedder(dim=8, n_min=4, n_max=3)

    def test_identical_strings_similarity_one(self):
        model = HashingEmbedder(dim=32, seed=5)
        a = model.embed("postgres")
        assert cosine_vectorized(a, model.embed("postgres")) == pytest.approx(
            1.0, abs=1e-5
        )
