"""Deterministic hashing embedder.

A training-free stand-in for a string embedding model: character n-grams
are hashed into a fixed random-projection table and averaged.  Properties:

* deterministic (same string → same vector, across processes and
  independent of which other items share the batch),
* subword-based, so misspellings land *near* the original string — a weak,
  untrained version of the FastText property the paper relies on,
* O(len(s)) work per item, batched: :func:`ngram_buckets` hashes every
  n-gram of every item with one vectorized FNV-1a pass per byte position,
  and :func:`bucket_means` averages the bucket vectors with one pass per
  gram position.  Python overhead is per batch, not per gram, but the
  numpy work is real: on an E-join over raw strings the model cost ``M``
  is still a visible share of the query time.

:func:`char_ngrams` and :func:`hash_ngram` are the scalar definition of the
scheme; the batched path returns the same float32 bits as averaging
``char_ngrams`` buckets one item at a time, whatever else is in the batch.

For semantically meaningful similarity (synonyms), use the trainable
:class:`~repro.embedding.fasttext.FastTextModel`.
"""

from __future__ import annotations

import numpy as np

from ..config import get_config
from .base import EmbeddingModel

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = np.uint32(0x01000193)


def char_ngrams(token: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams of ``<token>`` with boundary markers, plus the word.

    Matches FastText's subword scheme: the token is wrapped in ``< >`` and
    n-grams of length ``n_min..n_max`` are extracted; the full wrapped token
    is always included so exact matches dominate.
    """
    wrapped = f"<{token}>"
    grams = [wrapped]
    for n in range(n_min, n_max + 1):
        if n >= len(wrapped):
            continue
        grams.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
    return grams


def hash_ngram(gram: str, n_buckets: int) -> int:
    """FNV-1a hash of an n-gram into ``[0, n_buckets)`` (deterministic)."""
    h = 0x811C9DC5
    for byte in gram.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) % (1 << 32)
    return h % n_buckets


def _counts_first(counts: np.ndarray) -> np.ndarray:
    """Start offset of each segment in a concatenation of ``counts`` runs."""
    return np.cumsum(counts) - counts


def _active_prefix(desc_lengths: np.ndarray) -> np.ndarray:
    """``out[j]`` = how many of the descending ``desc_lengths`` exceed ``j``."""
    longest = desc_lengths[0] if len(desc_lengths) else 0
    return np.searchsorted(-desc_lengths, -np.arange(longest), side="left")


def _fnv1a(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """32-bit FNV-1a of every byte span ``data[starts[i]:stops[i]]``.

    One pass per byte position, over the prefix of spans (longest first)
    that still have a byte there; ``uint32`` arithmetic wraps as the
    scalar ``% 2**32`` does.
    """
    lengths = stops - starts
    by_len = np.argsort(-lengths)
    starts = starts[by_len]
    h = np.full(len(starts), _FNV_OFFSET, dtype=np.uint32)
    for j, active in enumerate(_active_prefix(lengths[by_len]).tolist()):
        h[:active] ^= data[starts[:active] + j]
        h[:active] *= _FNV_PRIME
    out = np.empty(len(h), dtype=np.int64)
    out[by_len] = h
    return out


def ngram_buckets(
    tokens: list[str], n_min: int, n_max: int, n_buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids of every n-gram of every token, vectorized over the batch.

    Returns ``(ids, counts)``: ``ids`` concatenates, token by token,
    ``[hash_ngram(g, n_buckets) for g in char_ngrams(token, n_min, n_max)]``
    (same grams, same order) and ``counts[i]`` is the number of grams of
    ``tokens[i]``.  Raises :class:`UnicodeEncodeError` on a lone surrogate,
    as :func:`hash_ngram` does.
    """
    wrapped = [f"<{token}>" for token in tokens]
    text = "".join(wrapped)
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    # UTF-8 width of each code point -> byte offset of each character.
    widths = (
        1 + (codes >= 0x80).astype(np.int64) + (codes >= 0x800) + (codes >= 0x10000)
    )
    byte_at = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(widths, out=byte_at[1:])

    lengths = np.fromiter(map(len, wrapped), dtype=np.int64, count=len(wrapped))
    char_first = _counts_first(lengths)
    # Tokens longer than n chars have len - n + 1 windows of n chars.
    sizes = range(n_min, n_max + 1)
    windows = [np.where(lengths > n, lengths - n + 1, 0) for n in sizes]
    counts = 1 + np.sum(windows, axis=0)
    first = _counts_first(counts)
    ids = np.empty(int(counts.sum()), dtype=np.int64)
    # char_ngrams order: the whole wrapped token, then windows by n, by start.
    whole = _fnv1a(data, byte_at[char_first], byte_at[char_first + lengths])
    ids[first] = whole % n_buckets
    slot = first + 1
    for n, count in zip(sizes, windows):
        owner = np.repeat(np.arange(len(wrapped)), count)
        offset = np.arange(len(owner)) - np.repeat(_counts_first(count), count)
        start = char_first[owner] + offset
        h = _fnv1a(data, byte_at[start], byte_at[start + n])
        ids[slot[owner] + offset] = h % n_buckets
        slot += count
    return ids, counts


def bucket_means(
    table: np.ndarray, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment mean of ``table`` rows, bit-identical to a per-row mean.

    Row ``i`` equals ``table[ids[f:f + counts[i]]].mean(axis=0)`` with
    ``f = counts[:i].sum()`` whenever ``table`` has two or more columns
    (numpy sums a single column pairwise): the float32 sum runs in the same
    left-to-right order, one position of every still-active segment per
    pass, then divides by the count.  Every count must be at least 1.
    """
    # Longest segments first, so the segments still active at position j
    # are a prefix and each pass adds into a contiguous slice.
    by_count = np.argsort(-counts)
    first = _counts_first(counts)[by_count]
    acc = table.take(ids[first], axis=0)
    active_rows = _active_prefix(counts[by_count]).tolist()
    for j, active in enumerate(active_rows[1:], start=1):
        acc[:active] += table.take(ids[first[:active] + j], axis=0)
    out = np.empty_like(acc)
    out[by_count] = acc
    out /= counts.astype(np.float32)[:, None]
    return out


class HashingEmbedder(EmbeddingModel):
    """Training-free subword hashing embedder."""

    def __init__(
        self,
        dim: int = 64,
        *,
        n_buckets: int = 1 << 15,
        n_min: int = 3,
        n_max: int = 5,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        if not 1 <= n_min <= n_max:
            raise ValueError(f"invalid n-gram range [{n_min}, {n_max}]")
        self.n_buckets = int(n_buckets)
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        seed = get_config().stream_seed("hashing-embedder") if seed is None else seed
        rng = np.random.default_rng(seed)
        # Fixed random projection table: bucket id -> dense vector.
        self._table = rng.standard_normal((self.n_buckets, dim)).astype(np.float32)

    def _embed_batch(self, items: list) -> np.ndarray:
        tokens = [str(item).lower() for item in items]
        ids, counts = ngram_buckets(tokens, self.n_min, self.n_max, self.n_buckets)
        return bucket_means(self._table, ids, counts)
