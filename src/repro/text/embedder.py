"""Deterministic signed feature-hashing text embedder.

A fastText-flavoured bag of sub-word features without pretrained weights:
each header is tokenised and canonicalised, then every token and every
character n-gram (with boundary markers, n = 3, 4) is hashed into a fixed
number of buckets with a deterministic CRC-based hash; a second hash decides
the sign, the classic trick that keeps hashed features zero-mean. Token-level
features get more mass than n-grams so exact token overlap dominates, with
n-grams providing partial-match smoothing ("scores" ~ "score").

Vectors are L2-normalised so cosine similarity is an inner product; the Gem
pipeline then L1-normalises again per paper Eq. 10.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.text.tokenize import canonicalize, tokenize_header
from repro.utils.validation import check_positive_int


class HashingTextEmbedder:
    """Embed short strings by signed hashing of tokens and char n-grams.

    Parameters
    ----------
    dim:
        Embedding dimensionality (number of hash buckets).
    ngram_sizes:
        Character n-gram lengths extracted inside ``<token>`` boundaries.
    token_weight:
        Relative mass of whole-token features versus n-gram features.
    use_synonyms:
        Fold known schema abbreviations to canonical tokens first.
    """

    #: The smallest ``dim`` accepted.
    MIN_DIM = 8

    def __init__(
        self,
        dim: int = 256,
        *,
        ngram_sizes: tuple[int, ...] = (3, 4),
        token_weight: float = 2.0,
        use_synonyms: bool = True,
    ) -> None:
        self.dim = check_positive_int(dim, "dim", minimum=self.MIN_DIM)
        if not ngram_sizes or any(n < 2 for n in ngram_sizes):
            raise ValueError(f"ngram_sizes must all be >= 2, got {ngram_sizes}")
        self.ngram_sizes = tuple(int(n) for n in ngram_sizes)
        self.token_weight = float(token_weight)
        if self.token_weight <= 0:
            raise ValueError(f"token_weight must be > 0, got {token_weight}")
        self.use_synonyms = bool(use_synonyms)

    # ------------------------------------------------------------ features

    def _features(self, text: str) -> list[tuple[str, float]]:
        tokens = tokenize_header(text)
        if self.use_synonyms:
            tokens = canonicalize(tokens)
        feats: list[tuple[str, float]] = []
        for token in tokens:
            feats.append((f"tok:{token}", self.token_weight))
            bounded = f"<{token}>"
            for n in self.ngram_sizes:
                for i in range(len(bounded) - n + 1):
                    feats.append((f"ng{n}:{bounded[i : i + n]}", 1.0))
        return feats

    @staticmethod
    def _bucket_and_sign(feature: str, dim: int) -> tuple[int, float]:
        data = feature.encode("utf-8")
        h = zlib.crc32(data)
        bucket = h % dim
        sign = 1.0 if zlib.crc32(data, 0x9E3779B9) & 1 else -1.0
        return bucket, sign

    # ------------------------------------------------------------- encoding

    def encode_one(self, text: str) -> np.ndarray:
        """Embed a single string to a unit L2-norm vector (zeros if empty)."""
        vec = np.zeros(self.dim)
        for feature, weight in self._features(text):
            bucket, sign = self._bucket_and_sign(feature, self.dim)
            vec[bucket] += sign * weight
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def encode(self, texts: list[str]) -> np.ndarray:
        """Embed a list of strings to an ``(n, dim)`` matrix."""
        if not isinstance(texts, (list, tuple)):
            raise TypeError(f"texts must be a list of strings, got {type(texts).__name__}")
        if not texts:
            raise ValueError("texts must not be empty")
        return np.stack([self.encode_one(t) for t in texts])

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two strings' embeddings."""
        return float(self.encode_one(a) @ self.encode_one(b))


__all__ = ["HashingTextEmbedder"]
