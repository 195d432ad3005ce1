"""Tests for the content-hash signature cache and its embedder integration."""

import numpy as np
import pytest

from repro.core import GemConfig, GemEmbedder
from repro.core.cache import SignatureCache, array_fingerprint
from repro.core.signature import mean_component_probabilities
from repro.data.table import ColumnCorpus, NumericColumn

FAST = dict(n_components=6, n_init=1, max_iter=60)


class TestArrayFingerprint:
    def test_identical_content_same_fingerprint(self):
        a = np.array([1.0, 2.0, 3.0])
        assert array_fingerprint(a) == array_fingerprint(a.copy())

    def test_different_values_differ(self):
        assert array_fingerprint(np.array([1.0, 2.0])) != array_fingerprint(np.array([1.0, 2.5]))

    def test_dtype_distinguished(self):
        assert array_fingerprint(np.array([1, 2])) != array_fingerprint(np.array([1.0, 2.0]))

    def test_shape_distinguished(self):
        flat = np.arange(4.0)
        assert array_fingerprint(flat) != array_fingerprint(flat.reshape(2, 2))

    def test_non_contiguous_input_ok(self):
        a = np.arange(10.0)
        assert array_fingerprint(a[::2]) == array_fingerprint(np.arange(0.0, 10.0, 2.0))


class TestSignatureCache:
    def test_miss_then_hit(self):
        cache = SignatureCache()
        assert cache.get("k") is None
        cache.put("k", np.array([0.5, 0.5]))
        assert np.allclose(cache.get("k"), [0.5, 0.5])
        assert cache.stats == {"hits": 1, "misses": 1, "size": 1}

    def test_rows_stored_as_immutable_copies(self):
        cache = SignatureCache()
        row = np.array([1.0, 2.0])
        cache.put("k", row)
        row[0] = 99.0
        stored = cache.get("k")
        assert stored[0] == 1.0
        with pytest.raises(ValueError):
            stored[0] = 5.0

    def test_returned_row_cannot_be_made_writeable(self):
        # Regression: get() used to return the owning stored array, whose
        # writeable flag a caller could flip back on — mutating it would
        # silently poison every future hit for that column. A view of the
        # read-only base cannot be re-enabled.
        cache = SignatureCache()
        cache.put("k", np.array([1.0, 2.0]))
        returned = cache.get("k")
        with pytest.raises(ValueError):
            returned.flags.writeable = True
        returned = returned.copy()  # the supported way to modify a hit
        returned[0] = -1.0
        assert cache.get("k")[0] == 1.0

    def test_lru_eviction(self):
        cache = SignatureCache(max_entries=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.zeros(1))
        cache.get("a")  # refresh 'a' so 'b' is the LRU entry
        cache.put("c", np.zeros(1))
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_clear_resets_counters(self):
        cache = SignatureCache()
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == {"hits": 0, "misses": 0, "size": 0}

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError, match="max_entries"):
            SignatureCache(max_entries=0)


class TestEmbedderCaching:
    @pytest.fixture()
    def fitted(self, tiny_corpus):
        gem = GemEmbedder(config=GemConfig.fast(**FAST))
        return gem.fit(tiny_corpus)

    def test_repeated_columns_scored_once(self, fitted, monkeypatch):
        values = np.linspace(0.0, 40.0, 25)
        other = np.linspace(5.0, 9.0, 10)
        corpus = ColumnCorpus(
            [NumericColumn(f"c{i}", values, "x", "x") for i in range(6)]
            + [NumericColumn("other", other, "y", "y")]
        )
        calls = []
        original = fitted.gmm_.predict_proba

        def counting(X, **kwargs):
            calls.append(X.shape[0])
            return original(X, **kwargs)

        monkeypatch.setattr(fitted.gmm_, "predict_proba", counting)
        M = fitted.mean_probabilities(corpus)
        # Six duplicates + one distinct column -> one column of each is
        # pooled, and the scorer sees each distinct value of the two once:
        # 5.0 is in both, so 34 of their 35 values.
        distinct = np.unique(np.concatenate([values, other])).size
        assert distinct == 34
        assert sum(calls) == distinct
        assert np.allclose(M[:6], M[0])

    def test_second_transform_hits_cache(self, fitted, tiny_corpus, monkeypatch):
        first = fitted.transform(tiny_corpus)
        calls = []
        original = fitted.gmm_.predict_proba

        def counting(X, **kwargs):
            calls.append(X.shape[0])
            return original(X, **kwargs)

        monkeypatch.setattr(fitted.gmm_, "predict_proba", counting)
        second = fitted.transform(tiny_corpus)
        assert calls == []  # every pooled row came from the cache
        assert np.array_equal(first, second)

    def test_cache_disabled_matches_enabled(self, tiny_corpus):
        on = GemEmbedder(config=GemConfig.fast(**FAST, cache_signatures=True))
        off = GemEmbedder(config=GemConfig.fast(**FAST, cache_signatures=False))
        assert np.allclose(on.fit_transform(tiny_corpus), off.fit_transform(tiny_corpus))
        assert off._signature_cache is None

    def test_refit_replaces_stale_cache_rows(self, fitted, tiny_corpus, ambiguous_corpus):
        fitted.transform(tiny_corpus)
        assert len(fitted._signature_cache) > 0
        # Refit on a different corpus: the old mixture's memoised rows must
        # be gone. (fit itself re-warms the cache for the *new* mixture
        # while freezing the corpus-level balance statistics, so the cache
        # is not empty — but every row must match a fresh computation.)
        fitted.fit(ambiguous_corpus)
        fresh = mean_component_probabilities(fitted.gmm_, [c.values for c in tiny_corpus])
        cached = fitted.mean_probabilities(tiny_corpus)
        assert np.allclose(cached, fresh, atol=1e-12, rtol=0)

    def test_empty_column_error_names_corpus_index(self, fitted):
        # ColumnCorpus cannot hold empty columns, but the cached scoring
        # path must still report the *corpus* index, not the index within
        # the to-score subset, if one sneaks in via a duck-typed corpus.
        class Stub:
            def __init__(self, values):
                self.values = values

        cols = [Stub(np.arange(3.0)), Stub(np.array([]))]
        with pytest.raises(ValueError, match="column 1 has no values"):
            fitted.mean_probabilities(cols)

    def test_per_column_mode_has_no_cache(self):
        gem = GemEmbedder(config=GemConfig.fast(n_components=4, fit_mode="per_column"))
        assert gem._signature_cache is None
