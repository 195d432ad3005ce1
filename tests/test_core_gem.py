"""Tests for GemEmbedder and GemConfig: the end-to-end paper pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.core import GemConfig, GemEmbedder, signature
from repro.core.gem import log_squash
from repro.core.signature import mean_component_probabilities
from repro.data.table import ColumnCorpus, NumericColumn
from repro.evaluation import average_precision_at_k
from repro.gmm import FitPlan
from repro.index import GemIndex
from repro.serve import GemService

FAST = dict(n_components=8, n_init=1, max_iter=60)

# Retired GemConfig serving fields and the GemService arguments that replaced them.
SERVE_ARGS = {
    "serve_batch_window_ms": "batch_window_ms",
    "serve_max_batch": "max_batch",
    "serve_max_workers": "max_workers",
}
# Retired GemConfig index fields and the GemIndex arguments that replaced them.
INDEX_ARGS = {
    "index_n_probe": "n_probe",
    "index_backend": "backend",
    "index_dtype": "dtype",
}
# Retired GemConfig fields that no setting replaced.
RETIRED_FIELDS = {"n_workers", "batch_size", "cache_signatures"}


@pytest.fixture(scope="module")
def fitted(tiny_corpus_module):
    gem = GemEmbedder(config=GemConfig.fast(**FAST))
    gem.fit(tiny_corpus_module)
    return gem


@pytest.fixture(scope="module")
def tiny_corpus_module():
    from repro.data.corpora import make_corpus
    from repro.data.synthesis import default_type_library

    types = [t for t in default_type_library() if t.fine in (
        "age_person",
        "year_publication",
        "rating_book",
        "price_product",
        "score_cricket",
        "percentage_generic",
    )]
    return make_corpus("tiny", types, 36, header_granularity="fine", random_state=0)


class TestConfig:
    def test_paper_defaults(self):
        cfg = GemConfig()
        assert cfg.n_components == 50
        assert cfg.tol == 1e-3
        assert cfg.n_init == 10

    def test_fast_profile_trims_restarts(self):
        cfg = GemConfig.fast()
        assert cfg.n_init < GemConfig().n_init
        assert cfg.n_components == 50

    def test_at_least_one_family_required(self):
        with pytest.raises(ValueError, match="at least one"):
            GemConfig(use_distributional=False, use_statistical=False, use_contextual=False)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_components", 0),
            ("n_init", 0),
            ("max_iter", 0),
            ("covariance_floor", float("nan")),
            ("covariance_floor", float("inf")),
            ("covariance_floor", -1.0),
            ("tol", 0.0),
            ("tol", float("nan")),
            pytest.param("bic_candidates", (0, 5), id="bic_candidates-(0, 5)"),
            ("signature_kind", "wrong"),
            ("normalization", "max"),
            ("fit_mode", "global"),
            ("value_transform", "sqrt"),
            ("value_transform", "logsquash"),
            ("composition", "sum"),
            ("gmm_init", "pca"),
            ("feature_clip", 0.0),
            ("feature_clip", float("nan")),
            ("batch_size", 0),
            ("batch_size", -5),
            ("n_workers", 0),
            ("cache_signatures", False),
            ("serve_batch_window_ms", -0.5),
            ("serve_max_batch", 0),
            ("serve_max_workers", 0),
            ("index_n_probe", 0),
            ("index_backend", "hnsw"),
            ("index_dtype", "float16"),
        ],
    )
    def test_invalid_fields_rejected(self, field, value, fitted):
        if field in SERVE_ARGS:
            # Serving policy is no longer a GemConfig field; the value is
            # still rejected by the GemService argument that replaced it.
            with pytest.raises(TypeError):
                GemConfig(**{field: value})
            with pytest.raises(ValueError):
                GemService(fitted, **{SERVE_ARGS[field]: value})
        elif field in INDEX_ARGS:
            # Likewise index settings: GemIndex validates its own arguments.
            with pytest.raises(TypeError):
                GemConfig(**{field: value})
            with pytest.raises(ValueError):
                GemIndex(fitted.embedding_dim, **{INDEX_ARGS[field]: value})
        elif field in RETIRED_FIELDS:
            with pytest.raises(TypeError):
                GemConfig(**{field: value})
        else:
            with pytest.raises(ValueError):
                GemConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("header_dim", -3, ValueError),
            ("header_dim", 0, ValueError),
            ("header_dim", 7, ValueError),
            ("header_dim", 2.5, TypeError),
            ("header_dim", 256.0, TypeError),
            ("header_dim", True, TypeError),
            ("ae_latent_dim", 0, ValueError),
            ("ae_latent_dim", 1.5, TypeError),
            ("ae_latent_dim", True, TypeError),
            ("ae_epochs", 0, ValueError),
            ("ae_epochs", -1, ValueError),
            ("ae_epochs", 10.0, TypeError),
            ("ae_epochs", False, TypeError),
        ],
    )
    def test_component_sizes_validated_at_construction(self, field, value, error):
        # These only reach the header embedder or the autoencoder when a
        # fit builds one; a config (or a manifest) that could never refit
        # is refused up front.
        with pytest.raises(error, match=field):
            GemConfig(**{field: value})

    def test_manifest_with_an_invalid_component_size_does_not_load(self):
        cfg = GemConfig.fast().to_manifest_dict()
        cfg["header_dim"] = 4
        with pytest.raises(ValueError, match="header_dim must be >= 8"):
            GemConfig.from_manifest_dict(cfg)


class TestFitTransform:
    def test_embedding_shape_matches_config(self, fitted, tiny_corpus_module):
        emb = fitted.transform(tiny_corpus_module)
        assert emb.shape == (len(tiny_corpus_module), fitted.embedding_dim)
        assert fitted.embedding_dim == 8 + 7

    def test_transform_before_fit_raises(self, tiny_corpus_module):
        with pytest.raises(RuntimeError, match="not fitted"):
            GemEmbedder().transform(tiny_corpus_module)

    def test_corpus_type_checked(self):
        with pytest.raises(TypeError):
            GemEmbedder().fit([1, 2, 3])

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="unknown"):
            GemEmbedder(banana=3)

    def test_n_components_shortcut(self):
        gem = GemEmbedder(17)
        assert gem.config.n_components == 17

    def test_deterministic(self, tiny_corpus_module):
        a = GemEmbedder(config=GemConfig.fast(**FAST)).fit_transform(tiny_corpus_module)
        b = GemEmbedder(config=GemConfig.fast(**FAST)).fit_transform(tiny_corpus_module)
        assert np.allclose(a, b)

    def test_rows_l1_normalised(self, fitted, tiny_corpus_module):
        emb = fitted.transform(tiny_corpus_module)
        assert np.allclose(np.abs(emb).sum(axis=1), 1.0)

    def test_transform_accepts_new_columns(self, fitted):
        fresh = ColumnCorpus(
            [NumericColumn("new", np.linspace(0, 100, 40), "x", "x")], name="fresh"
        )
        emb = fitted.transform(fresh)
        assert emb.shape == (1, fitted.embedding_dim)


class TestEmbeddingBlocks:
    def test_mean_probabilities_row_stochastic(self, fitted, tiny_corpus_module):
        M = fitted.mean_probabilities(tiny_corpus_module)
        assert np.allclose(M.sum(axis=1), 1.0)

    def test_statistical_block_winsorised(self, fitted, tiny_corpus_module):
        S = fitted.statistical_embeddings(tiny_corpus_module)
        assert np.all(np.abs(S) <= fitted.config.feature_clip + 1e-12)

    def test_contextual_block_l1(self, fitted, tiny_corpus_module):
        C = fitted.contextual_embeddings(tiny_corpus_module)
        sums = np.abs(C).sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)

    def test_signature_combines_d_and_s(self, fitted, tiny_corpus_module):
        P = fitted.signature(tiny_corpus_module)
        assert P.shape[1] == 8 + 7

    def test_same_type_columns_closer_than_cross_type(self, fitted, tiny_corpus_module):
        emb = fitted.signature(tiny_corpus_module)
        labels = tiny_corpus_module.labels("fine")
        precision = average_precision_at_k(emb, labels)
        assert precision > 0.5  # tiny separable corpus

    def test_cluster_assignments_valid(self, fitted, tiny_corpus_module):
        clusters = fitted.cluster(tiny_corpus_module)
        assert clusters.shape == (len(tiny_corpus_module),)
        assert clusters.min() >= 0 and clusters.max() < 8


class TestFeatureSwitches:
    @pytest.mark.parametrize(
        "switches,expected_dim",
        [
            (dict(use_distributional=True, use_statistical=False), 8),
            (dict(use_distributional=False, use_statistical=True), 7),
            (dict(use_contextual=True), 8 + 7 + 64),
        ],
    )
    def test_dimensions(self, tiny_corpus_module, switches, expected_dim):
        cfg = GemConfig.fast(**FAST, header_dim=64, **switches)
        gem = GemEmbedder(config=cfg)
        emb = gem.fit_transform(tiny_corpus_module)
        assert emb.shape == (len(tiny_corpus_module), expected_dim)
        assert gem.embedding_dim == expected_dim


class TestCompositions:
    def test_autoencoder_composition_dim(self, tiny_corpus_module):
        cfg = GemConfig.fast(
            **FAST,
            use_contextual=True,
            composition="autoencoder",
            ae_latent_dim=6,
            ae_epochs=10,
            header_dim=32,
        )
        emb = GemEmbedder(config=cfg).fit_transform(tiny_corpus_module)
        assert emb.shape == (len(tiny_corpus_module), 6)

    def test_aggregation_composition_dim(self, tiny_corpus_module):
        cfg = GemConfig.fast(**FAST, use_contextual=True, composition="aggregation", header_dim=32)
        emb = GemEmbedder(config=cfg).fit_transform(tiny_corpus_module)
        assert emb.shape == (len(tiny_corpus_module), 32)


class TestBatchedTransform:
    @pytest.mark.parametrize("batch_size", [1, 16, 200, None])
    def test_batch_size_does_not_change_embeddings(self, fitted, tiny_corpus_module, batch_size):
        # The transform's distributional block, pooled at the fixed chunk
        # size, equals pooling at any other chunk size or in one chunk
        # holding the whole stack (None).
        values = [c.values for c in tiny_corpus_module]
        if batch_size is None:
            batch_size = sum(v.size for v in values)
        pooled = mean_component_probabilities(fitted.gmm_, values, batch_size=batch_size)
        block = fitted.mean_probabilities(tiny_corpus_module)
        assert np.allclose(pooled, block, atol=1e-10, rtol=0)

    def test_transform_chunks_at_the_fit_chunk_size(self, tiny_corpus_module, monkeypatch):
        # No option chooses the transform's chunk size: it is the fit's.
        assert "batch_size" not in {f.name for f in dataclasses.fields(GemConfig)}
        gem = GemEmbedder(config=GemConfig.fast(**FAST))
        gem.fit(tiny_corpus_module)
        gem._signature_cache.clear()  # fit cached every row; score them again
        seen = []
        chunks = signature.column_chunks

        def spy(offsets, batch_size):
            seen.append(batch_size)
            return chunks(offsets, batch_size)

        monkeypatch.setattr(signature, "column_chunks", spy)
        emb = gem.transform(tiny_corpus_module)
        assert seen == [FitPlan.DEFAULT_BATCH]
        assert np.all(np.isfinite(emb))

    def test_all_blocks_disabled_raises_clear_error(self, fitted, tiny_corpus_module):
        # GemConfig rejects the combination up front; a config that bypassed
        # validation must still fail loudly in transform, not inside compose.
        cfg = fitted.config
        object.__setattr__(cfg, "use_distributional", False)
        object.__setattr__(cfg, "use_statistical", False)
        object.__setattr__(cfg, "use_contextual", False)
        try:
            with pytest.raises(ValueError, match="nothing to embed"):
                fitted.transform(tiny_corpus_module)
        finally:
            object.__setattr__(cfg, "use_distributional", True)
            object.__setattr__(cfg, "use_statistical", True)

    def test_embedding_dim_derived_from_feature_names(self, fitted):
        from repro.core import STATISTICAL_FEATURE_NAMES

        assert fitted.embedding_dim == 8 + len(STATISTICAL_FEATURE_NAMES)


class TestPerColumnSeeding:
    def test_equally_seeded_generators_give_equal_rows(self, tiny_corpus_module):
        def run():
            cfg = GemConfig.fast(
                n_components=4,
                fit_mode="per_column",
                n_init=1,
                random_state=np.random.default_rng(0),
            )
            return GemEmbedder(config=cfg).fit_transform(tiny_corpus_module)

        assert np.array_equal(run(), run())


class TestPerColumnCluster:
    def test_cluster_rejected_in_per_column_mode(self, tiny_corpus_module):
        # Per-column rows are sorted (weight, mean, std) parameters, not
        # component probabilities; an argmax over them was meaningless.
        cfg = GemConfig.fast(n_components=4, fit_mode="per_column", n_init=1)
        gem = GemEmbedder(config=cfg).fit(tiny_corpus_module)
        with pytest.raises(ValueError, match="fit_mode='stacked'"):
            gem.cluster(tiny_corpus_module)


class TestValueTransforms:
    @pytest.mark.parametrize("transform", ["none", "log_squash", "standardize"])
    def test_all_transforms_produce_valid_embeddings(self, tiny_corpus_module, transform):
        cfg = GemConfig.fast(**FAST, value_transform=transform)
        emb = GemEmbedder(config=cfg).fit_transform(tiny_corpus_module)
        assert np.all(np.isfinite(emb))

    def test_log_squash_definition(self):
        v = np.array([-10.0, 0.0, 10.0])
        out = log_squash(v)
        assert out[1] == 0.0
        assert np.isclose(out[2], np.log(11.0))
        assert np.isclose(out[0], -np.log(11.0))

    def test_typo_rejected_at_config_level(self):
        with pytest.raises(ValueError, match="value_transform"):
            GemConfig(value_transform="logsquash")

    def test_unknown_transform_not_silently_zscored(self, tiny_corpus_module):
        # A config that bypassed __post_init__ must raise, not fall through
        # to the standardize branch.
        gem = GemEmbedder(config=GemConfig.fast(**FAST))
        object.__setattr__(gem.config, "value_transform", "logsquash")
        with pytest.raises(ValueError, match="unknown value_transform"):
            gem.fit(tiny_corpus_module)


class TestPerColumnMode:
    def test_per_column_embeddings(self, tiny_corpus_module):
        cfg = GemConfig.fast(n_components=4, fit_mode="per_column", n_init=1)
        gem = GemEmbedder(config=cfg)
        emb = gem.fit_transform(tiny_corpus_module)
        assert emb.shape == (len(tiny_corpus_module), gem.embedding_dim)
        assert np.all(np.isfinite(emb))
        assert gem.gmm_ is None  # no shared mixture in per-column mode
