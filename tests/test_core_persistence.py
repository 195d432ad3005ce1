"""Tests for fitted-embedder persistence (save_gem / load_gem)."""

import warnings

import numpy as np
import pytest

from repro.core import GemConfig, GemEmbedder, load_gem, save_gem
from repro.core.persistence import archive_checksum, json_to_array

FAST = GemConfig.fast(n_components=6, n_init=1, max_iter=60)


class TestRoundtrip:
    def test_transform_identical_after_reload(self, tiny_corpus, tmp_path):
        gem = GemEmbedder(config=FAST)
        gem.fit(tiny_corpus)
        original = gem.transform(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert np.allclose(restored.transform(tiny_corpus), original)

    def test_suffixless_path_round_trips(self, tiny_corpus, tmp_path):
        # np.savez appends .npz; save_gem/load_gem must agree on the
        # resulting file instead of save succeeding and load raising.
        gem = GemEmbedder(config=FAST)
        gem.fit(tiny_corpus)
        save_gem(gem, tmp_path / "model.gem")
        assert (tmp_path / "model.gem.npz").exists()
        restored = load_gem(tmp_path / "model.gem")
        assert np.allclose(restored.transform(tiny_corpus), gem.transform(tiny_corpus))

    def test_frozen_balance_state_survives(self, tiny_corpus, tmp_path):
        cfg = GemConfig.fast(n_components=6, n_init=1, use_contextual=True)
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny_corpus)
        assert gem._signature_balance is not None
        assert gem._block_norms is not None
        save_gem(gem, tmp_path / "gem.npz")
        restored = load_gem(tmp_path / "gem.npz")
        assert restored._signature_balance == gem._signature_balance
        assert restored._block_norms == gem._block_norms
        assert not restored.transform_is_corpus_dependent
        sub = tiny_corpus.take(list(range(5)))
        assert np.array_equal(restored.transform(sub), gem.transform(tiny_corpus)[:5])

    def test_generator_random_state_saves_with_warning(self, tiny_corpus, tmp_path):
        # Regression: a Generator seed is not JSON-serialisable and used to
        # crash save_gem with TypeError; the fitted arrays carry the draws
        # that mattered, so the archive saves without it and warns.
        gem = GemEmbedder(
            n_components=6,
            n_init=1,
            max_iter=60,
            random_state=np.random.default_rng(1),
        )
        gem.fit(tiny_corpus)
        with pytest.warns(RuntimeWarning, match="cannot be persisted"):
            save_gem(gem, tmp_path / "gen.npz")
        restored = load_gem(tmp_path / "gen.npz")
        assert np.allclose(restored.transform(tiny_corpus), gem.transform(tiny_corpus))

    def test_config_survives(self, tiny_corpus, tmp_path):
        cfg = GemConfig.fast(
            n_components=6,
            n_init=1,
            use_contextual=True,
            header_dim=64,
            normalization="l2",
            value_transform="standardize",
        )
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert restored.config == cfg

    def test_standardize_transform_stats_survive(self, tiny_corpus, tmp_path):
        cfg = GemConfig.fast(n_components=6, n_init=1, value_transform="standardize")
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert restored._transform_stats == pytest.approx(gem._transform_stats)

    def test_restored_embedder_handles_new_corpus(self, tiny_corpus, tmp_path):
        from repro.data.table import ColumnCorpus, NumericColumn

        gem = GemEmbedder(config=FAST)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        fresh = ColumnCorpus([NumericColumn("f", np.linspace(0, 50, 30), "x", "x")])
        emb = restored.transform(fresh)
        assert np.allclose(emb, gem.transform(fresh))

    def test_gmm_parameters_exact(self, tiny_corpus, tmp_path):
        gem = GemEmbedder(config=FAST)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert np.array_equal(restored.gmm_.weights_, gem.gmm_.weights_)
        assert np.array_equal(restored.gmm_.means_, gem.gmm_.means_)
        assert np.array_equal(restored.gmm_.covariances_, gem.gmm_.covariances_)


class TestBatchingFieldsRoundtrip:
    def test_chunked_transform_bit_identical_after_reload(self, tiny_corpus, tmp_path):
        # Every transform chunks; a reloaded model's rows are bit-identical.
        cfg = GemConfig.fast(n_components=6, n_init=1)
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny_corpus)
        original = gem.transform(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert len(restored._signature_cache) == 0  # cache is transient
        assert np.array_equal(restored.transform(tiny_corpus), original)

    def test_fit_engine_knobs_survive(self, tiny_corpus, tmp_path):
        cfg = GemConfig.fast(
            n_components=6,
            n_init=1,
            tol=1e-4,
            covariance_floor=1e-5,
            gmm_init="kmeans",
        )
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        restored = load_gem(path)
        assert restored.config == cfg
        # The reconstructed mixture carries the training profile too.
        assert restored.gmm_.tol == cfg.tol
        assert restored.gmm_.reg_covar == cfg.covariance_floor
        assert restored.gmm_.init == cfg.gmm_init

    def test_retired_serve_keys_load_silently(self):
        # Archives and manifests written while serving policy, index
        # settings, the removed fit switches and the transform's chunk size
        # and cache switch lived on GemConfig carry these keys; they load
        # without a warning, while any other unknown key still warns.
        retired = dict(
            batch_size=4096,
            cache_signatures=False,
            fit_engine="serial",
            warm_start_bic=True,
            n_workers=3,
            fit_batch_size=1024,
            serve_batch_window_ms=7.5,
            serve_max_batch=32,
            serve_max_workers=4,
            serve_deadline_ms=10_000.0,
            serve_max_pending=256,
            serve_degrade_pending=64,
            serve_degrade_latency_ms=None,
            index_backend="ivf",
            index_block_size=512,
            index_n_lists=16,
            index_n_probe=4,
            index_dtype="float32",
            index_pq_subvectors=4,
            index_pq_codes=64,
            index_pq_rerank=20,
        )
        cfg_dict = {**FAST.to_manifest_dict(), **retired}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert GemConfig.from_manifest_dict(cfg_dict) == FAST
        with pytest.warns(RuntimeWarning, match="serve_typo"):
            assert GemConfig.from_manifest_dict({**cfg_dict, "serve_typo": 1}) == FAST

    def test_legacy_archive_without_batching_fields_loads(self, tiny_corpus, tmp_path):
        import json

        gem = GemEmbedder(config=FAST)
        gem.fit(tiny_corpus)
        path = tmp_path / "gem.npz"
        save_gem(gem, path)
        # Rewrite the embedded config as an older version would have
        # written it: no BIC candidates, the retired transform chunk size
        # and cache switch, plus a key this version never had.
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        cfg_dict = json.loads(bytes(arrays["config_json"]).decode("utf-8"))
        cfg_dict.pop("bic_candidates")
        cfg_dict["batch_size"] = None
        cfg_dict["cache_signatures"] = True
        cfg_dict["retired_future_knob"] = 42
        arrays["config_json"] = np.frombuffer(json.dumps(cfg_dict).encode("utf-8"), dtype=np.uint8)
        # Re-sign the edited payload: read_archive refuses an archive whose
        # checksum is stale or missing, and this test is about the config.
        arrays.pop("__checksum__")
        arrays["__checksum__"] = json_to_array(archive_checksum(arrays))
        np.savez(path, **arrays)
        with pytest.warns(RuntimeWarning, match="retired_future_knob") as caught:
            restored = load_gem(path)
        assert all("batch_size" not in str(w.message) for w in caught)
        assert all("cache_signatures" not in str(w.message) for w in caught)
        assert restored.config.bic_candidates == GemConfig().bic_candidates
        assert np.allclose(restored.transform(tiny_corpus), gem.transform(tiny_corpus))


class TestValidation:
    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            save_gem(GemEmbedder(), tmp_path / "nope.npz")
