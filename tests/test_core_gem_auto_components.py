"""Tests for BIC-based automatic component selection (paper §4.1.4)."""

import pytest

from repro.core import GemConfig, GemEmbedder
from repro.data.table import ColumnCorpus, NumericColumn


@pytest.fixture
def three_mode_corpus(rng):
    cols = []
    for i, mu in enumerate((0.0, 50.0, 100.0)):
        for j in range(3):
            cols.append(NumericColumn(f"c{i}{j}", rng.normal(mu, 1.0, 80), f"t{i}", f"t{i}"))
    return ColumnCorpus(cols)


class TestAutoComponents:
    def test_bic_picks_small_m_for_three_modes(self, three_mode_corpus):
        cfg = GemConfig.fast(auto_components=True, bic_candidates=(3, 30), n_init=1)
        gem = GemEmbedder(config=cfg)
        gem.fit(three_mode_corpus)
        assert gem.gmm_.n_components == 3
        scores = gem.selection_report_.scores
        assert set(scores) == {3, 30}
        assert scores[3] < scores[30]

    def test_infeasible_candidates_fall_back_to_default(self, rng):
        tiny = ColumnCorpus(
            [NumericColumn("a", rng.normal(size=4)), NumericColumn("b", rng.normal(size=4))]
        )
        cfg = GemConfig.fast(n_components=2, auto_components=True, bic_candidates=(1000,), n_init=1)
        gem = GemEmbedder(config=cfg)
        gem.fit(tiny)
        assert gem.gmm_.n_components == 2
        assert gem.selection_report_ is None

    def test_refit_drops_previous_report(self, three_mode_corpus, rng):
        # A refit whose sweep has no feasible candidate must not keep the
        # previous fit's report.
        cfg = GemConfig.fast(
            n_components=2, auto_components=True, bic_candidates=(30, 50), n_init=1
        )
        gem = GemEmbedder(config=cfg).fit(three_mode_corpus)
        assert gem.selection_report_.best == 30
        tiny = ColumnCorpus(
            [NumericColumn("a", rng.normal(size=4)), NumericColumn("b", rng.normal(size=4))]
        )
        gem.fit(tiny)
        assert gem.gmm_.n_components == 2
        assert gem.selection_report_ is None

    def test_embeddings_follow_selected_width(self, three_mode_corpus):
        cfg = GemConfig.fast(auto_components=True, bic_candidates=(3, 30), n_init=1)
        gem = GemEmbedder(config=cfg)
        emb = gem.fit_transform(three_mode_corpus)
        assert emb.shape == (9, 3 + 7)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="bic_candidates"):
            GemConfig(auto_components=True, bic_candidates=())

    def test_off_by_default(self):
        assert GemConfig().auto_components is False

    def test_selection_report_exposed(self, three_mode_corpus):
        cfg = GemConfig.fast(auto_components=True, bic_candidates=(3, 30), n_init=1)
        gem = GemEmbedder(config=cfg).fit(three_mode_corpus)
        report = gem.selection_report_
        assert report is not None
        assert report.best == 3
        assert set(report.scores) == set(report.n_iter) == set(report.converged) == {3, 30}

    def test_sweep_uses_configured_gmm_init(self, three_mode_corpus, monkeypatch):
        # The sweep must seed candidates the same way as the final fit.
        import repro.core.gem as gem_module

        seen: dict[str, object] = {}
        real = gem_module.select_n_components_bic

        def spy(X, **kwargs):
            seen.update(kwargs)
            return real(X, **kwargs)

        monkeypatch.setattr(gem_module, "select_n_components_bic", spy)
        cfg = GemConfig.fast(
            auto_components=True, bic_candidates=(3,), n_init=1, gmm_init="quantile"
        )
        GemEmbedder(config=cfg).fit(three_mode_corpus)
        assert seen["init"] == "quantile"


class TestPerColumnAutoComponentsWarning:
    def test_warns_when_flag_is_silently_ignored(self, three_mode_corpus):
        cfg = GemConfig.fast(auto_components=True, fit_mode="per_column", n_components=3, n_init=1)
        gem = GemEmbedder(config=cfg)
        with pytest.warns(RuntimeWarning, match="auto_components"):
            gem.fit(three_mode_corpus)
        assert gem.gmm_ is None

    def test_no_warning_in_stacked_mode(self, three_mode_corpus, recwarn):
        cfg = GemConfig.fast(auto_components=True, bic_candidates=(3,), n_init=1)
        GemEmbedder(config=cfg).fit(three_mode_corpus)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
