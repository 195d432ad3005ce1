"""Tests for the from-scratch GaussianMixture: EM correctness, stability,
model selection and the paper's usage patterns."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmm import FitPlan, GaussianMixture, select_n_components_bic


@pytest.fixture
def bimodal(rng):
    return np.concatenate([rng.normal(0, 1, 400), rng.normal(10, 0.5, 200)])


class TestFit:
    def test_recovers_two_well_separated_modes(self, bimodal):
        gm = GaussianMixture(2, n_init=3, random_state=0).fit(bimodal)
        means = np.sort(gm.means_.ravel())
        assert abs(means[0] - 0.0) < 0.3
        assert abs(means[1] - 10.0) < 0.3

    def test_recovers_mixing_weights(self, bimodal):
        gm = GaussianMixture(2, n_init=3, random_state=0).fit(bimodal)
        weights = np.sort(gm.weights_)
        assert abs(weights[0] - 1 / 3) < 0.05
        assert abs(weights[1] - 2 / 3) < 0.05

    def test_weights_sum_to_one(self, bimodal):
        gm = GaussianMixture(5, random_state=0).fit(bimodal)
        assert np.isclose(gm.weights_.sum(), 1.0)

    def test_covariances_positive(self, bimodal):
        gm = GaussianMixture(5, random_state=0).fit(bimodal)
        assert np.all(gm.covariances_[:, 0, 0] > 0)

    def test_likelihood_improves_with_components(self, bimodal):
        X = bimodal.reshape(-1, 1)
        ll1 = GaussianMixture(1, random_state=0).fit(X).score_samples(X).mean()
        ll2 = GaussianMixture(2, n_init=3, random_state=0).fit(X).score_samples(X).mean()
        assert ll2 > ll1

    def test_n_init_restarts_do_not_hurt(self, bimodal):
        single = GaussianMixture(3, n_init=1, random_state=1).fit(bimodal)
        multi = GaussianMixture(3, n_init=5, random_state=1).fit(bimodal)
        assert multi.lower_bound_ >= single.lower_bound_ - 1e-9

    def test_more_components_than_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            GaussianMixture(10).fit(np.arange(5.0))

    @pytest.mark.parametrize("init", ["kmeans", "random", "quantile"])
    def test_all_init_strategies_converge(self, bimodal, init):
        gm = GaussianMixture(2, init=init, n_init=2, max_iter=300, random_state=0).fit(bimodal)
        assert gm.converged_
        assert np.isclose(gm.weights_.sum(), 1.0)

    @pytest.mark.parametrize("init", ["kmeans", "quantile"])
    def test_informed_inits_recover_modes(self, bimodal, init):
        # Random-responsibility starts are symmetric and may not split the
        # modes in few restarts; the informed inits must.
        gm = GaussianMixture(2, init=init, n_init=2, max_iter=300, random_state=0).fit(bimodal)
        means = np.sort(gm.means_.ravel())
        assert abs(means[1] - 10.0) < 1.0

    def test_quantile_init_rejects_multivariate(self, rng):
        gm = GaussianMixture(2, init="quantile", random_state=0)
        with pytest.raises(ValueError, match="1-D"):
            gm.fit(rng.normal(size=(50, 2)))

    def test_quantile_init_covers_dense_region(self, rng):
        # Heavy tail: most components should still sit in the dense band.
        dense = rng.normal(10, 2, 2000)
        tail = rng.lognormal(8, 1, 100)
        X = np.concatenate([dense, tail])
        gm = GaussianMixture(20, init="quantile", n_init=1, random_state=0).fit(X)
        means = gm.means_.ravel()
        assert np.sum(means < 50) >= 10


class TestInference:
    def test_responsibilities_rows_sum_to_one(self, bimodal):
        gm = GaussianMixture(3, random_state=0).fit(bimodal)
        resp = gm.predict_proba(bimodal.reshape(-1, 1))
        assert np.allclose(resp.sum(axis=1), 1.0)
        assert np.all((resp >= 0) & (resp <= 1))

    def test_hard_assignment_separates_modes(self, bimodal):
        gm = GaussianMixture(2, n_init=3, random_state=0).fit(bimodal)
        labels = np.argmax(gm.predict_proba(bimodal.reshape(-1, 1)), axis=1)
        low = labels[bimodal < 5]
        high = labels[bimodal > 5]
        assert len(np.unique(low)) == 1 and len(np.unique(high)) == 1
        assert low[0] != high[0]

    def test_component_pdf_positive(self, bimodal):
        gm = GaussianMixture(2, random_state=0).fit(bimodal)
        dens = gm.component_pdf(bimodal.reshape(-1, 1))
        assert dens.shape == (bimodal.size, 2)
        assert np.all(dens >= 0)

    def test_score_samples_integrates_consistently(self, bimodal):
        gm = GaussianMixture(2, random_state=0).fit(bimodal)
        grid = np.linspace(bimodal.min() - 5, bimodal.max() + 5, 4000).reshape(-1, 1)
        density = np.exp(gm.score_samples(grid))
        integral = np.trapezoid(density.ravel(), grid.ravel())
        assert abs(integral - 1.0) < 0.01

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GaussianMixture(2).predict_proba(np.zeros((2, 1)))


def _two_exp_e_step(gm, X):
    """Reference oracle: the former inference E-step, kept test-local.

    Log densities, a guarded log-sum-exp, then a second ``exp`` to turn
    log responsibilities into responsibilities. Returns (responsibilities,
    log marginal likelihoods, component densities).
    """
    tiny = np.finfo(float).tiny
    var = np.maximum(gm.covariances_[:, 0, 0], tiny)
    diff = X[:, 0][:, None] - gm.means_[:, 0][None, :]
    log_2pi = float(np.log(2.0 * np.pi))
    with np.errstate(over="ignore"):
        log_pdf = -0.5 * (log_2pi + np.log(var)[None, :] + diff**2 / var[None, :])
    weighted = log_pdf + np.log(np.maximum(gm.weights_, tiny))
    amax = np.max(weighted, axis=1, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    weighted -= amax
    sumexp = np.sum(np.exp(weighted), axis=1, keepdims=True)
    degenerate = ~(sumexp[:, 0] > 0)
    weighted[degenerate, :] = 0.0
    sumexp[degenerate] = float(weighted.shape[1])
    log_sum = np.log(sumexp)
    log_norm = (log_sum + amax).ravel()
    log_norm[degenerate] = -np.inf
    return np.exp(weighted - log_sum), log_norm, np.exp(log_pdf)


class TestSharedEStep:
    """Inference runs the fit's E-step kernel (one ``exp`` pass); the former
    two-``exp`` inference E-step is the oracle it must agree with."""

    @pytest.fixture(scope="class")
    def scored(self):
        rng = np.random.default_rng(21)
        stack = np.concatenate(
            [rng.normal(0, 1, 500), rng.normal(15, 3, 400), rng.lognormal(3, 1, 300)]
        )
        gm = GaussianMixture(12, n_init=2, random_state=0).fit(stack)
        X = np.concatenate([[1e200, -1e200], rng.choice(stack, 3000), [-40.0, 1e4]])
        X = X.reshape(-1, 1)
        return gm, X, _two_exp_e_step(gm, X)

    def test_predict_proba_within_ulps_of_oracle(self, scored):
        gm, X, (resp, _, _) = scored
        got = gm.predict_proba(X)
        assert np.max(np.abs(got - resp)) <= 4e-16
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-15, rtol=0)

    def test_score_samples_bitwise_equal_to_oracle(self, scored):
        gm, X, (_, log_norm, _) = scored
        assert np.array_equal(gm.score_samples(X), log_norm)

    def test_component_pdf_bitwise_equal_to_oracle(self, scored):
        gm, X, (_, _, pdf) = scored
        assert np.array_equal(gm.component_pdf(X), pdf)

    def test_far_outliers_get_exactly_uniform_rows(self, scored):
        gm, X, _ = scored
        resp = gm.predict_proba(X[:2])
        assert np.all(resp == 1.0 / gm.n_components)


class TestChunkedInference:
    """Inference is row-wise: scoring a slice of the rows equals slicing the
    scores of all rows, bit for bit. The transform's column chunks
    (``repro.core.signature.column_chunks``) rely on it to bound memory."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(7)
        stack = np.concatenate([rng.normal(0, 1, 400), rng.normal(12, 2, 300)])
        return GaussianMixture(3, n_init=2, random_state=0).fit(stack), stack.reshape(-1, 1)

    @staticmethod
    def assert_slices_match(score, X, batch_size):
        full = score(X)
        for start in range(0, X.shape[0], batch_size):
            rows = slice(start, start + batch_size)
            assert np.array_equal(score(X[rows]), full[rows])

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 699, 700, 10_000])
    def test_predict_proba_chunked_identical(self, fitted, batch_size):
        gm, X = fitted
        self.assert_slices_match(gm.predict_proba, X, batch_size)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_score_samples_chunked_identical(self, fitted, batch_size):
        gm, X = fitted
        self.assert_slices_match(gm.score_samples, X, batch_size)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_component_pdf_chunked_identical(self, fitted, batch_size):
        gm, X = fitted
        self.assert_slices_match(gm.component_pdf, X, batch_size)

    @pytest.mark.parametrize("method", ["predict_proba", "score_samples", "component_pdf"])
    def test_calls_longer_than_one_scoring_piece(self, fitted, method):
        # Inference runs FitPlan.DEFAULT_BATCH rows at a time; slices that
        # straddle its piece boundaries still match, bit for bit.
        gm, _ = fitted
        long = np.random.default_rng(11).normal(5, 6, (2 * FitPlan.DEFAULT_BATCH + 5, 1))
        self.assert_slices_match(getattr(gm, method), long, 1000)

    @pytest.mark.parametrize("method", ["predict_proba", "component_pdf"])
    def test_scratch_is_one_piece(self, method):
        # Beyond the returned (n, m) array, a call holds one
        # (DEFAULT_BATCH, 1, m) scratch piece and O(DEFAULT_BATCH) vectors,
        # never a second (n, 1, m) buffer.
        rng = np.random.default_rng(3)
        gm = GaussianMixture(12, n_init=1, random_state=0).fit(rng.normal(0, 5, 2000))
        X = rng.normal(0, 5, (20_000, 1))
        piece = FitPlan.DEFAULT_BATCH * gm.n_components * 8
        tracemalloc.start()
        try:
            out = getattr(gm, method)(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 3 * piece


class TestExtremeOutliers:
    """Regression: a value whose every component log-density underflows to
    -inf must not yield NaN responsibilities (the in-place E-step previously
    lacked its amax guard)."""

    @pytest.fixture(scope="class")
    def fitted(self, bimodal_class):
        return GaussianMixture(2, n_init=2, random_state=0).fit(bimodal_class)

    @pytest.fixture(scope="class")
    def bimodal_class(self):
        rng = np.random.default_rng(12345)
        return np.concatenate([rng.normal(0, 1, 400), rng.normal(10, 0.5, 200)])

    def test_far_outlier_responsibilities_finite(self, fitted):
        X = np.array([[1e200], [0.0], [-1e300]])
        resp = fitted.predict_proba(X)
        assert np.all(np.isfinite(resp))
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_far_outlier_uniform_fallback(self, fitted):
        resp = fitted.predict_proba(np.array([[1e200]]))
        assert np.allclose(resp, 0.5)

    def test_far_outlier_loglik_is_neg_inf(self, fitted):
        log_norm = fitted.score_samples(np.array([[1e200], [0.0]]))
        assert log_norm[0] == -np.inf
        assert np.isfinite(log_norm[1])

    def test_moderate_values_unaffected_by_guard(self, fitted, bimodal_class):
        X = bimodal_class.reshape(-1, 1)
        resp = fitted.predict_proba(X)
        assert np.all(np.isfinite(resp))
        assert np.allclose(resp.sum(axis=1), 1.0)


class TestModelSelection:
    def test_bic_prefers_true_component_count(self, bimodal):
        report = select_n_components_bic(bimodal, candidates=(1, 2, 6), n_init=2, random_state=0)
        assert report.best == 2
        assert report.scores[2] < report.scores[1]

    def test_infeasible_candidates_skipped(self):
        X = np.arange(8.0)
        report = select_n_components_bic(X, candidates=(2, 100), random_state=0)
        assert report.best == 2 and 100 not in report.scores

    def test_all_infeasible_raises(self):
        with pytest.raises(ValueError, match="feasible"):
            select_n_components_bic(np.arange(3.0), candidates=(50,))


class TestValidation:
    def test_bad_init_name(self):
        with pytest.raises(ValueError, match="init"):
            GaussianMixture(2, init="bogus")

    def test_negative_reg_covar(self):
        with pytest.raises(ValueError, match="reg_covar"):
            GaussianMixture(2, reg_covar=-1.0)

    @pytest.mark.parametrize("reg_covar", [float("nan"), float("inf")])
    def test_non_finite_reg_covar(self, reg_covar):
        with pytest.raises(ValueError, match="reg_covar"):
            GaussianMixture(2, reg_covar=reg_covar)

    def test_zero_components(self):
        with pytest.raises(ValueError):
            GaussianMixture(0)


class TestPropertyBased:
    @given(
        seed=st.integers(0, 50),
        n=st.integers(20, 120),
        m=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_fit_yields_valid_mixture(self, seed, n, m):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=n) * np.exp(rng.normal(0, 1))
        gm = GaussianMixture(m, n_init=1, max_iter=50, random_state=seed).fit(X)
        assert np.isclose(gm.weights_.sum(), 1.0)
        assert np.all(gm.weights_ >= 0)
        assert np.all(gm.covariances_[:, 0, 0] > 0)
        resp = gm.predict_proba(X.reshape(-1, 1))
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-8)
