"""Tests for the restart-vectorized streaming fit engine and the
warm-started BIC sweep.

The engine's two contracts are checked exactly as specified:

* the batched engine picks the same winning restart as the serial loop —
  same ``lower_bound_``, ``weights_``, ``means_``, ``covariances_`` within
  1e-10 — for ``n_init`` in {1, 4, 10} on fixed seeds (in practice the two
  paths are bit-identical: they share seeding and a block-gridded
  reduction tree);
* a chunked-E-step fit matches the unchunked fit **bit-for-bit** for any
  ``fit_batch_size`` (reductions run on a fixed block grid, so the
  summation tree never depends on the chunking).

Both run on a continuous stack and on a duplicate-heavy one, because the
engine scores each distinct value once, weighted by its multiplicity; a
test-local EM over every raw sample is the oracle for that folding.
"""

import itertools

import numpy as np
import pytest

from repro.gmm import (
    FitPlan,
    GaussianMixture,
    SelectionReport,
    seed_restarts_1d,
    select_n_components_bic,
    split_components,
)
from repro.utils.rng import spawn_seeds


@pytest.fixture(scope="module")
def trimodal():
    rng = np.random.default_rng(42)
    return np.concatenate(
        [rng.normal(0, 1, 1500), rng.normal(12, 0.7, 900), rng.normal(30, 3, 600)]
    )


@pytest.fixture(scope="module")
def stacks(trimodal):
    """The continuous stack, where almost nothing repeats, and two
    duplicate-heavy roundings of it: integers (32 distinct values among
    3000, inside one ``REDUCE_BLOCK``) and hundredths (about 1.2k distinct
    values, so the distinct-value grid spans several blocks)."""
    return {
        "continuous": trimodal,
        "repeated": np.round(trimodal),
        "hundredths": np.round(trimodal, 2),
    }


def _on_both_stacks(*cases):
    """Each case on the continuous stack under its plain id, then on the
    duplicate-heavy stack under ``repeated-<id>``."""
    params = []
    for stack in ("continuous", "repeated"):
        for case in cases:
            ids = [str(v) for v in case]
            if stack != "continuous":
                ids.insert(0, stack)
            params.append(pytest.param(stack, *case, id="-".join(ids)))
    return params


_LOG_2PI = float(np.log(2.0 * np.pi))


def _raw_sample_em(x, weights, means, variances, *, tol, max_iter, reg_covar):
    """Reference EM over every raw sample: no folding of repeats, no
    chunking, no restart stacking.

    E-step: log-sum-exp, with the uniform posterior for a sample whose every
    component underflows. M-step: Eqs. 3-5, with variances floored at
    ``reg_covar``. Stops once the mean log-likelihood moves less than
    ``tol``. Returns ``(weights, means, variances, lower_bound, n_iter,
    converged)``.
    """
    tiny = np.finfo(float).tiny
    n, m = x.size, weights.size
    bound = -np.inf
    for it in range(1, max_iter + 1):
        var = np.maximum(variances, tiny)
        logp = np.log(np.maximum(weights, tiny)) - 0.5 * (
            _LOG_2PI + np.log(var) + (x[:, None] - means) ** 2 / var
        )
        amax = logp.max(axis=1, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        p = np.exp(logp - amax)
        s = p.sum(axis=1, keepdims=True)
        degenerate = ~(s[:, 0] > 0)
        p[degenerate] = 1.0
        s[degenerate] = m
        log_norm = np.log(s[:, 0]) + amax[:, 0]
        log_norm[degenerate] = -np.inf
        resp = p / s
        nk = resp.sum(axis=0) + 10 * tiny
        weights = nk / n
        means = resp.T @ x / nk
        variances = (resp * (x[:, None] - means) ** 2).sum(axis=0) / nk + reg_covar
        variances = np.maximum(variances, max(reg_covar, tiny))
        new_bound = float(log_norm.mean())
        if abs(new_bound - bound) < tol:
            return weights, means, variances, new_bound, it, True
        bound = new_bound
    return weights, means, variances, bound, max_iter, False


def _quantile_start(x, m):
    """A deterministic warm start: equal weights, quantile means, pooled variance."""
    return np.full(m, 1.0 / m), np.quantile(x, (np.arange(m) + 0.5) / m), np.full(m, x.var())


def _assert_matches_oracle(x, gm, start):
    w, mu, var, bound, n_iter, converged = _raw_sample_em(
        x, *start, tol=gm.tol, max_iter=gm.max_iter, reg_covar=gm.reg_covar
    )
    assert gm.n_iter_ == n_iter
    assert gm.converged_ == converged
    np.testing.assert_allclose(gm.lower_bound_, bound, rtol=1e-9, atol=0)
    np.testing.assert_allclose(gm.weights_, w, rtol=1e-9, atol=0)
    np.testing.assert_allclose(gm.means_[:, 0], mu, rtol=1e-9, atol=0)
    np.testing.assert_allclose(gm.covariances_[:, 0, 0], var, rtol=1e-9, atol=0)


class TestFitPlan:
    def test_chunks_align_to_reduce_block(self):
        plan = FitPlan(100_000, 3000)
        assert plan.effective_batch_size % FitPlan.REDUCE_BLOCK == 0
        starts = [s.start for s in plan]
        assert all(start % FitPlan.REDUCE_BLOCK == 0 for start in starts)

    def test_none_resolves_to_default_batch(self):
        assert FitPlan(100_000, None).effective_batch_size == FitPlan.DEFAULT_BATCH

    def test_small_batch_rounds_up_to_one_block(self):
        assert FitPlan(100_000, 10).effective_batch_size == FitPlan.REDUCE_BLOCK

    def test_small_corpus_single_chunk(self):
        assert list(FitPlan(100, None)) == [slice(0, 100)]

    def test_oversized_batch_covers_corpus_in_one_chunk(self):
        assert list(FitPlan(5000, 10**9)) == [slice(0, 5000)]

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            FitPlan(10, 0)


class TestEngineEquivalence:
    """Satellite: batched-restart EM equals the serial restart loop."""

    @pytest.mark.parametrize(
        "stack, init, n_init",
        _on_both_stacks(*itertools.product(["quantile", "kmeans", "random"], [1, 4, 10])),
    )
    def test_batched_matches_serial(self, stacks, stack, init, n_init):
        x = stacks[stack]
        serial = GaussianMixture(
            6, n_init=n_init, init=init, fit_engine="serial", random_state=7
        ).fit(x)
        batched = GaussianMixture(
            6, n_init=n_init, init=init, fit_engine="batched", random_state=7
        ).fit(x)
        assert abs(serial.lower_bound_ - batched.lower_bound_) <= 1e-10
        assert np.allclose(serial.weights_, batched.weights_, atol=1e-10, rtol=0)
        assert np.allclose(serial.means_, batched.means_, atol=1e-10, rtol=0)
        assert np.allclose(serial.covariances_, batched.covariances_, atol=1e-10, rtol=0)
        assert serial.n_iter_ == batched.n_iter_
        assert serial.converged_ == batched.converged_

    def test_auto_uses_batched_for_1d(self, trimodal):
        auto = GaussianMixture(4, n_init=3, random_state=0).fit(trimodal)
        batched = GaussianMixture(4, n_init=3, fit_engine="batched", random_state=0).fit(trimodal)
        assert auto.lower_bound_ == batched.lower_bound_
        assert np.array_equal(auto.means_, batched.means_)

    def test_batched_rejects_multivariate(self, rng):
        X = rng.normal(size=(60, 2))
        gm = GaussianMixture(2, fit_engine="batched", random_state=0)
        with pytest.raises(ValueError, match="1-D"):
            gm.fit(X)

    def test_auto_falls_back_for_multivariate(self, rng):
        X = np.vstack([rng.normal(0, 1, (100, 2)), rng.normal(8, 1, (100, 2))])
        gm = GaussianMixture(2, n_init=2, random_state=0).fit(X)
        assert gm.converged_
        assert np.isclose(gm.weights_.sum(), 1.0)

    def test_bad_engine_name_rejected(self):
        with pytest.raises(ValueError, match="fit_engine"):
            GaussianMixture(2, fit_engine="bogus")

    def test_bad_fit_batch_size_rejected(self):
        with pytest.raises(ValueError, match="fit_batch_size"):
            GaussianMixture(2, fit_batch_size=0)


class TestChunkedFitBitForBit:
    """Satellite: chunked-E-step fit == unchunked fit, bit for bit."""

    @pytest.mark.parametrize(
        "stack, batch_size",
        _on_both_stacks(*[(b,) for b in [100, 512, 1024, 2048, 3500, 10**9]]),
    )
    def test_every_batch_size_identical(self, stacks, stack, batch_size):
        x = stacks[stack]
        ref = GaussianMixture(
            5, n_init=3, fit_engine="batched", fit_batch_size=None, random_state=3
        ).fit(x)
        alt = GaussianMixture(
            5, n_init=3, fit_engine="batched", fit_batch_size=batch_size, random_state=3
        ).fit(x)
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.weights_, alt.weights_)
        assert np.array_equal(ref.means_, alt.means_)
        assert np.array_equal(ref.covariances_, alt.covariances_)
        assert ref.n_iter_ == alt.n_iter_

    def test_serial_engine_chunking_identical_too(self, trimodal):
        ref = GaussianMixture(
            4, n_init=2, fit_engine="serial", fit_batch_size=None, random_state=5
        ).fit(trimodal)
        alt = GaussianMixture(
            4, n_init=2, fit_engine="serial", fit_batch_size=512, random_state=5
        ).fit(trimodal)
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.means_, alt.means_)


class TestDistinctValueEM:
    """The engine folds repeats into per-value weights; the raw-sample EM
    is the oracle for that folding."""

    @pytest.mark.parametrize("stack", ["continuous", "repeated", "hundredths"])
    @pytest.mark.parametrize("fit_batch_size", [512, None])
    def test_fit_from_matches_raw_sample_oracle(self, stacks, stack, fit_batch_size):
        x = stacks[stack]
        w, mu, var = _quantile_start(x, 6)
        gm = GaussianMixture(6, tol=1e-6, fit_batch_size=fit_batch_size)
        gm.fit_from(x, w, mu, var.reshape(-1, 1, 1))
        _assert_matches_oracle(x, gm, (w, mu, var))

    @pytest.mark.parametrize("stack", ["continuous", "repeated", "hundredths"])
    def test_seeded_fit_matches_raw_sample_oracle(self, stacks, stack):
        """``fit`` from its seeded centres: the hard-assignment initial M-step
        over raw samples, then the oracle EM."""
        x = stacks[stack]
        centers = seed_restarts_1d(x, 6, spawn_seeds(0, 1), "quantile")[0]
        resp = np.eye(6)[np.argmin((x[:, None] - centers) ** 2, axis=1)]
        nk = resp.sum(axis=0) + 10 * np.finfo(float).tiny
        means = resp.T @ x / nk
        gm = GaussianMixture(6, tol=1e-6, init="quantile", fit_batch_size=512, random_state=0)
        gm.fit(x)
        variances = (resp * (x[:, None] - means) ** 2).sum(axis=0) / nk + gm.reg_covar
        _assert_matches_oracle(x, gm, (nk / x.size, means, variances))

    @pytest.mark.parametrize("stack", ["continuous", "repeated", "hundredths"])
    def test_fit_from_order_invariant(self, stacks, stack):
        x = stacks[stack]
        shuffled = np.random.default_rng(0).permutation(x)
        w, mu, var = _quantile_start(x, 6)
        ref = GaussianMixture(6, tol=1e-6).fit_from(x, w, mu, var.reshape(-1, 1, 1))
        alt = GaussianMixture(6, tol=1e-6).fit_from(shuffled, w, mu, var.reshape(-1, 1, 1))
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.weights_, alt.weights_)
        assert np.array_equal(ref.means_, alt.means_)
        assert np.array_equal(ref.covariances_, alt.covariances_)
        assert ref.n_iter_ == alt.n_iter_

    def test_fewer_distinct_values_than_components(self):
        x = np.random.default_rng(1).permutation(np.repeat([1.0, 2.0, 5.0, 9.0], [50, 30, 15, 5]))
        w, mu, var = _quantile_start(x, 6)
        gm = GaussianMixture(6).fit_from(x, w, mu, var.reshape(-1, 1, 1))
        _assert_matches_oracle(x, gm, (w, mu, var))
        for init in ("quantile", "kmeans", "random"):
            fitted = GaussianMixture(6, n_init=3, init=init, random_state=0).fit(x)
            params = (fitted.weights_, fitted.means_, fitted.covariances_, fitted.lower_bound_)
            assert all(np.all(np.isfinite(p)) for p in params), init
            assert np.isclose(fitted.weights_.sum(), 1.0)


class TestSeedRestarts:
    def test_shapes_and_determinism(self, trimodal):
        centers = seed_restarts_1d(trimodal, 5, [1, 2, 3], "quantile")
        again = seed_restarts_1d(trimodal, 5, [1, 2, 3], "quantile")
        assert centers.shape == (3, 5)
        assert np.all(np.isfinite(centers))
        assert np.array_equal(centers, again)

    def test_restart_centres_independent_of_cobatching(self, trimodal):
        one = seed_restarts_1d(trimodal, 4, [9], "kmeans")
        stacked = seed_restarts_1d(trimodal, 4, [7, 9, 11], "kmeans")
        assert np.array_equal(stacked[1], one[0])

    def test_centres_independent_of_batch_size(self, trimodal):
        coarse = seed_restarts_1d(trimodal, 4, [1, 2], "kmeans", batch_size=None)
        fine = seed_restarts_1d(trimodal, 4, [1, 2], "kmeans", batch_size=512)
        assert np.array_equal(coarse, fine)

    def test_kmeans_seeding_covers_all_components(self, trimodal):
        centers = seed_restarts_1d(trimodal, 4, [0], "kmeans")
        labels = np.argmin(np.abs(trimodal[:, None] - centers[0][None, :]), axis=1)
        assert set(np.unique(labels)) == {0, 1, 2, 3}

    def test_random_init_rejected(self, trimodal):
        with pytest.raises(ValueError, match="init"):
            seed_restarts_1d(trimodal, 3, [0], "random")

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            seed_restarts_1d(np.arange(3.0), 5, [0], "quantile")


class TestWarmStartFit:
    def test_fit_from_refines_split_parameters(self, trimodal):
        base = GaussianMixture(3, n_init=2, random_state=0).fit(trimodal)
        w, mu, cov = split_components(base.weights_, base.means_, base.covariances_, 5)
        warm = GaussianMixture(5, random_state=0).fit_from(trimodal, w, mu, cov)
        assert warm.converged_
        assert np.isclose(warm.weights_.sum(), 1.0)
        # More components refining a converged base cannot do worse (up to
        # the EM stopping slack: both bounds under-report by at most tol).
        assert warm.lower_bound_ >= base.lower_bound_ - base.tol

    def test_fit_from_rejects_mismatched_shapes(self, trimodal):
        base = GaussianMixture(3, n_init=1, random_state=0).fit(trimodal)
        gm = GaussianMixture(5, random_state=0)
        with pytest.raises(ValueError, match="n_components"):
            gm.fit_from(trimodal, base.weights_, base.means_, base.covariances_)

    def test_fit_from_multivariate(self, rng):
        X = np.vstack([rng.normal(0, 1, (150, 2)), rng.normal(8, 1, (150, 2))])
        base = GaussianMixture(2, n_init=2, random_state=0).fit(X)
        w, mu, cov = split_components(base.weights_, base.means_, base.covariances_, 3)
        warm = GaussianMixture(3, random_state=0).fit_from(X, w, mu, cov)
        assert np.isclose(warm.weights_.sum(), 1.0)
        assert warm.covariances_.shape == (3, 2, 2)


class TestSplitComponents:
    def test_grows_to_target_preserving_mass_and_mean(self, trimodal):
        base = GaussianMixture(3, n_init=1, random_state=0).fit(trimodal)
        w, mu, cov = split_components(base.weights_, base.means_, base.covariances_, 7)
        assert w.shape == (7,) and mu.shape == (7, 1) and cov.shape == (7, 1, 1)
        assert np.isclose(w.sum(), base.weights_.sum())
        # mu +/- 0.5 sigma with halved weights preserves the first moment.
        assert np.isclose((w[:, None] * mu).sum(), (base.weights_[:, None] * base.means_).sum())

    def test_splits_heaviest_component_first(self):
        w = np.array([0.7, 0.3])
        mu = np.array([[0.0], [10.0]])
        cov = np.array([[[4.0]], [[1.0]]])
        w2, mu2, cov2 = split_components(w, mu, cov, 3)
        # The 0.7 parent splits into two 0.35 children at 0 +/- 1.
        assert np.isclose(sorted(w2)[-1], 0.35)
        assert {round(float(m), 6) for m in mu2.ravel()} == {-1.0, 1.0, 10.0}
        assert np.allclose(cov2[[0, 2]], 4.0)

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError, match="n_target"):
            split_components(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1)), 1)


class TestWarmStartedSweep:
    def test_warm_sweep_picks_true_count(self, trimodal):
        report = select_n_components_bic(
            trimodal, candidates=(2, 3, 6), warm_start=True, random_state=0
        )
        assert isinstance(report, SelectionReport)
        assert report.best == 3
        assert report.warm_started is True
        assert set(report.scores) == {2, 3, 6}
        assert set(report.n_iter) == set(report.converged) == {2, 3, 6}
        assert report.subsample_size == trimodal.size

    def test_cold_and_warm_agree_on_clear_structure(self, trimodal):
        cold = select_n_components_bic(
            trimodal, candidates=(1, 3), warm_start=False, random_state=0
        )
        warm = select_n_components_bic(trimodal, candidates=(1, 3), warm_start=True, random_state=0)
        assert cold.best == warm.best == 3
        assert cold.warm_started is False

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_parallel_sweep_deterministic(self, trimodal, warm_start):
        kwargs = dict(candidates=(2, 3, 5), warm_start=warm_start, random_state=1)
        serial = select_n_components_bic(trimodal, n_workers=1, **kwargs)
        threaded = select_n_components_bic(trimodal, n_workers=4, **kwargs)
        assert serial.scores == threaded.scores
        assert serial.best == threaded.best

    def test_generator_random_state_deterministic(self, trimodal):
        def run(n_workers):
            return select_n_components_bic(
                trimodal,
                candidates=(2, 4),
                n_workers=n_workers,
                random_state=np.random.default_rng(3),
            )

        assert run(1).scores == run(4).scores

    def test_shared_subsample(self, trimodal):
        report = select_n_components_bic(
            trimodal, candidates=(2, 3), subsample_size=500, random_state=0
        )
        assert report.subsample_size == 500

    def test_init_passthrough(self, trimodal):
        # The sweep must honour the requested seeding strategy; quantile
        # seeding lands in different optima than k-means seeding, so the
        # scores must differ between the two.
        quantile = select_n_components_bic(
            trimodal, candidates=(2, 3), init="quantile", random_state=0
        )
        kmeans = select_n_components_bic(trimodal, candidates=(2, 3), init="kmeans", random_state=0)
        assert set(quantile.scores) == {2, 3}
        assert quantile.scores != kmeans.scores

    def test_tuple_unpacking_back_compat(self, trimodal):
        best, scores = select_n_components_bic(trimodal, candidates=(2, 3), random_state=0)
        assert best == 3
        assert isinstance(scores, dict) and set(scores) == {2, 3}

    def test_all_infeasible_raises(self):
        with pytest.raises(ValueError, match="feasible"):
            select_n_components_bic(np.arange(3.0), candidates=(50,), warm_start=True)
