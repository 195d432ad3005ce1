"""Tests for the restart-vectorized streaming fit engine and the BIC
sweep.

The engine's two contracts are checked exactly as specified:

* running all restarts as one vectorized EM picks the same winning restart
  as a test-local loop that seeds and runs each restart on its own — the
  same ``lower_bound_``, ``weights_``, ``means_`` and ``covariances_``,
  bit for bit — for ``n_init`` in {1, 4, 10} on fixed seeds (restarts
  share no arithmetic, and the reduction tree never depends on how many
  are stacked);
* a chunked-E-step fit matches the unchunked fit **bit-for-bit** for any
  ``fit_batch_size`` (reductions run on a fixed block grid, so the
  summation tree never depends on the chunking).

Both run on a continuous stack and on a duplicate-heavy one, because the
engine scores each distinct value once, weighted by its multiplicity; a
test-local EM over every raw sample is the oracle for that folding, run
against the engine from the same explicit start.
"""

import itertools

import numpy as np
import pytest

from repro.core import GemConfig, GemEmbedder
from repro.data.table import ColumnCorpus, NumericColumn
from repro.gmm import (
    FitPlan,
    GaussianMixture,
    SelectionReport,
    seed_restarts_1d,
    select_n_components_bic,
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
    """A deterministic start: equal weights, quantile means, pooled variance."""
    return np.full(m, 1.0 / m), np.quantile(x, (np.arange(m) + 0.5) / m), np.full(m, x.var())


def _run_from(gm, x, start):
    """One run of ``gm``'s engine over ``x`` from the explicit ``start``
    (no seeding); returns ``(weights, means, variances, lower_bound, n_iter,
    converged)``."""
    return [a[0] for a in gm._engine(x).run(*(np.array(p)[None] for p in start))]


def _fitted(gm):
    """A fitted mixture's parameters in the order :func:`_run_from` returns."""
    weights, means, variances = gm.weights_, gm.means_[:, 0], gm.covariances_[:, 0, 0]
    return weights, means, variances, gm.lower_bound_, gm.n_iter_, gm.converged_


def _assert_matches_oracle(x, gm, start, result):
    w, mu, var, bound, n_iter, converged = _raw_sample_em(
        x, *start, tol=gm.tol, max_iter=gm.max_iter, reg_covar=gm.reg_covar
    )
    got_w, got_mu, got_var, got_bound, got_n_iter, got_converged = result
    assert got_n_iter == n_iter
    assert got_converged == converged
    np.testing.assert_allclose(got_bound, bound, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_w, w, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_mu, mu, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got_var, var, rtol=1e-9, atol=0)


class TestFitPlan:
    def test_chunks_align_to_reduce_block(self):
        plan = FitPlan(100_000, 3000)
        assert plan.effective_batch_size % FitPlan.REDUCE_BLOCK == 0
        starts = [s.start for s in plan]
        assert all(start % FitPlan.REDUCE_BLOCK == 0 for start in starts)

    def test_slices_cover_range_in_order(self):
        slices = list(FitPlan(100_000, 3000))
        assert slices[0].start == 0 and slices[-1].stop == 100_000
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))

    def test_exact_multiple(self):
        block = FitPlan.REDUCE_BLOCK
        assert [s.stop - s.start for s in FitPlan(3 * block, block)] == [block] * 3

    def test_none_resolves_to_default_batch(self):
        assert FitPlan(100_000, None).effective_batch_size == FitPlan.DEFAULT_BATCH

    def test_small_batch_rounds_up_to_one_block(self):
        assert FitPlan(100_000, 10).effective_batch_size == FitPlan.REDUCE_BLOCK

    def test_small_corpus_single_chunk(self):
        assert list(FitPlan(100, None)) == [slice(0, 100)]

    def test_oversized_batch_covers_corpus_in_one_chunk(self):
        assert list(FitPlan(5000, 10**9)) == [slice(0, 5000)]

    def test_oversized_batch_clamped(self):
        assert FitPlan(5000, 10**9).effective_batch_size == 5000

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            FitPlan(10, 0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_batch_size_rejected(self, bad):
        with pytest.raises(ValueError, match="batch_size"):
            FitPlan(10, bad)

    def test_empty_plan(self):
        assert list(FitPlan(0, 4)) == []

    def test_negative_n_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            FitPlan(-1)


def _restart_by_restart(x, m, n_init, init, random_state):
    """Oracle for the stacked restarts: seed and run each restart on its
    own through the same engine, keeping the first best bound. Returns the
    winner's ``(weights, means, variances, bound, n_iter, converged)``."""
    em = GaussianMixture(m, init=init)._engine(x)
    best = None
    for seed in spawn_seeds(random_state, n_init):
        if init == "random":
            start = em.initial_from_random(seed)
        else:
            start = em.initial_from_centers(seed_restarts_1d(x, m, [seed], init))
        result = [a[0] for a in em.run(*start)]
        if best is None or result[3] > best[3]:
            best = result
    return best


class TestEngineEquivalence:
    """Satellite: stacked-restart EM equals running each restart alone."""

    @pytest.mark.parametrize(
        "stack, init, n_init",
        _on_both_stacks(*itertools.product(["quantile", "kmeans", "random"], [1, 4, 10])),
    )
    def test_batched_matches_serial(self, stacks, stack, init, n_init):
        x = stacks[stack]
        w, mu, var, bound, n_iter, converged = _restart_by_restart(x, 6, n_init, init, 7)
        batched = GaussianMixture(6, n_init=n_init, init=init, random_state=7).fit(x)
        assert batched.lower_bound_ == bound
        assert np.array_equal(batched.weights_, w)
        assert np.array_equal(batched.means_[:, 0], mu)
        assert np.array_equal(batched.covariances_[:, 0, 0], var)
        assert batched.n_iter_ == n_iter
        assert batched.converged_ == converged

    @pytest.mark.parametrize(
        "method",
        ["fit", "predict_proba", "score_samples", "component_pdf", "bic"],
    )
    def test_rejects_multivariate(self, trimodal, method):
        gm = GaussianMixture(2, random_state=0).fit(trimodal)
        X = np.column_stack([trimodal, trimodal])
        with pytest.raises(ValueError, match="1-D"):
            getattr(gm, method)(X)

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
        ref = GaussianMixture(5, n_init=3, fit_batch_size=None, random_state=3).fit(x)
        alt = GaussianMixture(5, n_init=3, fit_batch_size=batch_size, random_state=3).fit(x)
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.weights_, alt.weights_)
        assert np.array_equal(ref.means_, alt.means_)
        assert np.array_equal(ref.covariances_, alt.covariances_)
        assert ref.n_iter_ == alt.n_iter_


class TestDistinctValueEM:
    """The engine folds repeats into per-value weights; the raw-sample EM
    is the oracle for that folding."""

    @pytest.mark.parametrize("stack", ["continuous", "repeated", "hundredths"])
    @pytest.mark.parametrize("fit_batch_size", [512, None])
    def test_fit_from_matches_raw_sample_oracle(self, stacks, stack, fit_batch_size):
        """The engine from an explicit start, at either chunking."""
        x = stacks[stack]
        start = _quantile_start(x, 6)
        gm = GaussianMixture(6, tol=1e-6, fit_batch_size=fit_batch_size)
        _assert_matches_oracle(x, gm, start, _run_from(gm, x, start))

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
        _assert_matches_oracle(x, gm, (nk / x.size, means, variances), _fitted(gm))

    @pytest.mark.parametrize("stack", ["continuous", "repeated", "hundredths"])
    def test_fit_from_order_invariant(self, stacks, stack):
        """The engine from an explicit start ignores the order of the values."""
        x = stacks[stack]
        shuffled = np.random.default_rng(0).permutation(x)
        start = _quantile_start(x, 6)
        gm = GaussianMixture(6, tol=1e-6)
        ref = _run_from(gm, x, start)
        alt = _run_from(gm, shuffled, start)
        for a, b in zip(ref, alt):
            assert np.array_equal(a, b)

    def test_fewer_distinct_values_than_components(self):
        x = np.random.default_rng(1).permutation(np.repeat([1.0, 2.0, 5.0, 9.0], [50, 30, 15, 5]))
        start = _quantile_start(x, 6)
        gm = GaussianMixture(6)
        _assert_matches_oracle(x, gm, start, _run_from(gm, x, start))
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


class TestWarmStartedSweep:
    """The BIC sweep: every candidate is fitted cold from its own seeds."""

    def test_generator_random_state_deterministic(self, trimodal):
        # Two equally seeded Generators give bitwise-equal scores.
        def run():
            return select_n_components_bic(
                trimodal, candidates=(2, 4), random_state=np.random.default_rng(3)
            )

        first, second = run(), run()
        assert first.scores == second.scores
        assert first.n_iter == second.n_iter

    def test_shared_subsample(self, rng):
        # GemEmbedder scores every candidate on one 10k-value subsample of
        # the stack, not on the whole stack.
        corpus = ColumnCorpus(
            [NumericColumn(f"c{i}", rng.normal(10.0 * i, 1.0, 4000)) for i in range(3)]
        )
        cfg = GemConfig.fast(auto_components=True, bic_candidates=(2, 3), n_init=1)
        report = GemEmbedder(config=cfg).fit(corpus).selection_report_
        assert report.subsample_size == 10_000
        assert set(report.scores) == {2, 3}

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

    def test_default_sweep_picks_true_count(self, trimodal):
        report = select_n_components_bic(trimodal, candidates=(2, 3, 6), random_state=0)
        assert isinstance(report, SelectionReport)
        assert report.best == 3
        assert set(report.scores) == set(report.n_iter) == set(report.converged) == {2, 3, 6}
        assert report.subsample_size == trimodal.size

    def test_all_infeasible_raises(self):
        with pytest.raises(ValueError, match="feasible"):
            select_n_components_bic(np.arange(3.0), candidates=(50,))
