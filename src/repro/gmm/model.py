"""One-dimensional Gaussian Mixture Model fitted with Expectation-Maximisation.

This is a direct implementation of the model in paper §3.1, fitted to the
1-D stack of every column's values (§3.2):

* mixture density  ``p(x) = sum_j pi_j N(x | mu_j, sigma_j^2)``        (Eq. 1)
* E-step responsibilities ``gamma(z_nj)``                              (Eq. 2)
* M-step updates for ``mu_j``, ``sigma_j^2``, ``pi_j``                 (Eqs. 3-5)
* component densities via the normal pdf                               (Eq. 6)

Eq. 2 has one implementation, the chunk kernel :func:`_e_step`, which the
fit's sweep and inference share. Numerical care:

* per-component log densities go through a log-sum-exp reduction, so tiny
  likelihoods never underflow;
* variances get a ``reg_covar`` floor so single-point components stay
  strictly positive;
* ``n_init`` independently seeded restarts keep the best likelihood
  (the paper uses 10 restarts, §4.1.4).

The fitted attributes keep the multivariate shapes of scikit-learn's
estimator — ``means_`` is ``(m, 1)``, ``covariances_`` is ``(m, 1, 1)`` —
because stored model fingerprints hash array shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from repro.gmm._grid import REDUCE_BLOCK
from repro.gmm.kmeans import seed_restarts_1d
from repro.utils.rng import RandomState, spawn_seeds
from repro.utils.validation import (
    check_array_2d,
    check_fitted,
    check_positive_int,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class FitPlan:
    """Row-chunking plan for the streaming fit engine.

    The fit engine plans over the *distinct* values of the stack (see
    :class:`_BatchedEM`), so ``n_samples`` counts distinct values and
    ``batch_size`` is distinct values per E-step chunk. Iterating yields
    contiguous ``slice`` objects covering ``[0, n_samples)`` in order.

    Every chunk boundary falls on a multiple of ``REDUCE_BLOCK`` (the
    requested ``batch_size`` is rounded down to the nearest multiple, never
    below one block). Combined with :func:`_block_accumulate`, which folds
    chunk rows into the M-step sufficient statistics in fixed
    ``REDUCE_BLOCK``-row blocks, the summation tree over samples depends
    only on the global block grid — not on how rows were chunked — so a fit
    is **bit-for-bit identical for every ``fit_batch_size``**, including the
    single-chunk (unchunked) case.

    ``batch_size=None`` resolves to ``DEFAULT_BATCH`` rather than the full
    corpus: fit-time peak memory is bounded by default, and the unchunked
    path remains reachable by passing any ``batch_size >= n_samples``.
    """

    REDUCE_BLOCK: ClassVar[int] = REDUCE_BLOCK  # shared grid, repro.gmm._grid
    DEFAULT_BATCH: ClassVar[int] = 2048

    n_samples: int
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be None or >= 1, got {self.batch_size}")

    @property
    def effective_batch_size(self) -> int:
        """Rows per chunk: ``batch_size`` on the block grid, capped at ``n_samples``."""
        n = max(self.n_samples, 1)
        if self.batch_size is None:
            step = self.DEFAULT_BATCH
        else:
            step = max(self.batch_size, self.REDUCE_BLOCK)
        step -= step % self.REDUCE_BLOCK
        return min(step, n)

    def __iter__(self) -> Iterator[slice]:
        step = self.effective_batch_size
        for start in range(0, self.n_samples, step):
            yield slice(start, min(start + step, self.n_samples))


def _e_step_params(weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> tuple:
    """``(log_w, means, var, base)``: the ``(A, m)`` parameters of :func:`_e_step`."""
    tiny = np.finfo(float).tiny
    var = np.maximum(variances, tiny)
    return np.log(np.maximum(weights, tiny)), means, var, _LOG_2PI + np.log(var)


def _log_density(x: np.ndarray, params: tuple, sq: np.ndarray, out: np.ndarray) -> None:
    """The first half of :func:`_e_step`: Eq. 6 in log space, into ``out``."""
    _, means, var, base = params
    np.subtract(x[:, None, None], means[None], out=sq)
    np.multiply(sq, sq, out=sq)
    np.divide(sq, var[None], out=out)
    np.add(out, base[None], out=out)
    out *= -0.5


def _e_step(
    x: np.ndarray, params: tuple, sq: np.ndarray, prob: np.ndarray, counts: np.ndarray | None = None
) -> np.ndarray:
    """Eq. 2 for a chunk of ``b`` values under ``A`` stacked parameter sets.

    The one E-step: the fit's sweep passes the restart axis and per-value
    counts, inference ``A = 1`` and no counts. ``params`` comes from
    :func:`_e_step_params`; ``sq`` and ``prob`` are caller-owned ``(b, A,
    m)`` buffers that receive the squared deviations and the
    responsibilities (one ``exp`` pass, divided by its sum). Returns the
    ``(b, A)`` log marginal likelihoods, times each value's count when
    given. A value whose every density underflowed (a far outlier
    overflows its squared deviation) gets ``-inf`` and the uniform
    posterior ``1/m``, never NaN.
    """
    log_w = params[0]
    with np.errstate(over="ignore", divide="ignore"):
        _log_density(x, params, sq, prob)
        prob += log_w[None]
        amax = np.max(prob, axis=2, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        prob -= amax
        np.exp(prob, out=prob)
        sumexp = prob.sum(axis=2, keepdims=True)
        degenerate = ~(sumexp[..., 0] > 0)
        any_degenerate = bool(np.any(degenerate))
        if any_degenerate:
            prob[degenerate] = 1.0
            sumexp[degenerate] = float(log_w.shape[1])
        log_norm = np.log(sumexp[..., 0]) + amax[..., 0]
        if any_degenerate:
            log_norm[degenerate] = -np.inf
        if counts is not None:
            # Weight each distinct value by its multiplicity inside the
            # normalising divide: (b, A, 1) work, where scaling the
            # (b, A, m) responsibilities would cost a full extra pass.
            sumexp /= counts[:, None, None]
            log_norm *= counts[:, None]
        prob /= sumexp
    return log_norm


def _block_accumulate(acc: np.ndarray, chunk: np.ndarray) -> None:
    """``acc += chunk.sum(axis=0)`` accumulated in fixed-size row blocks.

    The per-block partial sums and their left-to-right accumulation depend
    only on the global ``FitPlan.REDUCE_BLOCK`` grid, so feeding the same
    rows in any chunking whose boundaries sit on that grid produces
    bit-identical totals (see :class:`FitPlan`).
    """
    block = FitPlan.REDUCE_BLOCK
    for start in range(0, chunk.shape[0], block):
        acc += chunk[start : start + block].sum(axis=0)


class _BatchedEM:
    """Restart-stacked streaming EM core for 1-D mixtures.

    EM touches the data only through per-value sums, so the engine runs
    over ``np.unique(x, return_counts=True)``: each distinct value is
    scored once and weighted by its multiplicity, while ``n`` stays the
    total count. Stacked column values repeat heavily (integer-like ages
    and counts), so fit cost scales with distinct values × restarts ×
    components × iterations, not with the raw stack size. Seeding is not
    folded: :func:`~repro.gmm.kmeans.seed_restarts_1d` and
    :meth:`initial_from_random` read the raw stack.

    Runs ``A`` restarts as one vectorized EM over parameter arrays of shape
    ``(A, m)``: every iteration performs a single fused E-step/M-step for
    all restarts at once, streaming the E-step over :class:`FitPlan` chunks
    of distinct values so peak memory is ``O(batch_size * A * m)`` beyond
    the O(n) distinct-value and count arrays, and accumulating the M-step
    sufficient statistics with :func:`_block_accumulate` so results are
    bit-identical for every ``fit_batch_size``. Restarts whose lower bound
    converges are compressed out of the stacked arrays and stop
    contributing compute.

    The E-step is :func:`_e_step`, shared with inference; the second
    moment is accumulated around the *current* means ``c`` — reusing the
    squared deviations the E-step already computed — and the M-step recovers
    the exact centred variance via ``S2c/nk - (mu_new - c)^2``, which avoids
    the catastrophic cancellation a raw ``E[x^2] - mu^2`` update would
    suffer on far-from-origin value stacks.
    """

    def __init__(
        self,
        x: np.ndarray,
        n_components: int,
        *,
        tol: float,
        max_iter: int,
        reg_covar: float,
        batch_size: int | None,
    ) -> None:
        self.x = x  # the raw stack, for initial_from_random only
        values, counts = np.unique(x, return_counts=True)
        self.values = values
        self.counts = counts.astype(np.float64)
        self.n = x.size
        self.m = n_components
        self.tol = tol
        self.max_iter = max_iter
        self.reg_covar = reg_covar
        self.plan = FitPlan(values.size, batch_size)

    # ------------------------------------------------------------- building

    def initial_from_centers(
        self, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Initial (weights, means, variances) from ``(R, m)`` seed centres.

        Streams two hard-assignment passes over the plan's distinct values:
        the first accumulates per-component counts and first moments via
        flat, multiplicity-weighted ``np.bincount`` segment sums, the second
        accumulates squared deviations around the freshly computed means —
        the centred initial M-step in ``O(batch_size * R * m)`` memory,
        never materialising a per-value labels array. Accumulation runs on
        the fixed ``REDUCE_BLOCK`` grid with per-component contributions in
        ascending value order, so the result is bit-identical for every
        ``fit_batch_size`` and for any number of co-batched restarts.
        """
        m = self.m
        R = centers.shape[0]
        block = FitPlan.REDUCE_BLOCK
        offsets = (np.arange(R) * m)[None, :]
        ridx = np.arange(R)[None, :]

        def _pass(means: np.ndarray | None) -> tuple[np.ndarray, ...]:
            nk = np.zeros(R * m)
            s1 = np.zeros(R * m)
            s2 = np.zeros(R * m)
            for rows in self.plan:
                xc, cc = self.values[rows], self.counts[rows]
                d2 = (xc[:, None, None] - centers[None]) ** 2  # (B, R, m)
                lab = np.argmin(d2, axis=2)  # (B, R)
                flat = lab + offsets
                if means is None:
                    cx = cc * xc
                else:
                    dev2 = (xc[:, None] - means[ridx, lab]) ** 2 * cc[:, None]  # (B, R)
                for s in range(0, xc.size, block):
                    fb = flat[s : s + block].ravel()
                    if means is None:
                        shape = flat[s : s + block].shape
                        cb = np.broadcast_to(cc[s : s + block, None], shape).ravel()
                        nk += np.bincount(fb, weights=cb, minlength=R * m)
                        xb = np.broadcast_to(cx[s : s + block, None], shape).ravel()
                        s1 += np.bincount(fb, weights=xb, minlength=R * m)
                    else:
                        s2 += np.bincount(fb, weights=dev2[s : s + block].ravel(), minlength=R * m)
            return nk, s1, s2

        nk, s1, _ = _pass(None)
        nk = nk.reshape(R, m) + 10.0 * np.finfo(float).tiny
        weights = nk / self.n
        means = s1.reshape(R, m) / nk
        _, _, s2 = _pass(means)
        var = s2.reshape(R, m) / nk + self.reg_covar
        return weights, means, var

    def initial_from_random(self, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Initial parameters for ONE restart from random responsibilities.

        The ``init='random'`` path, and the one pass that reads the raw
        stack: each sample draws its own responsibility row, as the paper
        describes. Rows are drawn and row-normalised one ``REDUCE_BLOCK`` of
        samples at a time — never as a dense ``(n, m)`` matrix — and the
        second pass re-draws the identical stream from a fresh generator on
        the same seed, so peak memory is ``O(REDUCE_BLOCK * m)`` and the
        result is independent of ``fit_batch_size`` (the fixed block grid is
        the only chunking).
        """
        x = self.x
        n = self.n
        block = FitPlan.REDUCE_BLOCK

        def _blocks(rng: np.random.Generator):
            for start in range(0, n, block):
                resp = rng.random((min(block, n - start), self.m))
                resp /= resp.sum(axis=1, keepdims=True)
                yield start, resp

        nk = np.zeros(self.m)
        s1 = np.zeros(self.m)
        for start, resp in _blocks(np.random.default_rng(seed)):
            nk += resp.sum(axis=0)
            s1 += (resp * x[start : start + resp.shape[0], None]).sum(axis=0)
        nk += 10.0 * np.finfo(float).tiny
        weights = nk / n
        means = s1 / nk
        s2 = np.zeros(self.m)
        for start, resp in _blocks(np.random.default_rng(seed)):
            dev2 = (x[start : start + resp.shape[0], None] - means[None, :]) ** 2
            s2 += (resp * dev2).sum(axis=0)
        var = s2 / nk + self.reg_covar
        return weights[None], means[None], var[None]

    # ------------------------------------------------------------ iteration

    def sweep(
        self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One streamed E-step over the plan for every stacked restart.

        Returns block-accumulated sufficient statistics ``(nk, s1, s2c,
        ll_sum)`` where ``s2c`` is the second moment around the current
        means and ``ll_sum`` the per-restart sum of log marginal
        likelihoods, each summed over every sample of the stack. A single
        ``exp`` pass per chunk produces the responsibilities, and all large
        temporaries are reused across chunks.
        """
        A, m = weights.shape
        nk = np.zeros((A, m))
        s1 = np.zeros((A, m))
        s2 = np.zeros((A, m))
        ll = np.zeros(A)
        params = _e_step_params(weights, means, variances)
        width = self.plan.effective_batch_size
        sq = np.empty((width, A, m))
        prob = np.empty((width, A, m))
        tmp = np.empty((width, A, m))
        for rows in self.plan:
            xc, cc = self.values[rows], self.counts[rows]
            b = xc.size
            sq_b, prob_b, tmp_b = sq[:b], prob[:b], tmp[:b]
            log_norm = _e_step(xc, params, sq_b, prob_b, cc)
            _block_accumulate(nk, prob_b)
            np.multiply(prob_b, xc[:, None, None], out=tmp_b)
            _block_accumulate(s1, tmp_b)
            np.multiply(prob_b, sq_b, out=tmp_b)
            _block_accumulate(s2, tmp_b)
            # Reduce log-likelihoods along a contiguous per-restart axis: the
            # pairwise tree then depends only on the block length, never on
            # how many restarts are stacked. Converged restarts drop out
            # mid-run, so A shrinks while the others iterate, and a restart's
            # bound must not change when it does (a (block, 1) column sum
            # would pick a different tree than (block, A)).
            ln_t = np.ascontiguousarray(log_norm.T)  # (A, b)
            block = FitPlan.REDUCE_BLOCK
            for start in range(0, b, block):
                ll += ln_t[:, start : start + block].sum(axis=1)
        return nk, s1, s2, ll

    def m_step(
        self,
        nk: np.ndarray,
        s1: np.ndarray,
        s2: np.ndarray,
        shift: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eqs. 3-5 from sufficient statistics accumulated around ``shift``."""
        nk = nk + 10.0 * np.finfo(float).tiny
        weights = nk / self.n
        means = s1 / nk
        var = s2 / nk - (means - shift) ** 2 + self.reg_covar
        # A centred M-step guarantees var >= reg_covar; the shifted form can
        # dip below it when a component's mean moves far in one step over
        # near-constant far-from-origin values and the two ~equal
        # O(shift^2) terms cancel. Restore the same floor (tiny covers the
        # reg_covar=0 configuration).
        np.maximum(var, max(self.reg_covar, np.finfo(float).tiny), out=var)
        return weights, means, var

    def run(
        self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """EM to convergence for every stacked restart.

        Returns ``(weights, means, variances, lower_bounds, n_iters,
        converged)`` with the restart axis first. Convergence is judged per
        restart on the change of mean per-sample log-likelihood; converged
        restarts are frozen and compressed out of the working arrays.
        """
        R, m = weights.shape
        n = self.n
        out_w = weights.copy()
        out_mu = means.copy()
        out_var = variances.copy()
        bounds = np.full(R, -np.inf)
        n_iters = np.zeros(R, dtype=int)
        converged = np.zeros(R, dtype=bool)
        active = np.arange(R)
        w, mu, var = weights, means, variances
        for it in range(1, self.max_iter + 1):
            nk, s1, s2, ll = self.sweep(w, mu, var)
            w, mu, var = self.m_step(nk, s1, s2, mu)
            new_bound = ll / n
            with np.errstate(invalid="ignore"):
                delta = np.abs(new_bound - bounds[active])
            done = delta < self.tol  # False for the first iteration's inf/nan
            out_w[active] = w
            out_mu[active] = mu
            out_var[active] = var
            bounds[active] = new_bound
            n_iters[active] = it
            if np.any(done):
                converged[active[done]] = True
                keep = ~done
                active = active[keep]
                w, mu, var = w[keep], mu[keep], var[keep]
            if active.size == 0:
                break
        return out_w, out_mu, out_var, bounds, n_iters, converged


class GaussianMixture:
    """One-dimensional Gaussian mixture estimated by EM.

    The surface follows scikit-learn's estimator: input is a 1-D array or
    an ``(n_samples, 1)`` matrix, and ``fit`` and every inference method
    raise :exc:`ValueError` on any other feature count.

    Parameters
    ----------
    n_components:
        Number of Gaussian components ``m``.
    max_iter:
        Maximum EM iterations per restart.
    tol:
        Convergence threshold on the change of mean per-sample
        log-likelihood (paper default ``1e-3``, §3.1).
    n_init:
        Number of independent restarts; best final likelihood wins
        (paper uses 10, §4.1.4). All restarts advance together as one
        vectorized EM.
    reg_covar:
        Floor added to every component variance so components stay
        strictly positive.
    init:
        ``"kmeans"`` (k-means++ seeded hard assignment, default),
        ``"random"`` (random responsibilities, the paper's description), or
        ``"quantile"`` (component means seeded at data quantiles with
        per-restart jitter). Quantile seeding allocates components
        proportionally to data *density*, which matters on heavy-tailed
        value stacks where SSE-driven k-means++ would spend nearly all
        components on the tail and leave the dense bands unresolved.
    fit_batch_size:
        Distinct values per E-step chunk during fitting (EM runs over the
        distinct values of the stack; seeding streams raw rows in chunks
        of the same size). ``None`` resolves to ``FitPlan.DEFAULT_BATCH``;
        any value is rounded down to a multiple of ``FitPlan.REDUCE_BLOCK``
        so every chunking yields bit-identical parameters. Peak fit memory
        is ``O(fit_batch_size * n_init * n_components)`` plus the O(n)
        distinct-value and count arrays.
    random_state:
        Seed or generator.

    Attributes
    ----------
    weights_ : numpy.ndarray of shape (n_components,)
        Mixing coefficients ``pi_j`` summing to one.
    means_ : numpy.ndarray of shape (n_components, 1)
    covariances_ : numpy.ndarray of shape (n_components, 1, 1)
        Component variances.
    converged_ : bool
    n_iter_ : int
    lower_bound_ : float
        Final mean per-sample log-likelihood of the winning restart.
    """

    def __init__(
        self,
        n_components: int = 1,
        *,
        max_iter: int = 200,
        tol: float = 1e-3,
        n_init: int = 1,
        reg_covar: float = 1e-6,
        init: str = "kmeans",
        fit_batch_size: int | None = None,
        random_state: RandomState = None,
    ) -> None:
        self.n_components = check_positive_int(n_components, "n_components")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.n_init = check_positive_int(n_init, "n_init")
        self.reg_covar = float(reg_covar)
        if self.reg_covar < 0:
            raise ValueError(f"reg_covar must be >= 0, got {reg_covar}")
        if init not in ("kmeans", "random", "quantile"):
            raise ValueError(f"init must be 'kmeans', 'random' or 'quantile', got {init!r}")
        self.init = init
        if fit_batch_size is not None and fit_batch_size < 1:
            raise ValueError(f"fit_batch_size must be None or >= 1, got {fit_batch_size}")
        self.fit_batch_size = fit_batch_size
        self.random_state = random_state
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.covariances_: np.ndarray | None = None
        self.converged_: bool = False
        self.n_iter_: int = 0
        self.lower_bound_: float = -np.inf

    @staticmethod
    def _check_X(X: np.ndarray) -> np.ndarray:
        """``X`` as an ``(n_samples, 1)`` float matrix; other widths raise."""
        X = check_array_2d(X, "X")
        if X.shape[1] != 1:
            raise ValueError(
                "GaussianMixture fits 1-D data (the paper's stacked column "
                f"values); got n_features={X.shape[1]}"
            )
        return X

    # ------------------------------------------------------------------ fit

    def fit(self, X: np.ndarray) -> "GaussianMixture":
        """Fit the mixture to ``X`` (a 1-D array or shape ``(n_samples, 1)``).

        All ``n_init`` restarts advance together as one vectorized EM with
        per-restart convergence masking, EM scores each distinct value once
        weighted by its multiplicity, and the E-step streams over chunks of
        ``fit_batch_size`` distinct values so its working set never scales
        with the corpus. Fit cost scales with distinct values × restarts ×
        components × iterations; seeding still reads every raw value.
        """
        x = self._check_X(X)[:, 0]
        if x.size < self.n_components:
            raise ValueError(f"n_samples={x.size} must be >= n_components={self.n_components}")
        seeds = spawn_seeds(self.random_state, self.n_init)
        em = self._engine(x)
        R = len(seeds)
        m = self.n_components
        if self.init == "random":
            w0 = np.empty((R, m))
            mu0 = np.empty((R, m))
            var0 = np.empty((R, m))
            for r, seed in enumerate(seeds):
                w0[r], mu0[r], var0[r] = (a[0] for a in em.initial_from_random(seed))
        else:
            # Seeding reads the raw stack, streamed in fit_batch_size rows.
            seed_batch = FitPlan(x.size, self.fit_batch_size).effective_batch_size
            centers = seed_restarts_1d(x, m, seeds, self.init, batch_size=seed_batch)
            w0, mu0, var0 = em.initial_from_centers(centers)
        weights, means, variances, bounds, n_iters, converged = em.run(w0, mu0, var0)
        # The first of equally good restarts wins.
        r = int(np.argmax(bounds))
        self.weights_ = weights[r]
        self.means_ = means[r].reshape(-1, 1)
        self.covariances_ = variances[r].reshape(-1, 1, 1)
        self.lower_bound_ = float(bounds[r])
        self.n_iter_ = int(n_iters[r])
        self.converged_ = bool(converged[r])
        return self

    def _engine(self, x: np.ndarray) -> _BatchedEM:
        """The streaming EM over ``x``'s distinct values."""
        return _BatchedEM(
            x,
            self.n_components,
            tol=self.tol,
            max_iter=self.max_iter,
            reg_covar=self.reg_covar,
            batch_size=self.fit_batch_size,
        )

    # ------------------------------------------------------------- inference

    def _kernel_inputs(self, X: np.ndarray) -> tuple:
        """``X``'s values, the fitted kernel parameters and two ``(n, 1, m)``
        buffers: inference is :func:`_e_step` with ``A = 1``."""
        check_fitted(self, "means_")
        x = self._check_X(X)[:, 0]
        w, mu, var = self.weights_, self.means_[:, 0], self.covariances_[:, 0, 0]
        shape = (x.size, 1, mu.size)
        return x, _e_step_params(w[None], mu[None], var[None]), np.empty(shape), np.empty(shape)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior responsibilities gamma(z_nj) for each sample (Eq. 2),
        from the fit's own E-step kernel.

        Row-wise: scoring a slice of ``X`` equals slicing the scores of
        ``X``, bit for bit, so callers bound memory by chunking the rows
        they pass (the transform's column chunks,
        :func:`repro.core.signature.column_chunks`).
        """
        x, params, sq, prob = self._kernel_inputs(X)
        _e_step(x, params, sq, prob)
        return prob.reshape(x.size, -1)

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Per-sample log marginal likelihood ``log p(x)`` (row-wise, like
        :meth:`predict_proba`)."""
        x, params, sq, prob = self._kernel_inputs(X)
        return _e_step(x, params, sq, prob)[:, 0]

    def component_pdf(self, X: np.ndarray) -> np.ndarray:
        """Unweighted per-component densities ``p(x | mu_j, sigma_j^2)`` (Eq. 6).

        The paper's signature mechanism ablation compares pooling these raw
        densities against pooling posteriors; both are exposed. The first
        half of the E-step kernel; row-wise, like :meth:`predict_proba`.
        """
        x, params, sq, prob = self._kernel_inputs(X)
        with np.errstate(over="ignore"):
            _log_density(x, params, sq, prob)
        return np.exp(prob, out=prob).reshape(x.size, -1)

    # ----------------------------------------------------- model selection

    def _n_parameters(self) -> int:
        """Free parameters: a mean and a variance per component, plus the
        ``m - 1`` independent mixing weights."""
        return 3 * self.n_components - 1

    def bic(self, X: np.ndarray) -> float:
        """Bayesian Information Criterion on ``X`` (lower is better)."""
        check_fitted(self, "means_")
        X = self._check_X(X)
        log_lik = float(np.sum(self.score_samples(X)))
        return -2.0 * log_lik + self._n_parameters() * float(np.log(X.shape[0]))
