"""Full-covariance Gaussian Mixture Model fitted with Expectation-Maximisation.

This is a direct implementation of the model in paper §3.1:

* mixture density  ``p(x) = sum_j pi_j N(x | mu_j, Sigma_j)``          (Eq. 1)
* E-step responsibilities ``gamma(z_nj)``                              (Eq. 2)
* M-step updates for ``mu_j``, ``Sigma_j``, ``pi_j``                   (Eqs. 3-5)
* component densities via the multivariate normal pdf                  (Eq. 6)

Numerical care:

* all per-component log densities go through a Cholesky factorisation and a
  log-sum-exp reduction, so tiny likelihoods never underflow;
* covariances get a ``reg_covar`` ridge so single-point components stay
  positive definite;
* ``n_init`` independent k-means++-seeded restarts keep the best likelihood
  (the paper uses 10 restarts, §4.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np
from scipy.linalg import solve_triangular

from repro.gmm._grid import REDUCE_BLOCK
from repro.gmm.kmeans import KMeans, seed_restarts_1d
from repro.utils.rng import RandomState, check_random_state, spawn_seeds
from repro.utils.validation import (
    check_array_2d,
    check_fitted,
    check_positive_int,
)

_LOG_2PI = float(np.log(2.0 * np.pi))

_FIT_ENGINES = ("auto", "batched", "serial")


@dataclass(frozen=True)
class BatchPlan:
    """Row-chunking plan for streaming inference over a large sample matrix.

    Iterating yields contiguous ``slice`` objects covering ``[0, n_samples)``
    in order, each at most ``batch_size`` rows. ``batch_size=None`` means a
    single full-width slice (the unchunked path). The plan is the unit every
    chunked scorer shares, so the pooling layer can fuse its segment
    reduction with the same chunk boundaries.
    """

    n_samples: int
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be None or >= 1, got {self.batch_size}")

    @property
    def effective_batch_size(self) -> int:
        """Rows per chunk after resolving ``None`` to the full width."""
        if self.batch_size is None:
            return max(self.n_samples, 1)
        return min(self.batch_size, max(self.n_samples, 1))

    @property
    def n_batches(self) -> int:
        if self.n_samples == 0:
            return 0
        step = self.effective_batch_size
        return -(-self.n_samples // step)

    def __len__(self) -> int:
        return self.n_batches

    def __iter__(self) -> Iterator[slice]:
        step = self.effective_batch_size
        for start in range(0, self.n_samples, step):
            yield slice(start, min(start + step, self.n_samples))


class FitPlan(BatchPlan):
    """Row-chunking plan for the streaming fit engine.

    The fit engine plans over the *distinct* values of the stack (see
    :class:`_BatchedEM`), so ``n_samples`` counts distinct values and
    ``batch_size`` is distinct values per E-step chunk.

    Extends :class:`BatchPlan` with one extra guarantee the training path
    needs: every chunk boundary falls on a multiple of ``REDUCE_BLOCK``
    (the requested ``batch_size`` is rounded down to the nearest multiple,
    never below one block). Combined with :func:`_block_accumulate`, which
    folds chunk rows into the M-step sufficient statistics in fixed
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

    @property
    def effective_batch_size(self) -> int:
        n = max(self.n_samples, 1)
        if self.batch_size is None:
            step = self.DEFAULT_BATCH
        else:
            step = max(self.batch_size, self.REDUCE_BLOCK)
        step -= step % self.REDUCE_BLOCK
        return min(step, n)


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


def _logsumexp(a: np.ndarray, axis: int = 1) -> np.ndarray:
    """Stable ``log(sum(exp(a)))`` along ``axis``."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


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

    Numerics mirror the legacy per-restart path (log-sum-exp E-step with
    the uniform-posterior fallback for fully-underflowed rows); the second
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
        ``exp`` pass per chunk produces the responsibilities (the legacy
        path pays two), and all large temporaries are reused across chunks.
        """
        A, m = weights.shape
        tiny = np.finfo(float).tiny
        nk = np.zeros((A, m))
        s1 = np.zeros((A, m))
        s2 = np.zeros((A, m))
        ll = np.zeros(A)
        var = np.maximum(variances, tiny)
        log_w = np.log(np.maximum(weights, tiny))
        base = _LOG_2PI + np.log(var)
        width = self.plan.effective_batch_size
        sq = np.empty((width, A, m))
        prob = np.empty((width, A, m))
        tmp = np.empty((width, A, m))
        for rows in self.plan:
            xc, cc = self.values[rows], self.counts[rows]
            b = xc.size
            sq_b, prob_b, tmp_b = sq[:b], prob[:b], tmp[:b]
            with np.errstate(over="ignore", divide="ignore"):
                np.subtract(xc[:, None, None], means[None], out=tmp_b)
                np.multiply(tmp_b, tmp_b, out=sq_b)
                np.divide(sq_b, var[None], out=prob_b)
                np.add(prob_b, base[None], out=prob_b)
                prob_b *= -0.5
                prob_b += log_w[None]
                amax = np.max(prob_b, axis=2, keepdims=True)
                amax = np.where(np.isfinite(amax), amax, 0.0)
                prob_b -= amax
                np.exp(prob_b, out=prob_b)
                sumexp = prob_b.sum(axis=2, keepdims=True)
                degenerate = ~(sumexp[..., 0] > 0)
                any_degenerate = bool(np.any(degenerate))
                if any_degenerate:
                    # Marginal likelihood underflowed for these rows: report
                    # log p(x) = -inf but keep the posterior usable with the
                    # uniform fallback (mirrors GaussianMixture._e_step).
                    prob_b[degenerate] = 1.0
                    sumexp[degenerate] = float(m)
                log_norm = np.log(sumexp[..., 0]) + amax[..., 0]
                if any_degenerate:
                    log_norm[degenerate] = -np.inf
                # Weight each distinct value by its multiplicity inside the
                # normalising divide: (B, A, 1) work, where scaling the
                # (B, A, m) responsibilities would cost a full extra pass.
                sumexp /= cc[:, None, None]
                log_norm *= cc[:, None]
                prob_b /= sumexp
            _block_accumulate(nk, prob_b)
            np.multiply(prob_b, xc[:, None, None], out=tmp_b)
            _block_accumulate(s1, tmp_b)
            np.multiply(prob_b, sq_b, out=tmp_b)
            _block_accumulate(s2, tmp_b)
            # Reduce log-likelihoods along a contiguous per-restart axis: the
            # pairwise tree then depends only on the block length, never on
            # how many restarts are stacked, keeping the serial and batched
            # engines bit-identical (a (block, 1) column sum would pick a
            # different tree than (block, A)).
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
        # The legacy centred M-step guarantees var >= reg_covar; the shifted
        # form can dip below it when a component's mean moves far in one
        # step over near-constant far-from-origin values and the two ~equal
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
    """Gaussian mixture estimated by EM, scikit-learn-compatible surface.

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
        (paper uses 10, §4.1.4).
    reg_covar:
        Ridge added to covariance diagonals for positive-definiteness.
    init:
        ``"kmeans"`` (k-means++ seeded hard assignment, default),
        ``"random"`` (random responsibilities, the paper's description), or
        ``"quantile"`` (1-D only: component means seeded at data quantiles
        with per-restart jitter). Quantile seeding allocates components
        proportionally to data *density*, which matters on heavy-tailed
        value stacks where SSE-driven k-means++ would spend nearly all
        components on the tail and leave the dense bands unresolved.
    fit_engine:
        ``"auto"`` (default) runs the restart-vectorized streaming engine
        for 1-D data and the per-restart full-matrix loop otherwise;
        ``"batched"`` forces the streaming engine (1-D only);
        ``"serial"`` runs restarts one at a time through the same streaming
        primitives (1-D) or the legacy loop (multivariate). The batched and
        serial 1-D paths are bit-identical per restart.
    fit_batch_size:
        Distinct values per E-step chunk during fitting (1-D EM runs over
        the distinct values of the stack; seeding streams raw rows in
        chunks of the same size). ``None`` resolves to
        ``FitPlan.DEFAULT_BATCH``; any value is rounded down to a multiple
        of ``FitPlan.REDUCE_BLOCK`` so every chunking yields bit-identical
        parameters. Peak fit memory for 1-D data is
        ``O(fit_batch_size * n_init * n_components)`` plus the O(n)
        distinct-value and count arrays.
    random_state:
        Seed or generator.

    Attributes
    ----------
    weights_ : numpy.ndarray of shape (n_components,)
        Mixing coefficients ``pi_j`` summing to one.
    means_ : numpy.ndarray of shape (n_components, n_features)
    covariances_ : numpy.ndarray of shape (n_components, n_features, n_features)
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
        fit_engine: str = "auto",
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
        if fit_engine not in _FIT_ENGINES:
            raise ValueError(f"fit_engine must be one of {_FIT_ENGINES}, got {fit_engine!r}")
        self.fit_engine = fit_engine
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

    # ------------------------------------------------------------------ fit

    def fit(self, X: np.ndarray) -> "GaussianMixture":
        """Fit the mixture to ``X`` (shape ``(n_samples, n_features)``).

        1-D input is accepted and treated as a single feature, matching the
        paper's use on stacked column values. On 1-D data the restarts run
        through the streaming engine (see ``fit_engine``):
        all ``n_init`` restarts advance together as one vectorized EM with
        per-restart convergence masking, EM scores each distinct value once
        weighted by its multiplicity, and the E-step streams over chunks of
        ``fit_batch_size`` distinct values so its working set never scales
        with the corpus. Fit cost scales with distinct values × restarts ×
        components × iterations; seeding still reads every raw value.
        """
        X = check_array_2d(X, "X")
        if X.shape[0] < self.n_components:
            raise ValueError(f"n_samples={X.shape[0]} must be >= n_components={self.n_components}")
        engine = self._resolve_engine(X.shape[1])
        seeds = spawn_seeds(self.random_state, self.n_init)
        if X.shape[1] == 1:
            chosen = self._fit_1d(X[:, 0], seeds, stacked=(engine == "batched"))
        else:
            best: tuple[float, dict] | None = None
            for seed in seeds:
                params = self._single_fit(X, np.random.default_rng(seed))
                if best is None or params["lower_bound"] > best[0]:
                    best = (params["lower_bound"], params)
            assert best is not None
            chosen = best[1]
        self.weights_ = chosen["weights"]
        self.means_ = chosen["means"]
        self.covariances_ = chosen["covariances"]
        self.converged_ = chosen["converged"]
        self.n_iter_ = chosen["n_iter"]
        self.lower_bound_ = chosen["lower_bound"]
        return self

    def _resolve_engine(self, n_features: int) -> str:
        if self.fit_engine == "batched" and n_features != 1:
            raise ValueError(
                "fit_engine='batched' requires 1-D data (the paper's stacked "
                f"value setting); got n_features={n_features}. Use 'auto' or "
                "'serial' for multivariate fits."
            )
        if self.fit_engine == "auto":
            return "batched" if n_features == 1 else "serial"
        return self.fit_engine

    def _engine(self, x: np.ndarray) -> _BatchedEM:
        """The streaming 1-D EM over ``x``'s distinct values."""
        return _BatchedEM(
            x,
            self.n_components,
            tol=self.tol,
            max_iter=self.max_iter,
            reg_covar=self.reg_covar,
            batch_size=self.fit_batch_size,
        )

    def _fit_1d(self, x: np.ndarray, seeds: list[int], *, stacked: bool) -> dict:
        """Run all restarts through the streaming 1-D engine.

        ``stacked=True`` advances every restart together in one vectorized
        EM (the batched engine); ``stacked=False`` runs the same streaming
        primitives one restart at a time (the serial engine). Seeding and
        per-restart arithmetic are shared, so both orders produce
        bit-identical parameters and pick the same winning restart.
        """
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
        if stacked:
            out_w, out_mu, out_var, bounds, n_iters, converged = em.run(w0, mu0, var0)
        else:
            out_w = np.empty((R, m))
            out_mu = np.empty((R, m))
            out_var = np.empty((R, m))
            bounds = np.empty(R)
            n_iters = np.empty(R, dtype=int)
            converged = np.empty(R, dtype=bool)
            for r in range(R):
                res = em.run(w0[r : r + 1], mu0[r : r + 1], var0[r : r + 1])
                out_w[r], out_mu[r], out_var[r] = res[0][0], res[1][0], res[2][0]
                bounds[r], n_iters[r], converged[r] = res[3][0], res[4][0], res[5][0]
        # First-max tie-break matches the serial loop's strict-improvement rule.
        win = int(np.argmax(bounds))
        return {
            "weights": out_w[win],
            "means": out_mu[win].reshape(m, 1),
            "covariances": out_var[win].reshape(m, 1, 1),
            "lower_bound": float(bounds[win]),
            "converged": bool(converged[win]),
            "n_iter": int(n_iters[win]),
        }

    def fit_from(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> "GaussianMixture":
        """Warm-start: run EM from explicit parameters (single run, no seeding).

        The warm-started BIC sweep uses this to refine split parameters from
        a smaller converged mixture. 1-D data streams through the batched
        engine; multivariate data runs the full-matrix loop. Parameter
        shapes must match ``n_components``.
        """
        X = check_array_2d(X, "X")
        if X.shape[0] < self.n_components:
            raise ValueError(f"n_samples={X.shape[0]} must be >= n_components={self.n_components}")
        weights = np.asarray(weights, dtype=np.float64).ravel()
        means = np.asarray(means, dtype=np.float64)
        covariances = np.asarray(covariances, dtype=np.float64)
        d = X.shape[1]
        if means.ndim == 1:
            means = means.reshape(-1, 1)
        if weights.shape[0] != self.n_components or means.shape != (self.n_components, d):
            raise ValueError(
                f"warm-start parameters must have n_components={self.n_components} "
                f"rows and {d} feature columns; got weights {weights.shape}, "
                f"means {means.shape}"
            )
        if covariances.shape != (self.n_components, d, d):
            raise ValueError(
                f"covariances must have shape ({self.n_components}, {d}, {d}), "
                f"got {covariances.shape}"
            )
        if d == 1:
            out_w, out_mu, out_var, bounds, n_iters, converged = self._engine(X[:, 0]).run(
                weights[None].copy(), means[:, 0][None].copy(), covariances[:, 0, 0][None].copy()
            )
            self.weights_ = out_w[0]
            self.means_ = out_mu[0].reshape(-1, 1)
            self.covariances_ = out_var[0].reshape(-1, 1, 1)
            self.lower_bound_ = float(bounds[0])
            self.n_iter_ = int(n_iters[0])
            self.converged_ = bool(converged[0])
            return self
        params = self._warm_fit_legacy(X, weights, means, covariances)
        self.weights_ = params["weights"]
        self.means_ = params["means"]
        self.covariances_ = params["covariances"]
        self.converged_ = params["converged"]
        self.n_iter_ = params["n_iter"]
        self.lower_bound_ = params["lower_bound"]
        return self

    def _warm_fit_legacy(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> dict:
        """Full-matrix EM from given parameters (multivariate warm start)."""
        lower_bound = -np.inf
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            log_resp, log_norm = self._e_step(X, weights, means, covariances)
            weights, means, covariances = self._m_step(X, np.exp(log_resp))
            new_bound = float(np.mean(log_norm))
            if abs(new_bound - lower_bound) < self.tol:
                lower_bound = new_bound
                converged = True
                break
            lower_bound = new_bound
        return {
            "weights": weights,
            "means": means,
            "covariances": covariances,
            "lower_bound": lower_bound,
            "converged": converged,
            "n_iter": n_iter,
        }

    def _single_fit(self, X: np.ndarray, rng: np.random.Generator) -> dict:
        resp = self._initial_resp(X, rng)
        weights, means, covariances = self._m_step(X, resp)
        lower_bound = -np.inf
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            log_resp, log_norm = self._e_step(X, weights, means, covariances)
            weights, means, covariances = self._m_step(X, np.exp(log_resp))
            new_bound = float(np.mean(log_norm))
            if abs(new_bound - lower_bound) < self.tol:
                lower_bound = new_bound
                converged = True
                break
            lower_bound = new_bound
        return {
            "weights": weights,
            "means": means,
            "covariances": covariances,
            "lower_bound": lower_bound,
            "converged": converged,
            "n_iter": n_iter,
        }

    def _initial_resp(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = X.shape[0]
        resp = np.zeros((n, self.n_components))
        if self.init == "quantile":
            if X.shape[1] != 1:
                raise ValueError("init='quantile' requires 1-D data")
            qs = np.linspace(0, 1, self.n_components + 2)[1:-1]
            jitter = rng.uniform(-0.4, 0.4, size=self.n_components) / (self.n_components + 1)
            centers = np.quantile(X[:, 0], np.clip(qs + jitter, 0.0, 1.0))
            # A few Lloyd iterations refine the density-proportional seeds
            # locally without letting SSE drag everything into the tail.
            x = X[:, 0]
            labels = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
            for _ in range(5):
                for j in range(self.n_components):
                    members = labels == j
                    if np.any(members):
                        centers[j] = x[members].mean()
                labels = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
            resp[np.arange(n), labels] = 1.0
        elif self.init == "kmeans":
            # A handful of Lloyd iterations is enough for seeding EM — the
            # mixture refines the partition anyway.
            km = KMeans(self.n_components, n_init=1, max_iter=15, random_state=rng)
            labels = km.fit_predict(X)
            resp[np.arange(n), labels] = 1.0
        else:
            resp = rng.random((n, self.n_components))
            resp /= resp.sum(axis=1, keepdims=True)
        return resp

    # ------------------------------------------------------------ EM pieces

    def _e_step(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (log responsibilities, per-sample log marginal likelihood)."""
        weighted = self._log_weighted_prob(X, weights, means, covariances)
        # In-place log-sum-exp: `weighted` becomes the log responsibilities.
        # Guard amax like the module-level _logsumexp: a row whose every
        # component log-density underflowed to -inf (an extreme outlier at
        # transform time) would otherwise propagate inf - inf = NaN.
        amax = np.max(weighted, axis=1, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        np.subtract(weighted, amax, out=weighted)
        sumexp = np.sum(np.exp(weighted), axis=1, keepdims=True)
        degenerate = ~(sumexp[:, 0] > 0)
        if np.any(degenerate):
            # The marginal likelihood is below the smallest representable
            # float: report log p(x) = -inf but keep the posterior usable by
            # falling back to the uniform distribution over components.
            weighted[degenerate, :] = 0.0
            sumexp[degenerate] = float(weighted.shape[1])
        log_sum = np.log(sumexp)
        log_norm = (log_sum + amax).ravel()
        if np.any(degenerate):
            log_norm[degenerate] = -np.inf
        np.subtract(weighted, log_sum, out=weighted)
        return weighted, log_norm

    def _m_step(self, X: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eqs. 3-5: re-estimate weights, means and covariances."""
        n, d = X.shape
        nk = resp.sum(axis=0) + 10 * np.finfo(float).tiny
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        if d == 1:
            # Univariate fast path (the paper's setting: stacked 1-D values).
            diff = X[:, 0][:, None] - means[:, 0][None, :]
            var = np.einsum("nj,nj->j", resp, diff**2) / nk + self.reg_covar
            return weights, means, var.reshape(-1, 1, 1)
        covariances = np.empty((self.n_components, d, d))
        for j in range(self.n_components):
            diff = X - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            cov[np.diag_indices(d)] += self.reg_covar
            covariances[j] = cov
        return weights, means, covariances

    @staticmethod
    def _log_gaussian_prob(X: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> np.ndarray:
        """Eq. 6 in log space for every (sample, component) pair.

        Uses the Cholesky factor of each covariance for the quadratic form
        and the log-determinant.
        """
        n, d = X.shape
        m = means.shape[0]
        if d == 1:
            # Univariate fast path: fully vectorised over components. An
            # extreme outlier overflows diff**2 to inf, which is the correct
            # -inf log-density; the E-step guards that case, so the overflow
            # warning is noise.
            var = np.maximum(covariances[:, 0, 0], np.finfo(float).tiny)
            diff = X[:, 0][:, None] - means[:, 0][None, :]
            with np.errstate(over="ignore"):
                return -0.5 * (_LOG_2PI + np.log(var)[None, :] + diff**2 / var[None, :])
        out = np.empty((n, m))
        for j in range(m):
            try:
                chol = np.linalg.cholesky(covariances[j])
            except np.linalg.LinAlgError:
                # Repair an indefinite covariance with a stronger ridge.
                cov = covariances[j] + np.eye(d) * 1e-6
                chol = np.linalg.cholesky(cov)
            diff = X - means[j]
            z = solve_triangular(chol, diff.T, lower=True).T
            maha = np.sum(z**2, axis=1)
            log_det = 2.0 * np.sum(np.log(np.diag(chol)))
            out[:, j] = -0.5 * (d * _LOG_2PI + log_det + maha)
        return out

    def _log_weighted_prob(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> np.ndarray:
        log_weights = np.log(np.maximum(weights, np.finfo(float).tiny))
        return self._log_gaussian_prob(X, means, covariances) + log_weights

    # ------------------------------------------------------------- inference

    def predict_proba(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Posterior responsibilities gamma(z_nj) for each sample (Eq. 2).

        With ``batch_size`` set, rows are scored in chunks of at most that
        many samples, bounding peak intermediate memory at
        ``O(batch_size * n_components)`` regardless of ``len(X)``. The
        log-sum-exp is row-wise, so chunking does not change the result.
        """
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        out = np.empty((X.shape[0], self.n_components))
        for rows in BatchPlan(X.shape[0], batch_size):
            log_resp, _ = self._e_step(X[rows], self.weights_, self.means_, self.covariances_)
            np.exp(log_resp, out=out[rows])
        return out

    def predict(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Hard assignment: the component with the highest responsibility.

        ``batch_size`` streams the computation over row chunks (see
        :meth:`predict_proba`).
        """
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        out = np.empty(X.shape[0], dtype=np.intp)
        for rows in BatchPlan(X.shape[0], batch_size):
            weighted = self._log_weighted_prob(
                X[rows], self.weights_, self.means_, self.covariances_
            )
            out[rows] = np.argmax(weighted, axis=1)
        return out

    def score_samples(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Per-sample log marginal likelihood ``log p(x)``.

        ``batch_size`` streams the computation over row chunks (see
        :meth:`predict_proba`).
        """
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        out = np.empty(X.shape[0])
        for rows in BatchPlan(X.shape[0], batch_size):
            _, log_norm = self._e_step(X[rows], self.weights_, self.means_, self.covariances_)
            out[rows] = log_norm
        return out

    def score(self, X: np.ndarray, *, batch_size: int | None = None) -> float:
        """Mean per-sample log-likelihood."""
        return float(np.mean(self.score_samples(X, batch_size=batch_size)))

    def component_pdf(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Unweighted per-component densities ``p(x | mu_j, Sigma_j)`` (Eq. 6).

        The paper's signature mechanism ablation compares pooling these raw
        densities against pooling posteriors; both are exposed.
        ``batch_size`` streams the computation over row chunks (see
        :meth:`predict_proba`).
        """
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        out = np.empty((X.shape[0], self.n_components))
        for rows in BatchPlan(X.shape[0], batch_size):
            np.exp(
                self._log_gaussian_prob(X[rows], self.means_, self.covariances_),
                out=out[rows],
            )
        return out

    def sample(self, n_samples: int, random_state: RandomState = None) -> np.ndarray:
        """Draw ``n_samples`` variates from the fitted mixture."""
        check_fitted(self, "means_")
        n_samples = check_positive_int(n_samples, "n_samples")
        rng = check_random_state(random_state)
        counts = rng.multinomial(n_samples, self.weights_)
        chunks = []
        for j, count in enumerate(counts):
            if count == 0:
                continue
            chunks.append(rng.multivariate_normal(self.means_[j], self.covariances_[j], size=count))
        out = np.vstack(chunks)
        rng.shuffle(out)
        return out

    # ----------------------------------------------------- model selection

    def _n_parameters(self, n_features: int) -> int:
        cov_params = self.n_components * n_features * (n_features + 1) // 2
        mean_params = self.n_components * n_features
        return int(cov_params + mean_params + self.n_components - 1)

    def bic(self, X: np.ndarray) -> float:
        """Bayesian Information Criterion on ``X`` (lower is better)."""
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        log_lik = float(np.sum(self.score_samples(X)))
        return -2.0 * log_lik + self._n_parameters(X.shape[1]) * float(np.log(X.shape[0]))

    def aic(self, X: np.ndarray) -> float:
        """Akaike Information Criterion on ``X`` (lower is better)."""
        check_fitted(self, "means_")
        X = check_array_2d(X, "X")
        log_lik = float(np.sum(self.score_samples(X)))
        return -2.0 * log_lik + 2.0 * self._n_parameters(X.shape[1])
