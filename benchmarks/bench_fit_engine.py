"""Benchmarks for the restart-vectorized streaming fit engine.

Three claims are checked, matching the engine's acceptance criteria:

1. the batched engine reaches **identical final parameters** to the
   serial-restart baseline (the pre-engine implementation: one full-matrix
   EM per restart over every raw value, kept here as a bench-local copy)
   and picks the same winning restart;
2. running all ``n_init=10`` restarts as one vectorized streaming EM is
   **>= 2x faster** than the serial-restart baseline on a lake-scale 1-D
   stack (and never slower, even on the small CI corpus — the wall-clock
   guard);
3. fit-time peak memory is bounded by ``fit_batch_size`` — it stays flat
   as the stacked corpus grows 10x, while the baseline's E-step scales
   with ``n_values * n_components``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.gmm import GaussianMixture
from repro.utils.rng import spawn_seeds

N_COMPONENTS = 32
N_INIT = 10
MAX_ITER = 15
FIT_BATCH = 2048

_LOG_2PI = float(np.log(2.0 * np.pi))


def _make_stack(n: int, seed: int = 0) -> np.ndarray:
    """A trimodal + uniform 1-D value stack, the paper's fitting shape."""
    rng = np.random.default_rng(seed)
    third = n // 3
    return np.concatenate(
        [
            rng.normal(10, 3, third),
            rng.normal(45, 5, third),
            rng.uniform(0, 60, n - 2 * third),
        ]
    )


class _SerialRestartEM:
    """One restart of the pre-engine fit, for the serial baseline.

    The library's former per-restart path, restricted to 1-D data and
    quantile seeding: dense ``(n, m)`` responsibilities over every raw
    value, one restart at a time. The methods are copied unchanged,
    including the order in which they allocate arrays, because that order
    moves the timing: a port that allocated ``resp`` after the Lloyd loop
    returned the same bits about 10% faster and weakened the >= 2x gate.
    """

    def __init__(self, n_components: int, *, max_iter: int) -> None:
        self.n_components = n_components
        self.max_iter = max_iter
        self.tol = 1e-3  # GaussianMixture's defaults
        self.reg_covar = 1e-6

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
        return resp

    def _e_step(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (log responsibilities, per-sample log marginal likelihood)."""
        weighted = self._log_weighted_prob(X, weights, means, covariances)
        amax = np.max(weighted, axis=1, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        np.subtract(weighted, amax, out=weighted)
        sumexp = np.sum(np.exp(weighted), axis=1, keepdims=True)
        degenerate = ~(sumexp[:, 0] > 0)
        if np.any(degenerate):
            weighted[degenerate, :] = 0.0
            sumexp[degenerate] = float(weighted.shape[1])
        log_sum = np.log(sumexp)
        log_norm = (log_sum + amax).ravel()
        if np.any(degenerate):
            log_norm[degenerate] = -np.inf
        np.subtract(weighted, log_sum, out=weighted)
        return weighted, log_norm

    def _m_step(self, X: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eqs. 3-5: re-estimate weights, means and variances."""
        n, d = X.shape
        nk = resp.sum(axis=0) + 10 * np.finfo(float).tiny
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        diff = X[:, 0][:, None] - means[:, 0][None, :]
        var = np.einsum("nj,nj->j", resp, diff**2) / nk + self.reg_covar
        return weights, means, var.reshape(-1, 1, 1)

    @staticmethod
    def _log_gaussian_prob(X: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> np.ndarray:
        """Eq. 6 in log space for every (sample, component) pair."""
        var = np.maximum(covariances[:, 0, 0], np.finfo(float).tiny)
        diff = X[:, 0][:, None] - means[:, 0][None, :]
        with np.errstate(over="ignore"):
            return -0.5 * (_LOG_2PI + np.log(var)[None, :] + diff**2 / var[None, :])

    def _log_weighted_prob(
        self,
        X: np.ndarray,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
    ) -> np.ndarray:
        log_weights = np.log(np.maximum(weights, np.finfo(float).tiny))
        return self._log_gaussian_prob(X, means, covariances) + log_weights


def _serial_restart_baseline(
    x: np.ndarray, *, n_components: int, n_init: int, max_iter: int, random_state: int
) -> dict:
    """The pre-engine fit: one full-matrix EM per restart, best bound wins.

    Seeds come from the same ``spawn_seeds`` stream as the engine's, so
    both fits start every restart from the same quantile draw.
    """
    em = _SerialRestartEM(n_components, max_iter=max_iter)
    X2 = x.reshape(-1, 1)
    best: tuple[float, dict] | None = None
    for seed in spawn_seeds(random_state, n_init):
        params = em._single_fit(X2, np.random.default_rng(seed))
        if best is None or params["lower_bound"] > best[0]:
            best = (params["lower_bound"], params)
    assert best is not None
    return best[1]


def _batched_fit(
    x: np.ndarray,
    *,
    n_components: int,
    n_init: int,
    max_iter: int,
    random_state: int,
    fit_batch_size: int | None = None,
) -> GaussianMixture:
    return GaussianMixture(
        n_components,
        n_init=n_init,
        init="quantile",
        max_iter=max_iter,
        fit_batch_size=fit_batch_size,
        random_state=random_state,
    ).fit(x)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_vectorized_speedup_and_identical_parameters():
    """Acceptance: >= 2x over serial restarts at identical final parameters."""
    x = _make_stack(120_000)
    kwargs = dict(n_components=N_COMPONENTS, n_init=N_INIT, max_iter=MAX_ITER, random_state=0)

    t0 = time.perf_counter()
    baseline = _serial_restart_baseline(x, **kwargs)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = _batched_fit(x, **kwargs)
    t_batched = time.perf_counter() - t0

    # Same winning restart, same parameters (both trajectories compute the
    # same EM on the same seeds; only float reduction order differs).
    assert abs(baseline["lower_bound"] - batched.lower_bound_) < 1e-9
    assert np.allclose(baseline["weights"], batched.weights_, atol=1e-8, rtol=0)
    assert np.allclose(baseline["means"], batched.means_, atol=1e-8, rtol=0)
    assert np.allclose(baseline["covariances"], batched.covariances_, atol=1e-8, rtol=0)

    speedup = t_serial / t_batched
    print(
        f"\nfit engine ({x.size} values, m={N_COMPONENTS}, n_init={N_INIT}): "
        f"serial restarts {t_serial:.2f}s, vectorized {t_batched:.2f}s "
        f"({speedup:.2f}x)"
    )
    assert speedup >= 2.0, f"expected >= 2x over serial restarts, got {speedup:.2f}x"


def bench_not_slower_on_ci_corpus():
    """Wall-clock guard: the vectorized path must never lose to serial
    restarts, even on a corpus small enough for loaded CI runners."""
    x = _make_stack(20_000)
    kwargs = dict(n_components=24, n_init=N_INIT, max_iter=10, random_state=0)

    t0 = time.perf_counter()
    _serial_restart_baseline(x, **kwargs)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    _batched_fit(x, **kwargs)
    t_batched = time.perf_counter() - t0

    print(
        f"\nCI corpus ({x.size} values): serial {t_serial:.2f}s, "
        f"vectorized {t_batched:.2f}s ({t_serial / t_batched:.2f}x)"
    )
    assert t_batched <= t_serial, (
        f"vectorized fit slower than serial restarts: {t_batched:.2f}s vs {t_serial:.2f}s"
    )


def bench_fit_memory_flat_as_corpus_grows():
    """With a fixed fit_batch_size, peak fit memory must not scale with the
    corpus: the E-step working set is O(fit_batch_size * n_init * m)."""
    kwargs = dict(n_components=16, n_init=4, max_iter=8, random_state=0, fit_batch_size=FIT_BATCH)
    n_small, n_large = 30_000, 300_000
    small = _make_stack(n_small)
    large = _make_stack(n_large)

    peak_small = _peak_bytes(lambda: _batched_fit(small, **kwargs))
    peak_large = _peak_bytes(lambda: _batched_fit(large, **kwargs))

    # Discount only the unavoidable O(n) arrays: the caller's input stack
    # and the transient seeding scratch (np.quantile's sorted copy /
    # k-means++ distance vectors). Everything the engine itself holds —
    # E-step buffers, seeding assignment chunks, sufficient statistics —
    # must stay within the fit_batch_size working set.
    def linear_budget(n: int) -> int:
        return 4 * n * 8

    resp_small = peak_small - linear_budget(n_small)
    resp_large = peak_large - linear_budget(n_large)
    working_set = FIT_BATCH * kwargs["n_init"] * kwargs["n_components"] * 8
    print(
        f"\nfit working set beyond O(n) arrays: {resp_small / 1e6:.1f} MB at "
        f"{n_small} values vs {resp_large / 1e6:.1f} MB at {n_large} values "
        f"(chunk working set {working_set / 1e6:.1f} MB)"
    )
    assert resp_large < 1.5 * max(resp_small, 8 * working_set)


def bench_chunked_fit_identical_to_unchunked():
    """Streaming never changes the answer: any fit_batch_size, bit for bit."""
    x = _make_stack(30_000)
    kwargs = dict(n_components=16, n_init=4, max_iter=10, random_state=1)
    ref = _batched_fit(x, fit_batch_size=None, **kwargs)
    for batch in (512, 4096, x.size):
        alt = _batched_fit(x, fit_batch_size=batch, **kwargs)
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.weights_, alt.weights_)
        assert np.array_equal(ref.means_, alt.means_)
        assert np.array_equal(ref.covariances_, alt.covariances_)
