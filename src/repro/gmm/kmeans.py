"""K-means clustering with k-means++ seeding.

K-means++ seeding initialises the GMM's EM iterations (the standard trick
to avoid the worst local optima of random-responsibility starts), and the
:class:`KMeans` estimator is a general clustering primitive elsewhere in
the library (the IVF and PQ quantizers).

Besides the :class:`KMeans` estimator, this module provides the
restart-batched 1-D seeding path of the streaming fit engine
(:func:`seed_restarts_1d`): all ``n_init`` GMM restarts are seeded in one
call, with the Lloyd assignment step vectorised across restarts and chunked
over samples so seeding peak memory is bounded like the EM that follows it.
"""

from __future__ import annotations

import numpy as np

from repro.gmm._grid import REDUCE_BLOCK
from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_array_2d, check_fitted, check_positive_int

_SEED_CHUNK = 8192


def kmeans_plus_plus_init(
    X: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Choose ``n_clusters`` seed centroids with the k-means++ strategy.

    The first centre is uniform over points; each subsequent centre is drawn
    with probability proportional to its squared distance to the nearest
    centre already chosen (Arthur & Vassilvitskii, 2007).

    Returns
    -------
    numpy.ndarray of shape (n_clusters, n_features)
    """
    X = check_array_2d(X, "X")
    n_samples = X.shape[0]
    if n_clusters > n_samples:
        raise ValueError(f"n_clusters={n_clusters} exceeds n_samples={n_samples}")
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n_samples))
    centers[0] = X[first]
    closest_sq = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centre; fall back
            # to uniform sampling so we still return the requested count.
            idx = int(rng.integers(n_samples))
        else:
            probs = closest_sq / total
            idx = int(rng.choice(n_samples, p=probs))
        centers[k] = X[idx]
        dist_sq = np.sum((X - centers[k]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centers


class KMeans:
    """Lloyd's k-means with k-means++ seeding and empty-cluster repair.

    Parameters
    ----------
    n_clusters:
        Number of centroids.
    max_iter:
        Maximum Lloyd iterations per run.
    tol:
        Convergence threshold on the decrease of inertia between iterations.
    n_init:
        Number of independent seeded runs; the run with the lowest inertia
        wins.
    random_state:
        Seed or generator for reproducibility.

    Attributes
    ----------
    cluster_centers_ : numpy.ndarray of shape (n_clusters, n_features)
    labels_ : numpy.ndarray of shape (n_samples,)
    inertia_ : float
        Sum of squared distances of points to their assigned centre.
    n_iter_ : int
        Iterations used by the winning run.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        *,
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 1,
        random_state: RandomState = None,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.n_init = check_positive_int(n_init, "n_init")
        self.random_state = random_state
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int | None = None

    def fit(self, X: np.ndarray) -> "KMeans":
        """Run ``n_init`` seeded k-means runs on ``X`` and keep the best."""
        X = check_array_2d(X, "X")
        rng = check_random_state(self.random_state)
        best: tuple[float, np.ndarray, np.ndarray, int] | None = None
        for _ in range(self.n_init):
            inertia, centers, labels, n_iter = self._single_run(X, rng)
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, n_iter)
        assert best is not None
        self.inertia_, self.cluster_centers_, self.labels_, self.n_iter_ = best
        return self

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return the winning run's labels."""
        self.fit(X)
        assert self.labels_ is not None
        return self.labels_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign each row of ``X`` to its nearest fitted centre."""
        check_fitted(self, "cluster_centers_")
        X = check_array_2d(X, "X")
        return self._assign(X, self.cluster_centers_)[0]

    def _single_run(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, np.ndarray, np.ndarray, int]:
        centers = kmeans_plus_plus_init(X, self.n_clusters, rng)
        prev_inertia = np.inf
        labels = np.zeros(X.shape[0], dtype=int)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            labels, dists = self._assign(X, centers)
            inertia = float(dists.sum())
            centers = self._update_centers(X, labels, centers, dists, rng)
            if prev_inertia - inertia < self.tol:
                prev_inertia = inertia
                break
            prev_inertia = inertia
        labels, dists = self._assign(X, centers)
        return float(dists.sum()), centers, labels, n_iter

    @staticmethod
    def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # ||x - c||^2 computed via the expansion to avoid a (n, k, d) temporary.
        sq = (
            np.sum(X**2, axis=1, keepdims=True)
            - 2 * X @ centers.T
            + np.sum(centers**2, axis=1)
        )
        np.maximum(sq, 0.0, out=sq)
        labels = np.argmin(sq, axis=1)
        return labels, sq[np.arange(X.shape[0]), labels]

    def _update_centers(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
        dists: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        new_centers = centers.copy()
        for k in range(self.n_clusters):
            members = labels == k
            if np.any(members):
                new_centers[k] = X[members].mean(axis=0)
            else:
                # Empty cluster: restart it at the point farthest from its
                # current assignment, the standard repair strategy.
                new_centers[k] = X[int(np.argmax(dists))]
        return new_centers


# ------------------------------------------------- restart-batched seeding

def _lloyd_restarts_1d(
    x: np.ndarray,
    centers: np.ndarray,
    *,
    max_iter: int,
    tol: float | None,
    repair_empty: bool,
    batch_size: int | None = None,
) -> np.ndarray:
    """Lloyd iterations for ``R`` stacked 1-D restarts at once.

    ``centers`` has shape ``(R, k)``; the refined centres are returned in
    the same shape. Nothing of size ``O(n)`` is ever materialised: the
    assignment step is vectorised across all still-active restarts and
    streamed over sample chunks of ``batch_size`` rows, and the centre
    updates accumulate per-cluster counts/sums via ``np.bincount`` segment
    sums *inside* each chunk, so peak memory is ``O(batch_size * R * k)``
    no matter how many values are stacked.

    All cross-chunk accumulations (cluster sums, inertia) run on a fixed
    ``REDUCE_BLOCK``-row grid and per-cluster contributions arrive in
    ascending sample order, so the refined centres are bit-identical for
    every ``batch_size`` and for any number of co-batched restarts — the
    property the fit engine's chunked/unchunked and per-restart
    equivalence guarantees rest on.

    With ``tol`` set, a restart whose inertia decrease falls below it is
    frozen and stops contributing compute; ``repair_empty`` relocates an
    emptied centre to the restart's farthest point (the :class:`KMeans`
    repair strategy), otherwise empty centres are left in place (the
    quantile-seeding behaviour).
    """
    n = x.size
    R, k = centers.shape
    centers = centers.astype(np.float64, copy=True)
    step = batch_size if batch_size is not None else _SEED_CHUNK
    step = max(REDUCE_BLOCK, int(step) - int(step) % REDUCE_BLOCK)
    step = min(step, n)
    active = np.arange(R)
    prev_inertia = np.full(R, np.inf)

    def _assign_stats(
        idx: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One streamed assignment pass for the restarts in ``idx``.

        Returns per-restart cluster counts ``(A, k)``, cluster value sums
        ``(A, k)``, inertia ``(A,)`` and farthest-point index ``(A,)``.
        """
        A = idx.size
        counts = np.zeros(A * k)
        sums = np.zeros(A * k)
        inertia = np.zeros(A)
        far_val = np.full(A, -np.inf)
        far_idx = np.zeros(A, dtype=np.intp)
        offsets = (np.arange(A) * k)[None, :]
        cen = centers[idx]  # (A, k)
        for start in range(0, n, step):
            stop = min(start + step, n)
            xc = x[start:stop]
            d2 = (xc[:, None, None] - cen[None, :, :]) ** 2  # (B, A, k)
            lab = np.argmin(d2, axis=2)  # (B, A)
            dmin = np.take_along_axis(d2, lab[:, :, None], axis=2)[:, :, 0]
            flat = lab + offsets
            # Contiguous per-restart rows keep the inertia reduction tree
            # independent of how many restarts are co-batched.
            dmin_t = np.ascontiguousarray(dmin.T)  # (A, B)
            for s in range(0, xc.size, REDUCE_BLOCK):
                fb = flat[s : s + REDUCE_BLOCK].ravel()
                counts += np.bincount(fb, minlength=A * k)
                xb = np.broadcast_to(
                    xc[s : s + REDUCE_BLOCK, None], flat[s : s + REDUCE_BLOCK].shape
                ).ravel()
                sums += np.bincount(fb, weights=xb, minlength=A * k)
                inertia += dmin_t[:, s : s + REDUCE_BLOCK].sum(axis=1)
            chunk_arg = np.argmax(dmin, axis=0)  # (A,)
            chunk_val = dmin[chunk_arg, np.arange(A)]
            better = chunk_val > far_val
            far_val[better] = chunk_val[better]
            far_idx[better] = chunk_arg[better] + start
        return counts.reshape(A, k), sums.reshape(A, k), inertia, far_idx

    for _ in range(max_iter):
        if active.size == 0:
            break
        counts, sums, inertia, far_idx = _assign_stats(active)
        for a, r in enumerate(active):
            nonempty = counts[a] > 0
            centers[r, nonempty] = sums[a, nonempty] / counts[a, nonempty]
            if repair_empty and not np.all(nonempty):
                centers[r, ~nonempty] = x[far_idx[a]]
        if tol is not None:
            done = (prev_inertia[active] - inertia) < tol
            prev_inertia[active] = inertia
            active = active[~done]
    return centers


def seed_restarts_1d(
    x: np.ndarray,
    n_components: int,
    seeds: list[int],
    init: str,
    *,
    batch_size: int | None = None,
) -> np.ndarray:
    """Seed every GMM restart at once: ``(R, m)`` refined centres, 1-D data.

    One call covers all ``len(seeds)`` restarts; restart ``r`` derives its
    stochastic choices from ``np.random.default_rng(seeds[r])`` only, and
    the Lloyd refinement treats restarts independently, so each returned
    centre row is bit-identical no matter how many restarts share the call
    — a restart seeded alone sees the same centres. The
    refinement streams over ``batch_size``-row chunks and never stores a
    per-sample array (see :func:`_lloyd_restarts_1d`).

    ``init`` follows :class:`~repro.gmm.model.GaussianMixture`:

    * ``"quantile"`` — centres at jittered data quantiles, refined by 5
      Lloyd rounds without empty-cluster repair (density-proportional
      seeding for heavy-tailed stacks);
    * ``"kmeans"`` — per-restart k-means++ centres refined by up to 15
      Lloyd rounds with empty-cluster repair (the :class:`KMeans`
      strategy).

    ``"random"`` initialisation draws dense responsibilities, not centres,
    and is handled inside the fit engine.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    n_components = check_positive_int(n_components, "n_components")
    if x.size < n_components:
        raise ValueError(f"n_samples={x.size} must be >= n_components={n_components}")
    R = len(seeds)
    if init == "quantile":
        qs = np.linspace(0, 1, n_components + 2)[1:-1]
        q_all = np.empty((R, n_components))
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            jitter = rng.uniform(-0.4, 0.4, size=n_components) / (n_components + 1)
            q_all[r] = np.clip(qs + jitter, 0.0, 1.0)
        # One shared sort serves every restart's quantile lookup.
        centers = np.quantile(x, q_all.ravel()).reshape(R, n_components)
        return _lloyd_restarts_1d(
            x, centers, max_iter=5, tol=None, repair_empty=False, batch_size=batch_size
        )
    if init == "kmeans":
        X2 = x.reshape(-1, 1)
        centers = np.empty((R, n_components))
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            centers[r] = kmeans_plus_plus_init(X2, n_components, rng)[:, 0]
        return _lloyd_restarts_1d(
            x, centers, max_iter=15, tol=1e-6, repair_empty=True, batch_size=batch_size
        )
    raise ValueError(f"init must be 'quantile' or 'kmeans' for centre seeding, got {init!r}")
