"""Kohonen Self-Organising Map with Gaussian neighbourhood.

The map is a (rows x cols) grid of prototype vectors trained online: each
sample pulls its best-matching unit (BMU) and — with Gaussian falloff over
*grid* distance — the BMU's neighbours towards itself, with learning rate and
neighbourhood radius both decaying exponentially over the training horizon.
Squashing_SOM [11] uses a 1-D map over log-squashed numeric values; the grid
here is general 2-D (set ``rows=1`` for the 1-D case).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_array_2d, check_fitted, check_positive_int


class SelfOrganizingMap:
    """SOM on a rectangular grid.

    Parameters
    ----------
    rows, cols:
        Grid shape; ``rows * cols`` prototypes.
    lr:
        Initial learning rate (decays to ~1% of itself over training).
    sigma:
        Initial neighbourhood radius in grid units; defaults to half the
        larger grid dimension. Also decays exponentially.
    n_epochs:
        Passes over the data.
    random_state:
        Seed for prototype init and sample order.

    Attributes
    ----------
    weights_ : numpy.ndarray of shape (rows * cols, n_features)
        Prototype vectors (row-major grid order).
    grid_ : numpy.ndarray of shape (rows * cols, 2)
        Grid coordinates of every unit.
    quantization_error_ : float
        Mean distance of training samples to their BMU after fitting.
    """

    def __init__(
        self,
        rows: int = 1,
        cols: int = 50,
        *,
        lr: float = 0.5,
        sigma: float | None = None,
        n_epochs: int = 5,
        random_state: RandomState = None,
    ) -> None:
        self.rows = check_positive_int(rows, "rows")
        self.cols = check_positive_int(cols, "cols")
        self.lr = float(lr)
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.sigma = float(sigma) if sigma is not None else max(self.rows, self.cols) / 2.0
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.n_epochs = check_positive_int(n_epochs, "n_epochs")
        self.random_state = random_state
        self.weights_: np.ndarray | None = None
        self.grid_: np.ndarray | None = None
        self.quantization_error_: float | None = None

    @property
    def n_units(self) -> int:
        """Number of prototypes on the grid."""
        return self.rows * self.cols

    def fit(self, X: np.ndarray) -> "SelfOrganizingMap":
        """Train the map on samples ``X`` (1-D input treated as one feature)."""
        X = check_array_2d(X, "X")
        rng = check_random_state(self.random_state)
        n, d = X.shape
        # Initialise prototypes along the data range — for 1-D data this is a
        # sorted linear ramp, which makes the map converge almost immediately.
        quantiles = np.linspace(0.01, 0.99, self.n_units)
        if d == 1:
            init = np.quantile(X[:, 0], quantiles).reshape(-1, 1)
        else:
            idx = rng.choice(n, size=self.n_units, replace=n < self.n_units)
            init = X[idx] + rng.normal(0, 1e-3, size=(self.n_units, d))
        self.weights_ = init.astype(float)
        rr, cc = np.divmod(np.arange(self.n_units), self.cols)
        self.grid_ = np.stack([rr, cc], axis=1).astype(float)

        total_steps = self.n_epochs * n
        step = 0
        decay = max(total_steps / 4.0, 1.0)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for i in order:
                x = X[i]
                lr_t = self.lr * np.exp(-step / decay)
                sigma_t = max(self.sigma * np.exp(-step / decay), 1e-2)
                bmu = self._bmu(x)
                grid_dist_sq = np.sum((self.grid_ - self.grid_[bmu]) ** 2, axis=1)
                influence = np.exp(-grid_dist_sq / (2 * sigma_t**2))
                self.weights_ += lr_t * influence[:, None] * (x - self.weights_)
                step += 1
        dists = self._distances(X)
        self.quantization_error_ = float(np.mean(np.min(dists, axis=1)))
        return self

    def _bmu(self, x: np.ndarray) -> int:
        return int(np.argmin(np.sum((self.weights_ - x) ** 2, axis=1)))

    def _distances(self, X: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(X**2, axis=1, keepdims=True)
            - 2 * X @ self.weights_.T
            + np.sum(self.weights_**2, axis=1)
        )
        return np.sqrt(np.maximum(sq, 0.0))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Best-matching-unit index per sample."""
        check_fitted(self, "weights_")
        X = check_array_2d(X, "X")
        return np.argmin(self._distances(X), axis=1)

    def activation_response(self, X: np.ndarray, *, bandwidth: float | None = None) -> np.ndarray:
        """Soft unit-response matrix, rows summing to one.

        Each sample responds to every prototype with a Gaussian kernel over
        feature-space distance; Squashing_SOM averages these rows per column
        to obtain its signature. ``bandwidth`` defaults to the median
        prototype spacing.
        """
        check_fitted(self, "weights_")
        X = check_array_2d(X, "X")
        dists = self._distances(X)
        if bandwidth is None:
            spacings = np.diff(np.sort(self.weights_[:, 0])) if X.shape[1] == 1 else None  # gemlint: disable=GEM-D01(np.diff of sorted unit positions is invariant to how ties were ordered)
            if spacings is not None and spacings.size and np.median(spacings) > 0:
                bandwidth = float(np.median(spacings))
            else:
                bandwidth = float(np.mean(dists)) or 1.0
        resp = np.exp(-0.5 * (dists / bandwidth) ** 2)
        sums = resp.sum(axis=1, keepdims=True)
        sums = np.where(sums == 0, 1.0, sums)
        return resp / sums

    def quantization(self, X: np.ndarray) -> np.ndarray:
        """Prototype vector of each sample's BMU."""
        check_fitted(self, "weights_")
        X = check_array_2d(X, "X")
        return self.weights_[self.predict(X)]


__all__ = ["SelfOrganizingMap"]
