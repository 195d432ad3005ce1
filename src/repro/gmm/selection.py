"""Model selection for the number of Gaussian components.

Paper §4.1.4: "we determine each dataset's optimal number of components using
the Bayesian Information Criterion (BIC). The BIC results showed consistent
performance across 5 to 100 components". This module reproduces that sweep —
and, because refitting every candidate from scratch dominates fit time at
lake scale, rebuilds it as a **warm-started, parallel** sweep:

* every candidate scores against the same (optionally subsampled) data, so
  the BIC values are comparable and the seeding cost is paid once;
* with ``warm_start=True``, only the smallest candidate is fitted from
  scratch (with the configured ``init`` and ``n_init`` restarts); every
  larger candidate starts from that converged mixture, grown to size by
  :func:`split_components`, and is refined by a single warm EM run;
* warm-started candidates are mutually independent (each derives from the
  shared base, not from its predecessor), so they fan out over
  ``n_workers`` threads — numpy releases the GIL inside the E-step, and
  results are identical for any worker count.

The warm-start split heuristic
------------------------------

:func:`split_components` grows a mixture one component at a time by always
splitting the component with the **largest mixing weight**: the parent
``(w, mu, Sigma)`` is replaced by two children at ``mu +/- 0.5 * sigma``
(per-feature standard deviation), each carrying half the parent's weight
and the parent's covariance. The split preserves total mass and the first
moment exactly, and targets the region where a coarser mixture is most
strained — the heaviest component is, by construction, the one absorbing
the most probability mass that extra resolution could explain better. EM
then only has to refine a near-converged solution, which typically takes a
handful of iterations instead of a full cold fit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gmm.model import GaussianMixture
from repro.utils.rng import RandomState, check_random_state, spawn_seeds
from repro.utils.validation import check_array_2d


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of a BIC sweep over candidate component counts.

    Attributes
    ----------
    best:
        The winning component count (lowest BIC; ties go to the smallest).
    scores:
        BIC per evaluated candidate (infeasible candidates are absent).
    n_iter:
        EM iterations used per candidate.
    converged:
        Per-candidate EM convergence flag.
    subsample_size:
        Number of rows the sweep actually scored against.
    warm_started:
        Whether candidates above the smallest were warm-started from the
        base fit via :func:`split_components`.
    """

    best: int
    scores: dict[int, float] = field(default_factory=dict)
    n_iter: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    subsample_size: int = 0
    warm_started: bool = False


def split_components(
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
    n_target: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow a fitted mixture to ``n_target`` components by splitting.

    Deterministically splits the component with the largest mixing weight
    until the target count is reached: the parent is replaced by two
    children at ``mu +/- 0.5 * sigma`` (element-wise standard deviation from
    the covariance diagonal), each with half the parent's weight and the
    parent's covariance. See the module docstring for why this heuristic
    pairs well with a warm EM refinement.

    Parameters use the fitted-attribute shapes of
    :class:`~repro.gmm.model.GaussianMixture` (``(m,)``, ``(m, d)``,
    ``(m, d, d)``); the returned arrays use the same convention with
    ``n_target`` rows.
    """
    w = list(np.asarray(weights, dtype=np.float64))
    mu = list(np.asarray(means, dtype=np.float64))
    cov = list(np.asarray(covariances, dtype=np.float64))
    if n_target < len(w):
        raise ValueError(f"n_target={n_target} is smaller than the current {len(w)} components")
    while len(w) < n_target:
        j = int(np.argmax(w))
        sigma = np.sqrt(np.diag(cov[j]))
        half = w[j] / 2.0
        parent_mu, parent_cov = mu[j], cov[j]
        w[j] = half
        mu[j] = parent_mu - 0.5 * sigma
        w.append(half)
        mu.append(parent_mu + 0.5 * sigma)
        cov.append(parent_cov.copy())
    return np.asarray(w), np.asarray(mu), np.asarray(cov)


def select_n_components_bic(
    X: np.ndarray,
    candidates: Sequence[int] = (5, 10, 20, 50, 100),
    *,
    n_init: int = 1,
    max_iter: int = 100,
    init: str = "kmeans",
    warm_start: bool = False,
    n_workers: int = 1,
    subsample_size: int | None = None,
    fit_batch_size: int | None = None,
    random_state: RandomState = None,
) -> SelectionReport:
    """Sweep candidate component counts and pick the lowest BIC.

    Parameters
    ----------
    X:
        Samples, a 1-D array or shape ``(n, 1)``.
    candidates:
        Component counts to try; counts exceeding the (sub)sample size are
        skipped.
    n_init, max_iter, init, random_state:
        Passed through to :class:`~repro.gmm.GaussianMixture`; ``init``
        controls the seeding of every cold fit (and of the warm-start base),
        so the sweep evaluates candidates under the same initialisation
        strategy as the final fit.
    warm_start:
        Fit only the smallest candidate from scratch; warm-start every
        larger candidate from it via :func:`split_components` (single EM
        run each). Dramatically cheaper for wide sweeps; scores differ
        slightly from cold fits since warm EM refines a grown solution.
    n_workers:
        Worker threads for mutually independent candidate fits. Results are
        identical for any worker count.
    subsample_size:
        Score against a uniform subsample of at most this many rows, shared
        by every candidate. ``None`` uses all rows.
    fit_batch_size:
        Streaming-engine chunk size threaded through to every fit (see
        :class:`~repro.gmm.model.GaussianMixture`).

    Returns
    -------
    SelectionReport
        The winning count, scores and diagnostics.
    """
    X = check_array_2d(X, "X")
    if subsample_size is not None and X.shape[0] > subsample_size:
        rng = check_random_state(random_state)
        idx = rng.choice(X.shape[0], size=subsample_size, replace=False)
        X = X[idx]
    feasible = sorted({int(m) for m in candidates if m <= X.shape[0]})
    if not feasible:
        raise ValueError(
            f"no candidate in {list(candidates)} is feasible for n_samples={X.shape[0]}"
        )
    if isinstance(random_state, np.random.Generator):
        # A shared Generator is stateful; pre-draw one seed per candidate
        # serially so threaded and serial sweeps see identical seeds.
        states: list[RandomState] = list(spawn_seeds(random_state, len(feasible)))
    else:
        states = [random_state] * len(feasible)

    def _cold(m: int, state: RandomState) -> tuple[GaussianMixture, float]:
        gmm = GaussianMixture(
            n_components=m,
            n_init=n_init,
            max_iter=max_iter,
            init=init,
            fit_batch_size=fit_batch_size,
            random_state=state,
        )
        gmm.fit(X)
        return gmm, float(gmm.bic(X))

    def _fan_out(fit_one, jobs: list) -> dict[int, tuple[GaussianMixture, float]]:
        """Run independent candidate fit+score jobs, threaded when it pays
        off; scoring stays inside the job so the BIC pass parallelises too."""
        if n_workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
                results = list(pool.map(lambda job: fit_one(*job), jobs))
        else:
            results = [fit_one(m, s) for m, s in jobs]
        return {m: r for (m, _), r in zip(jobs, results)}

    fitted: dict[int, tuple[GaussianMixture, float]] = {}
    if warm_start and len(feasible) > 1:
        fitted[feasible[0]] = _cold(feasible[0], states[0])
        base = fitted[feasible[0]][0]

        def _warm(m: int, state: RandomState) -> tuple[GaussianMixture, float]:
            w, mu, cov = split_components(base.weights_, base.means_, base.covariances_, m)
            gmm = GaussianMixture(
                n_components=m,
                n_init=1,
                max_iter=max_iter,
                init=init,
                fit_batch_size=fit_batch_size,
                random_state=state,
            )
            gmm.fit_from(X, w, mu, cov)
            return gmm, float(gmm.bic(X))

        fitted.update(_fan_out(_warm, list(zip(feasible[1:], states[1:]))))
    else:
        fitted.update(_fan_out(_cold, list(zip(feasible, states))))

    scores = {m: fitted[m][1] for m in feasible}
    best = min(scores, key=scores.get)
    return SelectionReport(
        best=int(best),
        scores=scores,
        n_iter={m: int(fitted[m][0].n_iter_) for m in feasible},
        converged={m: bool(fitted[m][0].converged_) for m in feasible},
        subsample_size=int(X.shape[0]),
        warm_started=bool(warm_start and len(feasible) > 1),
    )


__all__ = [
    "SelectionReport",
    "select_n_components_bic",
    "split_components",
]
