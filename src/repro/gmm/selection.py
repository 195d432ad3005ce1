"""Model selection for the number of Gaussian components.

Paper §4.1.4: "we determine each dataset's optimal number of components using
the Bayesian Information Criterion (BIC). The BIC results showed consistent
performance across 5 to 100 components". This module reproduces that sweep:
every candidate is fitted from scratch, with the configured ``init`` and
``n_init`` restarts, and scored against the same data, so the BIC values are
comparable. Callers that want a subsample (as
:class:`~repro.core.gem.GemEmbedder` does) draw it before the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.gmm.model import GaussianMixture
from repro.utils.rng import RandomState, spawn_seeds
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
        Number of rows the sweep scored against.
    """

    best: int
    scores: dict[int, float] = field(default_factory=dict)
    n_iter: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    subsample_size: int = 0


def select_n_components_bic(
    X: np.ndarray,
    candidates: Sequence[int] = (5, 10, 20, 50, 100),
    *,
    n_init: int = 1,
    max_iter: int = 100,
    init: str = "kmeans",
    random_state: RandomState = None,
) -> SelectionReport:
    """Fit every candidate component count cold and pick the lowest BIC.

    Parameters
    ----------
    X:
        Samples, a 1-D array or shape ``(n, 1)``.
    candidates:
        Component counts to try; counts exceeding the sample size are
        skipped.
    n_init, max_iter, init, random_state:
        Passed through to :class:`~repro.gmm.GaussianMixture`; ``init``
        controls the seeding of every fit, so the sweep evaluates
        candidates under the same initialisation strategy as the final fit.
        A ``np.random.Generator`` gives each candidate one seed drawn from
        it up front, in ascending candidate order.

    Returns
    -------
    SelectionReport
        The winning count, scores and diagnostics.
    """
    X = check_array_2d(X, "X")
    feasible = sorted({int(m) for m in candidates if m <= X.shape[0]})
    if not feasible:
        raise ValueError(
            f"no candidate in {list(candidates)} is feasible for n_samples={X.shape[0]}"
        )
    if isinstance(random_state, np.random.Generator):
        states: list[RandomState] = list(spawn_seeds(random_state, len(feasible)))
    else:
        states = [random_state] * len(feasible)

    scores: dict[int, float] = {}
    n_iter: dict[int, int] = {}
    converged: dict[int, bool] = {}
    for m, state in zip(feasible, states):
        gmm = GaussianMixture(
            n_components=m, n_init=n_init, max_iter=max_iter, init=init, random_state=state
        ).fit(X)
        scores[m] = float(gmm.bic(X))
        n_iter[m] = int(gmm.n_iter_)
        converged[m] = bool(gmm.converged_)
    best = min(scores, key=scores.get)
    return SelectionReport(
        best=int(best),
        scores=scores,
        n_iter=n_iter,
        converged=converged,
        subsample_size=int(X.shape[0]),
    )


__all__ = [
    "SelectionReport",
    "select_n_components_bic",
]
