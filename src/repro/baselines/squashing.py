"""Squashing_GMM and Squashing_SOM — Jiang et al. [11].

Both methods first squash values into log space (``sign(x) * log(1 + |x|)``)
and then induce prototypes over the squashed stack — Gaussian components for
Squashing_GMM, SOM units for Squashing_SOM. A column is embedded by how its
values distribute over the prototypes (mean posterior / mean unit response).

They differ from Gem in two ways the paper leans on (§4.2.1): the squashing
compresses scale differences (columns like 'Mileage' vs 'Year' collapse
together), and there are no statistical features to break ties.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ColumnEmbedder
from repro.core.gem import log_squash
from repro.core.signature import mean_component_probabilities
from repro.data.table import ColumnCorpus
from repro.gmm.model import GaussianMixture
from repro.som.som import SelfOrganizingMap
from repro.utils.rng import RandomState
from repro.utils.validation import check_fitted, check_positive_int


class SquashingGMMEmbedder(ColumnEmbedder):
    """GMM prototypes over log-squashed values; mean posteriors per column.

    Parameters
    ----------
    n_components:
        Number of prototypes — the paper matches Gem's component count
        (§4.1.4).
    n_init, max_iter, random_state:
        EM controls.
    """

    name = "Squashing_GMM"

    def __init__(
        self,
        n_components: int = 50,
        *,
        n_init: int = 1,
        max_iter: int = 100,
        random_state: RandomState = 0,
    ) -> None:
        self.n_components = check_positive_int(n_components, "n_components")
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.random_state = random_state
        self.gmm_: GaussianMixture | None = None

    def fit(self, corpus: ColumnCorpus, labels: list[str] | None = None) -> "SquashingGMMEmbedder":
        """Fit the prototype mixture on the squashed value stack."""
        corpus = self._require_corpus(corpus)
        squashed = log_squash(corpus.stacked_values()).reshape(-1, 1)
        self.gmm_ = GaussianMixture(
            n_components=min(self.n_components, squashed.shape[0]),
            n_init=self.n_init,
            max_iter=self.max_iter,
            random_state=self.random_state,
        ).fit(squashed)
        return self

    def transform(self, corpus: ColumnCorpus) -> np.ndarray:
        """Mean component posterior per column, pooled as Gem pools its
        signatures (:func:`~repro.core.signature.mean_component_probabilities`)."""
        corpus = self._require_corpus(corpus)
        check_fitted(self, "gmm_")
        return mean_component_probabilities(self.gmm_, [log_squash(c.values) for c in corpus])


class SquashingSOMEmbedder(ColumnEmbedder):
    """SOM prototypes over log-squashed values; mean unit response per column.

    Parameters
    ----------
    n_units:
        Prototype count on a 1-D map (the paper uses 50, §4.1.4).
    n_epochs, random_state:
        SOM training controls.
    """

    name = "Squashing_SOM"

    def __init__(
        self,
        n_units: int = 50,
        *,
        n_epochs: int = 3,
        random_state: RandomState = 0,
    ) -> None:
        self.n_units = check_positive_int(n_units, "n_units")
        self.n_epochs = check_positive_int(n_epochs, "n_epochs")
        self.random_state = random_state
        self.som_: SelfOrganizingMap | None = None

    def fit(self, corpus: ColumnCorpus, labels: list[str] | None = None) -> "SquashingSOMEmbedder":
        """Train the 1-D map on the squashed value stack."""
        corpus = self._require_corpus(corpus)
        squashed = log_squash(corpus.stacked_values()).reshape(-1, 1)
        self.som_ = SelfOrganizingMap(
            rows=1,
            cols=self.n_units,
            n_epochs=self.n_epochs,
            random_state=self.random_state,
        ).fit(squashed)
        return self

    def transform(self, corpus: ColumnCorpus) -> np.ndarray:
        """Mean soft unit response per column."""
        corpus = self._require_corpus(corpus)
        check_fitted(self, "som_")
        out = np.empty((len(corpus), self.som_.n_units))
        for i, col in enumerate(corpus):
            resp = self.som_.activation_response(log_squash(col.values).reshape(-1, 1))
            out[i] = resp.mean(axis=0)
        return out


__all__ = ["SquashingGMMEmbedder", "SquashingSOMEmbedder"]
