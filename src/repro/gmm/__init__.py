"""Gaussian Mixture Model substrate, implemented from scratch.

The paper's core machinery (Eqs. 1-6) is the classic EM-fitted GMM
[Dempster et al. 1977; Pearson 1894; Reynolds 2009]. scikit-learn is not
available in this environment, so this subpackage provides a compatible,
fully-tested implementation:

* :class:`~repro.gmm.kmeans.KMeans` — Lloyd's algorithm with k-means++
  seeding, used to initialise EM (and reusable as a clustering primitive);
* :class:`~repro.gmm.model.GaussianMixture` — full-covariance GMM with
  log-sum-exp-stabilised E-step, the M-step updates of Eqs. 3-5, ``n_init``
  restarts and a covariance floor;
* :class:`~repro.gmm.model.BatchPlan` — the row-chunking plan behind the
  bounded-memory ``batch_size`` option of every inference method;
* :class:`~repro.gmm.model.FitPlan` — the block-aligned chunking plan of
  the streaming fit engine (``fit_batch_size``) over the distinct stacked
  values, whose reductions make chunked and unchunked fits bit-identical;
* :func:`~repro.gmm.kmeans.seed_restarts_1d` — restart-batched 1-D seeding
  shared by the serial and batched fit engines;
* :func:`~repro.gmm.selection.select_n_components_bic` — the BIC sweep the
  paper uses to argue component-count robustness (§4.1.4, Figure 4), now a
  warm-started parallel sweep returning a
  :class:`~repro.gmm.selection.SelectionReport`.
"""

from repro.gmm.kmeans import KMeans, kmeans_plus_plus_init, seed_restarts_1d
from repro.gmm.model import BatchPlan, FitPlan, GaussianMixture
from repro.gmm.selection import SelectionReport, select_n_components_bic, split_components

__all__ = [
    "KMeans",
    "kmeans_plus_plus_init",
    "seed_restarts_1d",
    "BatchPlan",
    "FitPlan",
    "GaussianMixture",
    "SelectionReport",
    "select_n_components_bic",
    "split_components",
]
