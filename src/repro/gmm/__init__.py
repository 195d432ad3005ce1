"""Gaussian Mixture Model substrate, implemented from scratch.

The paper's core machinery (Eqs. 1-6) is the classic EM-fitted GMM
[Dempster et al. 1977; Pearson 1894; Reynolds 2009]. scikit-learn is not
available in this environment, so this subpackage provides a compatible,
fully-tested implementation:

* :class:`~repro.gmm.kmeans.KMeans` — Lloyd's algorithm with k-means++
  seeding, the IVF/PQ quantizer and a reusable clustering primitive;
* :class:`~repro.gmm.model.GaussianMixture` — 1-D GMM over the stacked
  column values, with a log-sum-exp-stabilised E-step, the M-step updates
  of Eqs. 3-5, ``n_init`` restart-vectorized restarts and a variance floor.
  The E-step (Eq. 2) is one chunk kernel that the fit and inference
  (``predict_proba``, ``score_samples``; ``component_pdf`` is its first
  half) share. Inference is row-wise, so the transform bounds its memory
  by scoring column-aligned chunks
  (:func:`repro.core.signature.column_chunks`);
* :class:`~repro.gmm.model.FitPlan` — the block-aligned chunking plan of
  the streaming fit engine (``GaussianMixture(fit_batch_size=...)``) over
  the distinct stacked values, whose reductions make chunked and unchunked
  fits bit-identical; its ``DEFAULT_BATCH`` (2,048 values) is also the
  transform's one chunk size;
* :func:`~repro.gmm.kmeans.seed_restarts_1d` — restart-batched 1-D seeding
  of the fit engine;
* :func:`~repro.gmm.selection.select_n_components_bic` — the BIC sweep the
  paper uses to argue component-count robustness (§4.1.4, Figure 4): one
  cold fit per candidate, returning a
  :class:`~repro.gmm.selection.SelectionReport`.
"""

from repro.gmm.kmeans import KMeans, kmeans_plus_plus_init, seed_restarts_1d
from repro.gmm.model import FitPlan, GaussianMixture
from repro.gmm.selection import SelectionReport, select_n_components_bic

__all__ = [
    "KMeans",
    "kmeans_plus_plus_init",
    "seed_restarts_1d",
    "FitPlan",
    "GaussianMixture",
    "SelectionReport",
    "select_n_components_bic",
]
