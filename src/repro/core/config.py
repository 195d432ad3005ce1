"""Configuration for the Gem pipeline.

Defaults follow the paper's parameter setting (§4.1.4): 50 Gaussian
components, EM tolerance 1e-3, 10 EM restarts. The extra switches expose the
design choices the ablation experiments vary (signature kind,
normalisation, stacked-vs-per-column fitting, value transform).

``GemConfig`` holds what fits and embeds; each downstream setting has one
owner elsewhere. Index settings (backend, probe width, storage dtype, PQ
codebooks) are :class:`~repro.index.GemIndex` arguments, and serving policy
(batching, deadlines, admission) is :class:`~repro.serve.GemService`
arguments. The transform's chunk size is no setting at all: every transform
scores fixed chunks of the fit's size (:mod:`repro.core.signature`).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

from repro.text.embedder import HashingTextEmbedder
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

_SIGNATURE_KINDS = ("responsibility", "pdf")
_NORMALIZATIONS = ("l1", "l2", "none")
_FIT_MODES = ("stacked", "per_column")
_VALUE_TRANSFORMS = ("none", "log_squash", "standardize")
_COMPOSITIONS = ("concatenation", "aggregation", "autoencoder")
# Keys that archives and manifests written by older versions still carry
# (the serving policy that moved to GemService, the index settings that
# moved to GemIndex, the removed fit-engine switch, warm-started BIC sweep
# and per-column thread count, the fit chunk size, now only a
# GaussianMixture argument, the transform chunk size, now fixed, and the
# signature-cache switch, now always on in stacked mode); none is part of
# the model fingerprint, so they are dropped on read without a warning.
_RETIRED_KEYS = frozenset(
    {
        "batch_size",
        "cache_signatures",
        "fit_batch_size",
        "fit_engine",
        "index_backend",
        "index_block_size",
        "index_n_lists",
        "index_n_probe",
        "index_dtype",
        "index_pq_subvectors",
        "index_pq_codes",
        "index_pq_rerank",
        "n_workers",
        "serve_batch_window_ms",
        "serve_max_batch",
        "serve_max_workers",
        "serve_deadline_ms",
        "serve_max_pending",
        "serve_degrade_pending",
        "serve_degrade_latency_ms",
        "warm_start_bic",
    }
)


@dataclass(frozen=True)
class GemConfig:
    """All knobs of :class:`~repro.core.gem.GemEmbedder`.

    Attributes
    ----------
    n_components:
        Number of Gaussian components ``m`` (paper default 50).
    auto_components:
        Select ``m`` by BIC over ``bic_candidates`` at fit time instead —
        "we determine each dataset's optimal number of components using the
        Bayesian Information Criterion" (§4.1.4). Every candidate is fitted
        from scratch on the same subsample of at most 10k stacked values
        (see :mod:`repro.gmm.selection`); ``n_components`` then serves only
        as the fallback if no candidate is feasible.
    bic_candidates:
        Component counts evaluated when ``auto_components`` is on; each
        must be >= 1.
    tol / n_init / max_iter / covariance_floor:
        EM parameters (§3.1, §4.1.4).
    gmm_init:
        EM initialisation: ``"quantile"`` (default — density-proportional
        component seeding, essential on heavy-tailed raw value stacks),
        ``"kmeans"`` or ``"random"``.
    feature_clip:
        Winsorisation bound for the standardised statistical features.
        Raw z-scores are unbounded; a single heavy-tailed column would
        otherwise dominate the jointly L1-normalised signature (Eq. 9) and
        erase its distributional block. Set to ``inf`` to disable.
    use_distributional / use_statistical / use_contextual:
        The D / S / C feature switches of the Figure-3 ablation. At least
        one must be enabled.
    signature_kind:
        ``"responsibility"`` pools E-step posteriors (Eq. 2, the paper's
        probability matrix); ``"pdf"`` pools raw component densities (Eq. 6)
        — the ablation alternative.
    normalization:
        Normalisation of the augmented signature vector: the paper's L1
        (Eq. 9), L2, or none.
    fit_mode:
        ``"stacked"`` fits one GMM on all values (paper §3.2);
        ``"per_column"`` fits a small GMM per column (ablation).
    value_transform:
        Optional transform applied to values before GMM fitting: ``"none"``
        (paper), ``"log_squash"`` (sign(x)·log1p|x|, as Squashing_* use), or
        ``"standardize"``.
    composition:
        How D/S/C blocks are combined: concatenation (Eq. 11/13),
        aggregation or autoencoder (§4.2.2).
    balance_blocks:
        Rescale each block to unit mean row L2-norm before composition.
        L1-normalised blocks of very different widths otherwise contribute
        wildly different magnitudes to cosine similarity (a 50-dim signature
        would drown a 256-dim header block); balancing makes the
        concatenation behave the way Table 3 reports. Disable to get the
        strictly literal Eq. 11. In stacked mode the block norms (like the
        signature's feature-block scale) are frozen on the fit corpus, so
        ``transform`` embeds a column identically whatever corpus it
        arrives in.
    header_dim:
        Dimensionality of the contextual header embeddings, an integer of
        at least ``HashingTextEmbedder.MIN_DIM`` (8).
    ae_latent_dim / ae_epochs:
        Autoencoder-composition hyper-parameters, positive integers.
    random_state:
        Seed threaded through every stochastic stage.
    """

    n_components: int = 50
    auto_components: bool = False
    bic_candidates: tuple[int, ...] = (5, 10, 20, 50, 100)
    tol: float = 1e-3
    n_init: int = 10
    max_iter: int = 200
    covariance_floor: float = 1e-6
    gmm_init: str = "quantile"
    feature_clip: float = 3.0
    use_distributional: bool = True
    use_statistical: bool = True
    use_contextual: bool = False
    signature_kind: str = "responsibility"
    normalization: str = "l1"
    fit_mode: str = "stacked"
    value_transform: str = "none"
    composition: str = "concatenation"
    balance_blocks: bool = True
    header_dim: int = 256
    ae_latent_dim: int = 64
    ae_epochs: int = 150
    random_state: RandomState = 0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.covariance_floor) and self.covariance_floor >= 0):
            raise ValueError(
                f"covariance_floor must be finite and >= 0, got {self.covariance_floor}"
            )
        # `not x > 0` rather than `x <= 0`, so NaN is refused too.
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.auto_components and not self.bic_candidates:
            raise ValueError("auto_components requires non-empty bic_candidates")
        if not all(m >= 1 for m in self.bic_candidates):
            raise ValueError(f"bic_candidates must all be >= 1, got {self.bic_candidates}")
        if self.gmm_init not in ("quantile", "kmeans", "random"):
            raise ValueError(
                f"gmm_init must be 'quantile', 'kmeans' or 'random', got {self.gmm_init!r}"
            )
        if not self.feature_clip > 0:
            raise ValueError(f"feature_clip must be > 0, got {self.feature_clip}")
        if self.signature_kind not in _SIGNATURE_KINDS:
            raise ValueError(
                f"signature_kind must be one of {_SIGNATURE_KINDS}, got {self.signature_kind!r}"
            )
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {_NORMALIZATIONS}, got {self.normalization!r}"
            )
        if self.fit_mode not in _FIT_MODES:
            raise ValueError(f"fit_mode must be one of {_FIT_MODES}, got {self.fit_mode!r}")
        if self.value_transform not in _VALUE_TRANSFORMS:
            raise ValueError(
                f"value_transform must be one of {_VALUE_TRANSFORMS}, got {self.value_transform!r}"
            )
        if self.composition not in _COMPOSITIONS:
            raise ValueError(
                f"composition must be one of {_COMPOSITIONS}, got {self.composition!r}"
            )
        if not (self.use_distributional or self.use_statistical or self.use_contextual):
            raise ValueError("at least one of D/S/C feature families must be enabled")
        # Checked here although only some configurations build the header
        # embedder or the autoencoder, so a manifest that cannot refit
        # never loads.
        check_positive_int(self.header_dim, "header_dim", minimum=HashingTextEmbedder.MIN_DIM)
        check_positive_int(self.ae_latent_dim, "ae_latent_dim")
        check_positive_int(self.ae_epochs, "ae_epochs")

    def to_manifest_dict(self) -> dict:
        """This config as a JSON-serialisable dict (manifest/archive form).

        The single canonical dict form shared by ``save_gem`` archives and
        :mod:`repro.bundle` manifests: plain JSON types only, with
        ``bic_candidates`` as a list. A ``np.random.Generator``
        ``random_state`` cannot be serialised — it is dropped with a
        warning and the reloaded config falls back to the default seed
        (the same contract ``save_gem`` has always had).
        """
        cfg = dataclasses.asdict(self)
        cfg["bic_candidates"] = list(cfg["bic_candidates"])
        if cfg["random_state"] is not None and not isinstance(
            cfg["random_state"], (int, float, str, bool)
        ):
            warnings.warn(
                "random_state is a np.random.Generator and cannot be "
                "persisted; the reloaded config will use the default seed",
                RuntimeWarning,
                stacklevel=2,
            )
            del cfg["random_state"]
        return cfg

    @classmethod
    def from_manifest_dict(cls, cfg_dict: dict) -> "GemConfig":
        """Rebuild a config from its :meth:`to_manifest_dict` form.

        Dicts written by other library versions may carry keys this
        version lacks (or miss ones it has); unknown keys are dropped
        with a warning — not silently, a typo'd hand-edited key must be
        noticed — and missing ones fall back to the dataclass defaults.
        Retired keys — the ``serve_*`` serving policy (now
        :class:`~repro.serve.GemService` arguments), the ``index_*``
        settings (now :class:`~repro.index.GemIndex` arguments) and the
        removed fit-engine, warm-start, thread-count, fit-chunk and
        transform-chunk switches — are dropped silently.
        Field values are re-validated by ``__post_init__``, so a
        hand-edited manifest cannot smuggle in an invalid configuration.
        """
        cfg_dict = dict(cfg_dict)
        if "bic_candidates" in cfg_dict:
            cfg_dict["bic_candidates"] = tuple(cfg_dict["bic_candidates"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(cfg_dict) - known - _RETIRED_KEYS)
        if unknown:
            warnings.warn(
                f"ignoring unknown GemConfig keys in archive: {unknown}",
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(**{k: v for k, v in cfg_dict.items() if k in known})

    @classmethod
    def fast(cls, **overrides: object) -> "GemConfig":
        """A laptop-scale profile: fewer restarts/iterations, same pipeline.

        The paper-faithful defaults (50 components x 10 restarts) dominate
        runtime on large corpora; experiments at ``scale='small'`` use this
        profile unless told otherwise.
        """
        base = dict(n_init=2, max_iter=100)
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]


__all__ = ["GemConfig"]
