"""Configuration for the Gem pipeline.

Defaults follow the paper's parameter setting (§4.1.4): 50 Gaussian
components, EM tolerance 1e-3, 10 EM restarts. The extra switches expose the
design choices DESIGN.md calls out for ablation (signature kind,
normalisation, stacked-vs-per-column fitting, value transform).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, replace

from repro.utils.rng import RandomState

_SIGNATURE_KINDS = ("responsibility", "pdf")
_NORMALIZATIONS = ("l1", "l2", "none")
_FIT_MODES = ("stacked", "per_column")
_VALUE_TRANSFORMS = ("none", "log_squash", "standardize")
_COMPOSITIONS = ("concatenation", "aggregation", "autoencoder")
_FIT_ENGINES = ("auto", "batched", "serial")
_INDEX_BACKENDS = ("exact", "ivf", "pq")
_INDEX_DTYPES = ("float64", "float32")
# Serving policy that archives and manifests written before it moved to
# GemService still carry; never part of the model fingerprint, so it is
# dropped on read without a warning.
_RETIRED_KEYS = frozenset(
    {
        "serve_batch_window_ms",
        "serve_max_batch",
        "serve_max_workers",
        "serve_deadline_ms",
        "serve_max_pending",
        "serve_degrade_pending",
        "serve_degrade_latency_ms",
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
        Bayesian Information Criterion" (§4.1.4). The selection runs on a
        subsample of the stack for speed; ``n_components`` then serves only
        as the fallback if no candidate is feasible.
    bic_candidates:
        Component counts evaluated when ``auto_components`` is on.
    warm_start_bic:
        Run the BIC sweep warm-started: only the smallest candidate is
        fitted from scratch; every larger candidate starts from that
        converged mixture grown by splitting its heaviest components (see
        :mod:`repro.gmm.selection`) and is refined by a single EM run,
        fanning out over ``n_workers``. Dramatically cheaper for wide
        sweeps; BIC scores differ slightly from cold refits, so leave off
        when reproducing the paper's sweep exactly.
    tol / n_init / max_iter / covariance_floor:
        EM parameters (§3.1, §4.1.4).
    fit_engine:
        Training engine: ``"auto"`` (default) runs all ``n_init`` restarts
        simultaneously as one restart-vectorized streaming EM on the 1-D
        stacked values; ``"batched"`` forces that engine; ``"serial"`` runs
        restarts one at a time through the same primitives (bit-identical
        results, for debugging/benchmarking).
    fit_batch_size:
        Distinct values per E-step chunk while *fitting* the shared GMM:
        EM runs over the distinct stacked values, each weighted by its
        multiplicity, so fit cost scales with distinct values × restarts ×
        components × iterations. ``None`` uses the engine default (2048).
        Beyond the input stack itself, the O(n) distinct-value and count
        arrays and transient O(n) seeding scratch such as the quantile
        sort, fit-time peak memory is
        ``O(fit_batch_size * n_init * n_components)`` floats no matter how
        many values are stacked, and every batch size yields bit-identical
        parameters (reductions run on a fixed block grid).
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
    batch_size:
        Maximum number of stacked values scored per chunk on the transform
        path. ``None`` (default) scores the whole stack in one pass; any
        positive value bounds peak responsibility-matrix memory at
        ``batch_size * n_components`` floats regardless of corpus size. The
        chunked and unchunked paths agree to machine precision.
    cache_signatures:
        Memoise pooled signature rows by column content hash, so columns
        repeated within a corpus or across ``transform`` calls are scored
        once (``fit_mode="stacked"`` only; the cache is cleared on refit).
    n_workers:
        Worker threads for the ``fit_mode="per_column"`` ablation, which
        fits one small mixture per column; 1 keeps the serial path. Results
        are identical for any worker count.
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
        Dimensionality of the contextual header embeddings.
    ae_latent_dim / ae_epochs:
        Autoencoder-composition hyper-parameters.
    index_backend:
        Default backend for :meth:`GemEmbedder.build_index`: ``"exact"``
        (streamed blocked search, bit-identical to the dense path),
        ``"ivf"`` (partitioned approximate search) or ``"pq"``
        (IVF + product quantization — rows stored as uint8 codes for
        RAM-bound lakes).
    index_block_size:
        Stored rows scored per matmul on the exact search path. A memory
        knob only — results are bit-identical for any value.
    index_n_lists:
        Inverted lists for the IVF coarse quantizer; ``None`` resolves to
        ``round(sqrt(n))`` when the quantizer trains.
    index_n_probe:
        Inverted lists probed per IVF/PQ query — the recall/speed
        trade-off.
    index_dtype:
        Storage dtype of the index's row buffers: ``"float64"`` (default,
        the bit-identity oracle against the dense path) or ``"float32"``
        (half the bytes per row for a benchmark-gated recall delta; all
        kernel arithmetic stays float64).
    index_pq_subvectors:
        PQ backend: sub-vector slices per row — each stored row compresses
        to this many uint8 codes.
    index_pq_codes:
        PQ backend: entries per sub-codebook (2–256 so a code fits one
        uint8).
    index_pq_rerank:
        PQ backend: re-score this many top ADC candidates per query
        exactly from the raw rows before the final top-k cut (0 disables;
        enabling keeps the raw rows resident alongside the codes).
    random_state:
        Seed threaded through every stochastic stage.
    """

    n_components: int = 50
    auto_components: bool = False
    bic_candidates: tuple[int, ...] = (5, 10, 20, 50, 100)
    warm_start_bic: bool = False
    tol: float = 1e-3
    n_init: int = 10
    max_iter: int = 200
    covariance_floor: float = 1e-6
    fit_engine: str = "auto"
    fit_batch_size: int | None = None
    gmm_init: str = "quantile"
    feature_clip: float = 3.0
    use_distributional: bool = True
    use_statistical: bool = True
    use_contextual: bool = False
    signature_kind: str = "responsibility"
    normalization: str = "l1"
    fit_mode: str = "stacked"
    batch_size: int | None = None
    cache_signatures: bool = True
    n_workers: int = 1
    value_transform: str = "none"
    composition: str = "concatenation"
    balance_blocks: bool = True
    header_dim: int = 256
    ae_latent_dim: int = 64
    ae_epochs: int = 150
    index_backend: str = "exact"
    index_block_size: int = 4096
    index_n_lists: int | None = None
    index_n_probe: int = 8
    index_dtype: str = "float64"
    index_pq_subvectors: int = 8
    index_pq_codes: int = 256
    index_pq_rerank: int = 0
    random_state: RandomState = 0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.auto_components and not self.bic_candidates:
            raise ValueError("auto_components requires non-empty bic_candidates")
        if self.gmm_init not in ("quantile", "kmeans", "random"):
            raise ValueError(
                f"gmm_init must be 'quantile', 'kmeans' or 'random', got {self.gmm_init!r}"
            )
        if self.fit_engine not in _FIT_ENGINES:
            raise ValueError(f"fit_engine must be one of {_FIT_ENGINES}, got {self.fit_engine!r}")
        if self.fit_batch_size is not None and self.fit_batch_size < 1:
            raise ValueError(f"fit_batch_size must be None or >= 1, got {self.fit_batch_size}")
        if self.feature_clip <= 0:
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
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be None or >= 1, got {self.batch_size}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
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
        if self.index_backend not in _INDEX_BACKENDS:
            raise ValueError(
                f"index_backend must be one of {_INDEX_BACKENDS}, got {self.index_backend!r}"
            )
        if self.index_block_size < 1:
            raise ValueError(f"index_block_size must be >= 1, got {self.index_block_size}")
        if self.index_n_lists is not None and self.index_n_lists < 1:
            raise ValueError(f"index_n_lists must be None or >= 1, got {self.index_n_lists}")
        if self.index_n_probe < 1:
            raise ValueError(f"index_n_probe must be >= 1, got {self.index_n_probe}")
        if self.index_dtype not in _INDEX_DTYPES:
            raise ValueError(
                f"index_dtype must be one of {_INDEX_DTYPES}, got {self.index_dtype!r}"
            )
        if self.index_pq_subvectors < 1:
            raise ValueError(
                f"index_pq_subvectors must be >= 1, got {self.index_pq_subvectors}"
            )
        if not 2 <= self.index_pq_codes <= 256:
            raise ValueError(
                f"index_pq_codes must be in [2, 256], got {self.index_pq_codes}"
            )
        if self.index_pq_rerank < 0:
            raise ValueError(
                f"index_pq_rerank must be >= 0, got {self.index_pq_rerank}"
            )

    def with_features(
        self,
        *,
        distributional: bool | None = None,
        statistical: bool | None = None,
        contextual: bool | None = None,
    ) -> "GemConfig":
        """Copy of this config with different D/S/C switches (ablation)."""
        return replace(
            self,
            use_distributional=(
                self.use_distributional if distributional is None else distributional
            ),
            use_statistical=self.use_statistical if statistical is None else statistical,
            use_contextual=self.use_contextual if contextual is None else contextual,
        )

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
        The retired ``serve_*`` serving-policy keys (now
        :class:`~repro.serve.GemService` arguments) are dropped silently.
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
