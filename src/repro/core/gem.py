"""The Gem embedder: end-to-end pipeline of paper §3 / Algorithm 1.

Typical use::

    from repro.core import GemEmbedder
    from repro.data import make_gds

    corpus = make_gds()
    gem = GemEmbedder(n_components=50, n_init=10, random_state=0)
    embeddings = gem.fit_transform(corpus)          # (n_columns, dim)

The embedder is corpus-level by design: the GMM is fitted on the stack of
*all* column values (§3.2) and the statistical features are standardised
across the corpus (Eq. 7), so embeddings of different columns are mutually
comparable.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from repro.core.cache import SignatureCache, array_fingerprint
from repro.core.composition import compose
from repro.core.config import GemConfig
from repro.core.signature import mean_component_probabilities, signature_matrix
from repro.core.statistics import STATISTICAL_FEATURE_NAMES, columns_statistics_batch
from repro.data.table import ColumnCorpus
from repro.gmm.model import GaussianMixture
from repro.gmm.selection import SelectionReport, select_n_components_bic
from repro.text.embedder import HashingTextEmbedder
from repro.utils.preprocessing import l1_normalize
from repro.utils.rng import RandomState, check_random_state, spawn_seeds


def _balance(block: np.ndarray) -> np.ndarray:
    """Scale a block to unit mean row L2-norm (see GemConfig.balance_blocks)."""
    norms = np.linalg.norm(block, axis=1)
    mean_norm = float(norms.mean())
    if mean_norm == 0:
        return block
    return block / mean_norm


def _balance_structure(cfg: GemConfig) -> tuple[bool, bool]:
    """Which corpus-level balance steps a config's transform performs.

    Returns ``(joint, multi)``: whether the D+S signature derives a joint
    feature-block scale, and whether ``balance_blocks`` equalises multiple
    blocks. The freezing logic, the per_column corpus-dependence guard and
    ``load_gem``'s archive check all key on this pair — keep them reading
    one definition so they cannot drift.
    """
    joint = cfg.use_distributional and cfg.use_statistical
    n_blocks = int(cfg.use_distributional or cfg.use_statistical) + int(cfg.use_contextual)
    return joint, cfg.balance_blocks and n_blocks > 1


def log_squash(values: np.ndarray) -> np.ndarray:
    """Sign-preserving log squash ``sign(x) * log(1 + |x|)``.

    The transform Jiang et al. [11] apply before prototype induction;
    exposed here because :class:`GemConfig` offers it as an ablation
    (``value_transform="log_squash"``).
    """
    v = np.asarray(values, dtype=float)
    return np.sign(v) * np.log1p(np.abs(v))


class GemEmbedder:
    """Gaussian Mixture Model embeddings for numerical columns.

    Parameters
    ----------
    n_components:
        Number of Gaussian components; overrides the config value.
    config:
        A full :class:`~repro.core.config.GemConfig`; defaults to the
        paper's settings.
    **overrides:
        Any :class:`GemConfig` field as a keyword (e.g. ``n_init=2``,
        ``use_contextual=True``).

    Attributes
    ----------
    gmm_ : GaussianMixture
        The shared mixture fitted on the stacked values (``fit_mode =
        "stacked"``).
    config : GemConfig
        The resolved configuration.
    """

    def __init__(
        self,
        n_components: int | None = None,
        *,
        config: GemConfig | None = None,
        **overrides: object,
    ) -> None:
        cfg = config if config is not None else GemConfig()
        fields = {f.name for f in dataclasses.fields(GemConfig)}
        unknown = set(overrides) - fields
        if unknown:
            raise TypeError(f"unknown GemConfig overrides: {sorted(unknown)}")
        if n_components is not None:
            overrides["n_components"] = n_components
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)  # type: ignore[arg-type]
        self.config = cfg
        self._header_embedder = HashingTextEmbedder(dim=cfg.header_dim)
        self.gmm_: GaussianMixture | None = None
        self.selection_report_: SelectionReport | None = None
        self._transform_stats: tuple[float, float] | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None
        self._signature_balance: float | None = None
        self._block_norms: list[float] | None = None
        self._signature_cache: SignatureCache | None = (
            SignatureCache() if cfg.fit_mode == "stacked" else None
        )

    # ------------------------------------------------------------------ fit

    def fit(self, corpus: ColumnCorpus) -> "GemEmbedder":
        """Fit the value model on a corpus (Algorithm 1, lines 1-9).

        Fits the shared GMM on the stacked (optionally transformed) values
        and freezes the statistical-feature standardisation so ``transform``
        can embed unseen columns consistently.
        """
        if not isinstance(corpus, ColumnCorpus):
            raise TypeError(f"corpus must be a ColumnCorpus, got {type(corpus).__name__}")
        cfg = self.config
        if self._signature_cache is not None:
            # A refit changes the mixture, so every memoised row is stale.
            self._signature_cache.clear()
        # Likewise a previous fit's sweep: this fit may run none.
        self.selection_report_ = None
        stacked = corpus.stacked_values()
        stacked = self._fit_value_transform(stacked)
        n_components = cfg.n_components
        if cfg.auto_components and cfg.fit_mode != "stacked":
            warnings.warn(
                "auto_components=True is ignored with fit_mode='per_column': "
                "the BIC sweep selects the component count of the shared "
                "stacked GMM, which per-column mode never fits",
                RuntimeWarning,
                stacklevel=2,
            )
        if cfg.auto_components and cfg.fit_mode == "stacked":
            n_components = self._select_components(stacked)
        if cfg.fit_mode == "stacked":
            self.gmm_ = GaussianMixture(
                n_components=min(n_components, stacked.size),
                tol=cfg.tol,
                n_init=cfg.n_init,
                max_iter=cfg.max_iter,
                reg_covar=cfg.covariance_floor,
                init=cfg.gmm_init,
                random_state=cfg.random_state,
            ).fit(stacked.reshape(-1, 1))
        else:
            self.gmm_ = None  # per-column mode fits at transform time
        raw_feats = columns_statistics_batch([c.values for c in corpus])
        self._feature_mean = raw_feats.mean(axis=0)
        std = raw_feats.std(axis=0)
        self._feature_std = np.where(std == 0, 1.0, std)
        self._fitted = True
        self._freeze_balance(corpus, raw_feats)
        return self

    def _freeze_balance(self, corpus: ColumnCorpus, raw_feats: np.ndarray) -> None:
        """Freeze the corpus-level balance statistics on the fit corpus.

        Two balance steps otherwise recompute corpus means per ``transform``
        call — the feature-block scale inside :func:`signature_matrix` and
        the per-block norm equalisation of ``balance_blocks`` — which would
        embed the same column differently depending on what else is in the
        transformed corpus. Freezing them here (like the feature
        standardisation above) makes the stacked-mode transform
        corpus-independent, so an index can serve queries from any corpus.
        ``fit_mode="per_column"`` cannot freeze (its distributional block
        is fitted at transform time) and stays corpus-dependent.

        ``raw_feats`` is fit's per-column statistics matrix, reused here so
        freezing adds no second statistics pass. The mixture scoring pass
        it does need is memoised by the signature cache and reused by the
        next ``transform`` of the fit corpus.
        """
        cfg = self.config
        self._signature_balance = None
        self._block_norms = None
        if cfg.fit_mode != "stacked":
            return
        joint, multi = _balance_structure(cfg)
        if not (joint or multi):
            return
        probs = feats = None
        if cfg.use_statistical:
            feats = self._standardize_features(raw_feats)
        if joint:
            probs = self.mean_probabilities(corpus)
            prob_mass = float(np.abs(probs).sum(axis=1).mean())
            feat_mass = float(np.abs(feats).sum(axis=1).mean())
            self._signature_balance = (
                prob_mass / feat_mass if feat_mass > 0 and prob_mass > 0 else 1.0
            )
        if multi:
            blocks = self._assemble_blocks(corpus, probs=probs, feats=feats)
            self._block_norms = [
                float(np.linalg.norm(b, axis=1).mean()) for b in blocks
            ]

    def _select_components(self, stacked: np.ndarray) -> int:
        """BIC sweep over the configured candidates (paper §4.1.4).

        Runs on a 10k-value subsample: BIC rankings on stacked 1-D value
        data stabilise well below that, and the full fit follows anyway.
        Every candidate scores against that one subsample and seeds with
        the same ``gmm_init`` strategy as the final fit.
        """
        cfg = self.config
        sample = stacked
        if sample.size > 10_000:
            rng = check_random_state(cfg.random_state)
            sample = rng.choice(sample, size=10_000, replace=False)
        if min(cfg.bic_candidates) > sample.size:
            # No candidate is feasible: fall back to n_components, unswept.
            return cfg.n_components
        self.selection_report_ = select_n_components_bic(
            sample,
            candidates=cfg.bic_candidates,
            n_init=1,
            max_iter=min(cfg.max_iter, 100),
            init=cfg.gmm_init,
            random_state=cfg.random_state,
        )
        return self.selection_report_.best

    def _fit_value_transform(self, stacked: np.ndarray) -> np.ndarray:
        transform = self.config.value_transform
        if transform == "none":
            self._transform_stats = None
            return stacked
        if transform == "log_squash":
            self._transform_stats = None
            return log_squash(stacked)
        if transform == "standardize":
            mu, sigma = float(np.mean(stacked)), float(np.std(stacked)) or 1.0
            self._transform_stats = (mu, sigma)
            return (stacked - mu) / sigma
        # GemConfig validates the field, but a config bypassing __post_init__
        # (e.g. a hand-edited archive) must not silently fall back to z-score.
        raise ValueError(f"unknown value_transform {transform!r}")

    def _apply_value_transform(self, values: np.ndarray) -> np.ndarray:
        transform = self.config.value_transform
        if transform == "none":
            return values
        if transform == "log_squash":
            return log_squash(values)
        if transform == "standardize":
            assert self._transform_stats is not None
            mu, sigma = self._transform_stats
            return (values - mu) / sigma
        raise ValueError(f"unknown value_transform {transform!r}")

    # ------------------------------------------------------------ transform

    def _assemble_blocks(
        self,
        corpus: ColumnCorpus,
        *,
        probs: np.ndarray | None = None,
        feats: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """The enabled D/S/C blocks of ``corpus``, pre-balance.

        ``probs``/``feats`` accept already-computed mean probabilities and
        standardised features so fit-time freezing does not score or
        summarise the corpus twice.
        """
        cfg = self.config
        blocks: list[np.ndarray] = []
        if cfg.use_distributional and cfg.use_statistical:
            # Paper pipeline: joint normalisation of [m_i || f~_i] (Eqs. 8-9).
            blocks.append(
                signature_matrix(
                    probs if probs is not None else self.mean_probabilities(corpus),
                    feats if feats is not None else self.statistical_embeddings(corpus),
                    normalization=cfg.normalization,
                    balance_scale=self._signature_balance,
                )
            )
        elif cfg.use_distributional:
            blocks.append(
                signature_matrix(
                    probs if probs is not None else self.mean_probabilities(corpus),
                    normalization=cfg.normalization,
                )
            )
        elif cfg.use_statistical:
            blocks.append(feats if feats is not None else self.statistical_embeddings(corpus))
        if cfg.use_contextual:
            blocks.append(self.contextual_embeddings(corpus))
        return blocks

    def transform(self, corpus: ColumnCorpus) -> np.ndarray:
        """Embed every column of ``corpus`` per the configured D/S/C mix."""
        self._check_fitted()
        cfg = self.config
        blocks = self._assemble_blocks(corpus)
        if not blocks:
            raise ValueError(
                "nothing to embed: enable at least one of use_distributional, "
                "use_statistical or use_contextual in GemConfig"
            )
        if cfg.balance_blocks and len(blocks) > 1:
            if self._block_norms is not None:
                blocks = [
                    b / norm if norm else b
                    for b, norm in zip(blocks, self._block_norms)
                ]
            else:
                blocks = [_balance(b) for b in blocks]
        return compose(
            blocks,
            cfg.composition,
            latent_dim=cfg.ae_latent_dim,
            ae_epochs=cfg.ae_epochs,
            random_state=cfg.random_state,
        )

    def fit_transform(self, corpus: ColumnCorpus) -> np.ndarray:
        """Fit on ``corpus`` and embed it."""
        return self.fit(corpus).transform(corpus)

    # ----------------------------------------------------- embedding blocks

    def mean_probabilities(self, corpus: ColumnCorpus) -> np.ndarray:
        """Raw mean component probabilities per column (pre-normalisation).

        Scoring streams over fixed column-aligned chunks
        (:func:`~repro.core.signature.mean_component_probabilities`), and
        rows are memoised by column content hash, so repeated columns in a
        lake are scored once.
        """
        self._check_fitted()
        cfg = self.config
        if cfg.fit_mode != "stacked":
            values = [self._apply_value_transform(c.values) for c in corpus]
            return self._per_column_parameters(values)
        assert self.gmm_ is not None and self._signature_cache is not None
        for i, c in enumerate(corpus):
            # Checked here so the error names the corpus index even when
            # only a subset of columns reaches the scorer below.
            if c.values.size == 0:
                raise ValueError(
                    f"column {i} has no values; every column needs at least "
                    "one value to pool a signature"
                )
        keys = [array_fingerprint(c.values) for c in corpus]
        rows = [self._signature_cache.get(key) for key in keys]
        # One corpus position per distinct missing key: duplicates within
        # the corpus are scored once too.
        to_score = {key: i for i, (key, row) in enumerate(zip(keys, rows)) if row is None}
        if not to_score:
            return np.array(rows)
        values = [self._apply_value_transform(corpus[i].values) for i in to_score.values()]
        fresh = mean_component_probabilities(self.gmm_, values, kind=cfg.signature_kind)
        for key, row in zip(to_score, fresh):
            self._signature_cache.put(key, row)
        if len(to_score) == len(keys):
            return fresh  # every column was missing and distinct: rows in corpus order
        fresh_rows = dict(zip(to_score, fresh))
        return np.array([fresh_rows[key] if row is None else row for key, row in zip(keys, rows)])

    def _per_column_parameters(self, values: list[np.ndarray]) -> np.ndarray:
        """Per-column GMM parameter embedding (the ``fit_mode='per_column'``
        ablation): sorted (weight, mean, std) triplets of a small mixture
        fitted to each column alone."""
        cfg = self.config
        k = min(5, cfg.n_components)
        if isinstance(cfg.random_state, np.random.Generator):
            # Draw one seed per column up front, so a column's seed depends on
            # its position, not on how much randomness earlier fits consumed.
            states: list[RandomState] = list(spawn_seeds(cfg.random_state, len(values)))
        else:
            states = [cfg.random_state] * len(values)
        return np.stack([self._fit_column_mixture(v, s, k) for v, s in zip(values, states)])

    def _fit_column_mixture(self, v: np.ndarray, random_state: RandomState, k: int) -> np.ndarray:
        """One column's sorted (weight, mean, std) parameter row."""
        cfg = self.config
        n_comp = max(1, min(k, np.unique(v).size))
        gmm = GaussianMixture(
            n_components=n_comp,
            tol=cfg.tol,
            n_init=1,
            max_iter=cfg.max_iter,
            reg_covar=cfg.covariance_floor,
            init=cfg.gmm_init,
            random_state=random_state,
        ).fit(v.reshape(-1, 1))
        # Stable so components with exactly equal means (degenerate fits on
        # constant-heavy columns) order reproducibly across runs.
        order = np.argsort(gmm.means_.ravel(), kind="stable")
        row = np.zeros(3 * k)
        row[:n_comp] = gmm.weights_[order]
        row[k : k + n_comp] = gmm.means_.ravel()[order]
        row[2 * k : 2 * k + n_comp] = np.sqrt(gmm.covariances_[order, 0, 0])
        return row

    def statistical_embeddings(self, corpus: ColumnCorpus) -> np.ndarray:
        """Standardised statistical features (Eq. 7), using fit-time moments.

        Z-scores are winsorised at ``config.feature_clip`` so heavy-tailed
        columns cannot monopolise the jointly normalised signature.
        """
        self._check_fitted()
        raw = columns_statistics_batch([c.values for c in corpus])
        return self._standardize_features(raw)

    def _standardize_features(self, raw: np.ndarray) -> np.ndarray:
        """Frozen-moment z-scoring + winsorisation of raw feature rows."""
        z = (raw - self._feature_mean) / self._feature_std
        clip = self.config.feature_clip
        if np.isfinite(clip):
            z = np.clip(z, -clip, clip)
        return z

    def contextual_embeddings(self, corpus: ColumnCorpus) -> np.ndarray:
        """L1-normalised header embeddings (Eq. 10)."""
        return l1_normalize(self._header_embedder.encode(corpus.headers))

    def distributional_embeddings(self, corpus: ColumnCorpus) -> np.ndarray:
        """Normalised distributional-only signature (the ablation's D block)."""
        self._check_fitted()
        return signature_matrix(
            self.mean_probabilities(corpus), normalization=self.config.normalization
        )

    def signature(self, corpus: ColumnCorpus) -> np.ndarray:
        """The paper's probability matrix ``P_i`` — D+S, jointly normalised."""
        self._check_fitted()
        return signature_matrix(
            self.mean_probabilities(corpus),
            self.statistical_embeddings(corpus),
            normalization=self.config.normalization,
            balance_scale=self._signature_balance,
        )

    # --------------------------------------------------------------- serving

    @property
    def transform_is_corpus_dependent(self) -> bool:
        """Whether ``transform`` output depends on the corpus as a whole.

        In stacked mode every corpus-level statistic the transform uses —
        feature standardisation, the signature's feature-block scale, the
        ``balance_blocks`` per-block norms — is frozen on the fit corpus
        (see ``_freeze_balance``; ``load_gem`` refuses an archive that
        lacks them), so embedding a column yields the same row whatever
        corpus it arrives in. Two configurations remain
        genuinely corpus-dependent: the autoencoder composition trains its
        projection on each transformed corpus, and ``per_column`` mode
        fits its distributional block at transform time, so a balance step
        cannot be frozen and a Generator seed draws fresh per-column seeds
        per call. Under those, rows embedded in different calls live in
        different spaces and must not be compared by cosine:
        ``GemIndex.search_corpus`` and ``GemService`` refuse such an
        embedder, and an index built from it answers ``search`` over its
        stored rows only.
        """
        cfg = self.config
        if cfg.composition == "autoencoder":
            return True
        if cfg.fit_mode == "stacked":
            return False
        # per_column fits its distributional block at transform time: the
        # balance statistics cannot be frozen, and a stateful Generator seed
        # additionally makes even repeat transforms of the same corpus
        # differ (fresh per-column seeds are drawn per call), so rows from
        # separate calls are never comparable.
        joint, multi = _balance_structure(cfg)
        return joint or multi or isinstance(cfg.random_state, np.random.Generator)

    def build_index(
        self,
        corpus: ColumnCorpus,
        *,
        ids: list[str] | None = None,
        **index_kwargs: object,
    ):
        """Embed ``corpus`` and build a :class:`~repro.index.GemIndex` on it.

        The serving path for the paper's retrieval workload (§4.1.2) at
        lake scale: the index answers ``search``/``search_corpus`` without
        ever forming the ``(n, n)`` similarity matrix. The index is stamped
        with this embedder's model fingerprint and keeps the embedder
        attached, so ``index.search_corpus(other_corpus, k)`` embeds
        through the frozen model — and refuses to serve after a refit.
        With a corpus-independent transform, ``search_corpus`` given this
        same corpus recognises it by its rows and leaves each column's own
        row out (§4.1.2).

        Parameters
        ----------
        corpus:
            Columns to store.
        ids:
            Stable column ids, one per column; defaults to
            ``"<position>:<header>"`` (:func:`repro.index.corpus_column_ids`).
        **index_kwargs:
            :class:`~repro.index.GemIndex` arguments (``backend``,
            ``n_lists``, ``n_probe``, ``dtype``, ``pq_rerank``, …), which
            validates them; omitted ones take ``GemIndex``'s defaults, except
            ``random_state``, which defaults to ``config.random_state``.
        """
        from repro.index import GemIndex, corpus_column_ids

        self._check_fitted()
        embeddings = self.transform(corpus)
        if ids is None:
            ids = corpus_column_ids(corpus)
        index_kwargs.setdefault("random_state", self.config.random_state)
        index = GemIndex(embeddings.shape[1], **index_kwargs)  # type: ignore[arg-type]
        index.add(ids, embeddings)
        index.attach(self)
        return index

    # ------------------------------------------------------------ clustering

    def cluster(self, corpus: ColumnCorpus) -> np.ndarray:
        """Hard component assignment per column (Eq. 12).

        Eq. 12 takes the argmax over the combined embedding; the only
        dimensions that are component likelihoods are the distributional
        ones, so the argmax is taken there — each column is assigned to the
        Gaussian component most responsible for its values.

        Requires ``fit_mode="stacked"``: per-column mode has no shared
        components to assign columns to — its embedding rows are sorted
        (weight, mean, std) parameter triplets of independent per-column
        mixtures, so an argmax over them would index into unrelated
        parameter slots, not probabilities.
        """
        if self.config.fit_mode != "stacked":
            raise ValueError(
                "cluster() requires fit_mode='stacked': with "
                f"fit_mode={self.config.fit_mode!r} the embedding rows are "
                "sorted (weight, mean, std) parameters of per-column "
                "mixtures, not shared-component probabilities, so a hard "
                "component assignment is undefined. Cluster the embeddings "
                "with KMeans (repro.gmm) instead."
            )
        probs = self.mean_probabilities(corpus)
        return np.argmax(probs, axis=1)

    # -------------------------------------------------------------- helpers

    def _check_fitted(self) -> None:
        if getattr(self, "_fitted", False) is not True:
            raise RuntimeError("GemEmbedder is not fitted yet; call fit() first")

    @property
    def embedding_dim(self) -> int:
        """Dimensionality of transform output under the current config."""
        cfg = self.config
        if cfg.fit_mode == "stacked":
            d_dim = self.gmm_.n_components if self.gmm_ is not None else cfg.n_components
        else:
            d_dim = 3 * min(5, cfg.n_components)
        s_dim = len(STATISTICAL_FEATURE_NAMES)
        block_dims: list[int] = []
        if cfg.use_distributional and cfg.use_statistical:
            block_dims.append(d_dim + s_dim)
        elif cfg.use_distributional:
            block_dims.append(d_dim)
        elif cfg.use_statistical:
            block_dims.append(s_dim)
        if cfg.use_contextual:
            block_dims.append(cfg.header_dim)
        if cfg.composition == "autoencoder":
            return min(cfg.ae_latent_dim, max(2, sum(block_dims)))
        if cfg.composition == "aggregation" and len(block_dims) > 1:
            return max(block_dims)
        return sum(block_dims)


__all__ = ["GemEmbedder", "log_squash"]
