"""The Gem signature mechanism (paper §3.2).

Gem treats all numeric values as one stack, fits a GMM, and then summarises
each *column* by the average probability of its values under each Gaussian
component — a fixed-length "signature" no matter how many cells the column
has. Two pooling variants are exposed:

* ``responsibility`` (paper): average the E-step posteriors
  ``gamma(z_nj)`` (Eq. 2) — rows sum to one;
* ``pdf``: average the raw component densities ``p(x | mu_j, Sigma_j)``
  (Eq. 6) — the ablation alternative, sensitive to absolute density scale.

Scoring has one path. The stack is cut into column-aligned chunks of at
most ``FitPlan.DEFAULT_BATCH`` values (the fit's chunk size), and runs of
whole chunks form windows of at most ``WINDOW_CHUNKS`` chunk sizes (8,192
values). Each window scores its *distinct* values once through the fit's
own E-step kernel; each chunk then gathers its values' rows and pools them.
A repeated value has the same responsibilities every time, and a column's
partial sums still accumulate chunk by chunk, so the working set is
``O(WINDOW_CHUNKS · batch_size · m)`` whatever the corpus size, and a
column's row is bit-identical alone or inside any batch.

The signature is then augmented with standardised statistical features
(Eq. 8) and L1-normalised (Eq. 9).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.gmm.model import FitPlan, GaussianMixture
from repro.utils.preprocessing import l1_normalize, l2_normalize
from repro.utils.validation import check_array_2d, check_positive_int

#: Chunk sizes per scoring window: a window deduplicates at most
#: ``WINDOW_CHUNKS * batch_size`` values, so its ``(distinct values, m)``
#: score table stays bounded while most repeats inside it are scored once.
WINDOW_CHUNKS = 4


def column_offsets(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column sizes and the ``(n_columns + 1,)`` stack offsets.

    ``offsets[i]:offsets[i + 1]`` is column ``i``'s row range in the stacked
    value array. Zero-length columns are rejected with the offending index —
    they have no distribution to pool and would silently produce NaN rows.
    """
    sizes = np.array([np.asarray(c).size for c in columns], dtype=np.intp)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(
            f"column {int(empty[0])} has no values; every column needs at "
            "least one value to pool a signature"
        )
    offsets = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return sizes, offsets


def column_chunks(offsets: np.ndarray, batch_size: int):
    """Column-aligned chunk slices over a stacked value array.

    Yields ``slice`` objects covering ``[0, offsets[-1])`` such that every
    chunk holds at most ``batch_size`` values and every chunk boundary
    falls on a column start — except inside a single column longer than
    ``batch_size``, which is split at multiples of ``batch_size`` *from its
    own start*. A column's partition into chunks therefore depends only on
    its own length and ``batch_size``, never on what other columns share
    the stack: pooled sums accumulate in the same order whether the column
    is scored alone or inside any batch. This composition invariance is
    what lets the serving layer (:mod:`repro.serve`) coalesce many small
    transform requests into one vectorised pass with bit-identical results.
    """
    n_cols = len(offsets) - 1
    i = 0
    while i < n_cols:
        start = int(offsets[i])
        stop_i = int(offsets[i + 1])
        if stop_i - start > batch_size:
            # Oversized column: sub-chunks aligned to its own start.
            for s in range(start, stop_i, batch_size):
                yield slice(s, min(s + batch_size, stop_i))
            i += 1
            continue
        # Pack whole columns while the chunk stays within batch_size.
        j = i + 1
        while j < n_cols and int(offsets[j + 1]) - start <= batch_size:
            j += 1
        yield slice(start, int(offsets[j]))
        i = j


def _chunk_windows(offsets: np.ndarray, batch_size: int) -> Iterator[list[slice]]:
    """Runs of consecutive :func:`column_chunks` holding at most
    ``WINDOW_CHUNKS * batch_size`` values each.

    Yields lists of chunk slices; the windows tile the stack in order. A
    window is a union of whole chunks, so grouping never changes how any
    column is cut into chunks.
    """
    limit = WINDOW_CHUNKS * batch_size
    window: list[slice] = []
    for rows in column_chunks(offsets, batch_size):
        if window and rows.stop - window[0].start > limit:
            yield window
            window = []
        window.append(rows)
    if window:
        yield window


def mean_component_probabilities(
    gmm: GaussianMixture,
    columns: list[np.ndarray],
    *,
    kind: str = "responsibility",
    batch_size: int = FitPlan.DEFAULT_BATCH,
) -> np.ndarray:
    """Mean per-component probability vector for every column.

    Values are scored in windows of whole column-aligned chunks
    (:func:`_chunk_windows`, at most ``WINDOW_CHUNKS * batch_size`` values):
    each window scores its distinct values once (``np.unique``), and each
    of its chunks gathers its values' rows and pools them with a
    vectorised segment reduction (``np.add.reduceat`` over the column
    offsets). A value's probabilities do not depend on what else is scored
    with it, so a repeated value costs a gather instead of an E-step. The
    working set is ``O(WINDOW_CHUNKS * batch_size * n_components)``, so
    peak memory is bounded no matter how many values the corpus stacks.
    The transform always chunks, at the fit's chunk size
    ``FitPlan.DEFAULT_BATCH`` (2,048 values) unless told otherwise. Chunks
    are column-aligned (:func:`column_chunks`), so a column's pooled row is
    **bit-identical whether it is scored alone or inside any batch** —
    scoring is row-wise and each column's values are summed in chunks
    determined only by its own length. Columns no longer than
    ``batch_size`` match a one-chunk pass bitwise; a column split across
    chunks matches it to machine precision (the partial sums associate
    differently).

    Parameters
    ----------
    gmm:
        A fitted :class:`~repro.gmm.GaussianMixture`.
    columns:
        Per-column 1-D value arrays (each non-empty).
    kind:
        ``"responsibility"`` or ``"pdf"`` (see module docstring).
    batch_size:
        Maximum number of values scored per chunk, a positive integer.

    Returns
    -------
    numpy.ndarray of shape (n_columns, n_components)
    """
    if kind not in ("responsibility", "pdf"):
        raise ValueError(f"kind must be 'responsibility' or 'pdf', got {kind!r}")
    batch_size = check_positive_int(batch_size, "batch_size")
    if not columns:
        raise ValueError("columns must not be empty")
    sizes, offsets = column_offsets(columns)
    stacked = np.concatenate([np.asarray(c, dtype=float).ravel() for c in columns])
    score = gmm.predict_proba if kind == "responsibility" else gmm.component_pdf
    sums = np.zeros((len(columns), gmm.means_.shape[0]))
    for window in _chunk_windows(offsets, batch_size):
        _pool_window(score, stacked, offsets, window, sums)
    sums /= sizes[:, None]
    return sums


def _pool_window(
    score: Callable[[np.ndarray], np.ndarray],
    stacked: np.ndarray,
    offsets: np.ndarray,
    window: list[slice],
    sums: np.ndarray,
) -> None:
    """Add one window's per-column partial sums into ``sums``.

    The window's distinct values are scored once; each chunk gathers its
    values' rows through the inverse index and reduces them per column.
    The score table dies on return, so only one window's is ever live.
    """
    start = window[0].start
    distinct, inverse = np.unique(stacked[start : window[-1].stop], return_inverse=True)
    per_distinct = score(distinct)
    for rows in window:
        # Columns overlapping this chunk: `first` contains row `rows.start`;
        # the segment boundaries are the column starts strictly inside the
        # chunk, shifted to chunk-local coordinates.
        first = int(np.searchsorted(offsets, rows.start, side="right")) - 1
        stop = int(np.searchsorted(offsets, rows.stop, side="left"))
        inner = offsets[first + 1 : stop] - rows.start
        bounds = np.concatenate([np.zeros(1, dtype=np.intp), inner])
        gather = inverse[rows.start - start : rows.stop - start]
        sums[first : first + bounds.size] += np.add.reduceat(per_distinct[gather], bounds, axis=0)


def signature_matrix(
    mean_probabilities: np.ndarray,
    statistical_features: np.ndarray | None = None,
    *,
    normalization: str = "l1",
    balance: bool = True,
    balance_scale: float | None = None,
) -> np.ndarray:
    """Augment mean probabilities with features and normalise (Eqs. 8-9).

    Parameters
    ----------
    mean_probabilities:
        ``(n, m)`` output of :func:`mean_component_probabilities`.
    statistical_features:
        Optional ``(n, f)`` standardised features to concatenate (Eq. 8);
        omit for the pure-distributional (D-only) ablation.
    normalization:
        ``"l1"`` (paper Eq. 9), ``"l2"`` or ``"none"``.
    balance:
        Rescale the feature block to the probability block's mean row mass
        before the joint normalisation. Mean responsibilities carry total
        mass 1.0 while seven winsorised z-scores can carry up to 21, so an
        unbalanced Eq. 9 would all but erase the distributional block.
    balance_scale:
        Use this fixed feature-block scale instead of deriving it from the
        matrices at hand. The derived scale is a *corpus-level* statistic
        (mean row masses), so a serving pipeline that must embed columns
        consistently across corpora freezes the scale on the fit corpus
        (see :meth:`~repro.core.gem.GemEmbedder.fit`) and passes it here.
        Ignored when ``balance`` is false.
    """
    probs = check_array_2d(mean_probabilities, "mean_probabilities")
    if statistical_features is not None:
        feats = check_array_2d(statistical_features, "statistical_features")
        if feats.shape[0] != probs.shape[0]:
            raise ValueError(
                f"row mismatch: {probs.shape[0]} probability rows vs "
                f"{feats.shape[0]} feature rows"
            )
        if balance:
            scale = balance_scale
            if scale is None:
                prob_mass = float(np.abs(probs).sum(axis=1).mean())
                feat_mass = float(np.abs(feats).sum(axis=1).mean())
                scale = (
                    prob_mass / feat_mass
                    if feat_mass > 0 and prob_mass > 0
                    else None
                )
            if scale is not None:
                feats = feats * scale
        augmented = np.hstack([probs, feats])
    else:
        augmented = probs
    if normalization == "l1":
        return l1_normalize(augmented)
    if normalization == "l2":
        return l2_normalize(augmented)
    if normalization == "none":
        return augmented
    raise ValueError(f"normalization must be 'l1', 'l2' or 'none', got {normalization!r}")


__all__ = [
    "WINDOW_CHUNKS",
    "column_offsets",
    "column_chunks",
    "mean_component_probabilities",
    "signature_matrix",
]
