"""Precision / recall at k for column semantic type detection (paper §4.1.2).

Protocol: for each query column, k equals the number of *other* columns
sharing its ground-truth semantic type; retrieve the k cosine-nearest
columns (excluding the query); TP are retrieved columns with the query's
label. Precision = TP / k, recall = TP / (cluster size − 1) — with this k
the two coincide, matching the paper's symmetric definition. Scores are
averaged per semantic type and then macro-averaged across types ("a higher
average precision reflects consistently better performance across multiple
semantic types", §4.2.2).

``k_mode="cluster_size"`` reproduces the looser literal reading where k is
the full cluster size including the query.

Two retrieval backends drive the protocol:

* the **dense path** (default, or a precomputed ``similarity``) ranks via
  the full ``(n, n)`` cosine matrix — fine up to a few thousand columns;
* the **index-backed path** (``index=``) delegates ranking to a
  :class:`~repro.index.GemIndex` built over exactly these embeddings, so
  the evaluation runs on lakes too large for a dense matrix. With an exact
  index the scores are identical to the dense path; with an IVF index they
  reflect the index's approximate recall.

Both paths order ties identically (descending similarity, ascending column
index), so dense and index-backed runs are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.neighbors import cosine_similarity_matrix, top_k_desc
from repro.utils.validation import check_array_2d

_K_MODES = ("cluster_minus_one", "cluster_size")


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of a precision/recall-at-k evaluation.

    Attributes
    ----------
    macro_precision / macro_recall:
        Mean over per-type means — the numbers reported in Tables 2-3.
    per_type_precision / per_type_recall:
        Mean score per ground-truth semantic type.
    per_column_precision / per_column_recall:
        One score per evaluable column (types with a single column are
        skipped: they have no possible neighbour).
    n_evaluated:
        Number of columns contributing scores.
    """

    macro_precision: float
    macro_recall: float
    per_type_precision: dict[str, float] = field(default_factory=dict)
    per_type_recall: dict[str, float] = field(default_factory=dict)
    per_column_precision: np.ndarray = field(default_factory=lambda: np.empty(0))
    per_column_recall: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_evaluated: int = 0


def _index_order(index, X: np.ndarray, k_max: int) -> np.ndarray:
    """Neighbour row numbers of ``X`` per row via a GemIndex holding exactly ``X``.

    The index must store the evaluated embedding rows in order — anything
    else would score neighbours of different columns — so this is verified
    exactly, not assumed. Self-exclusion uses each row's own stored id.
    Returned neighbours are mapped by id to their row in ``index.ids``
    order: search positions are storage slots, which rows removed but not
    yet compacted away shift past the live row numbers.
    """
    n, d = X.shape
    if len(index) != n:
        raise ValueError(f"index stores {len(index)} rows but there are {n} embeddings")
    if getattr(index, "dim", d) != d:
        raise ValueError(f"index dim {index.dim} != embedding dim {d}")
    stored = index.vectors()
    if stored.shape != X.shape or not np.array_equal(stored, X):
        raise ValueError(
            "index rows do not match the evaluated embeddings: build the "
            "index over exactly these rows (GemEmbedder.build_index on the "
            "same corpus) before evaluating with it"
        )
    ids = index.ids
    row_of = {cid: row for row, cid in enumerate(ids)}
    found = index.search(X, k_max, exclude_ids=list(ids)).ids
    # Unfilled slots carry id None and stay -1.
    rows = [[row_of.get(cid, -1) for cid in hits] for hits in found]
    return np.array(rows, dtype=np.intp).reshape(found.shape)


def precision_recall_at_k(
    embeddings: np.ndarray,
    labels: list[str] | np.ndarray,
    *,
    k_mode: str = "cluster_minus_one",
    similarity: np.ndarray | None = None,
    index=None,
) -> EvaluationResult:
    """Evaluate embeddings for semantic type detection.

    Parameters
    ----------
    embeddings:
        ``(n, d)`` matrix, one row per column.
    labels:
        Ground-truth semantic types, length n.
    k_mode:
        How k relates to the ground-truth cluster size (see module doc).
    similarity:
        Precomputed similarity matrix (optional; computed from embeddings
        otherwise). Must be square and match ``embeddings``/``labels``
        length — a mismatched matrix would silently score the wrong pairs.
    index:
        A :class:`~repro.index.GemIndex` holding exactly these embedding
        rows in order (e.g. from ``GemEmbedder.build_index``); neighbour
        ranking is delegated to the index so no ``(n, n)`` matrix is ever
        formed. Mutually exclusive with ``similarity``.
    """
    X = check_array_2d(embeddings, "embeddings")
    y = np.asarray(labels)
    n = X.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{n} embedding rows but {y.shape[0]} labels")
    if k_mode not in _K_MODES:
        raise ValueError(f"k_mode must be one of {_K_MODES}, got {k_mode!r}")
    if similarity is not None and index is not None:
        raise ValueError("pass either a precomputed similarity or an index, not both")

    unique, counts = np.unique(y, return_counts=True)
    cluster_size = dict(zip(unique.tolist(), counts.tolist()))
    max_size = int(counts.max())
    if max_size < 2:
        raise ValueError("no evaluable columns: every ground-truth type is a singleton")
    # Deepest neighbour rank any evaluable row will inspect.
    k_max = max_size if k_mode == "cluster_size" else max_size - 1
    k_max = min(k_max, n - 1)

    if index is not None:
        order = _index_order(index, X, k_max)
    else:
        if similarity is not None:
            sim = check_array_2d(similarity, "similarity", finite=False).copy()
            if sim.shape[0] != sim.shape[1]:
                raise ValueError(f"similarity must be square, got {sim.shape}")
            if sim.shape[0] != n:
                raise ValueError(
                    f"similarity is {sim.shape[0]}x{sim.shape[1]} but there are "
                    f"{n} embedding rows/labels"
                )
        else:
            sim = cosine_similarity_matrix(X)
        np.fill_diagonal(sim, -np.inf)
        cols = np.broadcast_to(np.arange(n), sim.shape)
        order = top_k_desc(sim, cols, k_max)

    type_precisions: dict[str, list[float]] = {}
    type_recalls: dict[str, list[float]] = {}
    col_precisions: list[float] = []
    col_recalls: list[float] = []
    for i in range(n):
        label = y[i]
        size = cluster_size[label if not isinstance(label, np.generic) else label.item()]
        relevant = size - 1
        if relevant < 1:
            continue  # singleton type: nothing to retrieve
        k = relevant if k_mode == "cluster_minus_one" else size
        k = min(k, n - 1)
        top = order[i, :k]
        # An IVF-backed index may pad unfilled slots with -1; those count as
        # retrieved-but-wrong (they stay in the k denominator).
        top = top[top >= 0]
        tp = int(np.sum(y[top] == label))
        precision = tp / k
        recall = tp / relevant
        key = str(label)
        type_precisions.setdefault(key, []).append(precision)
        type_recalls.setdefault(key, []).append(recall)
        col_precisions.append(precision)
        col_recalls.append(recall)

    per_type_p = {t: float(np.mean(v)) for t, v in type_precisions.items()}
    per_type_r = {t: float(np.mean(v)) for t, v in type_recalls.items()}
    return EvaluationResult(
        macro_precision=float(np.mean(list(per_type_p.values()))),
        macro_recall=float(np.mean(list(per_type_r.values()))),
        per_type_precision=per_type_p,
        per_type_recall=per_type_r,
        per_column_precision=np.asarray(col_precisions),
        per_column_recall=np.asarray(col_recalls),
        n_evaluated=len(col_precisions),
    )


def average_precision_at_k(
    embeddings: np.ndarray,
    labels: list[str] | np.ndarray,
    *,
    k_mode: str = "cluster_minus_one",
) -> float:
    """Shorthand: the macro-averaged precision (the Tables 2-3 number)."""
    return precision_recall_at_k(embeddings, labels, k_mode=k_mode).macro_precision


__all__ = ["EvaluationResult", "precision_recall_at_k", "average_precision_at_k"]
