"""Exact blocked cosine top-k search.

The dense retrieval path (:func:`repro.evaluation.neighbors.top_k_neighbors`)
materialises the full ``(n, n)`` similarity matrix — O(n²) memory, the
blocker for lake-scale corpora. The searcher here streams the same
computation over a block grid: for each block of queries it visits the
stored rows ``block_size`` at a time, scores the block with one matmul and
folds it into a running top-k. Peak working memory is
``O(query_block × (block_size + k))`` floats regardless of how many rows the
index stores.

Selection uses the strict total order (score descending, stored position
ascending) of :func:`repro.evaluation.neighbors.top_k_desc`. Under a strict
total order, merging per-block top-k sets is associative, so the result is
**bit-identical to the dense path for any block size**: the same dot
products are computed (row-wise unit normalisation is block-invariant, the
k-reduction of each dot product runs in the same order) and the same
winners are selected in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.neighbors import pairwise_cosine, top_k_desc

DEFAULT_QUERY_BLOCK = 1024


def merge_topk(
    best_scores: np.ndarray,
    best_pos: np.ndarray,
    cand_scores: np.ndarray,
    cand_pos: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a block of candidates into a running per-row top-k.

    All arrays are row-aligned; returns the new ``(scores, positions)``
    pair of shape ``(n_rows, k)`` ordered best-first under the
    (score desc, position asc) total order.
    """
    scores = np.concatenate([best_scores, cand_scores], axis=1)
    pos = np.concatenate([best_pos, cand_pos], axis=1)
    sel = top_k_desc(scores, pos, k)
    rows = np.arange(scores.shape[0])[:, None]
    return scores[rows, sel], pos[rows, sel]


def blocked_topk(
    unit_queries: np.ndarray,
    stored_unit: np.ndarray,
    k: int,
    *,
    block_size: int,
    exclude_positions: np.ndarray | None = None,
    dead: np.ndarray | None = None,
    query_block: int = DEFAULT_QUERY_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine neighbours of every query over the stored unit rows.

    Parameters
    ----------
    unit_queries / stored_unit:
        Unit-normalised rows (see ``unit_rows``); similarities are their
        clipped dot products, exactly as the dense path computes them.
    k:
        Neighbours per query; the caller is responsible for capping ``k``
        so enough non-excluded rows exist (``k <= n`` live rows, or
        ``n - 1`` under exclusion).
    block_size:
        Stored rows scored per matmul. Purely a memory knob — any value
        returns bit-identical results.
    exclude_positions:
        Optional ``(n_queries,)`` stored position to mask per query: that
        entry scores ``-inf`` so a query never retrieves itself.
    dead:
        Optional ``(n,)`` boolean mask of tombstoned storage slots (rows
        removed but not yet compacted); masked slots score ``-inf`` for
        every query. ``None`` keeps the mask-free fast path.
    query_block:
        Queries processed per outer block (memory knob, result-invariant).

    Returns
    -------
    (positions, scores):
        ``(n_queries, k)`` stored positions best-first and their cosine
        similarities. Entries that could not be filled (never the case
        under the caps above) carry score ``-inf``.
    """
    q, n = unit_queries.shape[0], stored_unit.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} stored rows")
    best_scores = np.full((q, k), -np.inf)
    # Sentinel position n scores -inf and sorts after every real position,
    # so unfilled slots lose every merge.
    best_pos = np.full((q, k), n, dtype=np.intp)
    for q0 in range(0, q, query_block):
        q1 = min(q0 + query_block, q)
        run_scores = best_scores[q0:q1]
        run_pos = best_pos[q0:q1]
        excl = exclude_positions[q0:q1] if exclude_positions is not None else None
        for j0 in range(0, n, block_size):
            j1 = min(j0 + block_size, n)
            sim = pairwise_cosine(unit_queries[q0:q1], stored_unit[j0:j1])
            cand_pos = np.broadcast_to(np.arange(j0, j1, dtype=np.intp), sim.shape)
            if dead is not None:
                dead_block = dead[j0:j1]
                if dead_block.any():
                    sim = np.where(dead_block[None, :], -np.inf, sim)
            if excl is not None:
                mask = cand_pos == excl[:, None]
                if mask.any():
                    sim = np.where(mask, -np.inf, sim)
            # Per-block top-k first, then a tiny (q, 2k) merge. Candidate
            # positions ascend along the axis, so a single-key *stable*
            # argsort of -sim realises the same (score desc, position asc)
            # total order as a two-key sort at half the work, and merging
            # only per-block winners keeps the sorted width at k + block
            # top-k instead of k + block.
            k_block = min(k, sim.shape[1])
            sel = np.argsort(-sim, axis=1, kind="stable")[:, :k_block]
            rows = np.arange(sim.shape[0])[:, None]
            run_scores, run_pos = merge_topk(
                run_scores, run_pos, sim[rows, sel], cand_pos[rows, sel], k
            )
        best_scores[q0:q1] = run_scores
        best_pos[q0:q1] = run_pos
    return best_pos, best_scores


__all__ = ["blocked_topk", "merge_topk", "DEFAULT_QUERY_BLOCK"]
