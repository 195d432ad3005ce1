"""Deterministic config sweeps ranked by retrieval-quality objectives.

The paper's §4 sensitivity analysis sweeps GemConfig knobs (component
count, value transform, index backend and its compression knobs) by hand;
this module is the scripted version. A sweep declares a grid, an
objective and a seed; the driver

* expands the grid in a canonical order (sorted parameter names,
  row-major product — independent of dict insertion order),
* fits one pipeline per grid point with ``random_state`` pinned to the
  sweep seed, fanning trials out over a thread pool whose worker count
  never affects results (trials are independent and results are
  collected in submission order),
* scores each trial with one of the objectives below, and
* writes a ranked table into the bundle via the atomic JSON writer with
  sorted keys, so two runs at the same seed produce **byte-identical**
  ``sweep.json`` files (no wall-clock, no float formatting drift).

Objectives:

* ``precision_at_k`` / ``recall_at_k`` (maximize) — the paper's §4.1.2
  retrieval metrics (:func:`~repro.evaluation.precision_recall_at_k`,
  macro over ground-truth types) computed on the dense embeddings; use
  these to sweep *model* knobs (``n_components``, ``value_transform``).
* ``index_recall_at_k`` (maximize) — recall of the trial's configured
  index backend against an exact-search oracle over the same rows; use
  this to sweep *index* knobs (``index_backend``, ``index_n_lists``,
  ``index_n_probe``, ``index_pq_*``), where the embedding space is fixed
  and the question is what the compressed backend gives up.
* ``bic`` (minimize) — the shared mixture's BIC on the data it was
  fitted on, the criterion :func:`~repro.gmm.select_n_components_bic`
  minimises.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.bundle.corpus import corpus_fingerprint, load_corpus
from repro.bundle.manifest import (
    new_manifest,
    read_manifest,
    record_stage,
    write_manifest,
)
from repro.bundle.stages import SWEEP_ARTIFACT
from repro.core.config import GemConfig
from repro.core.gem import GemEmbedder
from repro.core.persistence import atomic_write_json, file_checksum
from repro.evaluation.precision import precision_recall_at_k

#: Neighbour count used by the index-recall objective (capped at n-1).
INDEX_RECALL_K = 10


# Every objective scores one fitted trial: the embedder, the corpus it was
# fitted on, that corpus's dense embeddings and its per-column labels.


def _precision_objective(gem, corpus, embeddings, labels) -> float:
    return float(precision_recall_at_k(embeddings, list(labels)).macro_precision)


def _recall_objective(gem, corpus, embeddings, labels) -> float:
    return float(precision_recall_at_k(embeddings, list(labels)).macro_recall)


def _index_recall_objective(gem, corpus, embeddings, labels) -> float:
    """Recall@k of the configured backend against an exact oracle.

    Builds two indexes over the trial's embedding rows — the configured
    backend and an exact one — and measures the mean fraction of each
    row's true top-k neighbours (self excluded) the configured backend
    returns. Exact backends score 1.0 by construction; IVF/PQ trade this
    number against their speed/RAM knobs.
    """
    from repro.index import GemIndex

    cfg = gem.config
    X = np.asarray(embeddings)
    n = X.shape[0]
    if n < 2:
        return 1.0
    k = min(INDEX_RECALL_K, n - 1)
    ids = [str(i) for i in range(n)]

    def build(backend: str) -> GemIndex:
        index = GemIndex(
            X.shape[1],
            backend=backend,
            n_lists=cfg.index_n_lists,
            n_probe=cfg.index_n_probe,
            dtype=cfg.index_dtype,
            pq_subvectors=cfg.index_pq_subvectors,
            pq_codes=cfg.index_pq_codes,
            pq_rerank=cfg.index_pq_rerank,
            random_state=cfg.random_state if cfg.random_state is not None else 0,
        )
        index.add(ids, X)
        return index

    approx = build(cfg.index_backend).search(X, k + 1)
    exact = build("exact").search(X, k + 1)
    hits = 0
    total = 0
    for row in range(n):
        truth = {cid for cid in exact.ids[row] if cid != ids[row]}
        got = {cid for cid in approx.ids[row] if cid != ids[row]}
        hits += len(truth & got)
        total += len(truth)
    return hits / total if total else 1.0


def _bic_objective(gem, corpus, embeddings, labels) -> float:
    if gem.gmm_ is None:
        raise ValueError("bic objective requires a fitted shared GMM (fit_mode='stacked')")
    # Score the mixture on the same stacked, value-transformed data it was
    # fitted on — the quantity select_n_components_bic minimises per
    # candidate — recomputed from the corpus so no fit-time state needs
    # to be retained.
    stacked = gem._apply_value_transform(corpus.stacked_values())
    return float(gem.gmm_.bic(np.asarray(stacked).reshape(-1, 1)))


#: Objective name -> (rank direction, scoring function).
_OBJECTIVES = {
    "precision_at_k": ("maximize", _precision_objective),
    "recall_at_k": ("maximize", _recall_objective),
    "index_recall_at_k": ("maximize", _index_recall_objective),
    "bic": ("minimize", _bic_objective),
}


_CONFIG_FIELDS = {f.name for f in GemConfig.__dataclass_fields__.values()}


def expand_grid(grid: dict[str, list]) -> list[dict]:
    """Expand a parameter grid into trial dicts in canonical order.

    Parameter names are sorted, then the cartesian product is taken
    row-major with each parameter's values in their declared order — the
    trial sequence is a pure function of the grid's *content*, not of
    dict insertion order, so manifests and result tables reproduce.
    """
    if not grid:
        return [{}]
    names = sorted(grid)
    for name in names:
        if name not in _CONFIG_FIELDS:
            raise ValueError(
                f"unknown GemConfig field {name!r} in sweep grid; "
                f"sweepable fields include: {sorted(_CONFIG_FIELDS)[:12]} …"
            )
        if not grid[name]:
            raise ValueError(f"sweep grid parameter {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]


def _run_trial(base: GemConfig, params: dict, corpus, labels, score, seed: int) -> dict:
    """Fit + score one grid point; errors become a ranked-last record."""
    try:
        overrides = {"random_state": seed, **params}
        gem = GemEmbedder(config=base, **overrides)
        gem.fit(corpus)
        embeddings = gem.transform(corpus)
        return {"params": params, "value": float(score(gem, corpus, embeddings, labels))}
    except Exception as exc:  # a bad grid point must not sink the sweep
        return {"params": params, "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(
    bundle_dir: str | Path,
    grid: dict[str, list],
    *,
    objective: str = "precision_at_k",
    corpus_spec: str | None = None,
    seed: int = 0,
    n_workers: int | None = None,
) -> dict:
    """Run a config sweep and write the ranked table into the bundle.

    If the bundle already has a manifest, its config is the base every
    grid point overrides and its corpus is the default (``corpus_spec``
    still wins if given); otherwise ``corpus_spec`` is required and a
    fresh manifest is started. Returns the sweep document (the exact
    content of ``sweep.json``).
    """
    bundle_dir = Path(bundle_dir)
    if objective not in _OBJECTIVES:
        raise KeyError(f"unknown sweep objective {objective!r}; known: {sorted(_OBJECTIVES)}")
    direction, score = _OBJECTIVES[objective]
    try:
        manifest = read_manifest(bundle_dir)
    except FileNotFoundError:
        manifest = None
    if manifest is not None:
        base = GemConfig.from_manifest_dict(manifest["config"])
        spec = corpus_spec or manifest["corpus"]["spec"]
    else:
        if corpus_spec is None:
            raise ValueError(
                "bundle has no manifest yet; pass a corpus spec "
                "(e.g. --corpus synthetic:gds:tiny)"
            )
        base = GemConfig()
        spec = corpus_spec
    corpus, canonical_spec = load_corpus(spec)
    labels = corpus.labels("fine")
    trials = expand_grid(grid)
    # Order-preserving map: results land at their trial's position no
    # matter which worker finishes first, so worker count cannot reorder
    # (or otherwise affect) the table.
    with ThreadPoolExecutor(max_workers=n_workers or 1) as pool:
        results = list(
            pool.map(
                lambda params: _run_trial(base, params, corpus, labels, score, seed),
                trials,
            )
        )
    scored = [
        (i, r) for i, r in enumerate(results) if "value" in r
    ]
    sign = -1.0 if direction == "maximize" else 1.0
    scored.sort(key=lambda item: (sign * item[1]["value"], item[0]))
    table = []
    for rank, (trial_idx, result) in enumerate(scored, start=1):
        table.append(
            {
                "rank": rank,
                "trial": trial_idx,
                "params": result["params"],
                "value": result["value"],
            }
        )
    failed = [
        {"trial": i, "params": r["params"], "error": r["error"]}
        for i, r in enumerate(results)
        if "error" in r
    ]
    document = {
        "objective": objective,
        "direction": direction,
        "seed": seed,
        "corpus": canonical_spec,
        "grid": {name: list(grid[name]) for name in sorted(grid)},
        "n_trials": len(trials),
        "table": table,
        "failed": failed,
    }
    bundle_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = bundle_dir / SWEEP_ARTIFACT
    atomic_write_json(sweep_path, document)
    if manifest is None:
        manifest = new_manifest(
            base.to_manifest_dict(), canonical_spec, corpus_fingerprint(corpus)
        )
    manifest = record_stage(
        manifest,
        "sweep",
        artifact=SWEEP_ARTIFACT,
        checksum=file_checksum(sweep_path),
        extra={"objective": objective, "n_trials": len(trials)},
    )
    write_manifest(bundle_dir, manifest)
    return document


def format_sweep_table(document: dict) -> str:
    """Human-readable rendering of a sweep document for the CLI."""
    lines = [
        f"objective: {document['objective']} ({document['direction']}), "
        f"seed {document['seed']}, corpus {document['corpus']}",
        f"{'rank':>4}  {'value':>12}  params",
    ]
    for row in document["table"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
        lines.append(f"{row['rank']:>4}  {row['value']:>12.6f}  {params or '(base)'}")
    for failure in document["failed"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(failure["params"].items()))
        lines.append(f"   -  {'failed':>12}  {params or '(base)'}: {failure['error']}")
    return "\n".join(lines)


__all__ = [
    "INDEX_RECALL_K",
    "expand_grid",
    "run_sweep",
    "format_sweep_table",
]
