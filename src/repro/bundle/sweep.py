"""Deterministic config sweeps ranked by retrieval-quality objectives.

The paper's §4 sensitivity analysis sweeps GemConfig knobs (component
count, value transform) and the index backend with its compression knobs
by hand; this module is the scripted version. A sweep declares a grid, an
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
* ``index_recall_at_k`` (maximize) — recall of the trial's index against
  an exact-search oracle (``GemIndex(dim)`` at its defaults: exact,
  float64) over the same rows; use this to sweep *index* knobs. Grid keys
  that name :class:`~repro.index.GemIndex` arguments (``backend``,
  ``n_lists``, ``n_probe``, ``dtype``, ``pq_*``, …; read off its
  signature) build the trial's index, and only this objective accepts
  them. The embedding space is fixed, and the question is what the
  compressed backend gives up.
* ``bic`` (minimize) — the shared mixture's BIC on the data it was
  fitted on, the criterion :func:`~repro.gmm.select_n_components_bic`
  minimises.
"""

from __future__ import annotations

import inspect
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
from repro.index import GemIndex

#: Neighbour count used by the index-recall objective (capped at n-1).
INDEX_RECALL_K = 10


# Every objective scores one fitted trial: the embedder, the corpus it was
# fitted on, that corpus's dense embeddings and its per-column labels.


def _precision_objective(gem, corpus, embeddings, labels) -> float:
    return float(precision_recall_at_k(embeddings, list(labels)).macro_precision)


def _recall_objective(gem, corpus, embeddings, labels) -> float:
    return float(precision_recall_at_k(embeddings, list(labels)).macro_recall)


def _index_recall_objective(gem, corpus, embeddings, labels, **index_kwargs) -> float:
    """Recall@k of the trial's index against an exact oracle.

    Builds two indexes over the trial's embedding rows — one from the
    trial's ``GemIndex`` arguments, seeded from the trial config, and the
    oracle ``GemIndex(dim)`` at its defaults (exact, float64) — and
    measures the mean fraction of each row's true top-k neighbours (self
    excluded) the trial's index returns. The float64 exact backend scores
    1.0 by construction; IVF/PQ and float32 storage trade this number
    against their speed/RAM knobs.
    """
    X = np.asarray(embeddings)
    n = X.shape[0]
    if n < 2:
        return 1.0
    k = min(INDEX_RECALL_K, n - 1)
    ids = [str(i) for i in range(n)]
    trial = GemIndex(X.shape[1], random_state=gem.config.random_state, **index_kwargs)
    oracle = GemIndex(X.shape[1])
    for index in (trial, oracle):
        index.add(ids, X)
    approx = trial.search(X, k + 1)
    exact = oracle.search(X, k + 1)
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
#: GemIndex arguments a grid may name (``random_state`` stays the config's).
_INDEX_ARGS = {
    name
    for name, param in inspect.signature(GemIndex).parameters.items()
    if param.kind is param.KEYWORD_ONLY and name not in _CONFIG_FIELDS
}


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
        if name not in _CONFIG_FIELDS and name not in _INDEX_ARGS:
            raise ValueError(
                f"sweep grid key {name!r} is neither a GemConfig field nor a "
                f"GemIndex argument; GemIndex arguments: {sorted(_INDEX_ARGS)}"
            )
        if not grid[name]:
            raise ValueError(f"sweep grid parameter {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]


def _run_trial(base: GemConfig, params: dict, corpus, labels, score, seed: int) -> dict:
    """Fit + score one grid point; errors become a ranked-last record.

    GemConfig fields in ``params`` configure the fit; the rest are GemIndex
    arguments for the objective.
    """
    try:
        overrides = {k: v for k, v in params.items() if k in _CONFIG_FIELDS}
        index_kwargs = {k: v for k, v in params.items() if k not in _CONFIG_FIELDS}
        gem = GemEmbedder(config=base, **{"random_state": seed, **overrides})
        gem.fit(corpus)
        embeddings = gem.transform(corpus)
        value = score(gem, corpus, embeddings, labels, **index_kwargs)
        return {"params": params, "value": float(value)}
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
    index_keys = sorted(_INDEX_ARGS.intersection(grid))
    if index_keys and objective != "index_recall_at_k":
        raise ValueError(
            f"grid keys {index_keys} are GemIndex arguments, which only the "
            "index_recall_at_k objective uses"
        )
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
