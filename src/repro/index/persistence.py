"""Persistence for :class:`~repro.index.core.GemIndex`.

``save_index`` / ``load_index`` round-trip the stored rows, their stable
column ids, the backend configuration (including the storage dtype and the
PQ knobs), trained quantizer state and — most importantly — the owning Gem
model's fingerprint through one ``.npz`` archive. Unit rows are *not*
persisted: row normalisation is strictly row-wise, so recomputing it on
load reproduces them bit-for-bit. Tombstoned slots are compacted away on
save (the archive holds only live rows/codes), which changes transient
positions but no search result.

Compressed modes persist losslessly in their own representation: a
``float32`` index stores float32 rows (never round-tripped through
float64 files), and a trained ``pq`` index stores its uint8 codes, the PQ
codebooks and the coarse quantizer — raw rows too only when
``pq_rerank > 0`` kept them resident. Loading verifies that the archive's
arrays match its declared configuration (dtype, code width, presence of
rows for re-ranking) and raises instead of casting silently.

The fingerprint is the staleness guard: a loaded index must be re-attached
to a fitted embedder before it can serve ``search_corpus``, and the attach
(and every subsequent call) verifies the embedder still matches the model
the index was built from. A refit model raises
:class:`~repro.index.core.StaleIndexError` instead of mixing embedding
spaces.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from repro.core.persistence import (
    atomic_savez,
    json_from_array,
    json_to_array,
    read_archive,
)
from repro.index.core import GemIndex

# Version 2 added: storage dtype, PQ state (codes/codebooks/knobs) and the
# compaction threshold. Version 1 predates archive checksums, so no
# version-1 archive passes read_archive; only version 2 is read.
_SCHEMA_VERSION = 2


def save_index(index: GemIndex, path: str | Path) -> None:
    """Serialise an index to ``path`` (.npz archive; the suffix is appended
    if missing, and :func:`load_index` applies the same rule)."""
    random_state = None
    if index._partition is not None and isinstance(
        index._partition.random_state, (int, np.integer)
    ):
        random_state = int(index._partition.random_state)
    elif index._partition is not None and index._partition.random_state is not None:
        warnings.warn(
            "index random_state is a Generator and cannot be persisted; the "
            "loaded index will seed its quantizer from 0",
            RuntimeWarning,
            stacklevel=2,
        )
        random_state = 0
    config = {
        "schema_version": _SCHEMA_VERSION,
        "dim": index.dim,
        "backend": index.backend,
        "block_size": index.block_size,
        "n_lists": index._partition.n_lists if index._partition is not None else None,
        "n_probe": index.n_probe,
        "dtype": index.dtype.name,
        "pq_subvectors": index.pq_subvectors,
        "pq_codes": index.pq_codes,
        "pq_rerank": index.pq_rerank,
        "compact_threshold": index.compact_threshold,
        "random_state": random_state,
        "model_fingerprint": index.model_fingerprint,
    }
    # Tombstoned slots are dropped from the archive: the saved arrays are
    # the compacted live view, so positions in a reloaded index match a
    # freshly compacted one.
    keep = None if index._dead is None else ~index._dead
    arrays: dict[str, np.ndarray] = {
        "config_json": json_to_array(config),
        "ids": np.array(index.ids, dtype=np.str_),
    }
    if index._stores_rows:
        arrays["rows"] = index._rows if keep is None else index._rows[keep]
    if index._partition is not None and index._partition.trained:
        arrays["ivf_centroids"] = index._partition.centroids_
        arrays["ivf_assignments"] = (
            index._partition.assignments_
            if keep is None
            else index._partition.assignments_[keep]
        )
    if index._stores_codes:
        arrays["pq_codes"] = index._codes if keep is None else index._codes[keep]
        arrays["pq_codebooks"] = index._pq.codebooks_
    # Atomic write + content checksum: a crash mid-save leaves the previous
    # archive intact, and a bit-rotted archive is refused at load.
    atomic_savez(path, arrays)


def _check_archive(
    index: GemIndex,
    ids: list[str],
    rows: np.ndarray | None,
    payload,
) -> None:
    """Refuse archives whose arrays contradict their declared config.

    A mismatch means either a corrupted/hand-edited archive or a schema
    drift; silently casting (e.g. float64 rows into a float32 index, or
    reconstructing rows a codes-only archive never stored) would be
    precision loss the caller cannot see.
    """
    if rows is not None and rows.shape[0] and rows.dtype != index.dtype:
        raise ValueError(
            f"index archive declares dtype={index.dtype.name!r} but stores "
            f"rows as {rows.dtype.name!r} — refusing to cast silently; "
            "re-save the index with a matching configuration"
        )
    has_codes = "pq_codes" in payload
    if has_codes and index.backend != "pq":
        raise ValueError(
            f"index archive contains PQ codes but declares "
            f"backend={index.backend!r}; the archive is inconsistent"
        )
    if not has_codes:
        return
    if "pq_codebooks" not in payload or "ivf_centroids" not in payload:
        raise ValueError(
            "PQ index archive is missing its codebooks or coarse quantizer; "
            "the archive is corrupted"
        )
    codes = payload["pq_codes"]
    if codes.dtype != np.uint8 or codes.shape != (len(ids), index.pq_subvectors):
        raise ValueError(
            f"PQ codes of shape {codes.shape} / dtype {codes.dtype.name!r} do "
            f"not match the declared {len(ids)} rows x "
            f"{index.pq_subvectors} uint8 sub-vector codes"
        )
    if payload["pq_codebooks"].dtype != index.dtype:
        raise ValueError(
            f"PQ codebooks stored as {payload['pq_codebooks'].dtype.name!r} do "
            f"not match the declared dtype={index.dtype.name!r} — refusing to "
            "cast silently"
        )
    if payload["ivf_assignments"].shape[0] != len(ids):
        raise ValueError(
            f"{payload['ivf_assignments'].shape[0]} coarse assignments for "
            f"{len(ids)} stored rows; the archive is corrupted"
        )
    if index.pq_rerank > 0 and rows is None:
        raise ValueError(
            f"archive declares pq_rerank={index.pq_rerank} but holds no raw "
            "rows (it was saved from a codes-only index); load it with "
            "pq_rerank=0 semantics by re-saving from a matching index, or "
            "rebuild from the embedder"
        )


def _read(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """The verified archive arrays and their embedded config."""
    payload = read_archive(path)
    config = json_from_array(payload["config_json"])
    version = config.get("schema_version")
    if version != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported index schema version {version!r} "
            f"(this library reads version {_SCHEMA_VERSION})"
        )
    return payload, config


def load_index(path: str | Path) -> GemIndex:
    """Load an index written by :func:`save_index`.

    The returned index serves raw-vector ``search`` immediately; attach a
    fitted embedder (``index.attach(gem)``) to serve ``search_corpus`` —
    the attach enforces the persisted model fingerprint. Trained quantizer
    state (IVF centroids/assignments, PQ codebooks and codes) is restored
    bit-identically, so a reloaded index returns exactly the searches of
    the saved one. The archive's content checksum is verified first
    (:exc:`~repro.core.persistence.CorruptArchiveError` on mismatch).
    Members this version does not read, such as the per-row value hashes
    older versions wrote, are ignored (the checksum still covers them).
    """
    payload, config = _read(path)
    index = GemIndex(
        int(config["dim"]),
        backend=config["backend"],
        block_size=int(config["block_size"]),
        n_lists=config["n_lists"],
        n_probe=int(config["n_probe"]),
        dtype=config["dtype"],
        pq_subvectors=int(config["pq_subvectors"]),
        pq_codes=int(config["pq_codes"]),
        pq_rerank=int(config["pq_rerank"]),
        compact_threshold=float(config["compact_threshold"]),
        random_state=config["random_state"] or 0,
        model_fingerprint=config["model_fingerprint"],
    )
    rows = payload["rows"] if "rows" in payload else None
    ids = [str(cid) for cid in payload["ids"]]
    _check_archive(index, ids, rows, payload)
    if "pq_codes" in payload:
        # A trained PQ index: rebuild storage directly — rows may not
        # exist, and re-encoding (even when they do) must not happen,
        # so the reloaded codes are bitwise the saved ones.
        n = len(ids)
        index._slot_ids = list(ids)
        index._pos = {cid: i for i, cid in enumerate(ids)}
        index._n_rows = n
        index._capacity = n
        index._codes_buf = np.ascontiguousarray(payload["pq_codes"], dtype=np.uint8)
        if rows is not None and index.pq_rerank > 0:
            index._rows_buf = np.ascontiguousarray(rows, dtype=index.dtype)
        index._pq.restore(payload["pq_codebooks"], index.dtype)
        index._partition.restore(payload["ivf_centroids"], payload["ivf_assignments"])
    else:
        if rows is not None and rows.shape[0]:
            index.add(ids, rows)
        if "ivf_centroids" in payload:
            assert index._partition is not None
            index._partition.restore(payload["ivf_centroids"], payload["ivf_assignments"])
    return index


def read_index_manifest(path: str | Path) -> dict:
    """Read an index archive's embedded config without building the index.

    Returns the JSON config dict ``save_index`` wrote (schema version,
    backend knobs and — the reason this exists — ``model_fingerprint``),
    letting bundle/stage validators check staleness against a fitted
    embedder cheaply, before committing to a full :func:`load_index`. The
    archive checksum is still verified (corruption is never reported as
    staleness).
    """
    return _read(path)[1]


__all__ = ["save_index", "load_index", "read_index_manifest"]
