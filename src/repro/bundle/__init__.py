"""Versioned pipeline bundles: one directory, one reproducible deployment.

A *bundle* packages everything a Gem deployment consists of — the fitted
model archive, its retrieval index, the serving write-ahead log and any
sweep results — under a single directory described by a checksummed
``manifest.json``. The manifest records the schema version, the full
:class:`~repro.core.config.GemConfig`, the corpus (canonical spec +
content fingerprint) and, per completed stage, the artifact checksum and
the upstream checksums it was derived from. That chain is what makes the
pipeline *operable*: every stage refuses corrupt inputs
(:exc:`~repro.core.persistence.CorruptArchiveError`) and stale
derivations (:exc:`~repro.index.StaleIndexError`) instead of silently
serving the wrong model, and ``verify`` re-checks a whole bundle offline.

Drive it from the shell (``python -m repro.bundle fit|index|serve|verify|
sweep``, see :mod:`repro.bundle.__main__` and ``docs/cli.md``) or from
Python::

    from repro.bundle import fit_stage, index_stage, open_service, verify_bundle

    fit_stage("lake.bundle", "synthetic:gds:tiny", GemConfig.fast())
    index_stage("lake.bundle", backend="ivf")
    assert verify_bundle("lake.bundle") == []

    with open_service("lake.bundle") as service:
        hits = service.search(new_corpus, k=10)

``sweep`` (:mod:`repro.bundle.sweep`) extends the warm-started BIC sweep
of :mod:`repro.gmm.selection` to retrieval-quality objectives over
declared grids of GemConfig fields (and, for index recall, GemIndex
arguments), writing a byte-reproducible ranked table into the bundle.
"""

from repro.core.persistence import CorruptArchiveError
from repro.index.core import StaleIndexError

from repro.bundle.corpus import (
    canonicalize_corpus_spec,
    corpus_fingerprint,
    load_corpus,
)
from repro.bundle.manifest import (
    MANIFEST_NAME,
    READABLE_VERSIONS,
    SCHEMA_VERSION,
    manifest_checksum,
    manifest_path,
    new_manifest,
    read_manifest,
    record_stage,
    write_manifest,
)
from repro.bundle.stages import (
    GEM_ARTIFACT,
    INDEX_ARTIFACT,
    OPLOG_ARTIFACT,
    SWEEP_ARTIFACT,
    fit_stage,
    index_stage,
    open_service,
    verify_bundle,
)
from repro.bundle.sweep import expand_grid, format_sweep_table, run_sweep

__all__ = [
    "CorruptArchiveError",
    "StaleIndexError",
    "SCHEMA_VERSION",
    "READABLE_VERSIONS",
    "MANIFEST_NAME",
    "GEM_ARTIFACT",
    "INDEX_ARTIFACT",
    "OPLOG_ARTIFACT",
    "SWEEP_ARTIFACT",
    "manifest_path",
    "manifest_checksum",
    "new_manifest",
    "read_manifest",
    "write_manifest",
    "record_stage",
    "canonicalize_corpus_spec",
    "load_corpus",
    "corpus_fingerprint",
    "fit_stage",
    "index_stage",
    "open_service",
    "verify_bundle",
    "expand_grid",
    "run_sweep",
    "format_sweep_table",
]
