"""Pipeline stages over a bundle directory: fit → index → serve, + verify.

Each stage reads the manifest, validates the freshness of everything it
depends on, does its work through the existing persistence layer
(:func:`~repro.core.persistence.save_gem`,
:func:`~repro.index.persistence.save_index`, the serving WAL) and records
itself back into the manifest. The validation vocabulary is deliberately
the library's own:

* **corrupt** — bytes changed under the manifest: an artifact whose
  on-disk checksum no longer matches its stage record, a missing artifact
  the manifest promises, or a tampered manifest itself. Raises
  :exc:`~repro.core.persistence.CorruptArchiveError`.
* **stale** — everything is intact but the derivation chain is broken: an
  index whose recorded upstream fit checksum no longer matches the fit
  stage (the model was refit after the index was built), a model whose
  fingerprint drifted, or a corpus that regenerates to a different
  fingerprint than the one fitted on. Raises
  :exc:`~repro.index.StaleIndexError`.
* **usage** — a stage invoked out of order (index before fit) or with a
  malformed spec. Raises :exc:`ValueError` (CLI exit code 2).

:func:`verify_bundle` applies all of these checks offline and returns the
problems as a list instead of raising, so ``python -m repro.bundle
verify`` can report every defect at once.
"""

from __future__ import annotations

from pathlib import Path

from repro.bundle.corpus import corpus_fingerprint, load_corpus
from repro.bundle.manifest import (
    read_manifest,
    record_stage,
    new_manifest,
    write_manifest,
)
from repro.core.config import GemConfig
from repro.core.gem import GemEmbedder
from repro.core.persistence import (
    CorruptArchiveError,
    file_checksum,
    gem_fingerprint,
    load_gem,
    save_gem,
)
from repro.data.table import ColumnCorpus
from repro.index import StaleIndexError, read_index_manifest, save_index
from repro.serve.oplog import GemOpLog

#: Artifact file names inside a bundle directory (manifest records them
#: explicitly; these are the defaults the stages write).
GEM_ARTIFACT = "gem.npz"
INDEX_ARTIFACT = "index.npz"
OPLOG_ARTIFACT = "oplog.wal"
SWEEP_ARTIFACT = "sweep.json"


def _artifact_path(bundle_dir: str | Path, record: dict) -> Path:
    return Path(bundle_dir) / record["artifact"]


def require_stage(manifest: dict, name: str) -> dict:
    """The stage's manifest record, or :exc:`ValueError` if it never ran."""
    try:
        return manifest["stages"][name]
    except KeyError:
        raise ValueError(
            f"bundle has no {name!r} stage; run `python -m repro.bundle "
            f"{name}` first"
        ) from None


def check_artifact_fresh(bundle_dir: str | Path, name: str, record: dict) -> Path:
    """Verify a stage's artifact bytes still match its manifest record.

    Returns the artifact path. A missing artifact or a checksum mismatch
    is *corruption* (the manifest promised those bytes), never staleness.
    Records with ``checksum: null`` (the WAL) only check existence is not
    required — the artifact may legitimately not exist yet.
    """
    path = _artifact_path(bundle_dir, record)
    if record.get("checksum") is None:
        return path
    if not path.is_file():
        raise CorruptArchiveError(
            f"bundle stage {name!r} promises artifact {path.name} but the "
            "file is missing"
        )
    actual = file_checksum(path)
    if actual != record["checksum"]:
        raise CorruptArchiveError(
            f"bundle stage {name!r} artifact {path.name} checksum mismatch: "
            f"manifest records {record['checksum']}, file hashes to {actual} "
            "— the artifact was modified after the stage ran"
        )
    return path


def check_upstream_chain(manifest: dict, name: str, record: dict) -> None:
    """Verify a stage's recorded upstream checksums still match the manifest.

    A mismatch means an upstream stage re-ran after this stage was built —
    the artifact bytes are intact but *derived from the wrong inputs*:
    staleness, reported as :exc:`~repro.index.StaleIndexError`.
    """
    for upstream_name, recorded in record.get("upstream", {}).items():
        upstream = require_stage(manifest, upstream_name)
        if upstream.get("checksum") != recorded:
            raise StaleIndexError(
                f"bundle stage {name!r} was built from {upstream_name!r} "
                f"artifact {recorded}, but the current {upstream_name!r} "
                f"stage records {upstream.get('checksum')} — re-run "
                f"`python -m repro.bundle {name}` to rebuild"
            )


def _check_corpus(manifest: dict) -> ColumnCorpus:
    """Regenerate the manifest's corpus and verify it fingerprint-matches."""
    corpus, _ = load_corpus(manifest["corpus"]["spec"])
    actual = corpus_fingerprint(corpus)
    recorded = manifest["corpus"]["fingerprint"]
    if actual != recorded:
        raise StaleIndexError(
            f"corpus {manifest['corpus']['spec']!r} regenerates to "
            f"fingerprint {actual}, but the bundle was fitted on {recorded} "
            "— the underlying data changed; re-run the fit stage"
        )
    return corpus


# ------------------------------------------------------------------ stages


def fit_stage(
    bundle_dir: str | Path, corpus_spec: str, config: GemConfig | None = None
) -> dict:
    """Fit the embedder on ``corpus_spec`` and (re)record the fit stage.

    Creates ``bundle_dir`` if needed. Re-fitting over an existing bundle
    keeps the downstream stage records in place: if the new model's
    artifact differs, those stages' recorded upstream checksums no longer
    match and every later command refuses them as stale
    (:exc:`~repro.index.StaleIndexError`) until they are rebuilt.
    Returns the written manifest.
    """
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    config = config if config is not None else GemConfig()
    corpus, canonical_spec = load_corpus(corpus_spec)
    gem = GemEmbedder(config=config).fit(corpus)
    gem_path = bundle_dir / GEM_ARTIFACT
    save_gem(gem, gem_path)
    manifest = new_manifest(
        config.to_manifest_dict(), canonical_spec, corpus_fingerprint(corpus)
    )
    try:
        previous = read_manifest(bundle_dir)
    except FileNotFoundError:
        pass
    else:
        manifest["stages"] = dict(previous.get("stages", {}))
    manifest = record_stage(
        manifest,
        "fit",
        artifact=GEM_ARTIFACT,
        checksum=file_checksum(gem_path),
        model_fingerprint=gem_fingerprint(gem),
    )
    write_manifest(bundle_dir, manifest)
    return manifest


def index_stage(bundle_dir: str | Path, **index_kwargs: object) -> dict:
    """Build and persist the retrieval index from the bundle's fit stage.

    Validates the fit artifact (corrupt check), the regenerated corpus
    (stale check) and the loaded model's fingerprint before building.
    ``index_kwargs`` are :class:`~repro.index.GemIndex` arguments
    (``backend``, ``n_probe``, …) passed through
    :meth:`~repro.core.gem.GemEmbedder.build_index`; the index settings
    come only from them, never from the stored config. Returns the written
    manifest.
    """
    bundle_dir = Path(bundle_dir)
    manifest = read_manifest(bundle_dir)
    fit_rec = require_stage(manifest, "fit")
    gem_path = check_artifact_fresh(bundle_dir, "fit", fit_rec)
    gem = load_gem(gem_path)
    actual_fp = gem_fingerprint(gem)
    if actual_fp != fit_rec.get("model_fingerprint"):
        raise StaleIndexError(
            f"loaded model fingerprint {actual_fp} does not match the fit "
            f"stage record {fit_rec.get('model_fingerprint')}"
        )
    corpus = _check_corpus(manifest)
    index = gem.build_index(corpus, **index_kwargs)
    index_path = bundle_dir / INDEX_ARTIFACT
    save_index(index, index_path)
    manifest = record_stage(
        manifest,
        "index",
        artifact=INDEX_ARTIFACT,
        checksum=file_checksum(index_path),
        model_fingerprint=index.model_fingerprint,
        upstream={"fit": fit_rec["checksum"]},
        extra={"backend": index.backend, "n_rows": len(index)},
    )
    write_manifest(bundle_dir, manifest)
    return manifest


def open_service(bundle_dir: str | Path, **service_kwargs: object):
    """Warm-start a :class:`~repro.serve.GemService` from a bundle.

    Validates the whole fit → index chain (corrupt artifacts, stale
    derivations, fingerprint agreement) before loading anything heavy,
    then delegates to :meth:`~repro.serve.GemService.from_archives` with
    the bundle's WAL — writes acknowledged after the last checkpoint are
    replayed before the service takes traffic. Records the serve stage in
    the manifest (the WAL artifact carries no checksum: it legitimately
    grows while the service runs). ``service_kwargs`` are
    :class:`~repro.serve.GemService` arguments: the batching, deadline
    and admission policy.

    The caller owns the returned service (``close()`` or use as a context
    manager).
    """
    bundle_dir = Path(bundle_dir)
    manifest = read_manifest(bundle_dir)
    fit_rec = require_stage(manifest, "fit")
    index_rec = require_stage(manifest, "index")
    gem_path = check_artifact_fresh(bundle_dir, "fit", fit_rec)
    index_path = check_artifact_fresh(bundle_dir, "index", index_rec)
    check_upstream_chain(manifest, "index", index_rec)
    # Cheap fingerprint agreement before the full load: the archive's
    # embedded fingerprint must match both its stage record and the fit's.
    embedded = read_index_manifest(index_path).get("model_fingerprint")
    if embedded != index_rec.get("model_fingerprint"):
        raise StaleIndexError(
            f"index archive embeds model fingerprint {embedded} but the "
            f"manifest records {index_rec.get('model_fingerprint')}"
        )
    if embedded != fit_rec.get("model_fingerprint"):
        raise StaleIndexError(
            f"index was built for model {embedded}, bundle's fit stage is "
            f"model {fit_rec.get('model_fingerprint')} — rebuild the index"
        )
    from repro.serve import GemService

    service = GemService.from_archives(
        gem_path,
        index_path,
        oplog=bundle_dir / OPLOG_ARTIFACT,
        **service_kwargs,
    )
    manifest = record_stage(
        manifest,
        "serve",
        artifact=OPLOG_ARTIFACT,
        checksum=None,
        upstream={"fit": fit_rec["checksum"], "index": index_rec["checksum"]},
    )
    write_manifest(bundle_dir, manifest)
    return service


def verify_bundle(bundle_dir: str | Path) -> list[str]:
    """Re-check a whole bundle offline; returns the list of problems.

    Runs every corrupt/stale check the online stages enforce — manifest
    self-checksum, config validity, per-stage artifact checksums, the
    upstream derivation chain, model-fingerprint agreement, corpus
    fingerprint, WAL decodability — and collects the failures instead of
    raising, so the CLI can report all of them in one pass. An empty list
    means the bundle is internally consistent.
    """
    bundle_dir = Path(bundle_dir)
    try:
        manifest = read_manifest(bundle_dir)
    except (FileNotFoundError, CorruptArchiveError, ValueError) as exc:
        return [str(exc)]
    problems: list[str] = []
    try:
        GemConfig.from_manifest_dict(manifest.get("config", {}))
    except Exception as exc:
        problems.append(f"config does not validate: {exc}")
    stages = manifest.get("stages", {})
    for name in sorted(stages):
        record = stages[name]
        try:
            check_artifact_fresh(bundle_dir, name, record)
        except CorruptArchiveError as exc:
            problems.append(str(exc))
            continue
        try:
            check_upstream_chain(manifest, name, record)
        except (StaleIndexError, ValueError) as exc:
            problems.append(str(exc))
    fit_rec = stages.get("fit")
    index_rec = stages.get("index")
    if fit_rec is not None and not problems:
        try:
            gem = load_gem(_artifact_path(bundle_dir, fit_rec))
            if gem_fingerprint(gem) != fit_rec.get("model_fingerprint"):
                problems.append(
                    "fit artifact loads to a different model fingerprint "
                    "than the manifest records"
                )
        except CorruptArchiveError as exc:
            problems.append(f"fit artifact: {exc}")
        try:
            _check_corpus(manifest)
        except (StaleIndexError, ValueError) as exc:
            problems.append(str(exc))
    if index_rec is not None and fit_rec is not None and not any(
        "index" in p for p in problems
    ):
        try:
            embedded = read_index_manifest(
                _artifact_path(bundle_dir, index_rec)
            ).get("model_fingerprint")
            if embedded != fit_rec.get("model_fingerprint"):
                problems.append(
                    f"index archive embeds model fingerprint {embedded}, fit "
                    f"stage is {fit_rec.get('model_fingerprint')}"
                )
        except (CorruptArchiveError, ValueError) as exc:
            problems.append(f"index artifact: {exc}")
    serve_rec = stages.get("serve")
    if serve_rec is not None:
        wal = _artifact_path(bundle_dir, serve_rec)
        if wal.is_file():
            try:
                GemOpLog(wal).replay()
            except Exception as exc:
                problems.append(f"WAL {wal.name} does not decode: {exc}")
    return problems


__all__ = [
    "GEM_ARTIFACT",
    "INDEX_ARTIFACT",
    "OPLOG_ARTIFACT",
    "SWEEP_ARTIFACT",
    "fit_stage",
    "index_stage",
    "open_service",
    "verify_bundle",
    "require_stage",
    "check_artifact_fresh",
    "check_upstream_chain",
]
