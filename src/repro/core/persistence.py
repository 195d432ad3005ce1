"""Persistence for fitted Gem embedders.

A fitted :class:`~repro.core.gem.GemEmbedder` is a corpus-level model (GMM
parameters + feature standardisation + frozen balance statistics +
config); deployments fit once over a data lake and embed new columns
later. ``save_gem`` / ``load_gem`` round-trip everything through a single
``.npz`` archive (config as embedded JSON, arrays natively). The
transform-engine knobs (``batch_size``, ``cache_signatures``) and the EM
settings travel with the config, so a reloaded embedder transforms with
the same memory profile and refits the same way; the signature cache
itself is transient and starts empty on load. ``load_gem`` refuses an
archive without a content checksum (:exc:`CorruptArchiveError`) and a
stacked-mode archive without the frozen balance statistics its config
needs (:exc:`ValueError`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from repro.core.cache import array_fingerprint
from repro.core.config import GemConfig
from repro.core.gem import GemEmbedder, _balance_structure
from repro.gmm.model import GaussianMixture

# Config fields that change what a fitted embedder outputs at transform
# time. Engine/fit-time knobs (batch_size, cache_signatures, n_init, …) are
# deliberately absent: they shape *how* the frozen parameters below were
# obtained or are applied, not the embedding space itself, so two embedders
# differing only in those serve interchangeable rows. Exception: under
# fit_mode="per_column" the GMMs are fitted *at transform time*, so the EM
# knobs do shape the output there — _PER_COLUMN_FIT_FIELDS covers them.
_FINGERPRINT_CONFIG_FIELDS = (
    "n_components",
    "use_distributional",
    "use_statistical",
    "use_contextual",
    "signature_kind",
    "normalization",
    "fit_mode",
    "value_transform",
    "composition",
    "balance_blocks",
    "feature_clip",
    "header_dim",
    "ae_latent_dim",
    "ae_epochs",
)

# EM knobs read by GemEmbedder._fit_column_mixture at transform time; part
# of the embedding space only in per_column mode (in stacked mode their
# effect is already frozen into the hashed gmm_ arrays).
_PER_COLUMN_FIT_FIELDS = ("gmm_init", "tol", "max_iter", "covariance_floor")


class CorruptArchiveError(RuntimeError):
    """The archive on disk does not match its recorded content checksum.

    Raised by :func:`read_archive` when an archive is truncated, bit-rotted,
    stripped of its checksum member or otherwise unreadable — distinct from
    :exc:`FileNotFoundError` (the archive never existed) and from a
    clean-but-stale archive (see :class:`~repro.index.core.StaleIndexError`).
    A corrupt archive cannot be partially trusted; rebuild it from source or
    restore a backup.
    """


# Fault-injection registration point. ``repro.serve.faults`` installs its
# hook here for the duration of a FaultPlan so chaos tests can kill or
# fail archive writes at named sites; core stays serve-agnostic (GEM-L01:
# core never imports serve).
_FAULT_HOOK: Callable[[str], None] | None = None


def set_fault_hook(hook: Callable[[str], None] | None) -> Callable[[str], None] | None:
    """Install a fault-injection hook; returns the previously installed one.

    Test-only machinery: production never installs a hook, and the
    disabled path below is a single global read.
    """
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    return previous


def _fault(site: str) -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook(site)


def file_checksum(path: str | Path) -> str:
    """Content checksum of a file on disk (blake2b over its raw bytes).

    The coarse sibling of :func:`archive_checksum`: where that one hashes
    an archive's *decoded arrays* (so it survives recompression), this one
    hashes the bytes as stored — any rewrite of the file, however
    equivalent, changes it. That is exactly what a
    :mod:`repro.bundle` manifest wants: a stage fingerprint that detects
    *both* corruption and a silently re-run upstream stage.
    """
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_replace(final: Path, write: Callable[[BinaryIO], object]) -> Path:
    """Atomically put the bytes ``write`` produces at ``final``.

    ``write`` fills a sibling ``.tmp`` file, which is flushed and fsynced,
    then :func:`os.replace`'d over the final name, and the directory entry
    is fsynced — so a crash at *any* point leaves either the previous file
    intact or the new one complete, never a torn file under the real name.
    Returns ``final``.
    """
    tmp = final.with_name(final.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        _fault("persistence.replace")
        os.replace(tmp, final)
    except Exception:
        # Recoverable failure: don't litter. A KillPoint (BaseException,
        # modelling process death) skips this on purpose — a real crash
        # leaves the tmp file behind too, and the final name untouched.
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:
        # Durability of the rename itself: fsync the directory entry.
        dir_fd = os.open(final.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # not supported on every platform/filesystem; rename still atomic
    return final


def atomic_write_json(path: str | Path, obj: object, *, indent: int = 2) -> Path:
    """Write a JSON document atomically (tmp file + fsync + ``os.replace``).

    The JSON counterpart of :func:`atomic_savez`: a crash at any point
    leaves either the previous document intact or the new one complete.
    Keys are serialised sorted so the same object always produces the
    same bytes (bundle manifests and sweep tables rely on byte-identical
    re-serialisation). Returns the path written.
    """
    data = json.dumps(obj, indent=indent, sort_keys=True).encode("utf-8") + b"\n"
    return _atomic_replace(Path(path), lambda fh: fh.write(data))


def npz_path(path: str | Path) -> Path:
    """The path ``np.savez`` actually writes: ``.npz`` is appended if absent.

    ``np.savez`` silently appends the extension while ``np.load`` does not;
    every archive writer/reader in this library resolves paths through this
    helper so a save/load pair always agrees on the file name.
    """
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def json_to_array(obj: object) -> np.ndarray:
    """Encode a JSON-serialisable object as a uint8 array for ``.npz``.

    The shared trick of every archive in this library (Gem models, search
    indexes): ``np.savez`` only stores arrays, so structured config rides
    along as UTF-8 bytes.
    """
    return np.frombuffer(json.dumps(obj).encode("utf-8"), dtype=np.uint8)


def json_from_array(array: np.ndarray) -> object:
    """Decode an object written by :func:`json_to_array`."""
    return json.loads(bytes(array).decode("utf-8"))


def archive_checksum(arrays: dict[str, np.ndarray]) -> str:
    """Content checksum over an archive's arrays (name, dtype, shape, bytes).

    Deliberately computed over the decoded arrays, not the zip bytes: it
    survives recompression and is what :func:`read_archive` can re-derive
    after a successful decode, catching corruption the zip layer's
    per-member CRC does not cover (e.g. a truncated final member, or a
    hand-edited payload re-zipped consistently).
    """
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def atomic_savez(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Write an ``.npz`` archive atomically, with an embedded checksum.

    The archive goes through the same tmp file + fsync + ``os.replace``
    sequence as :func:`atomic_write_json`, so a crash at *any* point leaves
    either the previous archive intact or the new one complete, never a
    torn file under the real name. The payload gains a ``__checksum__``
    member (:func:`archive_checksum` over the caller's arrays) that
    :func:`read_archive` verifies on load.

    Returns the final path written (with the ``.npz`` suffix applied).
    """
    payload = dict(arrays)
    payload["__checksum__"] = json_to_array(archive_checksum(arrays))
    return _atomic_replace(npz_path(path), lambda fh: np.savez(fh, **payload))


def read_archive(path: str | Path) -> dict[str, np.ndarray]:
    """Read an ``.npz`` archive, verifying its content checksum.

    Returns the archive's arrays as a dict (eagerly decoded — corruption
    must surface here, not lazily mid-restore). Raises
    :exc:`CorruptArchiveError` if the file cannot be decoded, carries no
    ``__checksum__`` member, or its ``__checksum__`` does not match the
    content. A missing file still raises :exc:`FileNotFoundError` —
    absence and corruption are different operational problems.
    """
    final = npz_path(path)
    try:
        # Opened here, not by np.load: np.load leaves its own handle open
        # when it refuses a truncated file.
        with open(final, "rb") as fh, np.load(fh) as payload:
            arrays = {name: payload[name] for name in payload.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CorruptArchiveError(f"archive {final} is unreadable: {exc}") from exc
    stored = arrays.pop("__checksum__", None)
    if stored is None:
        raise CorruptArchiveError(
            f"archive {final} carries no content checksum, so its content "
            "cannot be verified — rebuild it from source or restore a backup"
        )
    expected = json_from_array(stored)
    actual = archive_checksum(arrays)
    if actual != expected:
        raise CorruptArchiveError(
            f"archive {final} failed its content checksum "
            f"(stored {expected}, recomputed {actual}); the file is "
            "corrupt — rebuild it from source or restore a backup"
        )
    return arrays


def gem_fingerprint(gem: GemEmbedder) -> str:
    """Content fingerprint of a fitted embedder's embedding space.

    Hashes everything that determines a transform's output: the fitted GMM
    parameters, the frozen feature standardisation, the value-transform
    statistics and the output-shaping config fields. Two embedders share a
    fingerprint iff they embed columns identically, so a
    :class:`~repro.index.core.GemIndex` stamped with this value can detect
    a refit model and refuse to serve stale neighbours.

    Raises
    ------
    RuntimeError
        If the embedder has not been fitted.
    """
    gem._check_fitted()
    digest = hashlib.blake2b(digest_size=16)
    fields = _FINGERPRINT_CONFIG_FIELDS
    if gem.config.fit_mode == "per_column":
        fields = fields + _PER_COLUMN_FIT_FIELDS
    for name in fields:
        digest.update(f"{name}={getattr(gem.config, name)!r};".encode("utf-8"))
    # random_state only shapes transform output when a transform stage is
    # stochastic: per-column GMM fits or autoencoder training. In plain
    # stacked mode it influenced only the (already hashed) fitted arrays,
    # and hashing it anyway would spuriously refuse a save_gem/load_gem
    # round trip of a Generator-seeded model (save_gem drops the
    # unserialisable Generator). A Generator's repr embeds its memory
    # address, so generators hash as their bit-generator type only;
    # int/None seeds hash exactly.
    if gem.config.fit_mode == "per_column" or gem.config.composition == "autoencoder":
        rs = gem.config.random_state
        if isinstance(rs, np.random.Generator):
            rs_token = f"Generator({type(rs.bit_generator).__name__})"
        else:
            rs_token = repr(rs)
        digest.update(f"random_state={rs_token};".encode("utf-8"))
    for arr in (gem._feature_mean, gem._feature_std):
        digest.update(array_fingerprint(np.asarray(arr)).encode("ascii"))
    if gem._transform_stats is not None:
        digest.update(repr(tuple(gem._transform_stats)).encode("utf-8"))
    # Frozen balance statistics are part of the embedding space too.
    digest.update(repr(gem._signature_balance).encode("utf-8"))
    digest.update(repr(gem._block_norms).encode("utf-8"))
    if gem.gmm_ is not None:
        for arr in (gem.gmm_.weights_, gem.gmm_.means_, gem.gmm_.covariances_):
            digest.update(array_fingerprint(np.asarray(arr)).encode("ascii"))
    return digest.hexdigest()


def save_gem(gem: GemEmbedder, path: str | Path) -> None:
    """Serialise a fitted embedder to ``path`` (.npz archive).

    Raises
    ------
    RuntimeError
        If the embedder has not been fitted.
    """
    if getattr(gem, "_fitted", False) is not True:
        raise RuntimeError("cannot save an unfitted GemEmbedder; call fit() first")
    # A Generator random_state is not JSON-serialisable; to_manifest_dict
    # warns and drops it — the archive keeps the fitted arrays (which
    # captured the draws that mattered), so the reloaded embedder falls
    # back to the default seed.
    cfg = gem.config.to_manifest_dict()
    arrays: dict[str, np.ndarray] = {
        "config_json": json_to_array(cfg),
        "feature_mean": gem._feature_mean,
        "feature_std": gem._feature_std,
    }
    if gem._transform_stats is not None:
        arrays["transform_stats"] = np.asarray(gem._transform_stats)
    if gem._signature_balance is not None:
        arrays["signature_balance"] = np.asarray([gem._signature_balance])
    if gem._block_norms is not None:
        arrays["block_norms"] = np.asarray(gem._block_norms)
    if gem.gmm_ is not None:
        arrays["gmm_weights"] = gem.gmm_.weights_
        arrays["gmm_means"] = gem.gmm_.means_
        arrays["gmm_covariances"] = gem.gmm_.covariances_
    atomic_savez(path, arrays)


def load_gem(path: str | Path) -> GemEmbedder:
    """Load an embedder previously written by :func:`save_gem`.

    The returned embedder is ready to ``transform`` new corpora; the fitted
    GMM, feature standardisation and balance statistics are restored
    exactly. The archive's content checksum is verified first
    (:exc:`CorruptArchiveError` on mismatch).

    Raises
    ------
    ValueError
        If a ``fit_mode="stacked"`` archive lacks a frozen balance statistic
        its config needs: ``signature_balance`` for a joint D+S signature,
        ``block_norms`` when ``balance_blocks`` equalises several blocks.
        Without it the transform would fall back to per-corpus balance, so
        rows embedded from different corpora could not be compared.
    """
    payload = read_archive(path)
    cfg_dict = json_from_array(payload["config_json"])
    # Archives written by other library versions may carry config keys
    # this version lacks (or miss ones it has); from_manifest_dict drops
    # unknown keys with a warning — not silently, a typo'd hand-edited
    # key must be noticed — and missing ones fall back to the dataclass
    # defaults, so batching knobs like batch_size/cache_signatures
    # round-trip when present.
    config = GemConfig.from_manifest_dict(cfg_dict)
    if config.fit_mode == "stacked":
        joint, multi = _balance_structure(config)
        missing = [
            name
            for name, needed in (("signature_balance", joint), ("block_norms", multi))
            if needed and name not in payload
        ]
        if missing:
            raise ValueError(
                f"gem archive {npz_path(path)} lacks the frozen balance "
                f"statistics {missing} its config needs, so its transform "
                "would depend on the corpus; refit and re-save the model"
            )
    gem = GemEmbedder(config=config)
    gem._feature_mean = payload["feature_mean"]
    gem._feature_std = payload["feature_std"]
    if "transform_stats" in payload:
        stats = payload["transform_stats"]
        gem._transform_stats = (float(stats[0]), float(stats[1]))
    if "signature_balance" in payload:
        gem._signature_balance = float(payload["signature_balance"][0])
    if "block_norms" in payload:
        gem._block_norms = [float(v) for v in payload["block_norms"]]
    if "gmm_weights" in payload:
        # Reconstruct with the full training configuration so a refit of
        # the loaded mixture behaves like the original embedder's.
        gmm = GaussianMixture(
            n_components=int(payload["gmm_weights"].shape[0]),
            tol=config.tol,
            n_init=config.n_init,
            max_iter=config.max_iter,
            reg_covar=config.covariance_floor,
            init=config.gmm_init,
            random_state=config.random_state,
        )
        gmm.weights_ = payload["gmm_weights"]
        gmm.means_ = payload["gmm_means"]
        gmm.covariances_ = payload["gmm_covariances"]
        gmm.converged_ = True
        gem.gmm_ = gmm
    gem._fitted = True
    return gem


__all__ = [
    "save_gem",
    "load_gem",
    "gem_fingerprint",
    "json_to_array",
    "json_from_array",
    "npz_path",
    "atomic_savez",
    "atomic_write_json",
    "file_checksum",
    "read_archive",
    "archive_checksum",
    "CorruptArchiveError",
    "set_fault_hook",
]
