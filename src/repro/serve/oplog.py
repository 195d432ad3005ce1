"""Append-only write-ahead op log for crash recovery of served writes.

``save_index`` checkpoints are heavyweight (a full compacted archive), so
a service snapshots occasionally — which leaves every write accepted
*after* the last checkpoint with no durable record. :class:`GemOpLog`
closes that window: the write applier appends each applied batch of
:class:`~repro.serve.snapshot.WriteOp` to the log *before* acknowledging
the callers, so "the service said OK" implies "the op is on disk".
After a crash, ``GemService.from_archives(..., oplog=...)`` replays the
log over the restored archive, reproducing exactly the acknowledged
writes (replaying an op the archive already contains is detected by the
caller via the usual duplicate-id/missing-id errors and skipped).

Format — one framed record per applied batch::

    [4-byte LE body length][8-byte blake2b(body)][body]

where the body is UTF-8 JSON: ``{"ops": [...]}`` with embedding rows as
``{dtype, shape, b64}`` (bit-exact round trip; embeddings are what the
crash lost — re-embedding is not an option since the source values are
gone). The framing makes torn tails self-detecting: a record whose
length field, payload or digest is incomplete — the classic
crashed-mid-append artifact — terminates replay silently, exactly like a
real WAL. Everything *before* the torn record is intact by construction
(appends are sequential and fsynced). A torn frame can only ever be the
last one: an append whose write or fsync fails cuts the log back to its
previous end before the error propagates, so a later acknowledged batch
never sits behind it. If that cut fails too, the log refuses every
further append until :meth:`GemOpLog.truncate` succeeds. Replay ignores
the per-row content hashes that older versions wrote into ingest ops.

A successful checkpoint (``save_index`` through the write applier)
truncates the log: the archive now covers everything, and an unbounded
log would replay unboundedly.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np

from repro.serve.faults import fault_point
from repro.serve.snapshot import WriteOp

_LEN = struct.Struct("<I")
_DIGEST_BYTES = 8


def _digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_DIGEST_BYTES).digest()


def _encode_rows(rows: np.ndarray) -> dict[str, object]:
    arr = np.ascontiguousarray(rows)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_rows(spec: dict[str, object]) -> np.ndarray:
    raw = base64.b64decode(spec["b64"])  # type: ignore[arg-type]
    arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))  # type: ignore[arg-type]
    return arr.reshape([int(n) for n in spec["shape"]]).copy()  # type: ignore[union-attr]


def _encode_op(op: WriteOp) -> dict[str, object]:
    record: dict[str, object] = {"kind": op.kind, "ids": list(op.ids)}
    if op.rows is not None:
        record["rows"] = _encode_rows(op.rows)
    return record


def _decode_op(record: dict[str, object]) -> WriteOp:
    return WriteOp(
        str(record["kind"]),
        [str(cid) for cid in record["ids"]],  # type: ignore[union-attr]
        rows=_decode_rows(record["rows"]) if "rows" in record else None,  # type: ignore[arg-type]
    )


class GemOpLog:
    """Append-only, checksum-framed log of applied write batches.

    One instance is owned by a :class:`~repro.serve.GemService` and
    appended from its single write-applier thread — ``append`` and
    ``truncate`` assume that single-writer contract and are NOT safe to
    call concurrently with each other. ``close`` may race the writer from
    any thread (shutdown paths do): the handle is reference-counted, so a
    close that lands mid-append defers until the in-flight write's fsync
    completes. ``replay`` reads from disk independently (it is how a
    *new* process recovers the previous one's writes).

    The internal lock guards only the handle bookkeeping; the actual
    write/flush/fsync — and the ``oplog.append`` fault hook, which a
    fault plan may turn into an arbitrary delay — happen *outside* it
    (gemlint GEM-C04: an fsync under a lock stalls every contender).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = None
        self._writers = 0
        self._close_pending = False
        # Set when a failed append could not be cut back: its partial frame
        # would hide every later record from replay, so appends are refused
        # until truncate() removes it. Read and written only by the single
        # writer thread.
        self._torn = False

    # -------------------------------------------------------------- writing

    def _checkout(self):
        """Open (if needed) and pin the handle for one write."""
        with self._lock:
            if self._close_pending:
                raise ValueError("oplog is closing")
            if self._fh is None:
                # Unbuffered: no byte of a failed frame may linger in a
                # buffer for the next append to flush after it.
                self._fh = open(self.path, "ab", buffering=0)
            self._writers += 1
            return self._fh

    def _checkin(self) -> None:
        """Unpin the handle; perform a deferred close when last out."""
        to_close = None
        with self._lock:
            self._writers -= 1
            if self._close_pending and self._writers == 0:
                to_close, self._fh = self._fh, None
                self._close_pending = False
        if to_close is not None:
            to_close.close()

    def append(self, ops: list[WriteOp]) -> None:
        """Durably record one applied batch (no-op for an empty batch).

        Writes the whole frame and fsyncs before returning: once this
        returns, the batch survives a crash. The service calls it after the
        batch applied but *before* acknowledging its callers — acked
        implies logged. If the write or the fsync raises, the log is cut
        back to its size before the call and the error propagates, so the
        failed frame cannot hide later batches from replay. If the cut
        fails as well, this and every later append raise ``OSError`` until
        :meth:`truncate` succeeds.
        """
        if not ops:
            return
        body = json.dumps({"ops": [_encode_op(op) for op in ops]}).encode("utf-8")
        frame = memoryview(_LEN.pack(len(body)) + _digest(body) + body)
        fh = self._checkout()
        try:
            if self._torn:
                raise OSError(
                    f"op log {self.path} ends in a failed append that could not "
                    "be cut back; truncate() it before appending"
                )
            fault_point("oplog.append")
            size = os.fstat(fh.fileno()).st_size
            try:
                while frame:
                    frame = frame[fh.write(frame) :]
                os.fsync(fh.fileno())
            except OSError:
                try:
                    os.ftruncate(fh.fileno(), size)
                except OSError:
                    self._torn = True
                raise
        finally:
            self._checkin()

    def truncate(self) -> None:
        """Drop every record: a checkpoint made the log redundant."""
        fh = self._checkout()
        try:
            fh.truncate(0)
            os.fsync(fh.fileno())
            self._torn = False
        finally:
            self._checkin()

    def close(self) -> None:
        """Close the handle; defers until any in-flight write completes."""
        to_close = None
        with self._lock:
            if self._fh is not None:
                if self._writers:
                    self._close_pending = True
                else:
                    to_close, self._fh = self._fh, None
        if to_close is not None:
            to_close.close()

    def __enter__(self) -> "GemOpLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- reading

    def replay(self) -> list[list[WriteOp]]:
        """Every intact batch in append order; a missing file is empty.

        A torn tail — truncated length field, short payload, or digest
        mismatch, i.e. the record being written when the process died —
        ends the replay at the last intact record. Its callers were never
        acknowledged (append fsyncs before the service acks), so dropping
        it loses nothing that was promised.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        batches: list[list[WriteOp]] = []
        offset = 0
        while offset + _LEN.size + _DIGEST_BYTES <= len(raw):
            (length,) = _LEN.unpack_from(raw, offset)
            start = offset + _LEN.size + _DIGEST_BYTES
            end = start + length
            if end > len(raw):
                break  # torn tail: record cut short mid-append
            stored = raw[offset + _LEN.size : start]
            body = raw[start:end]
            if _digest(body) != stored:
                break  # torn/corrupt tail record
            decoded = json.loads(body.decode("utf-8"))
            batches.append([_decode_op(record) for record in decoded["ops"]])
            offset = end
        return batches


__all__ = ["GemOpLog"]
