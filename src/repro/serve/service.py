"""`GemService`: a thread-safe online serving layer over Gem + GemIndex.

The offline pipeline fits once and transforms a corpus; the serving
workload is many concurrent callers issuing *small* requests — embed a
handful of columns, find a column's neighbours, ingest a freshly crawled
table, evict a retracted one. :class:`GemService` owns one fitted
:class:`~repro.core.gem.GemEmbedder` and one
:class:`~repro.index.GemIndex` and coordinates that traffic:

* **micro-batching** — concurrent ``embed``/``search`` requests arriving
  within ``batch_window_ms`` of each other coalesce into one
  vectorised ``transform``/``search`` pass. Results are **bit-identical**
  to solo calls: signature pooling chunks are column-aligned (a column's
  pooled row never depends on what shares the stack) and the top-k search
  kernels are row-independent and blocking-invariant.
* **snapshot isolation** — writes (``ingest``/``evict``) apply to the
  single writer's working index and publish via an atomic snapshot swap
  (:mod:`repro.serve.snapshot`); readers never block on writers and never
  observe a half-applied batch. Within one write batch, ops apply in
  arrival order, so evict + ingest of the same id resurrects the row.
* **resilience** (:mod:`repro.serve.resilience`) — every request carries
  a deadline (``deadline_ms``, overridable per call) bounding all of its
  waits; admission control sheds load past ``max_pending``
  (:exc:`~repro.serve.SheddingError` fast-fail); a degradation breaker
  trades search quality (IVF ``n_probe``, PQ re-rank) for latency under
  pressure and recovers hysteretically.
* **crash safety** — archives are written atomically with content
  checksums, and an optional write-ahead op log
  (:mod:`repro.serve.oplog`) records every acknowledged write batch so
  :meth:`from_archives` can replay what the last :meth:`checkpoint`
  missed. Acked implies logged: the applier appends to the log before
  callers unblock.
* **metrics** — request counts, batched ratio, p50/p99 latency, snapshot
  age, and resilience accounting (:mod:`repro.serve.metrics`).

Warm start from archives written by ``save_gem``/``save_index``::

    service = GemService.from_archives("gem.npz", "lake.idx.npz", oplog="lake.wal")
    hits = service.search(new_corpus, k=10)

The index archive embeds the owning model's fingerprint; a mismatched
pair raises :class:`~repro.index.StaleIndexError` instead of serving
neighbours from a different embedding space.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import ContextManager, Sequence

import numpy as np

from repro.core.gem import GemEmbedder
from repro.data.table import ColumnCorpus, NumericColumn
from repro.index.core import GemIndex, SearchResult
from repro.serve.batching import MicroBatcher
from repro.serve.metrics import ServiceMetrics
from repro.serve.oplog import GemOpLog
from repro.serve.resilience import (
    CLOSED,
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    DegradationPolicy,
    SheddingError,
)
from repro.serve.snapshot import SnapshotStore, WriteOp

# Backstop on every ticket wait (GEM-R01): a wedged batch thread must
# surface as a TimeoutError, not a caller hung forever. Request deadlines
# bound the wait far tighter.
_RESULT_BACKSTOP_S = 600.0


def _as_columns(columns: object, what: str) -> list[NumericColumn]:
    """Normalise a request payload to a list of NumericColumn."""
    if isinstance(columns, ColumnCorpus):
        return list(columns)
    if isinstance(columns, NumericColumn):
        return [columns]
    cols = list(columns)  # type: ignore[arg-type]
    for c in cols:
        # Checked before the request joins a batch: malformed input would
        # otherwise fail the whole coalesced transform pass and take
        # innocent co-batched requests down with it. (NumericColumn itself
        # guarantees non-empty finite values at construction.)
        if not isinstance(c, NumericColumn):
            raise TypeError(
                f"{what} must be a ColumnCorpus or a sequence of "
                f"NumericColumn, got an element of type {type(c).__name__}"
            )
    return cols


class GemService:
    """Thread-safe serving facade over a fitted embedder and an index.

    Parameters
    ----------
    embedder:
        A fitted :class:`~repro.core.gem.GemEmbedder` whose transform is
        corpus-independent (stacked mode with frozen balance statistics;
        the constructor refuses autoencoder/per-column configurations —
        their embeddings are not comparable across requests).
    index:
        The index to serve and maintain; ``None`` starts an empty
        ``GemIndex(embedder.embedding_dim)`` with the index's defaults
        (exact, float64) — pass a ``GemIndex`` to choose any other
        setting. The embedder is (re-)attached, so a warm-started index
        whose archive fingerprint does not match raises
        :class:`~repro.index.StaleIndexError`.
    batch_window_ms:
        Upper bound on how long a batch keeps collecting after its first
        request arrives. Collection seals early — as soon as the batch
        fills or stops growing for a couple of scheduler yields — so an
        isolated request never idles out the window; under load, batches
        also keep collecting while the previous batch executes. ``0``
        removes the linger entirely.
    max_batch:
        Maximum requests coalesced into one batch.
    max_workers:
        Read batches allowed to execute concurrently (writes are always
        applied by a single thread so snapshots publish in order).
    deadline_ms:
        Default per-request latency budget, overridable per call. A
        request whose budget expires before its result is ready raises
        :exc:`~repro.serve.DeadlineExceededError`. Must be finite:
        threading waits cannot take an infinite timeout.
    max_pending:
        Bound on concurrently admitted requests; past it, new requests
        fast-fail with :exc:`~repro.serve.SheddingError` instead of
        queueing. Also the queue depth at which the degradation breaker
        opens fully.
    degrade_pending:
        Queue depth at which the service starts trading search quality
        for latency (IVF ``n_probe`` halves stepwise, PQ re-ranking
        turns off); ``None`` means ``min(64, max_pending)``. Must not
        exceed ``max_pending``.
    degrade_latency_ms:
        Observed p99 request latency that also triggers degradation;
        ``None`` leaves only the queue-depth trigger.
    oplog:
        A :class:`~repro.serve.oplog.GemOpLog` (or a path for one) that
        durably records every acknowledged write batch. See
        :meth:`from_archives` for the recovery side.

    All public operations may be called from any number of threads.
    ``embed`` and ``search`` are reads: they run against the latest
    published snapshot and coalesce into shared vectorised passes.
    ``ingest`` and ``evict`` are writes: they are applied by a single
    writer thread in arrival order and become visible atomically; both
    block until their batch's snapshot is published, so a caller's own
    subsequent search observes its write.

    Failure taxonomy: :exc:`~repro.serve.DeadlineExceededError` (your
    budget ran out — the work may or may not have happened),
    :exc:`~repro.serve.SheddingError` (the service refused the request —
    it definitely did not happen; retry with backoff),
    :exc:`~repro.serve.BatcherClosedError` (the service is shut down),
    :exc:`~repro.core.persistence.CorruptArchiveError` /
    :exc:`~repro.index.StaleIndexError` (warm-start refused).
    """

    def __init__(
        self,
        embedder: GemEmbedder,
        index: GemIndex | None = None,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 64,
        max_workers: int = 2,
        deadline_ms: float = 10_000.0,
        max_pending: int = 256,
        degrade_pending: int | None = None,
        degrade_latency_ms: float | None = None,
        oplog: GemOpLog | str | Path | None = None,
    ) -> None:
        embedder._check_fitted()
        if embedder.transform_is_corpus_dependent:
            raise ValueError(
                "GemService requires a corpus-independent transform: this "
                "embedder's configuration (autoencoder composition, "
                "fit_mode='per_column', or a model restored without frozen "
                "balance statistics) embeds the same column differently "
                "per request corpus, so served rows would not be mutually "
                "comparable. Refit with fit_mode='stacked' and a "
                "non-autoencoder composition."
            )
        self.embedder = embedder
        if index is None:
            index = GemIndex(embedder.embedding_dim)
        index.attach(embedder)  # fingerprint-checked warm start
        Deadline.after_ms(deadline_ms)  # validate (finite, > 0) up front
        self._deadline_s = deadline_ms / 1e3  # pre-validated offset
        self._admission = AdmissionController(max_pending)
        self._policy = DegradationPolicy(
            degrade_pending=min(64, max_pending) if degrade_pending is None else degrade_pending,
            shed_pending=max_pending,
            degrade_latency_ms=degrade_latency_ms,
        )
        self._last_state = CLOSED  # last breaker state pushed to metrics
        self._reads = MicroBatcher(
            self._execute_reads,
            window_ms=batch_window_ms,
            max_batch=max_batch,
            max_workers=max_workers,
            name="gem-serve-read",
        )
        # Writes stay on one dispatcher thread: ops must apply in arrival
        # order and snapshots must publish in order.
        self._writes = MicroBatcher(
            self._execute_writes,
            window_ms=batch_window_ms,
            max_batch=max_batch,
            max_workers=1,
            name="gem-serve-write",
        )
        # Opened after every argument is validated, so a refused
        # construction leaks no log file handle.
        self._oplog = GemOpLog(oplog) if isinstance(oplog, (str, Path)) else oplog
        self._store = SnapshotStore(index)
        self.metrics = ServiceMetrics()
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def from_archives(
        cls,
        gem_path: str | Path,
        index_path: str | Path | None = None,
        *,
        oplog: GemOpLog | str | Path | None = None,
        **kwargs: object,
    ) -> "GemService":
        """Warm-start a service from ``save_gem``/``save_index`` archives.

        The index archive carries the fingerprint of the model it was
        built from; loading it against a different model raises
        :class:`~repro.index.StaleIndexError` — a stale pairing is refused
        at startup, not discovered per query. A truncated or bit-rotted
        archive raises
        :class:`~repro.core.persistence.CorruptArchiveError`.

        When ``oplog`` is given, every intact batch in the log is replayed
        over the restored index before the service takes traffic — writes
        acknowledged after the archive's checkpoint survive the crash.
        Replay is idempotent: ops the archive already contains fail their
        usual validation (duplicate id / missing id) and are skipped, so a
        crash *between* checkpoint and log truncation double-applies
        nothing.
        """
        from repro.core.persistence import load_gem
        from repro.index.persistence import load_index

        embedder = load_gem(gem_path)
        index = load_index(index_path) if index_path is not None else None
        service = cls(embedder, index, oplog=oplog, **kwargs)  # type: ignore[arg-type]
        service._replay_oplog()
        return service

    def _replay_oplog(self) -> None:
        """Apply every logged batch to the restored index (recovery)."""
        if self._oplog is None:
            return
        replayed = 0
        for ops in self._oplog.replay():
            outcomes, _, _ = self._store.apply(ops)
            replayed += sum(1 for outcome in outcomes if outcome is None)
        if replayed:
            self.metrics.record_replayed(replayed)

    def close(self) -> None:
        """Refuse new requests; batches already open run to completion.

        Graceful by design: every request that was accepted before the
        close executes and its caller unblocks normally — only subsequent
        submissions raise :class:`~repro.serve.BatcherClosedError`.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._reads.close()
        self._writes.close()
        if self._oplog is not None:
            self._oplog.close()

    def __enter__(self) -> "GemService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._store.current())

    # ----------------------------------------------------------- resilience

    def _request_deadline(self, deadline_ms: float | None) -> Deadline:
        """The deadline for one request: per-call override, else the default."""
        if deadline_ms is not None:
            return Deadline.after_ms(float(deadline_ms))
        # The default was validated in __init__; skip re-validation on the
        # per-request hot path.
        return Deadline(time.monotonic() + self._deadline_s)

    def _admit(self) -> ContextManager[object]:
        """Admission control: a slot context, or SheddingError fast-fail.

        Sheds when the breaker is open (degradation reached its shedding
        state) or the in-flight count has hit ``max_pending``. Shed
        attempts are observed too — falling pressure during a shed storm
        is what drives the breaker's hysteretic recovery.
        """
        if self._policy.shedding:
            self.metrics.record_shed()
            self._observe(None)
            raise SheddingError(
                "service is shedding load (degradation breaker open); "
                "retry with backoff"
            )
        try:
            slot = self._admission.admit()
        except SheddingError:
            self.metrics.record_shed()
            self._observe(None)
            raise
        return slot

    def _observe(self, latency_s: float | None) -> None:
        """Feed one pressure sample to the degradation policy.

        Metrics see the breaker state only while it is (or just stopped
        being) non-closed: the steady healthy state records nothing, so
        the idle machinery costs no metrics-lock acquisition per request.
        ``degraded_seconds`` stays exact — accrual is anchored at the
        recorded transitions, not at per-request stamps.
        """
        state = self._policy.observe(self._admission.in_flight, latency_s)
        if state != CLOSED or self._last_state != CLOSED:
            self._last_state = state
            self.metrics.record_degradation_state(state)

    def _finish(self, op: str, t0: float, batch_size: int) -> None:
        latency = time.monotonic() - t0
        self._observe(latency)
        self.metrics.record_request(op, latency, batch_size)

    def _miss(self, t0: float) -> None:
        self._observe(time.monotonic() - t0)
        self.metrics.record_deadline_miss()

    # ----------------------------------------------------------------- reads

    def embed(self, columns: object, *, deadline_ms: float | None = None) -> np.ndarray:
        """Embedding rows for ``columns`` (micro-batched ``transform``)."""
        cols = _as_columns(columns, "columns")
        if not cols:
            return np.empty((0, self.embedder.embedding_dim))
        deadline = self._request_deadline(deadline_ms)
        with self._admit():
            t0 = time.monotonic()
            try:
                ticket = self._reads.submit(("embed", cols), deadline)
                result = ticket.result(timeout=_RESULT_BACKSTOP_S)
            except DeadlineExceededError:
                self._miss(t0)
                raise
            self._finish("embed", t0, ticket.batch_size)
            return result  # type: ignore[return-value]

    def search(
        self, columns: object, k: int, *, deadline_ms: float | None = None
    ) -> SearchResult:
        """Top-``k`` stored neighbours of each column, best first.

        Queries are embedded through the frozen model and searched against
        the latest published snapshot; every result row is internally
        consistent with exactly one snapshot (never a half-applied write
        batch). Unlike the offline §4.1.2 protocol there is no
        self-exclusion: serving queries are external columns ranked
        against the stored corpus. While the service is degraded, IVF/PQ
        searches run with reduced ``n_probe``/re-ranking (slightly lower
        recall instead of higher latency); healthy-state results stay
        bit-identical to solo calls.
        """
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        cols = _as_columns(columns, "columns")
        if not cols:
            empty = np.empty((0, 0))
            return SearchResult(
                ids=empty.astype(object), positions=empty.astype(np.intp), scores=empty
            )
        deadline = self._request_deadline(deadline_ms)
        with self._admit():
            t0 = time.monotonic()
            try:
                ticket = self._reads.submit(("search", cols, int(k)), deadline)
                result = ticket.result(timeout=_RESULT_BACKSTOP_S)
            except DeadlineExceededError:
                self._miss(t0)
                raise
            self._finish("search", t0, ticket.batch_size)
            return result  # type: ignore[return-value]

    # ---------------------------------------------------------------- writes

    def ingest(
        self,
        ids: Sequence[str],
        columns: object,
        *,
        deadline_ms: float | None = None,
    ) -> None:
        """Embed ``columns`` and store them under ``ids``.

        Blocks until the write's snapshot is published: on return, this
        caller's (and everyone's) next search sees the rows. Ids must be
        unique within the request and must not already be stored — except
        when the same write batch evicts them first (evict + re-ingest of
        a changed column coalesces into an atomic replace).

        The two hops (embed, then write) share one deadline: the write
        hop gets whatever budget the embed hop left, not a fresh
        allowance.
        """
        cols = _as_columns(columns, "columns")
        ids = [str(cid) for cid in ids]
        if len(ids) != len(cols):
            raise ValueError(f"{len(ids)} ids for {len(cols)} columns")
        seen: set[str] = set()
        dups = sorted({cid for cid in ids if cid in seen or seen.add(cid)})
        if dups:
            # Validated here, not in the applier: a duplicate would
            # otherwise fail mid-batch with an applier-level error after
            # the embedding work was already spent.
            raise ValueError(f"duplicate ids in one ingest request: {dups}")
        if not ids:
            return
        deadline = self._request_deadline(deadline_ms)
        with self._admit():
            t0 = time.monotonic()
            try:
                embed_ticket = self._reads.submit(("embed", cols), deadline)
                rows = embed_ticket.result(timeout=_RESULT_BACKSTOP_S)
                op = WriteOp("ingest", ids, rows=rows)
                ticket = self._writes.submit(op, deadline)
                ticket.result(timeout=_RESULT_BACKSTOP_S)
            except DeadlineExceededError:
                self._miss(t0)
                raise
            self._finish("ingest", t0, ticket.batch_size)

    def evict(self, ids: Sequence[str], *, deadline_ms: float | None = None) -> None:
        """Drop the rows stored under ``ids``; blocks until published."""
        ids = [str(cid) for cid in ids]
        if not ids:
            return
        deadline = self._request_deadline(deadline_ms)
        with self._admit():
            t0 = time.monotonic()
            try:
                ticket = self._writes.submit(WriteOp("evict", ids), deadline)
                ticket.result(timeout=_RESULT_BACKSTOP_S)
            except DeadlineExceededError:
                self._miss(t0)
                raise
            self._finish("evict", t0, ticket.batch_size)

    def checkpoint(
        self, path: str | Path, *, deadline_ms: float | None = None
    ) -> None:
        """Write the index archive at a consistent point in the op order.

        Flows through the single-writer queue like any write: the archive
        contains exactly the ops applied before it and none after. On
        success the op log (if any) is truncated — the archive now covers
        everything, so recovery replays only what follows. Not subject to
        admission control: shedding the operation that *relieves* a
        persistence backlog during overload would be self-defeating.
        """
        deadline = self._request_deadline(deadline_ms)
        t0 = time.monotonic()
        try:
            ticket = self._writes.submit(WriteOp("checkpoint", [], path=path), deadline)
            ticket.result(timeout=_RESULT_BACKSTOP_S)
        except DeadlineExceededError:
            self._miss(t0)
            raise
        self._finish("checkpoint", t0, ticket.batch_size)

    # ------------------------------------------------------------- internals

    def snapshot(self) -> GemIndex:
        """The current published snapshot (stable view for bulk readers)."""
        return self._store.current()

    def _execute_reads(self, payloads: list[object]) -> list[object]:
        """One vectorised pass over a batch of embed/search requests."""
        self.metrics.record_batch()
        all_cols: list[NumericColumn] = []
        spans: list[tuple[int, int]] = []
        for payload in payloads:
            cols = payload[1]  # type: ignore[index]
            spans.append((len(all_cols), len(all_cols) + len(cols)))
            all_cols.extend(cols)
        rows = self.embedder.transform(ColumnCorpus(all_cols, name="serve-batch"))
        results: list[object] = [None] * len(payloads)
        # All searches of this batch run against one snapshot grab.
        snap = self._store.current()
        # Degradation lever: reduced probe width / no re-rank while the
        # breaker is non-closed; empty (bit-identical) when closed. One
        # decision per batch, so co-batched searches stay mutually
        # consistent.
        overrides = self._policy.search_overrides(snap.n_probe, snap.pq_rerank)
        by_k: dict[int, list[int]] = {}
        for i, payload in enumerate(payloads):
            if payload[0] == "embed":  # type: ignore[index]
                a, b = spans[i]
                results[i] = rows[a:b]
            else:
                by_k.setdefault(payload[2], []).append(i)  # type: ignore[index]
        for k, members in by_k.items():
            stacked = np.concatenate([rows[spans[i][0] : spans[i][1]] for i in members])
            found = snap.search(stacked, k, **overrides)
            if overrides:
                for _ in members:
                    self.metrics.record_degraded_search()
            offset = 0
            for i in members:
                a, b = spans[i]
                n_i = b - a
                results[i] = SearchResult(
                    ids=found.ids[offset : offset + n_i],
                    positions=found.positions[offset : offset + n_i],
                    scores=found.scores[offset : offset + n_i],
                )
                offset += n_i
        return results

    def _execute_writes(self, payloads: list[object]) -> list[object]:
        """Apply one write batch in arrival order, publish one snapshot.

        Successful ops are appended to the op log *after* they applied
        and published but *before* their callers are acknowledged: "the
        service said OK" implies "the op survives a crash". A checkpoint
        op resets the log — everything before it is in the archive.
        """
        self.metrics.record_batch()
        ops = [p for p in payloads if isinstance(p, WriteOp)]
        outcomes, n_in, n_out = self._store.apply(ops)
        self.metrics.record_publish(n_in, n_out)
        if self._oplog is not None:
            to_log: list[WriteOp] = []
            for op, outcome in zip(ops, outcomes):
                if outcome is not None:
                    continue  # failed ops changed nothing; nothing to replay
                if op.kind == "checkpoint":
                    to_log.clear()
                    self._oplog.truncate()
                else:
                    to_log.append(op)
            self._oplog.append(to_log)
        return [exc if exc is not None else True for exc in outcomes]


__all__ = ["GemService"]
