"""Snapshot isolation between serving reads and incremental writes.

The serving concurrency model is single-writer / many-readers without
locks on the read path:

* readers (search requests) grab the currently *published*
  :class:`~repro.index.GemIndex` snapshot — one attribute read, atomic
  under the interpreter — and search it for as long as they like; the
  snapshot's rows never change after publish
  (:meth:`~repro.index.core.GemIndex.snapshot` copy-on-write);
* the single writer applies a micro-batch of ingest/evict operations to
  its private working index, then publishes ``working.snapshot()`` by one
  reference assignment.

Readers therefore observe either the pre-batch or the post-batch corpus,
never a half-applied batch — and a slow reader mid-search keeps its old
snapshot alive (plain garbage collection reclaims it when the last reader
lets go). Operations inside one batch apply in arrival order, so an evict
of a column id followed by an ingest of the same id resurrects the row
under its fresh vector instead of raising on the stale one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.index.core import GemIndex
from repro.serve.faults import fault_point


@dataclass
class WriteOp:
    """One queued write: an ``ingest`` (with rows), an ``evict``, or a
    ``checkpoint``.

    ``rows`` are filled in by the service after embedding the ingested
    columns; ``evict`` ops carry only ids; ``checkpoint`` ops carry only
    ``path`` — they flow through the same single-writer queue so the
    archive they write is a consistent point in the op order (everything
    before it, nothing after it). The op log never records a checkpoint:
    applying one truncates the log instead.
    """

    kind: str  # "ingest" | "evict" | "checkpoint"
    ids: list[str]
    rows: np.ndarray | None = None
    path: str | Path | None = None


class SnapshotStore:
    """Owns the writer's working index and the published read snapshot.

    All mutation goes through :meth:`apply`, which the service calls from
    exactly one thread (the write micro-batcher's dispatcher); reads call
    :meth:`current` from any thread.
    """

    def __init__(self, index: GemIndex) -> None:
        self._working = index
        self._train_if_needed(self._working)
        self._published = self._working.snapshot()

    # --------------------------------------------------------------- reads

    def current(self) -> GemIndex:
        """The most recently published immutable snapshot."""
        return self._published

    # --------------------------------------------------------------- writes

    def apply(self, ops: Sequence[WriteOp]) -> tuple[list[Exception | None], int, int]:
        """Apply ``ops`` in order to the working index, then publish once.

        Returns per-op outcomes (``None`` for success, the exception
        otherwise — a failed op is skipped, the rest of the batch still
        applies; each underlying ``add``/``remove`` validates before
        mutating, so a failed op leaves no partial state) plus the total
        rows ingested/evicted. The snapshot swap at the end is the only
        point where readers can start seeing the batch.
        """
        outcomes: list[Exception | None] = []
        n_in = n_out = 0
        for op in ops:
            try:
                fault_point("snapshot.apply")
                if op.kind == "ingest":
                    assert op.rows is not None
                    self._working.add(op.ids, op.rows)
                    n_in += len(op.ids)
                elif op.kind == "evict":
                    self._working.remove(op.ids)
                    n_out += len(op.ids)
                elif op.kind == "checkpoint":
                    # Ordered with the writes around it: the archive holds
                    # exactly the ops applied so far. Atomic + checksummed
                    # via atomic_savez, so a crash mid-checkpoint leaves
                    # the previous archive intact.
                    from repro.index.persistence import save_index

                    assert op.path is not None
                    save_index(self._working, op.path)
                else:
                    raise ValueError(f"unknown write op kind {op.kind!r}")
            except Exception as exc:  # noqa: BLE001 — returned to the caller
                outcomes.append(exc)
            else:
                outcomes.append(None)
        self._train_if_needed(self._working)
        fault_point("snapshot.publish")
        self._published = self._working.snapshot()
        return outcomes, n_in, n_out

    @staticmethod
    def _train_if_needed(index: GemIndex) -> None:
        # Untrained quantizer state (IVF coarse quantizer, PQ sub-codebooks)
        # would otherwise train lazily inside the first search of *every*
        # published snapshot; train the working index once so snapshots
        # fork already-trained state. (Incremental adds extend the trained
        # partition and encode against the trained codebooks.)
        if index.needs_training and len(index) > 0:
            index.train()


__all__ = ["SnapshotStore", "WriteOp"]
