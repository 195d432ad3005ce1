"""Online serving layer: micro-batched reads over snapshot-isolated writes.

The offline pipeline (fit → transform → index) assumed one caller; this
package turns a fitted :class:`~repro.core.gem.GemEmbedder` +
:class:`~repro.index.GemIndex` pair into a service many threads can hit
concurrently:

* :class:`GemService` — thread-safe ``embed`` / ``search`` / ``ingest`` /
  ``evict`` with warm start from ``save_gem``/``save_index`` archives;
* :class:`MicroBatcher` — coalesces requests arriving within a window
  into one vectorised pass, bit-identical to solo calls;
* :class:`ServiceMetrics` — requests, batched ratio, p50/p99 latency,
  snapshot age, resilience accounting;
* :class:`SnapshotStore` / :class:`WriteOp` — single-writer batched
  mutation publishing immutable copy-on-write index snapshots;
* :mod:`~repro.serve.resilience` — per-request :class:`Deadline` budgets
  (:class:`DeadlineExceededError`), :class:`AdmissionController` load
  shedding (:class:`SheddingError`) and the hysteretic
  :class:`DegradationPolicy` breaker;
* :class:`GemOpLog` — append-only write-ahead log making acknowledged
  writes survive a crash between index checkpoints;
* :class:`FaultPlan` — deterministic fault injection at named sites
  (:func:`fault_point`) for chaos testing; zero overhead when disabled.

Quickstart::

    from repro.serve import GemService

    service = GemService.from_archives("gem.npz", "lake.idx.npz")
    hits = service.search(corpus, k=10)          # from any thread
    service.ingest(["crawl/t1:price"], [column])  # visible on return
"""

from repro.serve.batching import BatcherClosedError, MicroBatcher, Ticket
from repro.serve.faults import (
    Delay,
    Fail,
    FaultError,
    FaultPlan,
    Kill,
    KillPoint,
    fault_point,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.oplog import GemOpLog
from repro.serve.resilience import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    DegradationPolicy,
    SheddingError,
)
from repro.serve.service import GemService
from repro.serve.snapshot import SnapshotStore, WriteOp

__all__ = [
    "GemService",
    "MicroBatcher",
    "Ticket",
    "BatcherClosedError",
    "ServiceMetrics",
    "SnapshotStore",
    "WriteOp",
    "Deadline",
    "DeadlineExceededError",
    "SheddingError",
    "AdmissionController",
    "DegradationPolicy",
    "GemOpLog",
    "FaultPlan",
    "FaultError",
    "KillPoint",
    "Delay",
    "Fail",
    "Kill",
    "fault_point",
]
