"""Micro-batching: coalesce concurrent requests into one vectorised pass.

Serving-side batching is the standard lever for many-small-request
workloads: almost all of a solo ``transform``/``search`` call's cost at
small input sizes is fixed per-call overhead (Python dispatch, kernel
launch, small-matrix BLAS), so folding the requests that arrive within a
short window into one call multiplies throughput without changing any
result — provided the underlying kernels are batch-composition-invariant,
which Gem's are (column-aligned pooling chunks, per-column segment
statistics, row-independent top-k merges).

:class:`MicroBatcher` is a **combining funnel** (leader/follower), not a
dispatcher thread: the first request to arrive while no batch is open
becomes the *leader*; requests arriving after it append to the open batch
and block on their ticket. The leader lingers — yielding the interpreter
until the batch stops growing, fills, or the window expires — then claims
an execution slot, seals the batch and runs the batch function on its own
thread. Three properties fall out:

* **no cross-thread handoffs** — the leader's own request pays zero
  rendezvous cost; followers pay one shared-event wait (the whole batch
  is woken by a single ``Event.set``); there is no dedicated thread to
  context-switch through, which on a loaded box is most of a small
  request's latency;
* **load-adaptive batch size** — while one batch executes (or waits for
  an execution slot), the next batch keeps collecting, so under
  saturation batches grow to the arrival rate with zero added idle time;
* **no idle tax** — a solitary request fires after a couple of
  scheduler yields (microseconds), not after the full window; the window
  only bounds how long a leader can linger while requests keep trickling
  in.

With ``max_workers=1`` execution slots are exclusive and batches are
sealed strictly in formation order — the property the write path's
snapshot publishing relies on.

**Deadlines.** Every submission carries a
:class:`~repro.serve.resilience.Deadline`, and its caller is *never*
blocked past it. Enforcement is belt and braces:

* caller side (the guarantee): :meth:`Ticket.result` bounds its wait by
  the deadline and raises
  :class:`~repro.serve.resilience.DeadlineExceededError` on expiry — the
  caller unblocks even if the executing thread is wedged in a fault. The
  same bound holds before a ticket exists: a submission that finds the
  open batch full waits for it to be sealed only until its deadline;
* leader side (the optimisation): a leader waiting for an execution slot
  bounds that wait by the latest live deadline in its batch and, at
  execution, sheds tickets that already expired (their result slot gets
  the error, the batch function never sees them) — expired work is not
  done, not merely not waited for.

Every wait in this module is also chunked (``MAX_WAIT_S`` re-check
period), so no single blocking call is unbounded — the invariant
gemlint's GEM-R01 enforces for the whole serving layer.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from repro.serve.faults import fault_point
from repro.serve.resilience import MAX_WAIT_S, Deadline, DeadlineExceededError

# Consecutive interpreter yields without batch growth before a leader
# fires early. Two yields let every runnable client thread enqueue once;
# further waiting would only add idle latency.
_QUIET_YIELDS = 2


class BatcherClosedError(RuntimeError):
    """The batcher was closed before the request could be submitted."""


class _Batch:
    """One sealed-or-collecting batch: tickets, results, a shared wake."""

    __slots__ = ("tickets", "results", "done")

    def __init__(self) -> None:
        self.tickets: list[Ticket] = []
        self.results: list[object] = []
        self.done = threading.Event()


class Ticket:
    """Handle for one submitted request.

    ``result()`` blocks until the request's batch executed; ``batch_size``
    reports how many requests shared that batch (1 = ran alone), which the
    service feeds into its ``batched_ratio`` metric.
    """

    __slots__ = ("payload", "batch_size", "deadline", "_batch", "_index")

    def __init__(self, payload: object, batch: _Batch, deadline: Deadline) -> None:
        self.payload = payload
        self.batch_size = 0
        self.deadline = deadline
        self._batch = batch
        self._index = len(batch.tickets)

    def result(self, timeout: float | None = None) -> object:
        """The request's result; raises what the request raised.

        Blocks until the batch executed, bounded by the ticket's deadline
        (:class:`~repro.serve.resilience.DeadlineExceededError` on expiry
        — this is the serving layer's no-hung-callers guarantee, enforced
        on the *calling* thread so it holds even when the executor is
        wedged) and by ``timeout`` if given (``TimeoutError``).
        """
        done = self._batch.done
        if done.is_set():  # leader, or a late reader: result already there
            return self._fetch()
        limit = None if timeout is None else time.monotonic() + timeout
        while not done.is_set():
            remaining = self.deadline.remaining()
            if remaining <= 0:
                if done.is_set():  # result landed at the wire: deliver it
                    break
                raise DeadlineExceededError("request deadline expired before its batch completed")
            chunk = min(MAX_WAIT_S, remaining)
            if limit is not None:
                remaining_t = limit - time.monotonic()
                if remaining_t <= 0:
                    raise TimeoutError("batch did not execute within the timeout")
                chunk = min(chunk, remaining_t)
            done.wait(chunk)
        return self._fetch()

    def _fetch(self) -> object:
        res = self._batch.results[self._index]
        if isinstance(res, Exception):
            raise res
        return res


class MicroBatcher:
    """Coalesces concurrent submissions into calls of one batch function.

    Parameters
    ----------
    batch_fn:
        Called with the list of payloads of one batch; must return one
        result per payload, in order. A returned ``Exception`` instance is
        raised to that payload's submitter while the rest of the batch
        succeeds (per-request failure isolation); an exception *raised* by
        ``batch_fn`` fails the whole batch.
    window_ms:
        Upper bound on how long a leader lingers while its batch keeps
        growing. Collection ends as soon as the batch fills or stops
        growing for a couple of scheduler yields, so neither a burst nor
        a solitary request ever idles out the window. ``0`` disables
        lingering entirely — under load batches still form while earlier
        batches execute.
    max_batch:
        Hard cap on requests per batch; arrivals beyond it block until the
        open batch is sealed (backpressure) and then start the next one.
    max_workers:
        Number of batches allowed to execute concurrently (on their
        leaders' threads). 1 serialises execution *and* guarantees batches
        run in formation order.
    name:
        Identifier used in error messages (debugging).
    """

    def __init__(
        self,
        batch_fn: Callable[[list[object]], Sequence[object]],
        *,
        window_ms: float,
        max_batch: int,
        max_workers: int = 1,
        name: str = "microbatch",
    ) -> None:
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._batch_fn = batch_fn
        self._window_s = float(window_ms) / 1e3
        self._max_batch = int(max_batch)
        self._name = name
        self._cond = threading.Condition()
        self._open: _Batch | None = None
        self._exec_slots = threading.BoundedSemaphore(int(max_workers))
        self._closed = False

    # --------------------------------------------------------------- public

    def submit(self, payload: object, deadline: Deadline) -> Ticket:
        """Join the open batch (or lead a new one); returns the ticket.

        The leader executes the batch on this thread before returning, so
        its ``result()`` is already resolved; followers return immediately
        and block in ``result()``. ``deadline`` bounds this request's
        waits (see the module docstring), including the wait here for a
        full open batch to be sealed, which raises
        :class:`~repro.serve.resilience.DeadlineExceededError` on expiry.

        Admission is atomic with respect to :meth:`close`: the closed
        check and the ticket joining its batch happen inside one critical
        section, so a submission either raises
        :class:`BatcherClosedError` or is *accepted* — and every accepted
        ticket resolves, because each batch's leader (chosen in the same
        critical section) seals and executes it regardless of a
        concurrent close. There is no window in which a request can slip
        past the closed check into a batch nobody will run.
        """
        with self._cond:
            while True:
                if self._closed:
                    raise BatcherClosedError(f"cannot submit to closed MicroBatcher {self._name!r}")
                if self._open is None:
                    batch = self._open = _Batch()
                    is_leader = True
                    break
                if len(self._open.tickets) < self._max_batch:
                    batch = self._open
                    is_leader = False
                    break
                # Open batch full: wait for its leader to seal it, but never
                # past this request's deadline.
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        "request deadline expired while the open batch was full"
                    )
                self._cond.wait(min(0.05, remaining))
            ticket = Ticket(payload, batch, deadline)
            batch.tickets.append(ticket)
        if is_leader:
            self._lead(batch)
        return ticket

    def close(self) -> None:
        """Refuse new submissions; in-flight batches finish. Idempotent.

        Never strands a waiter: every open batch has a live leader that
        seals and executes it regardless of the closed flag (see
        :meth:`submit` for why this pair of guarantees makes close-vs-
        submit race-free).
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ internals

    def _lead(self, batch: _Batch) -> None:
        """Linger for followers, claim an execution slot, seal, execute."""
        try:
            deadline = time.monotonic() + self._window_s
            quiet = 0
            size = 1
            while quiet < _QUIET_YIELDS and time.monotonic() < deadline:
                if size >= self._max_batch:
                    break
                time.sleep(0)  # yield: let runnable clients enqueue
                grown = len(batch.tickets)
                quiet = quiet + 1 if grown == size else 0
                size = grown
            if not self._claim_slot_or_abandon(batch):
                return  # every ticket's deadline expired; batch was shed
            try:
                with self._cond:
                    if self._open is batch:
                        self._open = None
                        self._cond.notify_all()
                self._execute(batch)
            finally:
                self._exec_slots.release()
        except BaseException:  # pragma: no cover - defensive
            # A leader dying outside _execute would strand its followers.
            with self._cond:
                if self._open is batch:
                    self._open = None
                    self._cond.notify_all()
            if not batch.done.is_set():
                batch.results = [
                    BatcherClosedError("batch leader died before execution")
                ] * len(batch.tickets)
                batch.done.set()
            raise

    def _claim_slot_or_abandon(self, batch: _Batch) -> bool:
        """Acquire an execution slot, bounded by the batch's deadlines.

        The leader is a *caller's* thread, so an unbounded semaphore wait
        here would hang that caller past its deadline — exactly what the
        deadline machinery exists to prevent. The wait is therefore
        bounded by the latest live deadline across the batch's tickets
        (recomputed each cycle: followers keep joining while we wait) and
        chunked at ``MAX_WAIT_S``. When every ticket has expired, the
        batch is sealed and shed: all result slots get
        ``DeadlineExceededError``, ``done`` is set, and False is returned
        — no caller is left waiting on work that will never run.
        """
        if self._exec_slots.acquire(blocking=False):  # uncontended fast path
            return True
        while True:
            with self._cond:
                tickets = list(batch.tickets)
            budget = self._latest_remaining(tickets)
            if budget > 0:
                if self._exec_slots.acquire(timeout=min(budget, MAX_WAIT_S)):
                    return True
                continue
            # Every currently joined ticket is expired. Seal first, then
            # re-check: a live-deadline follower may have joined between
            # the snapshot above and the seal — it must not be shed.
            with self._cond:
                if self._open is batch:
                    self._open = None
                    self._cond.notify_all()
                tickets = list(batch.tickets)  # final: sealed, no more joins
            if self._latest_remaining(tickets) > 0:
                continue  # a live ticket made the wire; keep trying for a slot
            for ticket in tickets:
                ticket.batch_size = len(tickets)
            batch.results = [
                DeadlineExceededError(
                    "request deadline expired while its batch waited for an "
                    "execution slot; shed without executing"
                )
            ] * len(tickets)
            batch.done.set()
            return False

    @staticmethod
    def _latest_remaining(tickets: list[Ticket]) -> float:
        """Seconds until the *last* deadline in the batch (<= 0 once all expired)."""
        return max((ticket.deadline.remaining() for ticket in tickets), default=0.0)

    def _execute(self, batch: _Batch) -> None:
        tickets = batch.tickets
        n = len(tickets)
        for ticket in tickets:
            ticket.batch_size = n
        results: list[object] = [None] * n
        live: list[int] = []
        for i, ticket in enumerate(tickets):
            if ticket.deadline.expired:
                # Leader-side shed: the caller already (or imminently)
                # raised on its own wait; doing the work anyway would
                # charge the whole batch for a result nobody can use.
                results[i] = DeadlineExceededError(
                    "request deadline expired before its batch began "
                    "executing; shed"
                )
            else:
                live.append(i)
        if live:
            try:
                fault_point("batcher.execute")
                out = list(self._batch_fn([tickets[i].payload for i in live]))
                if len(out) != len(live):
                    raise RuntimeError(
                        f"batch_fn returned {len(out)} results for "
                        f"{len(live)} payloads"
                    )
                for j, i in enumerate(live):
                    results[i] = out[j]
            except Exception as exc:  # noqa: BLE001 — delivered to every waiter
                for i in live:
                    results[i] = exc
        batch.results = results
        batch.done.set()  # one wake for the whole batch


__all__ = ["MicroBatcher", "Ticket", "BatcherClosedError"]
