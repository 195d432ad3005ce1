"""Resilience substrate of the serving layer: deadlines, admission, degradation.

A single-process :class:`~repro.serve.GemService` without failure handling
turns every fault into the worst version of itself: a wedged write applier
hangs every caller forever, overload grows queues without limit until the
process dies of memory instead of shedding work, and degraded-but-usable
capacity is binary (fine / down) instead of a spectrum. This module is the
standard production substrate that prevents each of those:

* :class:`Deadline` / :exc:`DeadlineExceededError` — every request carries
  an absolute monotonic expiry; waits are bounded by it, so a caller is
  never blocked past the latency budget it declared, no matter what the
  executor is doing;
* :class:`AdmissionController` / :exc:`SheddingError` — a bounded
  in-flight request count; past ``max_pending`` new requests fast-fail
  instead of queueing (a shed request costs microseconds, a queued one
  costs memory *and* someone else's deadline);
* :class:`DegradationPolicy` — a circuit-breaker state machine
  (``closed → degraded → shedding``) driven by queue depth and observed
  p99 latency. Under pressure it degrades *quality* before availability:
  IVF ``n_probe`` halves stepwise and PQ re-ranking turns off — answers
  get slightly less exact instead of slow — and past the shedding
  threshold it fast-fails everything until a hysteretic recovery streak
  closes the breaker again (flap protection).

All three are deliberately tiny, deterministic and lock-disciplined: the
chaos suite (:mod:`repro.serve.faults`) drives them through injected
delays, exceptions and kill-points and asserts the service's invariants
survive.
"""

from __future__ import annotations

import math
import threading
import time

#: Cap on any single lock/event wait (seconds): even "effectively
#: unbounded" waits re-check their condition at this period, so a missed
#: wakeup or an external deadline change never strands a thread for long.
MAX_WAIT_S = 5.0


class DeadlineExceededError(RuntimeError):
    """The request's latency budget expired before its result was ready.

    Raised by the caller-side wait (:meth:`~repro.serve.Ticket.result`)
    the moment the deadline passes — the caller unblocks even if the
    executing thread is wedged — and by the leader-side shed for requests
    whose deadline already expired before their batch began executing.
    """


class SheddingError(RuntimeError):
    """The service refused the request to protect itself (load shedding).

    Raised on admission when the in-flight request count has reached
    ``max_pending``, or while the degradation breaker is in its
    ``shedding`` state. Fast-fail by design: the caller learns in
    microseconds that the service is saturated, instead of joining a
    queue whose wait would blow its deadline anyway. Retry with backoff.
    """


class Deadline:
    """An absolute monotonic expiry shared by every hop of one request.

    Constructed once at the request boundary (``after_ms``) and passed
    through each stage, so a two-hop operation (embed then write) budgets
    the *same* allowance across both hops instead of granting each a
    fresh one.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after_ms(cls, deadline_ms: float) -> "Deadline":
        if not deadline_ms > 0 or not math.isfinite(deadline_ms):
            raise ValueError(f"deadline_ms must be finite and > 0, got {deadline_ms!r}")
        return cls(time.monotonic() + deadline_ms / 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at


class AdmissionController:
    """Bounded in-flight request count with fast-fail load shedding.

    ``admit()`` raises :exc:`SheddingError` once ``max_pending`` requests
    are in flight; otherwise it returns a context manager whose exit
    releases the slot. The counter is the service's queue-depth pressure
    signal, exposed via :attr:`in_flight` for the degradation policy.
    """

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._in_flight = 0
        # One slot object serves every admission: it carries no per-request
        # state (enter/exit only touch the controller), so reusing it saves
        # an allocation on the hot path.
        self._slot = _AdmissionSlot(self)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def admit(self) -> "_AdmissionSlot":
        with self._lock:
            if self._in_flight >= self.max_pending:
                raise SheddingError(
                    f"service saturated: {self._in_flight} requests in flight "
                    f"(max_pending={self.max_pending}); retry with backoff"
                )
            self._in_flight += 1
        return self._slot

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1


class _AdmissionSlot:
    """Context manager releasing one admitted slot on exit."""

    __slots__ = ("_controller",)

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> "_AdmissionSlot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._controller._release()


#: Degradation breaker states, in escalation order.
CLOSED = "closed"
DEGRADED = "degraded"
SHEDDING = "shedding"
_STATES = (CLOSED, DEGRADED, SHEDDING)


class DegradationPolicy:
    """Circuit-breaker state machine trading quality for availability.

    Observations — one per request, carrying the instantaneous queue
    depth and the request's latency — drive three states:

    * ``closed`` — healthy; searches run at full quality (results stay
      bit-identical to solo calls);
    * ``degraded`` — queue depth reached ``degrade_pending`` (or observed
      p99 latency crossed ``degrade_latency_ms``): IVF ``n_probe`` is
      halved per severity step and PQ re-ranking is disabled, shrinking
      per-request work while still answering;
    * ``shedding`` — queue depth reached ``shed_pending``: the breaker is
      open and the service fast-fails new requests until recovery.

    Escalation is immediate (one bad observation), recovery hysteretic: a
    streak of ``recovery_observations`` consecutive healthy observations
    (queue depth under half the degrade threshold, latency under half the
    latency threshold) steps *one* state down and resets the streak, so a
    loaded service walks back through ``degraded`` instead of slamming
    from ``shedding`` to full quality and flapping.

    Within ``degraded``, every further ``escalate_observations`` unhealthy
    observations raise the severity one step (``n_probe`` halves again,
    to a floor of 1) — the "stepwise" in stepwise degradation.

    The policy is self-contained and deterministic given its observation
    sequence; unit tests drive it directly.
    """

    def __init__(
        self,
        *,
        degrade_pending: int,
        shed_pending: int,
        degrade_latency_ms: float | None = None,
        recovery_observations: int = 16,
        escalate_observations: int = 32,
        latency_window: int = 128,
    ) -> None:
        if degrade_pending < 1:
            raise ValueError(f"degrade_pending must be >= 1, got {degrade_pending}")
        if shed_pending < degrade_pending:
            raise ValueError(
                f"shed_pending ({shed_pending}) must be >= degrade_pending "
                f"({degrade_pending})"
            )
        if degrade_latency_ms is not None and not degrade_latency_ms > 0:
            raise ValueError(
                f"degrade_latency_ms must be None or > 0, got {degrade_latency_ms}"
            )
        if recovery_observations < 1:
            raise ValueError(
                f"recovery_observations must be >= 1, got {recovery_observations}"
            )
        if escalate_observations < 1:
            raise ValueError(
                f"escalate_observations must be >= 1, got {escalate_observations}"
            )
        self.degrade_pending = int(degrade_pending)
        self.shed_pending = int(shed_pending)
        self.degrade_latency_ms = degrade_latency_ms
        self.recovery_observations = int(recovery_observations)
        self.escalate_observations = int(escalate_observations)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._severity = 0
        self._healthy_streak = 0
        self._unhealthy_streak = 0
        self._latencies: list[float] = []
        self._latency_window = int(latency_window)
        self._p99_ms: float | None = None

    # ------------------------------------------------------------- observing

    @property
    def state(self) -> str:
        return self._state

    @property
    def severity(self) -> int:
        """Degradation steps applied (0 in the closed state)."""
        return self._severity

    def observe(self, queue_depth: int, latency_s: float | None = None) -> str:
        """Account one request's pressure sample; returns the new state.

        Called once per request by the service (including shed ones —
        their samples are what drive recovery once load falls).
        """
        # Lock-free fast path for the steady healthy state: with the
        # breaker closed, no latency threshold configured and queue
        # headroom, the locked body below mutates nothing at all — so the
        # per-request cost of an idle policy is three attribute reads,
        # not a contended lock. The unlocked ``_state`` read is benign: a
        # concurrent escalation at worst drops this one (healthy) sample,
        # which the hysteretic streaks tolerate by design.
        if (
            self.degrade_latency_ms is None
            and queue_depth < self.degrade_pending
            and self._state == CLOSED
        ):
            return CLOSED
        with self._lock:
            p99_ms = self._note_latency(latency_s)
            over_latency = (
                self.degrade_latency_ms is not None
                and p99_ms is not None
                and p99_ms > self.degrade_latency_ms
            )
            if queue_depth >= self.shed_pending:
                self._escalate_to(SHEDDING)
            elif queue_depth >= self.degrade_pending or over_latency:
                self._escalate_to(DEGRADED)
            else:
                self._note_healthy(queue_depth, p99_ms)
            return self._state

    def _note_latency(self, latency_s: float | None) -> float | None:
        """Fold one latency sample into the rolling p99 estimate.

        The estimate is refreshed from a bounded reservoir every few
        samples (exact percentile over <= ``latency_window`` points), so
        per-request cost stays O(1) amortized.
        """
        if latency_s is None or self.degrade_latency_ms is None:
            return self._p99_ms
        self._latencies.append(float(latency_s) * 1e3)
        if len(self._latencies) > self._latency_window:
            del self._latencies[: len(self._latencies) - self._latency_window]
        if len(self._latencies) % 8 == 0 or self._p99_ms is None:
            ordered = sorted(self._latencies)
            rank = max(0, int(math.ceil(0.99 * len(ordered))) - 1)
            self._p99_ms = ordered[rank]
        return self._p99_ms

    def _escalate_to(self, target: str) -> None:
        self._healthy_streak = 0
        if _STATES.index(target) > _STATES.index(self._state):
            self._state = target
            self._unhealthy_streak = 0
            if target == DEGRADED and self._severity == 0:
                self._severity = 1
        elif self._state == DEGRADED and target == DEGRADED:
            self._unhealthy_streak += 1
            if self._unhealthy_streak >= self.escalate_observations:
                self._unhealthy_streak = 0
                self._severity += 1

    def _note_healthy(self, queue_depth: int, p99_ms: float | None) -> None:
        if self._state == CLOSED:
            return
        # Hysteresis: recovery requires clear headroom, not mere
        # sub-threshold — otherwise the breaker flaps at the boundary.
        clear = queue_depth < max(1, self.degrade_pending // 2) and (
            self.degrade_latency_ms is None
            or p99_ms is None
            or p99_ms < self.degrade_latency_ms / 2
        )
        if not clear:
            self._healthy_streak = 0
            return
        self._healthy_streak += 1
        if self._healthy_streak >= self.recovery_observations:
            self._healthy_streak = 0
            self._unhealthy_streak = 0
            if self._state == SHEDDING:
                self._state = DEGRADED
                if self._severity == 0:
                    self._severity = 1
            elif self._severity > 1:
                self._severity -= 1
            else:
                self._state = CLOSED
                self._severity = 0

    # ------------------------------------------------------------ consulting

    @property
    def shedding(self) -> bool:
        return self._state == SHEDDING

    def search_overrides(self, n_probe: int, pq_rerank: int) -> dict[str, int]:
        """Effective search-knob overrides for the current state.

        Empty in the closed state (bit-identity preserved); degraded,
        ``n_probe`` halves per severity step (floor 1) and PQ re-ranking
        is off. The exact backend ignores both, so degradation never
        changes exact-backend results.
        """
        if self._state == CLOSED:  # lock-free hot path; staleness benign
            return {}
        with self._lock:
            severity = self._severity if self._state != CLOSED else 0
        if severity == 0:
            return {}
        return {
            "n_probe": max(1, n_probe >> severity),
            "pq_rerank": 0,
        }


__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "SheddingError",
    "AdmissionController",
    "DegradationPolicy",
    "CLOSED",
    "DEGRADED",
    "SHEDDING",
    "MAX_WAIT_S",
]
