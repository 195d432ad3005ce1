"""Deterministic fault injection for the serving stack.

Resilience code that has never seen a fault is decorative. This module
gives the chaos suite a way to *deterministically* inject delays,
exceptions and process-death points at named sites compiled into the
serving and persistence hot paths, so tests can storm the service and
assert the invariants (no torn reads, no hung callers past deadline,
bit-identical non-faulted results) survive specific, reproducible
failures instead of whatever a timing race happens to produce.

Design constraints, in priority order:

1. **Zero overhead when disabled.** Every instrumented site calls
   :func:`fault_point`, which is one module-global read and a falsy check
   when no plan is installed. The production path never pays for the
   harness.
2. **Deterministic.** A :class:`FaultPlan` maps ``(site, hit_index)`` to
   an action: "the 3rd time the write applier reaches
   ``snapshot.apply``, raise". Hit counters are per-plan and
   thread-safe, so a plan replays identically given the same call
   sequence.
3. **Layering-safe.** ``repro.core``/``repro.index`` must not import
   ``repro.serve`` (gemlint GEM-L01), so the persistence modules expose
   a ``set_fault_hook`` registration point; :meth:`FaultPlan.install`
   plugs into it for the duration of the plan, so core code stays
   serve-agnostic.

:class:`KillPoint` derives from ``BaseException`` deliberately: it
models the *process dying* at the site, so it must sail through the
``except Exception`` isolation layers that contain ordinary faults and
surface at the test harness, which then exercises the crash-recovery
path (reload archives, replay the oplog).
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Mapping

from contextlib import contextmanager

from repro.core import persistence as _core_persistence


class FaultError(RuntimeError):
    """An injected failure (the fault the plan asked for, not a bug)."""


class KillPoint(BaseException):
    """Models the process dying at a fault site.

    A ``BaseException`` so that ``except Exception`` handlers — which
    rightly contain *recoverable* faults — do not swallow it: a kill must
    reach the top of the stack like a real ``SIGKILL`` would erase it.
    """


class Delay:
    """Sleep ``seconds`` at the site (models a stall / slow dependency)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)

    def apply(self, site: str) -> None:
        time.sleep(self.seconds)

    def __repr__(self) -> str:
        return f"Delay({self.seconds})"


class Fail:
    """Raise :exc:`FaultError` at the site (models a recoverable error)."""

    __slots__ = ("message",)

    def __init__(self, message: str = "") -> None:
        self.message = message

    def apply(self, site: str) -> None:
        raise FaultError(self.message or f"injected failure at {site!r}")

    def __repr__(self) -> str:
        return f"Fail({self.message!r})"


class Kill:
    """Raise :exc:`KillPoint` at the site (models the process dying)."""

    __slots__ = ()

    def apply(self, site: str) -> None:
        raise KillPoint(f"injected kill at {site!r}")

    def __repr__(self) -> str:
        return "Kill()"


#: Every fault site compiled into the stack, so a typo'd site name in a
#: plan fails at construction instead of silently never firing.
KNOWN_SITES = frozenset(
    {
        # MicroBatcher._execute: before the batch function runs.
        "batcher.execute",
        # SnapshotStore.apply: before each op is applied to the working index.
        "snapshot.apply",
        # SnapshotStore.apply: before the new snapshot is published.
        "snapshot.publish",
        # atomic_savez: after the tmp file is written, before os.replace —
        # a kill here must leave the previous archive intact.
        "persistence.replace",
        # GemOpLog.append: before the record is flushed — a kill here may
        # leave a torn tail the replay must tolerate.
        "oplog.append",
    }
)


class FaultPlan:
    """A deterministic schedule of faults: ``{site: {hit_index: action}}``.

    ``hit_index`` is zero-based per site: ``{"snapshot.apply": {2: Fail()}}``
    fires on the third time *any* thread reaches that site while the plan
    is installed. Every fired fault is recorded in :attr:`fired` (ordered
    ``(site, hit_index, action)`` triples) so tests can assert the storm
    actually exercised what it meant to.
    """

    def __init__(self, spec: Mapping[str, Mapping[int, Delay | Fail | Kill]]) -> None:
        for site, hits in spec.items():
            if site not in KNOWN_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: "
                    f"{sorted(KNOWN_SITES)}"
                )
            for hit in hits:
                if hit < 0:
                    raise ValueError(f"hit index must be >= 0, got {hit} at {site!r}")
        self._spec = {site: dict(hits) for site, hits in spec.items()}
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: list[tuple[str, int, object]] = []

    @classmethod
    def single(cls, site: str, action: Delay | Fail | Kill, hit: int = 0) -> "FaultPlan":
        """Convenience: one action at one site."""
        return cls({site: {hit: action}})

    @property
    def fired(self) -> list[tuple[str, int, object]]:
        """Faults fired so far, in order (copy; safe to inspect concurrently)."""
        with self._lock:
            return list(self._fired)

    def hits(self, site: str) -> int:
        """How many times ``site`` was reached while this plan was active."""
        with self._lock:
            return self._hits.get(site, 0)

    def hit(self, site: str) -> None:
        """Account one arrival at ``site``; applies the scheduled action.

        The counter update and fired-log append happen under the plan
        lock; the action itself (sleep or raise) runs outside it so a
        ``Delay`` never serialises other sites.
        """
        with self._lock:
            index = self._hits.get(site, 0)
            self._hits[site] = index + 1
            action = self._spec.get(site, {}).get(index)
            if action is not None:
                self._fired.append((site, index, action))
        if action is not None:
            action.apply(site)

    @contextmanager
    def install(self) -> Iterator["FaultPlan"]:
        """Activate this plan for the dynamic extent of the ``with`` block.

        Installs the serve-side hook (read by :func:`fault_point`) and the
        persistence-layer registration hook
        (:func:`repro.core.persistence.set_fault_hook`) together, and
        restores whatever was active before on exit — even when the block
        exits via :exc:`KillPoint`.
        """
        global _ACTIVE
        previous = _ACTIVE
        previous_hook = _core_persistence.set_fault_hook(self.hit)
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous
            _core_persistence.set_fault_hook(previous_hook)


#: The installed plan, or None. A single global read keeps the disabled
#: path free (fault_point below is the only reader).
_ACTIVE: FaultPlan | None = None


def fault_point(site: str) -> None:
    """Hook compiled into serving hot paths; no-op unless a plan is active."""
    plan = _ACTIVE
    if plan is not None:
        plan.hit(site)


__all__ = [
    "FaultPlan",
    "FaultError",
    "KillPoint",
    "Delay",
    "Fail",
    "Kill",
    "fault_point",
    "KNOWN_SITES",
]
