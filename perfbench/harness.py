"""Measurement plumbing: op accounting, percentiles, closed loops, spans.

Everything here is independent of the library under test; the workloads
in :mod:`workloads` drive ``repro`` through its public API and use these
helpers to time, count and trace what they call.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import resource
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

#: Percentiles a tail figure may use, highest first.
_TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


class CheckFailed(RuntimeError):
    """An output check found a wrong result: the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_level(n: int, ceiling: float) -> float | None:
    """Highest percentile <= ``ceiling`` with at least 10 samples beyond it."""
    for level in _TAIL_LEVELS:
        if level <= ceiling and n * (1.0 - level / 100.0) >= 10:
            return level
    return None


class Tally:
    """Attempts, successes, failures and latencies of one op in one phase.

    A failed op's latency is recorded as infinite, so it lands beyond any
    limit a percentile is compared with.
    """

    __slots__ = ("attempted", "ok", "failed", "latencies", "errors")

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.errors: Counter[str] = Counter()

    def median_ms(self) -> float:
        return float(np.percentile(self.latencies, 50)) * 1e3

    def tail_ms(self, ceiling: float = 99.0) -> tuple[float, float]:
        """``(percentile, value_ms)``: the highest supported tail up to ``ceiling``.

        With fewer than 11 samples no percentile has 10 beyond it; the
        median stands in and is labelled as p50.
        """
        level = tail_level(len(self.latencies), ceiling) or 50.0
        return level, float(np.percentile(self.latencies, level)) * 1e3


class OpLog:
    """Thread-safe per-(phase, op) accounting of every timed operation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tallies: dict[tuple[str, str], Tally] = {}

    def _tally(self, phase: str, op: str) -> Tally:
        key = (phase, op)
        tally = self.tallies.get(key)
        if tally is None:
            tally = self.tallies.setdefault(key, Tally())
        return tally

    def ok(self, phase: str, op: str, latency_s: float) -> None:
        with self._lock:
            tally = self._tally(phase, op)
            tally.attempted += 1
            tally.ok += 1
            tally.latencies.append(latency_s)

    def fail(self, phase: str, op: str, exc: BaseException) -> None:
        with self._lock:
            tally = self._tally(phase, op)
            tally.attempted += 1
            tally.failed += 1
            tally.latencies.append(math.inf)
            tally.errors[type(exc).__name__] += 1

    def get(self, phase: str, op: str) -> Tally:
        with self._lock:
            return self._tally(phase, op)

    def totals(self) -> tuple[int, int]:
        with self._lock:
            return (
                sum(t.attempted for t in self.tallies.values()),
                sum(t.failed for t in self.tallies.values()),
            )

    def report_lines(self) -> list[str]:
        lines = []
        for (phase, op), t in sorted(self.tallies.items()):
            line = (
                f"ops {phase}/{op}: attempted={t.attempted} ok={t.ok} "
                f"failed={t.failed} n={len(t.latencies)}"
            )
            if t.latencies:
                level, value = t.tail_ms()
                line += f" p50={t.median_ms():.4f}ms"
                if level > 50:
                    line += f" p{level:g}={value:.4f}ms"
            if t.errors:
                line += f" errors={dict(t.errors)}"
            lines.append(line)
        return lines


def closed_loop(
    fn: Callable[[object], object],
    pool: Sequence[object],
    *,
    threads: int,
    seconds: float,
    ops: OpLog,
    phase: str,
    op: str,
    keep: frozenset[int] = frozenset(),
    stop: threading.Event | None = None,
) -> tuple[float, dict[int, object]]:
    """Each client thread calls ``fn`` on the next pool item, one at a time.

    Runs until ``seconds`` pass, ``stop`` is set or the pool runs out.
    Returns the elapsed wall time (until the last client returned) and the
    results of the pool positions named in ``keep``, for checking later.
    """
    positions = iter(range(len(pool)))
    take = threading.Lock()
    kept: dict[int, object] = {}
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client() -> None:
        while time.perf_counter() < deadline and not (stop and stop.is_set()):
            with take:
                i = next(positions, None)
            if i is None:
                return
            start = time.perf_counter()
            try:
                result = fn(pool[i])
            except Exception as exc:  # counted as a failed op, never raised
                ops.fail(phase, op, exc)
                continue
            ops.ok(phase, op, time.perf_counter() - start)
            if i in keep:
                kept[i] = result

    workers = [threading.Thread(target=client, name=f"{phase}-{n}") for n in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0, kept


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# --------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans around the library's public entry points.

    :meth:`install` replaces each function named by :meth:`add` on a class or module with one that
    with one that records ``(id, name, start, end, parent, request,
    thread, count)``.
    The parent is the innermost open span on the same thread and the
    request id is the outermost one's id, so every span under one
    ``GemService.search`` call shares that call's id. ``count`` is an
    optional work count computed from the call (rows, columns, ...).
    Spans are written out by :meth:`dump`; nothing is written while the
    benchmark runs.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._specs: list[tuple[object, str, str, Callable | None]] = []
        self._originals: list[tuple[object, str, object]] = []

    def add(self, owner: object, attr: str, name: str, count: Callable | None = None) -> None:
        self._specs.append((owner, attr, name, count))

    def install(self) -> None:
        if self._originals:
            return
        for owner, attr, name, count in self._specs:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrapper(self, original: Callable, name: str, count: Callable | None) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent, request = stack[-1] if stack else (None, sid)
            stack.append((sid, request))
            n = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, name, t0, t1, parent, request, threading.get_ident(), n)
                )

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class SpanStats:
    """Durations, self times and counts of a list of spans, by name.

    A span's self time is its duration minus the durations of its child
    spans; children are always on the parent's thread.
    """

    def __init__(self, spans: Sequence[tuple]) -> None:
        child_time: dict[int, float] = {}
        for _sid, _name, t0, t1, parent, *_ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.by_name: dict[str, list[tuple[float, float, int | None]]] = {}
        for sid, name, t0, t1, _parent, _req, _thread, n in spans:
            duration = t1 - t0
            self.by_name.setdefault(name, []).append(
                (duration, duration - child_time.get(sid, 0.0), n)
            )

    def _rows(self, names: Sequence[str]) -> list[tuple[float, float, int | None]]:
        return [row for name in names for row in self.by_name.get(name, [])]

    def self_s(self, *names: str) -> float:
        return float(sum(row[1] for row in self._rows(names)))

    def calls(self, *names: str) -> int:
        return len(self._rows(names))

    def counted(self, *names: str) -> int:
        return int(sum(row[2] or 0 for row in self._rows(names)))

    def self_values(self, *names: str) -> list[float]:
        return [row[1] for row in self._rows(names)]

    def durations(self, *names: str) -> list[float]:
        return [row[0] for row in self._rows(names)]
