"""The benchmark's workloads: ``build``, ``serve-read`` and ``serve-mixed``.

Each workload fills the same end-to-end metrics (``END_TO_END``) from
its own operations; ``README.md`` maps every metric to the operation it
times on each workload. Inputs come from :mod:`inputs` and are built
before the first timed operation; output checks run untimed after the
timed phases, and a failed check raises :class:`harness.CheckFailed`.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro.evaluation.precision as precision_module
from repro.bundle import stages
from repro.core import GemConfig, GemEmbedder
from repro.core.cache import array_fingerprint
from repro.core.persistence import gem_fingerprint, load_gem, save_gem
from repro.data import ColumnCorpus, NumericColumn
from repro.evaluation.neighbors import cosine_similarity_matrix, top_k_neighbors, unit_rows
from repro.index import corpus_column_ids

from harness import OpLog, Tracer, check, closed_loop, median, tail_level
from inputs import FIT_SPEC, Inputs, Table

K = 10
#: Set-ups per run, and ``build`` rounds (a cold transform, warm passes,
#: a retrieval and a slice of lookups) per run; figures are medians over them.
SETUP_REPS = 3
ROUNDS = 5
WARM_PASSES = 3
#: Columns in the fixed recall probe set.
PROBES = 200
#: Served results compared with solo calls after ``serve-read``.
CHECK_SAMPLE = 64
#: Query pools hold this many columns per measured second and client:
#: 1.4-2.2x what a client consumed on a 2-vCPU virtual machine. A loop
#: that drains its pool ends early; its rates stay per measured second.
POOL_PER_S = 1000
#: Open-loop table arrivals per second in the steady phase of
#: ``serve-mixed``: about half the write capacity beside one reader on
#: a 2-vCPU virtual machine (65-78 tables/s closed loop).
ARRIVALS_PER_S = 30
#: Seconds per mode of a traced run's tracing-overhead probe, in slices.
PROBE_S = 2.0
PROBE_SLICES = 4

#: The end-to-end metrics every workload reports: ``name -> unit``.
END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "embed_cold_cols_per_s": "cols/s",
    "search_qps": "req/s",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "recall_at_10": "ratio",
    "precision_at_k": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """One workload run: its settings, accounting and results."""

    seed: int
    seconds: float
    workdir: Path
    tracer: Tracer | None
    ops: OpLog = field(default_factory=OpLog)
    e2e: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    measured_spans: int = 0
    _embedded: dict[object, set[str]] = field(default_factory=dict)
    _columns: int = 0
    _repeated: int = 0

    def op(self, phase: str, name: str, fn: Callable[[], object]) -> tuple[float, object]:
        """Time one operation the run cannot continue without."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.ops.fail(phase, name, exc)
            raise
        elapsed = time.perf_counter() - start
        self.ops.ok(phase, name, elapsed)
        return elapsed, result

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    def embedded(self, model: object, columns) -> None:
        """Account columns handed to ``model`` for ``core.cache.repeat_share``."""
        seen = self._embedded.setdefault(model, set())
        for col in columns:
            fp = array_fingerprint(col.values)
            self._columns += 1
            self._repeated += fp in seen
            seen.add(fp)

    def inputs_built(self, start: float) -> float:
        """Seconds since ``start``; then takes the inputs out of the collector's way.

        The input pools are the benchmark's, not the library's: freezing
        them keeps the cyclic garbage collector from rescanning them
        during the timed phases.
        """
        elapsed = time.perf_counter() - start
        gc.collect()
        gc.freeze()
        return elapsed

    def end_measurement(self) -> None:
        """Close the measured part: later spans (probe, checks) are not counted."""
        self.extra["core.cache.repeat_share"] = self._repeated / max(1, self._columns)
        if self.tracer is not None:
            self.measured_spans = len(self.tracer.spans)

    def search_figures(self, phase: str, seconds: float, label: str = "search") -> None:
        """Print the search rate and latency of ``phase``, measured over ``seconds``.

        ``label="search"`` also records them as the bounded end-to-end
        figures. The bounded tail is p90. p99 is printed too, but it
        swings with the machine's load far more: over ten runs on a
        shared 2-vCPU virtual machine it spread by 26-60% of its median,
        where p90 spread by about 10%.
        """
        tally = self.ops.get(phase, "search")
        n = len(tally.latencies)
        figures = {
            "qps": (tally.ok / seconds, "req/s", f"n={tally.ok}"),
            "p50_ms": (tally.median_ms(), "ms", f"n={n}"),
            "p90_ms": (tally.tail_ms(90.0)[1], "ms", f"n={n}"),
        }
        level, tail = tally.tail_ms(99.0)
        for name, (value, unit, note) in figures.items():
            self.say(f"{label}_{name}", value, unit, note)
            if label == "search":
                self.e2e[f"search_{name}"] = value
        self.say(f"{label}_p99_ms", tail, "ms", f"reported at p{level:g}, n={n}")

    def trace_overhead(self, search: Callable[[NumericColumn], object], pool) -> None:
        """Untraced against traced single-client search rate, same process.

        The two modes alternate in ``PROBE_SLICES`` slices each, so drift
        over the probe (allocator, caches, neighbours on the machine)
        lands on both sides.
        """
        if self.tracer is None:
            return
        done = {False: 0, True: 0}
        spent = {False: 0.0, True: 0.0}
        chunks = np.array_split(np.arange(len(pool)), 2 * PROBE_SLICES)
        for n, chunk in enumerate(chunks):
            traced = bool(n % 2)
            if traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
            phase = "probe-traced" if traced else "probe-untraced"
            before = self.ops.get(phase, "search").ok
            elapsed, _ = closed_loop(
                search, [pool[i] for i in chunk], threads=1,
                seconds=PROBE_S / PROBE_SLICES, ops=self.ops, phase=phase, op="search",
            )
            done[traced] += self.ops.get(phase, "search").ok - before
            spent[traced] += elapsed
        self.extra["bench.trace_overhead"] = (
            (done[False] / spent[False]) / (done[True] / spent[True]) - 1.0
        )


def exact_top_ids(rows: np.ndarray, ids: tuple[str, ...], queries: np.ndarray, k: int) -> list[set[str]]:
    """Brute-force cosine top-``k`` stored ids per query row."""
    sims = unit_rows(queries) @ unit_rows(rows).T
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return [{ids[j] for j in row} for row in order]


def recall_at_k(served_ids: np.ndarray, exact: list[set[str]], k: int) -> float:
    return float(np.mean([len(set(got) & want) / k for got, want in zip(served_ids, exact)]))


def served_precision(index, labels: dict[str, str]) -> float:
    """§4.1.2 macro precision-at-k of an index over its own stored rows.

    Scored on a compacted fork: ``precision_recall_at_k(index=)`` reads
    search positions as row numbers, which tombstoned slots shift.
    Compaction changes no search result, only positions.
    """
    index = index.snapshot().compact()
    rows = index.vectors()
    result = precision_module.precision_recall_at_k(
        rows, [labels[cid] for cid in index.ids], index=index
    )
    return result.macro_precision


def _deploy(run: Run, backend: str):
    """Fit, index and open ``SETUP_REPS`` bundles, one after another.

    Returns ``(services, bundle_dirs, median set-up seconds, median
    fit_stage seconds)``; the caller owns the services.
    """
    services, bundles, totals, fits = [], [], [], []
    for rep in range(SETUP_REPS):
        bundle = run.workdir / f"bundle{rep}"
        start = time.perf_counter()
        stages.fit_stage(bundle, FIT_SPEC, GemConfig(n_init=1))
        fitted = time.perf_counter()
        stages.index_stage(bundle, backend=backend)
        services.append(stages.open_service(bundle))
        totals.append(time.perf_counter() - start)
        fits.append(fitted - start)
        bundles.append(bundle)
    return services, bundles, median(totals), median(fits)


def _probe_pool(run: Run, inputs: Inputs) -> list[NumericColumn]:
    """Cold columns for the tracing-overhead probe; traced runs only."""
    if run.tracer is None:
        return []
    return inputs.columns("overhead", int(2 * POOL_PER_S * PROBE_S))


def _fit_labels(inputs: Inputs) -> dict[str, str]:
    corpus = inputs.fit_corpus
    return dict(zip(corpus_column_ids(corpus), (c.fine_label for c in corpus)))


# ------------------------------------------------------------------ build


def build(run: Run) -> None:
    """Fit GemConfig(), then rounds of cold/warm embedding, retrieval and lookups.

    The rounds interleave the phases so that each figure samples the
    whole run, not one stretch of it: on a shared virtual machine the
    speed of a fixed loop drifts by about 10% over seconds.
    """
    start = time.perf_counter()
    inputs = Inputs(run.seed)
    lake = inputs.lake("lake")
    lookups = inputs.columns("lookup", int(POOL_PER_S * run.seconds))
    probes = ColumnCorpus(inputs.columns("probe", PROBES))
    overhead_pool = _probe_pool(run, inputs)
    run.e2e["setup_s"] = run.inputs_built(start)

    gem = GemEmbedder(config=GemConfig())
    fit_s = [run.op("fit", "fit", lambda: gem.fit(inputs.fit_corpus))[0]]
    model_path = run.workdir / "gem.npz"
    save_gem(gem, model_path)

    labels = [c.fine_label for c in lake]
    cold_s, warm_s, retrieve_s, lookup_s = [], [], [], 0.0
    rows = precision = None
    for chunk in np.array_split(np.arange(len(lookups)), ROUNDS):
        model = load_gem(model_path)
        elapsed, cold = run.op("embed", "transform_cold", lambda: model.transform(lake))
        cold_s.append(elapsed)
        run.embedded(model, lake)
        check(rows is None or np.array_equal(cold, rows), "cold rows differ between reloads of one model")
        rows = cold
        for _ in range(WARM_PASSES):
            elapsed, warm = run.op("embed", "transform_warm", lambda: model.transform(lake))
            warm_s.append(elapsed)
            run.embedded(model, lake)
            check(np.array_equal(warm, cold), "cache-warm rows are not bit-identical to cold rows")

        def retrieve():
            built = model.build_index(lake, backend="exact")
            return built, precision_module.precision_recall_at_k(rows, labels, index=built)

        elapsed, (index, result) = run.op("retrieve", "retrieve", retrieve)
        retrieve_s.append(elapsed)
        run.embedded(model, lake)
        check(
            precision is None or result.macro_precision == precision,
            "precision-at-k differs between rounds",
        )
        precision = result.macro_precision

        def lookup(col: NumericColumn):
            return index.search_corpus(ColumnCorpus([col]), K, exclude_self=False)

        pool = [lookups[i] for i in chunk]
        before = run.ops.get("lookup", "search").attempted
        elapsed, _ = closed_loop(
            lookup, pool, threads=1, seconds=run.seconds / ROUNDS, ops=run.ops,
            phase="lookup", op="search",
        )
        lookup_s += elapsed
        run.embedded(model, pool[: run.ops.get("lookup", "search").attempted - before])

    # The fit again, at the other end of the run: one 10-second fit swung
    # by 17% between runs, as the machine's speed drifted.
    refit = GemEmbedder(config=GemConfig())
    fit_s.append(run.op("fit", "fit", lambda: refit.fit(inputs.fit_corpus))[0])
    check(
        gem_fingerprint(refit) == gem_fingerprint(gem),
        "refitting the same corpus gave a different model",
    )
    run.e2e["fit_s"] = median(fit_s)
    cold_rate = len(lake) / median(cold_s)
    run.e2e["embed_cold_cols_per_s"] = cold_rate
    run.e2e["precision_at_k"] = precision
    run.say("embed_cold_cols_per_s", cold_rate, "cols/s", f"{len(lake)} cols, n={len(cold_s)}")
    run.say("embed_warm_cols_per_s", len(lake) / median(warm_s), "cols/s", f"n={len(warm_s)}")
    run.say("retrieve_s", median(retrieve_s), "s", f"n={len(retrieve_s)}")
    run.say("precision_at_k", precision, "ratio", f"{result.n_evaluated} columns evaluated")
    run.search_figures("lookup", lookup_s)
    run.extra["index.bytes_per_row"] = index.storage_bytes()["total"] / len(index)
    run.end_measurement()
    run.trace_overhead(lookup, overhead_pool)

    # Checks: the exact index agrees with the dense path on a sample.
    dense = top_k_neighbors(cosine_similarity_matrix(rows), K)
    sample = np.random.default_rng(run.seed).choice(len(lake), CHECK_SAMPLE, replace=False)
    found = index.search(rows[sample], K, exclude_ids=[index.ids[i] for i in sample])
    check(
        np.array_equal(found.positions, dense[sample]),
        "exact-index top-k differs from cosine_similarity_matrix + top_k_neighbors",
    )
    probe_rows = model.transform(probes)
    exact = exact_top_ids(index.vectors(), index.ids, probe_rows, K)
    run.e2e["recall_at_10"] = recall_at_k(index.search(probe_rows, K).ids, exact, K)


# ------------------------------------------------------------- serve-read


def serve_read(run: Run) -> None:
    """Two closed-loop clients send single-column cache-cold searches."""
    start = time.perf_counter()
    inputs = Inputs(run.seed)
    queries = inputs.columns("query", int(POOL_PER_S * run.seconds * 2))
    probes = inputs.columns("probe", PROBES)
    overhead_pool = _probe_pool(run, inputs)
    inputs_s = run.inputs_built(start)
    services, bundles, deploy_s, run.e2e["fit_s"] = _deploy(run, "exact")
    run.e2e["setup_s"] = inputs_s + deploy_s
    for spare in services[:-1]:
        spare.close()
    service, bundle = services[-1], bundles[-1]

    def search(col: NumericColumn):
        return service.search([col], K)

    keep = frozenset(range(0, len(queries), max(1, len(queries) // (4 * CHECK_SAMPLE))))
    elapsed, kept = closed_loop(
        search, queries, threads=2, seconds=run.seconds, ops=run.ops, phase="read",
        op="search", keep=keep,
    )
    done = run.ops.get("read", "search").attempted
    run.embedded(service.embedder, queries[:done])
    run.search_figures("read", elapsed)
    run.e2e["embed_cold_cols_per_s"] = run.e2e["search_qps"]
    _service_extras(run, service)
    run.end_measurement()
    run.trace_overhead(search, overhead_pool)

    # Checks: served results are bitwise equal to solo calls.
    solo = load_gem(bundle / stages.GEM_ARTIFACT)
    snap = service.snapshot()
    sample = sorted(kept)[:CHECK_SAMPLE]
    check(bool(sample), "no served results were kept to check")
    for i in sample:
        want = snap.search(solo.transform(ColumnCorpus([queries[i]])), K)
        got = kept[i]
        check(
            np.array_equal(got.ids, want.ids)
            and np.array_equal(got.positions, want.positions)
            and np.array_equal(got.scores, want.scores),
            f"served result for query {i} differs from a solo search",
        )
    probe_rows = solo.transform(ColumnCorpus(probes))
    exact = exact_top_ids(snap.vectors(), snap.ids, probe_rows, K)
    run.e2e["recall_at_10"] = recall_at_k(service.search(probes, K).ids, exact, K)
    run.e2e["precision_at_k"] = served_precision(snap, _fit_labels(inputs))
    service.close()


def _bulk_load(run: Run, service, tables: list[Table]) -> tuple[list[Table], float]:
    """Ingest ``tables``, one per request, closed loop.

    Returns the acknowledged tables and the acknowledged rows per second.
    """
    acked = []
    start = time.perf_counter()
    for table in tables:
        t0 = time.perf_counter()
        try:
            service.ingest(table.ids, table.columns)
        except Exception as exc:  # counted, and the ids stay absent
            run.ops.fail("bulk", "ingest", exc)
            continue
        run.ops.ok("bulk", "ingest", time.perf_counter() - t0)
        acked.append(table)
    return acked, sum(len(t.ids) for t in acked) / (time.perf_counter() - start)


def _service_extras(run: Run, service) -> None:
    snap = service.metrics.snapshot()
    run.extra["serve.batch.requests_mean"] = snap["requests"] / max(1, snap["batches"])
    run.extra["serve.shed"] = snap["shed_count"]
    run.extra["serve.deadline_misses"] = snap["deadline_misses"]
    run.extra["serve.degraded_searches"] = snap["degraded_searches"]
    index = service.snapshot()
    run.extra["index.bytes_per_row"] = index.storage_bytes()["total"] / len(index)


# ------------------------------------------------------------ serve-mixed


def serve_mixed(run: Run) -> None:
    """Bulk-load lakes over the WAL, open-loop writes beside a reader, then the reader alone."""
    start = time.perf_counter()
    inputs = Inputs(run.seed)
    bulks = [inputs.tables(f"bulk{rep}") for rep in range(SETUP_REPS)]
    arrivals = inputs.tables("arrive", round(ARRIVALS_PER_S * run.seconds))
    reads = inputs.columns("read", int(POOL_PER_S * run.seconds))
    reads_after = inputs.columns("read-after", int(POOL_PER_S * run.seconds / 2))
    probes = inputs.columns("probe", PROBES)
    overhead_pool = _probe_pool(run, inputs)
    inputs_s = run.inputs_built(start)
    services, bundles, deploy_s, run.e2e["fit_s"] = _deploy(run, "ivf")
    run.e2e["setup_s"] = inputs_s + deploy_s

    # Phase 1: each deployed service bulk-loads its own lake; the rate is
    # the median of the loads, and the steady phase runs on the last one.
    loads = [_bulk_load(run, service, bulk) for service, bulk in zip(services, bulks)]
    for service, bulk in zip(services, bulks):
        run.embedded(service.embedder, [c for t in bulk for c in t.columns])
    for spare in services[:-1]:
        spare.close()
    service, bundle = services[-1], bundles[-1]
    acked = loads[-1][0]
    run.say("ingest_rows_per_s", median([rate for _, rate in loads]), "rows/s", f"median of {len(loads)} lakes")
    labels = _fit_labels(inputs)
    expected = set(labels) | {cid for table in acked for cid in table.ids}
    live = deque(acked)
    logged_rows = sum(len(table.ids) for table in acked)
    for table in bulks[-1] + arrivals:
        labels.update(zip(table.ids, (c.fine_label for c in table.columns)))

    # Phase 2: open-loop arrivals, each ingests a table and evicts the oldest.
    lag: list[float] = []
    writer_done = threading.Event()

    def writer() -> None:
        nonlocal logged_rows
        try:
            t0 = time.perf_counter()
            for i, table in enumerate(arrivals):
                due = t0 + i / ARRIVALS_PER_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lag.append(time.perf_counter() - due)
                try:
                    service.ingest(table.ids, table.columns)
                except Exception as exc:
                    run.ops.fail("steady", "ingest", exc)
                else:
                    run.ops.ok("steady", "ingest", time.perf_counter() - due)
                    logged_rows += len(table.ids)
                    expected.update(table.ids)
                    live.append(table)
                oldest = live.popleft()
                t1 = time.perf_counter()
                try:
                    service.evict(oldest.ids)
                except Exception as exc:
                    run.ops.fail("steady", "evict", exc)
                else:
                    run.ops.ok("steady", "evict", time.perf_counter() - t1)
                    expected.difference_update(oldest.ids)
        finally:
            writer_done.set()

    def search(col: NumericColumn):
        return service.search([col], K)

    thread = threading.Thread(target=writer, name="steady-writer")
    thread.start()
    elapsed, _ = closed_loop(
        search, reads, threads=1, seconds=float("inf"), ops=run.ops, phase="steady",
        op="search", stop=writer_done,
    )
    thread.join()
    run.embedded(service.embedder, [c for t in arrivals for c in t.columns])
    run.embedded(service.embedder, reads[: run.ops.get("steady", "search").attempted])
    run.search_figures("steady", elapsed, label="mixed_search")
    ingest = run.ops.get("steady", "ingest")
    level, tail = ingest.tail_ms(95.0)
    run.say("ingest_p50_ms", ingest.median_ms(), "ms", f"n={len(ingest.latencies)}, from due time")
    run.say("ingest_p95_ms", tail, "ms", f"reported at p{level:g}, n={len(ingest.latencies)}")
    lag_level = tail_level(len(lag), 99.0) or 50.0
    lag_ms = float(np.percentile(lag, lag_level)) * 1e3
    run.extra["bench.writer_lag_p99_ms"] = lag_ms
    run.say("writer_lag_ms", lag_ms, "ms", f"p{lag_level:g} of {len(lag)} arrivals")

    # Phase 3: the same reader alone on the final snapshot. The reader
    # beside the open-loop writer amplifies the machine's speed drift
    # (search_qps and p90 spread by up to 33% and 54% over ten runs), so
    # the bounded search figures come from this phase.
    elapsed, _ = closed_loop(
        search, reads_after, threads=1, seconds=run.seconds / 2, ops=run.ops,
        phase="after", op="search",
    )
    run.search_figures("after", elapsed)
    run.e2e["embed_cold_cols_per_s"] = run.e2e["search_qps"]
    run.embedded(service.embedder, reads_after[: run.ops.get("after", "search").attempted])
    _service_extras(run, service)
    wal = bundle / stages.OPLOG_ARTIFACT
    run.extra["serve.wal.bytes_per_row"] = wal.stat().st_size / logged_rows
    run.end_measurement()
    run.trace_overhead(search, overhead_pool)

    # Checks: acknowledged writes are all there, evicted ones gone, and a
    # fresh open_service replaying the WAL serves the same ids.
    snap = service.snapshot()
    check(set(snap.ids) == expected, "final snapshot ids differ from the acknowledged writes")
    solo = load_gem(bundle / stages.GEM_ARTIFACT)
    probe_rows = solo.transform(ColumnCorpus(probes))
    exact = exact_top_ids(snap.vectors(), snap.ids, probe_rows, K)
    run.e2e["recall_at_10"] = recall_at_k(service.search(probes, K).ids, exact, K)
    run.e2e["precision_at_k"] = served_precision(snap, labels)
    service.close()
    reopened = stages.open_service(bundle)
    try:
        check(
            set(reopened.snapshot().ids) == expected,
            "open_service after close() lost or resurrected acknowledged writes",
        )
    finally:
        reopened.close()


WORKLOADS = {"build": build, "serve-read": serve_read, "serve-mixed": serve_mixed}
