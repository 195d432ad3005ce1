"""Per-layer metrics of a traced run, and the entry points traced for them.

The tracer wraps these public entry points from the benchmark's side;
nothing under ``src/`` records spans. Every ``.s``/``self_s`` figure is
self time summed over the run: a span's duration minus its child spans,
so the figures of nested layers add up instead of double counting.
``README.md`` in this directory lists which end-to-end metric each
figure should move, on which workload.
"""

from __future__ import annotations

import numpy as np

from harness import SpanStats, Tracer, tail_level


def register(tracer: Tracer) -> None:
    """Name every traced entry point, grouped by the layer that owns it."""
    import repro.evaluation.precision as precision_module
    from repro.bundle import stages
    from repro.core.gem import GemEmbedder
    from repro.gmm.model import GaussianMixture
    from repro.index.core import GemIndex
    from repro.serve.batching import Ticket
    from repro.serve.oplog import GemOpLog
    from repro.serve.service import GemService
    from repro.serve.snapshot import SnapshotStore

    tracer.add(GaussianMixture, "fit", "gmm.fit", lambda a, kw, r: r.n_iter_)
    tracer.add(GaussianMixture, "predict_proba", "gmm.predict_proba", lambda a, kw, r: len(r))
    tracer.add(GemEmbedder, "fit", "core.fit")
    tracer.add(GemEmbedder, "transform", "core.transform", lambda a, kw, r: len(r))
    tracer.add(GemEmbedder, "build_index", "core.build_index")
    tracer.add(GemIndex, "add", "index.add", lambda a, kw, r: len(a[1]))
    tracer.add(GemIndex, "remove", "index.remove")
    tracer.add(GemIndex, "compact", "index.compact")
    tracer.add(GemIndex, "train", "index.train")
    tracer.add(GemIndex, "snapshot", "index.snapshot")
    tracer.add(GemIndex, "search", "index.search", lambda a, kw, r: len(r.ids))
    tracer.add(GemIndex, "search_corpus", "index.search_corpus")
    tracer.add(GemService, "search", "serve.search")
    tracer.add(GemService, "ingest", "serve.ingest")
    tracer.add(GemService, "evict", "serve.evict")
    tracer.add(Ticket, "result", "serve.ticket_result")
    tracer.add(SnapshotStore, "apply", "serve.apply")
    tracer.add(GemOpLog, "append", "serve.wal_append")
    tracer.add(stages, "fit_stage", "bundle.fit_stage")
    tracer.add(stages, "index_stage", "bundle.index_stage")
    tracer.add(stages, "open_service", "bundle.open_service")
    tracer.add(precision_module, "precision_recall_at_k", "evaluation.precision")


def _p(values: list[float], level: float) -> float:
    return float(np.percentile(values, level)) if values else 0.0


def _tail(values: list[float], ceiling: float) -> float:
    return _p(values, tail_level(len(values), ceiling) or 50.0)


def layer_metrics(spans: list[tuple], extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, ``name -> (value, unit)``; 0 where a layer idled.

    ``extra`` carries the figures that come from the workload rather than
    from spans (storage sizes, service counters, generator lateness).
    """
    s = SpanStats(spans)
    transforms = s.calls("core.transform")
    requests = s.self_values("serve.search", "serve.ingest", "serve.evict")
    waits = s.durations("serve.ticket_result")
    out = {
        "gmm.fit.s": (s.self_s("gmm.fit"), "s"),
        "gmm.fit.em_iters": (s.counted("gmm.fit"), "count"),
        "gmm.predict_proba.s": (s.self_s("gmm.predict_proba"), "s"),
        "gmm.predict_proba.values": (s.counted("gmm.predict_proba"), "count"),
        "core.fit.self_s": (s.self_s("core.fit"), "s"),
        "core.transform.self_s": (s.self_s("core.transform"), "s"),
        "core.transform.cols_per_call": (
            s.counted("core.transform") / transforms if transforms else 0.0,
            "cols",
        ),
        "core.build_index.self_s": (s.self_s("core.build_index"), "s"),
        "index.search.s": (s.self_s("index.search", "index.search_corpus"), "s"),
        "index.search.queries": (s.counted("index.search"), "count"),
        "index.add.s": (s.self_s("index.add"), "s"),
        "index.add.rows": (s.counted("index.add"), "count"),
        "index.remove.s": (s.self_s("index.remove"), "s"),
        "index.compact.calls": (s.calls("index.compact"), "count"),
        "index.compact.s": (s.self_s("index.compact"), "s"),
        "index.snapshot.s": (s.self_s("index.snapshot"), "s"),
        "index.train.s": (s.self_s("index.train"), "s"),
        "serve.request.self_us_p50": (_p(requests, 50) * 1e6, "us"),
        "serve.queue_wait_us_p50": (_p(waits, 50) * 1e6, "us"),
        "serve.queue_wait_us_p99": (_tail(waits, 99.0) * 1e6, "us"),
        "serve.apply.s": (s.self_s("serve.apply"), "s"),
        "serve.wal.append.s": (s.self_s("serve.wal_append"), "s"),
        "bundle.fit_stage.self_s": (s.self_s("bundle.fit_stage"), "s"),
        "bundle.index_stage.s": (s.self_s("bundle.index_stage"), "s"),
        "bundle.open_service.s": (s.self_s("bundle.open_service"), "s"),
        "evaluation.precision.self_s": (s.self_s("evaluation.precision"), "s"),
    }
    units = {
        "core.cache.repeat_share": "ratio",
        "index.bytes_per_row": "B",
        "serve.batch.requests_mean": "req",
        "serve.wal.bytes_per_row": "B",
        "serve.shed": "count",
        "serve.deadline_misses": "count",
        "serve.degraded_searches": "count",
        "bench.writer_lag_p99_ms": "ms",
        "bench.trace_overhead": "ratio",
    }
    for name, unit in units.items():
        out[name] = (float(extra.get(name, 0.0)), unit)
    return out


#: Every per-layer metric name with its unit, in report order.
PER_LAYER = [
    (name, unit) for name, (_value, unit) in layer_metrics([], {}).items()
]
