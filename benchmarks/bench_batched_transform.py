"""Benchmark for the bounded-memory batched transform engine.

One claim is checked here: the fused vectorised pooling
(``np.add.reduceat`` over column offsets) beats the seed's per-column
Python loop by >= 2x on the pooling hot path. It is wall-clock, so it
runs nightly.

That chunked pooling matches one chunk and the per-column loop, and that
its peak memory is bounded by the chunk and flat as the corpus grows, are
tier-1 tests (tests/test_core_signature.py). Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batched_transform.py -s \\
        -o python_files="bench_*.py" -o python_functions="bench_*"
"""

from __future__ import annotations

import numpy as np

from repro.core.signature import column_offsets, mean_component_probabilities
from repro.gmm import GaussianMixture


def _loop_baseline(gmm: GaussianMixture, columns: list[np.ndarray]) -> np.ndarray:
    """The seed implementation: full responsibility matrix, Python loop."""
    sizes = [c.size for c in columns]
    stacked = np.concatenate(columns).reshape(-1, 1)
    per_value = gmm.predict_proba(stacked)
    out = np.empty((len(columns), per_value.shape[1]))
    start = 0
    for i, size in enumerate(sizes):
        out[i] = per_value[start : start + size].mean(axis=0)
        start += size
    return out


def bench_pooling_throughput_vs_python_loop(benchmark, best_of):
    """The pooling step in isolation: per-column Python loop (seed code)
    against the vectorised segment reduction that replaced it, over many
    small columns, the lake-scale shape where pooling dominates."""
    rng = np.random.default_rng(0)
    stack = np.concatenate(
        [rng.normal(10, 3, 4000), rng.normal(45, 5, 4000), rng.uniform(0, 60, 4000)]
    )
    fitted_gmm = GaussianMixture(24, n_init=1, random_state=0).fit(stack)
    rng = np.random.default_rng(1)
    columns = [
        rng.normal(rng.uniform(0, 60), rng.uniform(0.5, 4), rng.integers(6, 12))
        for _ in range(6000)
    ]
    sizes, offsets = column_offsets(columns)
    per_value = fitted_gmm.predict_proba(np.concatenate(columns).reshape(-1, 1))

    def loop_pool() -> np.ndarray:
        out = np.empty((len(columns), per_value.shape[1]))
        start = 0
        for i, size in enumerate(sizes):
            out[i] = per_value[start : start + size].mean(axis=0)
            start += size
        return out

    def fused_pool() -> np.ndarray:
        return np.add.reduceat(per_value, offsets[:-1], axis=0) / sizes[:, None]

    assert np.allclose(fused_pool(), loop_pool(), atol=1e-10, rtol=0)
    baseline = best_of(loop_pool, 5)
    vectorised = best_of(fused_pool, 5)
    benchmark.pedantic(fused_pool, rounds=5, iterations=1)
    end_to_end = best_of(lambda: mean_component_probabilities(fitted_gmm, columns), 5)
    old_end_to_end = best_of(lambda: _loop_baseline(fitted_gmm, columns), 5)
    speedup = baseline / vectorised
    print(
        f"\npooling hot path: loop {baseline * 1e3:.2f} ms, "
        f"reduceat {vectorised * 1e3:.2f} ms ({speedup:.1f}x); "
        f"score+pool end to end: {old_end_to_end * 1e3:.1f} -> "
        f"{end_to_end * 1e3:.1f} ms"
    )
    assert speedup >= 2.0, f"expected >= 2x over the Python loop, got {speedup:.2f}x"

