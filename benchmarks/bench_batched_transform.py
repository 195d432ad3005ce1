"""Benchmarks for the bounded-memory batched transform engine.

Three claims are checked, matching the engine's acceptance criteria:

1. the chunked scorer+pooler is numerically identical (atol 1e-10) to one
   chunk holding the whole stack (the transform always chunks, so the
   unchunked references pass ``batch_size=<total values>`` explicitly);
2. peak responsibility-matrix memory is bounded by the batch size — it
   stays flat as the corpus grows, while the one-chunk pass scales with
   the total value count. The working set is one scoring window's table
   of distinct-value rows (at most ``WINDOW_CHUNKS * batch_size`` rows,
   8,192 at the default) plus one chunk's gathered rows and one scoring
   piece of scratch: ``O(4 * batch_size * m)``;
3. the fused vectorised pooling (``np.add.reduceat`` over column offsets)
   beats the seed's per-column Python loop by >= 2x on the pooling hot
   path.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core.signature import column_offsets, mean_component_probabilities
from repro.gmm import GaussianMixture

N_COMPONENTS = 24
BATCH_SIZE = 2048


def _make_columns(n_columns: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Many small columns: the lake-scale shape where pooling dominates."""
    return [
        rng.normal(rng.uniform(0, 60), rng.uniform(0.5, 4), rng.integers(6, 12))
        for _ in range(n_columns)
    ]


@pytest.fixture(scope="module")
def fitted_gmm():
    rng = np.random.default_rng(0)
    stack = np.concatenate(
        [rng.normal(10, 3, 4000), rng.normal(45, 5, 4000), rng.uniform(0, 60, 4000)]
    )
    return GaussianMixture(N_COMPONENTS, n_init=1, random_state=0).fit(stack)


@pytest.fixture(scope="module")
def columns():
    return _make_columns(6000, np.random.default_rng(1))


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


def _best_of(fn, rounds: int = 5) -> float:
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _n_values(columns: list[np.ndarray]) -> int:
    return int(sum(c.size for c in columns))


def bench_chunked_matches_unchunked(fitted_gmm, columns):
    full = mean_component_probabilities(fitted_gmm, columns, batch_size=_n_values(columns))
    chunked = mean_component_probabilities(fitted_gmm, columns, batch_size=BATCH_SIZE)
    assert np.allclose(chunked, full, atol=1e-10, rtol=0)
    assert np.allclose(chunked, _loop_baseline(fitted_gmm, columns), atol=1e-10, rtol=0)


def bench_pooling_throughput_vs_python_loop(benchmark, fitted_gmm, columns):
    """The pooling step in isolation: per-column Python loop (seed code)
    against the vectorised segment reduction that replaced it."""
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
    baseline = _best_of(loop_pool)
    vectorised = _best_of(fused_pool)
    benchmark.pedantic(fused_pool, rounds=5, iterations=1)
    end_to_end = _best_of(lambda: mean_component_probabilities(fitted_gmm, columns))
    old_end_to_end = _best_of(lambda: _loop_baseline(fitted_gmm, columns))
    speedup = baseline / vectorised
    print(
        f"\npooling hot path: loop {baseline * 1e3:.2f} ms, "
        f"reduceat {vectorised * 1e3:.2f} ms ({speedup:.1f}x); "
        f"score+pool end to end: {old_end_to_end * 1e3:.1f} -> "
        f"{end_to_end * 1e3:.1f} ms"
    )
    assert speedup >= 2.0, f"expected >= 2x over the Python loop, got {speedup:.2f}x"


def bench_peak_memory_bounded_by_batch_size(fitted_gmm, columns):
    n_values = _n_values(columns)
    peak_full = _peak_bytes(
        lambda: mean_component_probabilities(fitted_gmm, columns, batch_size=n_values)
    )
    peak_batched = _peak_bytes(
        lambda: mean_component_probabilities(fitted_gmm, columns, batch_size=BATCH_SIZE)
    )
    print(
        f"\npeak traced memory over {n_values} values: "
        f"unchunked {peak_full / 1e6:.1f} MB, "
        f"batch_size={BATCH_SIZE}: {peak_batched / 1e6:.1f} MB"
    )
    # The unchunked path materialises several (n_values, m) temporaries; the
    # batched path must stay well below it and within a small multiple of
    # the (batch_size, m) working set (the E-step holds a few temporaries).
    assert peak_batched < peak_full / 4
    working_set = BATCH_SIZE * N_COMPONENTS * 8
    assert peak_batched < 16 * working_set + 2 * n_values * 8


def bench_peak_memory_flat_as_corpus_grows(fitted_gmm):
    rng = np.random.default_rng(2)
    small = _make_columns(2000, rng)
    large = _make_columns(8000, rng)

    def batched(cols):
        return lambda: mean_component_probabilities(
            fitted_gmm, cols, batch_size=BATCH_SIZE
        )

    peak_small = _peak_bytes(batched(small))
    peak_large = _peak_bytes(batched(large))
    n_small = sum(c.size for c in small)
    n_large = sum(c.size for c in large)
    # Discount the unavoidable O(n_values) stacked input and the
    # O(n_columns, m) pooled output; the responsibility working set itself
    # must not grow with the corpus.
    resp_small = peak_small - 2 * n_small * 8 - len(small) * N_COMPONENTS * 8
    resp_large = peak_large - 2 * n_large * 8 - len(large) * N_COMPONENTS * 8
    print(
        f"\nresponsibility working set: {resp_small / 1e6:.1f} MB at "
        f"{n_small} values vs {resp_large / 1e6:.1f} MB at {n_large} values"
    )
    assert resp_large < 1.5 * max(resp_small, BATCH_SIZE * N_COMPONENTS * 8)
