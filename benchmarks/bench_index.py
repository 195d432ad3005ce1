"""Benchmarks for the lake-scale similarity index (repro.index).

Three claims are checked here, the first two at a ``quick`` and a
``full`` size:

1. **IVF trade-off** — the partitioned backend answers queries >= 5x faster
   than the exact scan at recall@10 >= 0.95. The recall floor always
   gates; the wall-clock speedup is advisory at ``quick`` size (shared CI
   runners flake on timing) and strict at ``full`` size;
2. **compression frontier** — the compressed storage modes hold their
   memory-per-row x recall@10 operating points against the exact/f64
   oracle: float32 rows >= 1.9x smaller at recall >= 0.999, IVF-PQ codes
   >= 8x smaller at recall >= 0.9, and the exact-re-rank PQ variant at
   recall >= 0.95. ``quick`` runs the gated variants only; ``full`` adds
   the advisory points (ivf/f64, pq at m=8 and m=16) that chart the curve;
3. **compressed round trip** — float32 rows and trained float32 PQ state
   (codebooks over 4-dim sub-vectors, uint8 codes) survive
   ``save_index``/``load_index`` bit-identically on 2,000 lake-shaped rows.

Exactness against the dense path and flat search memory are tier-1 tests
(tests/test_index.py). Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_index.py -s \\
        -o python_files="bench_*.py" -o python_functions="bench_*" \\
        -k "quick or round_trip"
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.index import GemIndex, load_index, save_index

DIM = 32
N_CLUSTERS = 100
K = 10

#: (n, n_queries, n_lists, n_probe) per size.
PROFILES = {"quick": (8_000, 256, 64, 6), "full": (40_000, 512, 200, 8)}


def _clustered_rows(n: int, rng: np.random.Generator) -> np.ndarray:
    """Lake-shaped embeddings: columns concentrate around semantic types."""
    centers = rng.normal(size=(N_CLUSTERS, DIM)) * 3.0
    return centers[rng.integers(0, N_CLUSTERS, n)] + rng.normal(size=(n, DIM)) * 0.5


def _build(backend: str, X: np.ndarray, **kwargs) -> GemIndex:
    index = GemIndex(DIM, backend=backend, **kwargs)
    index.add([f"c{i}" for i in range(len(X))], X)
    return index


def _recall_at_k(approx: np.ndarray, truth: np.ndarray) -> float:
    hits = sum(len(set(approx[i]) & set(truth[i])) for i in range(truth.shape[0]))
    return hits / truth.size


@pytest.mark.parametrize("profile", ["quick", "full"])
def bench_ivf_speedup_at_recall(profile, best_of):
    """Claim 1: >= 5x IVF query speedup at recall@10 >= 0.95."""
    n, n_queries, n_lists, n_probe = PROFILES[profile]
    X = _clustered_rows(n, np.random.default_rng(2))
    queries = X[:n_queries]
    exact = _build("exact", X, block_size=4_096)
    ivf = _build("ivf", X, n_lists=n_lists, n_probe=n_probe, random_state=0)
    t0 = time.perf_counter()
    ivf.train()
    train_s = time.perf_counter() - t0

    truth = exact.search(queries, K).positions
    approx = ivf.search(queries, K).positions
    recall = _recall_at_k(approx, truth)

    t_exact = best_of(lambda: exact.search(queries, K), 3)
    t_ivf = best_of(lambda: ivf.search(queries, K), 3)
    speedup = t_exact / t_ivf
    bytes_per_row = ivf.storage_bytes()["total"] / n
    print(
        f"ivf over {n} columns ({n_lists} lists, n_probe={n_probe}, "
        f"train {train_s:.2f}s): exact {t_exact * 1e3:.1f} ms vs ivf "
        f"{t_ivf * 1e3:.1f} ms for {n_queries} queries ({speedup:.1f}x), "
        f"recall@{K} {recall:.3f}, {bytes_per_row:.0f} B/row resident"
    )
    assert recall >= 0.95, f"IVF recall@{K} {recall:.3f} below 0.95"
    if profile == "full":
        assert speedup >= 5.0, f"expected >= 5x IVF speedup, got {speedup:.2f}x"
    elif speedup < 5.0:
        print(
            f"WARNING: advisory speedup below 5x ({speedup:.2f}x) — "
            "expected only on heavily loaded shared runners"
        )


#: (name, backend, extra GemIndex kwargs, gate) — gate is None (advisory
#: frontier point) or a dict with ``min_ratio`` / ``min_recall`` floors.
#: The exact/f64 entry is the oracle: every other variant's recall is
#: measured against its answers, and every size ratio is relative to its
#: resident bytes. m=32 on a 32-dim signature is one dimension per
#: sub-codebook (scalar quantization of the IVF residuals): the coarse
#: centroid carries the cluster, the codes carry the residual shape, and
#: the re-rank variant keeps float32 rows to re-score the ADC candidates
#: exactly.
_FRONTIER_VARIANTS = [
    ("exact_f64", "exact", {}, None),
    (
        "exact_f32",
        "exact",
        dict(dtype="float32"),
        dict(min_ratio=1.9, min_recall=0.999),
    ),
    ("ivf_f64", "ivf", dict(_partitioned=True), None),
    ("pq_m8", "pq", dict(_partitioned=True, pq_subvectors=8), None),
    ("pq_m16", "pq", dict(_partitioned=True, pq_subvectors=16), None),
    (
        "pq_m32",
        "pq",
        dict(_partitioned=True, pq_subvectors=32),
        dict(min_ratio=8.0, min_recall=0.9),
    ),
    (
        "pq_m32_rerank",
        "pq",
        dict(_partitioned=True, pq_subvectors=32, pq_rerank=100, dtype="float32"),
        dict(min_recall=0.95),
    ),
]


@pytest.mark.parametrize("profile", ["quick", "full"])
def bench_compression_frontier(profile):
    """Claim 2: compressed backends hold their bytes/row x recall points.

    Builds every variant over the same corpus, measures recall@10 against
    the exact/f64 oracle and resident bytes per row from
    :meth:`GemIndex.storage_bytes`, then asserts the gated floors.
    """
    n, n_queries, n_lists, n_probe = PROFILES[profile]
    X = _clustered_rows(n, np.random.default_rng(2))
    queries = X[:n_queries]
    variants = [
        v
        for v in _FRONTIER_VARIANTS
        if profile == "full" or v[3] is not None or v[0] == "exact_f64"
    ]

    truth: np.ndarray | None = None
    base_bytes = 0
    failures = []
    for name, backend, extra, gate in variants:
        kwargs = dict(extra)
        if kwargs.pop("_partitioned", False):
            kwargs.update(n_lists=n_lists, n_probe=n_probe, random_state=0)
        index = _build(backend, X, **kwargs)
        t0 = time.perf_counter()
        if index.needs_training:
            index.train()
        train_s = time.perf_counter() - t0
        result = index.search(queries, K)
        total = index.storage_bytes()["total"]
        if name == "exact_f64":
            truth, base_bytes = result.positions, total
            recall, ratio = 1.0, 1.0
        else:
            recall = _recall_at_k(result.positions, truth)
            ratio = base_bytes / total
        print(
            f"frontier {name:>14}: recall@{K} {recall:.4f}, "
            f"{total / n:7.1f} B/row ({ratio:5.2f}x smaller vs exact/f64, "
            f"train {train_s:.1f}s)"
        )
        if gate is not None:
            if recall < gate.get("min_recall", 0.0):
                failures.append(f"{name}: recall@{K} {recall:.4f} below {gate['min_recall']}")
            if ratio < gate.get("min_ratio", 0.0):
                failures.append(
                    f"{name}: only {ratio:.2f}x smaller than exact/f64, "
                    f"gate needs {gate['min_ratio']}x"
                )
    assert not failures, "frontier gates failed: " + "; ".join(failures)


def bench_compressed_round_trip(tmp_path):
    """Claim 3: both compressed modes survive save/load bit-identically.

    float32 rows and the trained PQ state (codebooks + uint8 codes) must
    reload byte-for-byte, and the reloaded indexes must answer queries
    with identical positions *and* scores — silent precision loss on the
    persistence path is exactly the failure this gate exists to catch.
    """
    X = _clustered_rows(2_000, np.random.default_rng(4))
    queries = X[:64]
    f32 = _build("exact", X, dtype="float32")
    pq = _build(
        "pq", X, n_lists=32, n_probe=4, dtype="float32", pq_subvectors=8, random_state=0
    )
    pq.train()
    for name, index in (("exact_f32", f32), ("pq_m8_f32", pq)):
        save_index(index, tmp_path / name)
        loaded = load_index(tmp_path / name)
        before, after = index.search(queries, K), loaded.search(queries, K)
        assert np.array_equal(before.positions, after.positions), name
        assert np.array_equal(before.scores, after.scores), name
        if index._stores_rows:
            assert np.array_equal(index._rows, loaded._rows), name
        if index._stores_codes:
            assert np.array_equal(index._codes, loaded._codes), name
            assert np.array_equal(index._pq.codebooks_, loaded._pq.codebooks_), name
    print("compressed round-trip bit-identical: exact_f32, pq_m8_f32")
