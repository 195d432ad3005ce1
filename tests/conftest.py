"""Shared fixtures: tiny seeded corpora and generators.

Tests use deliberately small corpora (dozens of columns, few GMM components)
so the whole suite stays fast; the benchmarks exercise realistic sizes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.corpora import make_corpus
from repro.data.synthesis import default_type_library
from repro.data.table import ColumnCorpus, NumericColumn


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def type_library():
    """The full semantic type library (session-cached: it is immutable)."""
    return default_type_library()


@pytest.fixture(scope="session")
def tiny_corpus() -> ColumnCorpus:
    """~36 columns over 6 types with fine headers (session-cached)."""
    types = [t for t in default_type_library() if t.fine in (
        "age_person",
        "year_publication",
        "rating_book",
        "price_product",
        "score_cricket",
        "percentage_generic",
    )]
    return make_corpus("tiny", types, 36, header_granularity="fine", random_state=0)


@pytest.fixture(scope="session")
def ambiguous_corpus() -> ColumnCorpus:
    """~30 columns over 6 types sharing coarse headers (WDC-style)."""
    types = [t for t in default_type_library() if t.coarse in ("score", "rating")][:6]
    return make_corpus("ambig", types, 30, header_granularity="coarse", random_state=1)


@pytest.fixture(scope="session")
def peak_bytes():
    """Callable ``peak_bytes(fn)``: the peak traced allocation, in bytes,
    while ``fn`` runs (tracemalloc, so the figure is clock-free)."""

    def _peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return _peak_bytes


@pytest.fixture
def simple_columns() -> list[NumericColumn]:
    """Three hand-written labelled columns."""
    return [
        NumericColumn("age", np.array([30.0, 31, 29, 35, 28]), "age", "age"),
        NumericColumn("price", np.array([9.99, 20.5, 15.0, 7.25]), "price", "price"),
        NumericColumn("year", np.array([1999.0, 2001, 2005, 2010, 2015, 2020]), "year", "year"),
    ]


@pytest.fixture
def blob_data(rng) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated 4-cluster blobs with labels (standardised features,
    as every model in the library receives)."""
    X = np.vstack([rng.normal(i * 8.0, 1.0, size=(30, 5)) for i in range(4)])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = np.repeat(np.arange(4), 30)
    return X, y
