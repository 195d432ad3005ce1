"""Shared benchmark fixtures.

Two kinds of module live here, all collected by pytest under the
``bench_`` prefix (``-o python_files="bench_*.py" -o
python_functions="bench_*"``):

* the paper benches (``bench_fig*``, ``bench_table*`` and friends)
  regenerate one table or figure of the paper through the
  :mod:`repro.experiments` runners, assert the headline *shape* the paper
  reports, and archive the rendered artefact under ``benchmarks/results/``
  so ``pytest benchmarks/ --benchmark-only`` leaves a reviewable trail.
  Corpora default to the laptop profile; set ``REPRO_SCALE=paper`` for
  Table-1-scale corpora (substantially slower);
* the engine gates (``bench_index``, ``bench_serve``, ``bench_fit_engine``,
  ``bench_batched_transform``) check the claims tier-1 cannot afford or
  cannot time: wall-clock speedups, and the PQ compression frontier, the
  index round trip and fit memory at lake scale. A gate with two sizes
  carries a ``quick`` and a ``full`` parameter id; CI's ``benchmarks``
  job runs the ``quick`` ids, the round trip and the fit-memory gate
  (``-k "quick or round_trip or fit_memory"``), and the nightly workflow
  runs every id. Each gate prints its measurements; pass ``-s`` to see
  them.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def archive(results_dir):
    """Callable that writes an ExperimentResult (and extras) to disk."""

    def _archive(result) -> None:
        body = result.to_text()
        for key in ("charts", "histograms"):
            if key in result.extras:
                body += "\n\n" + result.extras[key]
        (results_dir / f"{result.experiment_id}.txt").write_text(body + "\n")

    return _archive


@pytest.fixture(scope="session")
def best_of():
    """Callable ``best_of(fn, rounds)``: the fastest of ``rounds`` timed
    calls of ``fn``, in seconds."""

    def _best_of(fn, rounds: int) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    return _best_of
