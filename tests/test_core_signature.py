"""Tests for the Gem signature mechanism (paper §3.2, Eqs. 8-9)."""

import numpy as np
import pytest

from repro.core.signature import (
    WINDOW_CHUNKS,
    column_chunks,
    column_offsets,
    mean_component_probabilities,
    signature_matrix,
)
from repro.data import make_gds
from repro.gmm import FitPlan, GaussianMixture


@pytest.fixture(scope="module")
def fitted_gmm():
    rng = np.random.default_rng(0)
    stack = np.concatenate([rng.normal(0, 1, 300), rng.normal(50, 2, 300)])
    return GaussianMixture(2, n_init=2, random_state=0).fit(stack)


class TestMeanComponentProbabilities:
    def test_shape(self, fitted_gmm, rng):
        cols = [rng.normal(0, 1, 20), rng.normal(50, 2, 30), rng.normal(25, 1, 10)]
        M = mean_component_probabilities(fitted_gmm, cols)
        assert M.shape == (3, 2)

    def test_responsibility_rows_sum_to_one(self, fitted_gmm, rng):
        cols = [rng.normal(0, 1, 20), rng.normal(50, 2, 30)]
        M = mean_component_probabilities(fitted_gmm, cols, kind="responsibility")
        assert np.allclose(M.sum(axis=1), 1.0)

    def test_columns_from_different_modes_get_different_signatures(self, fitted_gmm, rng):
        low = rng.normal(0, 1, 50)
        high = rng.normal(50, 2, 50)
        M = mean_component_probabilities(fitted_gmm, [low, high])
        assert np.argmax(M[0]) != np.argmax(M[1])
        assert M[0].max() > 0.95 and M[1].max() > 0.95

    def test_matches_manual_average(self, fitted_gmm, rng):
        col = rng.normal(0, 1, 25)
        M = mean_component_probabilities(fitted_gmm, [col])
        manual = fitted_gmm.predict_proba(col.reshape(-1, 1)).mean(axis=0)
        assert np.allclose(M[0], manual)

    def test_pdf_kind_uses_raw_densities(self, fitted_gmm, rng):
        col = rng.normal(0, 1, 25)
        M = mean_component_probabilities(fitted_gmm, [col], kind="pdf")
        manual = fitted_gmm.component_pdf(col.reshape(-1, 1)).mean(axis=0)
        assert np.allclose(M[0], manual)

    def test_invalid_kind(self, fitted_gmm):
        with pytest.raises(ValueError, match="kind"):
            mean_component_probabilities(fitted_gmm, [np.arange(5.0)], kind="oops")

    def test_empty_columns_rejected(self, fitted_gmm):
        with pytest.raises(ValueError):
            mean_component_probabilities(fitted_gmm, [])

    def test_zero_length_column_rejected_with_index(self, fitted_gmm):
        cols = [np.arange(4.0), np.array([]), np.arange(3.0)]
        with pytest.raises(ValueError, match="column 1 has no values"):
            mean_component_probabilities(fitted_gmm, cols)

    def test_vectorised_pooling_matches_python_loop(self, fitted_gmm, rng):
        cols = [rng.normal(25, 10, n) for n in (1, 8, 33, 2, 120)]
        M = mean_component_probabilities(fitted_gmm, cols)
        per_value = fitted_gmm.predict_proba(np.concatenate(cols).reshape(-1, 1))
        start = 0
        for i, col in enumerate(cols):
            assert np.allclose(
                M[i], per_value[start : start + col.size].mean(axis=0), atol=1e-10, rtol=0
            )
            start += col.size


class TestColumnOffsets:
    def test_offsets_bracket_each_column(self):
        sizes, offsets = column_offsets([np.arange(3.0), np.arange(5.0), np.arange(1.0)])
        assert sizes.tolist() == [3, 5, 1]
        assert offsets.tolist() == [0, 3, 8, 9]

    def test_empty_column_named(self):
        with pytest.raises(ValueError, match="column 2"):
            column_offsets([np.arange(2.0), np.arange(2.0), np.array([])])


class TestBatchedPooling:
    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(3)
        return [
            rng.normal(rng.uniform(-5, 55), rng.uniform(0.5, 5), rng.integers(1, 90))
            for _ in range(40)
        ]

    @pytest.mark.parametrize("batch_size", [1, 2, 17, 256, 100_000])
    @pytest.mark.parametrize("kind", ["responsibility", "pdf"])
    def test_chunked_pooling_matches_unchunked(self, fitted_gmm, columns, batch_size, kind):
        total = sum(c.size for c in columns)
        full = mean_component_probabilities(fitted_gmm, columns, kind=kind, batch_size=total)
        chunked = mean_component_probabilities(
            fitted_gmm, columns, kind=kind, batch_size=batch_size
        )
        assert np.allclose(chunked, full, atol=1e-10, rtol=0)

    def test_chunk_boundary_inside_column(self, fitted_gmm):
        # One 50-value column split across many chunks must still pool to
        # its full mean.
        col = np.random.default_rng(5).normal(0, 1, 50)
        full = mean_component_probabilities(fitted_gmm, [col])
        chunked = mean_component_probabilities(fitted_gmm, [col], batch_size=7)
        assert np.allclose(chunked, full, atol=1e-12)

    def test_rows_remain_stochastic_under_chunking(self, fitted_gmm, columns):
        M = mean_component_probabilities(fitted_gmm, columns, batch_size=13)
        assert np.allclose(M.sum(axis=1), 1.0)

    @pytest.mark.parametrize("batch_size", [None, 1, 7, 64, 100_000])
    def test_pooling_is_batch_composition_invariant(self, fitted_gmm, columns, batch_size):
        # The serve micro-batcher coalesces many small transform requests
        # into one pass; results must be *bit-identical* to solo calls.
        # Chunks are column-aligned, so a column's pooled row depends only
        # on its own values, whatever else shares the stack. None: the
        # transform's default chunk.
        chunk = {} if batch_size is None else {"batch_size": batch_size}
        combined = mean_component_probabilities(fitted_gmm, columns, **chunk)
        for i in (0, 3, len(columns) - 1):
            solo = mean_component_probabilities(fitted_gmm, [columns[i]], **chunk)
            assert np.array_equal(solo[0], combined[i])
        perm = list(reversed(range(len(columns))))
        permuted = mean_component_probabilities(fitted_gmm, [columns[i] for i in perm], **chunk)
        assert np.array_equal(permuted, combined[perm])

    @pytest.mark.parametrize("kind", ["responsibility", "pdf"])
    def test_long_column_pools_alike_alone_and_in_a_batch(self, fitted_gmm, columns, kind):
        # At the default chunk a column longer than one chunk is split from
        # its own start: its row is bitwise the same alone or inside a
        # batch, and within machine precision of a one-chunk pass.
        long = np.random.default_rng(9).normal(25, 20, 3 * FitPlan.DEFAULT_BATCH + 7)
        batch = columns[:5] + [long] + columns[5:]
        alone = mean_component_probabilities(fitted_gmm, [long], kind=kind)
        inside = mean_component_probabilities(fitted_gmm, batch, kind=kind)
        assert np.array_equal(alone[0], inside[5])
        one_chunk = mean_component_probabilities(
            fitted_gmm, [long], kind=kind, batch_size=long.size
        )
        assert np.allclose(alone, one_chunk, atol=1e-15, rtol=0)

    @pytest.mark.parametrize("bad", [-1, 0])
    def test_nonpositive_batch_size_rejected(self, fitted_gmm, columns, bad):
        with pytest.raises(ValueError, match="batch_size"):
            mean_component_probabilities(fitted_gmm, columns, batch_size=bad)

    def test_fractional_batch_size_rejected(self, fitted_gmm, columns):
        with pytest.raises(TypeError, match="batch_size must be an integer"):
            mean_component_probabilities(fitted_gmm, columns, batch_size=2.5)


def _every_value_pooling(gmm, columns, kind, batch_size):
    """Test-local oracle: pool every value of each column chunk, repeats
    included, in the chunk order the transform uses."""
    score = gmm.predict_proba if kind == "responsibility" else gmm.component_pdf
    sizes, offsets = column_offsets(columns)
    stacked = np.concatenate(columns)
    owner = np.repeat(np.arange(len(columns)), sizes)
    sums = np.zeros((len(columns), gmm.n_components))
    for rows in column_chunks(offsets, batch_size):
        per_value = score(stacked[rows])
        starts = np.flatnonzero(np.diff(owner[rows], prepend=-1))
        sums[owner[rows][starts]] += np.add.reduceat(per_value, starts, axis=0)
    return sums / sizes[:, None]


class TestDistinctValueScoring:
    """Each scoring window (whole column chunks, at most WINDOW_CHUNKS
    chunk sizes) scores its distinct values once; rows stay bitwise equal
    to pooling every value."""

    @pytest.fixture(scope="class")
    def lake(self):
        # A rounded GDS lake is duplicate-heavy (about 15% of its 10.7k
        # values are distinct), and 0.0 and -0.0 compare equal in
        # np.unique, so they share one scored row.
        columns = [np.round(c.values) for c in make_gds(scale="tiny", random_state=3)]
        columns.append(np.array([0.0, -0.0, 3.0, -0.0, 0.0, 3.0]))
        gmm = GaussianMixture(8, n_init=1, random_state=0).fit(np.concatenate(columns))
        return gmm, columns

    @pytest.mark.parametrize("batch_size", [FitPlan.DEFAULT_BATCH, 1, 7])
    @pytest.mark.parametrize("kind", ["responsibility", "pdf"])
    def test_rows_equal_every_value_pooling(self, lake, kind, batch_size):
        gmm, columns = lake
        got = mean_component_probabilities(gmm, columns, kind=kind, batch_size=batch_size)
        assert np.array_equal(got, _every_value_pooling(gmm, columns, kind, batch_size))

    @pytest.mark.parametrize("batch_size", [FitPlan.DEFAULT_BATCH, 7])
    def test_scorer_sees_each_window_value_once(self, lake, batch_size, monkeypatch):
        gmm, columns = lake
        calls = []
        original = gmm.predict_proba

        def spy(X):
            calls.append(np.asarray(X).ravel().copy())
            return original(X)

        monkeypatch.setattr(gmm, "predict_proba", spy)
        mean_component_probabilities(gmm, columns, batch_size=batch_size)
        assert len(calls) > 1
        assert all(x.size <= WINDOW_CHUNKS * batch_size for x in calls)
        assert all(np.unique(x).size == x.size for x in calls)
        assert sum(x.size for x in calls) < sum(c.size for c in columns)


def _lake_columns(n_columns, rng):
    """Many small columns: the lake-scale shape where pooling dominates."""
    return [
        rng.normal(rng.uniform(0, 60), rng.uniform(0.5, 4), rng.integers(6, 12))
        for _ in range(n_columns)
    ]


class TestTransformMemory:
    """The pooling pass holds one scoring window's distinct-value table
    (at most WINDOW_CHUNKS chunks of rows), one chunk's gathered rows and
    one scoring piece: O(batch_size * m), whatever the corpus size."""

    @pytest.fixture(scope="class")
    def gmm(self):
        rng = np.random.default_rng(0)
        stack = np.concatenate(
            [rng.normal(10, 3, 4000), rng.normal(45, 5, 4000), rng.uniform(0, 60, 4000)]
        )
        return GaussianMixture(24, n_init=1, random_state=0).fit(stack)

    def test_peak_bounded_by_the_chunk(self, gmm, peak_bytes):
        columns = _lake_columns(6000, np.random.default_rng(1))
        n_values = sum(c.size for c in columns)
        one_chunk = peak_bytes(
            lambda: mean_component_probabilities(gmm, columns, batch_size=n_values)
        )
        chunked = peak_bytes(lambda: mean_component_probabilities(gmm, columns))
        assert chunked < one_chunk / 4
        assert chunked < 16 * FitPlan.DEFAULT_BATCH * 24 * 8 + 2 * n_values * 8

    def test_peak_flat_as_the_corpus_grows(self, gmm, peak_bytes):
        rng = np.random.default_rng(2)
        small, large = _lake_columns(2000, rng), _lake_columns(8000, rng)

        def working_set(columns):
            # Less the O(n_values) stacked input and the (n_columns, m) output.
            n_values = sum(c.size for c in columns)
            peak = peak_bytes(lambda: mean_component_probabilities(gmm, columns))
            return peak - 2 * n_values * 8 - len(columns) * 24 * 8

        small_set, large_set = working_set(small), working_set(large)
        assert large_set < 1.5 * max(small_set, FitPlan.DEFAULT_BATCH * 24 * 8)


class TestColumnChunks:
    def test_chunks_tile_the_stack_and_respect_the_bound(self):
        cols = [np.arange(float(n)) for n in (3, 9, 1, 40, 2, 2)]
        _, offsets = column_offsets(cols)
        for batch_size in (1, 4, 9, 57, 1000):
            chunks = list(column_chunks(offsets, batch_size))
            assert chunks[0].start == 0
            assert chunks[-1].stop == offsets[-1]
            assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
            assert all(c.stop - c.start <= batch_size for c in chunks)

    def test_oversized_column_splits_relative_to_its_own_start(self):
        # A 10-value column chunked at 4 splits 4/4/2 from its start,
        # wherever it sits in the stack.
        alone = list(column_chunks(np.array([0, 10]), 4))
        shifted = list(column_chunks(np.array([0, 3, 13]), 4))
        assert [(c.stop - c.start) for c in alone] == [4, 4, 2]
        assert [(c.stop - c.start) for c in shifted[1:]] == [4, 4, 2]

    def test_bound_covering_the_stack_is_one_chunk(self):
        chunks = list(column_chunks(np.array([0, 5, 8]), 8))
        assert chunks == [slice(0, 8)]


class TestSignatureMatrix:
    def test_l1_rows(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        feats = np.array([[1.0, -2.0], [0.5, 0.5]])
        P = signature_matrix(probs, feats)
        assert np.allclose(np.abs(P).sum(axis=1), 1.0)

    def test_dimension_is_components_plus_features(self):
        P = signature_matrix(np.full((3, 5), 0.2), np.zeros((3, 7)))
        assert P.shape == (3, 12)

    def test_probs_only(self):
        P = signature_matrix(np.array([[0.9, 0.1]]))
        assert np.allclose(P, [[0.9, 0.1]])

    def test_l2_normalisation(self):
        P = signature_matrix(np.array([[3.0, 4.0]]), normalization="l2")
        assert np.isclose(np.linalg.norm(P[0]), 1.0)

    def test_none_normalisation_keeps_balance_scaling_only(self):
        probs = np.array([[0.5, 0.5]])
        feats = np.array([[10.0, -10.0]])
        P = signature_matrix(probs, feats, normalization="none", balance=False)
        assert np.allclose(P, [[0.5, 0.5, 10.0, -10.0]])

    def test_balance_equalises_block_mass(self):
        probs = np.full((4, 5), 0.2)  # row mass 1.0
        feats = np.full((4, 3), 7.0)  # row mass 21.0
        P = signature_matrix(probs, feats, normalization="none", balance=True)
        prob_mass = np.abs(P[:, :5]).sum(axis=1)
        feat_mass = np.abs(P[:, 5:]).sum(axis=1)
        assert np.allclose(prob_mass, feat_mass)

    def test_unbalanced_lets_features_dominate(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        feats = np.array([[100.0, 100.0], [100.0, 100.0]])
        P = signature_matrix(probs, feats, balance=False)
        # Probability block shrinks to noise under joint L1 normalisation.
        assert np.abs(P[:, :2]).sum() < 0.02

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row mismatch"):
            signature_matrix(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_invalid_normalization(self):
        with pytest.raises(ValueError):
            signature_matrix(np.zeros((2, 2)), normalization="max")
