"""Tests for the lake-scale similarity index (repro.index).

The load-bearing guarantee: the exact blocked searcher is **bit-identical**
to the dense ``cosine_similarity_matrix`` + ``top_k_neighbors`` path for any
block size, and an IVF index probing every list degrades to the same exact
answer. On top of that: incremental add/remove, persistence with the model
fingerprint staleness guard, embedder integration and the index-backed
precision protocol.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GemEmbedder, gem_fingerprint
from repro.data import make_gds
from repro.evaluation import (
    cosine_similarity_matrix,
    precision_recall_at_k,
    top_k_neighbors,
)
from repro.index import (
    GemIndex,
    StaleIndexError,
    corpus_column_ids,
    load_index,
    save_index,
)

FAST = dict(n_components=6, n_init=1, max_iter=60, random_state=0)


def _ids(n):
    return [f"c{i}" for i in range(n)]


def _dense_reference(X, k):
    sim = cosine_similarity_matrix(X)
    top = top_k_neighbors(sim, k)
    rows = np.arange(X.shape[0])[:, None]
    return top, sim[rows, top]


def _embeddings(rng, n=120, d=16):
    """Clustered rows plus the awkward cases: zero rows and duplicates."""
    centers = rng.normal(size=(8, d)) * 4
    X = centers[rng.integers(0, 8, n)] + rng.normal(size=(n, d))
    X[3] = 0.0                    # zero signature row
    X[10] = X[4]                  # duplicate pair (exact ties)
    X[50:55] = X[4]               # duplicate run crossing block boundaries
    return X


class TestExactBackendMatchesDense:
    @pytest.mark.parametrize("block_size", [1, 7, 16, 119, 120, 4096])
    def test_bit_identical_for_any_block_size(self, rng, block_size):
        X = _embeddings(rng)
        dense_top, dense_scores = _dense_reference(X, 10)
        index = GemIndex(X.shape[1], backend="exact", block_size=block_size)
        index.add(_ids(len(X)), X)
        result = index.search(X, 10, exclude_ids=_ids(len(X)))
        assert np.array_equal(result.positions, dense_top)
        assert np.array_equal(result.scores, dense_scores)

    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_random_block_sizes(self, block_size, seed):
        rng = np.random.default_rng(seed)
        X = _embeddings(rng, n=60, d=8)
        dense_top, dense_scores = _dense_reference(X, 5)
        index = GemIndex(8, backend="exact", block_size=block_size)
        index.add(_ids(60), X)
        result = index.search(X, 5, exclude_ids=_ids(60))
        assert np.array_equal(result.positions, dense_top)
        assert np.array_equal(result.scores, dense_scores)

    def test_query_blocking_is_result_invariant(self, rng):
        from repro.index.exact import blocked_topk
        from repro.evaluation.neighbors import unit_rows

        X = _embeddings(rng)
        U = unit_rows(X)
        base_pos, base_scores = blocked_topk(U, U, 7, block_size=13, query_block=1024)
        dense_top, dense_scores = _dense_reference(X, 7)
        for qb in (1, 3, 50, 119):
            pos, scores = blocked_topk(U, U, 7, block_size=13, query_block=qb)
            assert np.array_equal(pos, base_pos)
            assert np.array_equal(scores, base_scores)
            # Each query block masks its own slice of the exclusions.
            pos, scores = blocked_topk(
                U, U, 7, block_size=13, exclude_positions=np.arange(len(U)), query_block=qb
            )
            assert np.array_equal(pos, dense_top)
            assert np.array_equal(scores, dense_scores)

    def test_never_allocates_dense_matrix(self, rng, peak_bytes):
        n, d, block = 1500, 12, 64
        X = rng.normal(size=(n, d))
        index = GemIndex(d, backend="exact", block_size=block)
        index.add(_ids(n), X)
        queries = X[:64]
        index.search(queries, 10)  # warm up
        peak = peak_bytes(lambda: index.search(queries, 10))
        # Working set is O(query_block x block_size), nowhere near (n, n).
        assert peak < n * n * 8 / 4

    @pytest.mark.parametrize("n", [2_000, 4_000])
    def test_search_memory_flat_as_corpus_grows(self, n, peak_bytes):
        # Peak search memory holds still while a corpus of 32-dim rows
        # grows 10x, up to 40k rows, where the dense path's (n, n) matrix
        # would take 12.8 GB.
        def peak_at(n_rows):
            X = _embeddings(np.random.default_rng(1), n=n_rows, d=32)
            index = GemIndex(32, block_size=2_048)
            index.add(_ids(n_rows), X)
            queries = X[:256]
            index.search(queries, 10)  # warm up allocator pools
            return peak_bytes(lambda: index.search(queries, 10))

        small, large = peak_at(n), peak_at(10 * n)
        assert large < 1.5 * small + 4e6, f"search memory grew: {small} -> {large} bytes"
        assert large < (10 * n) ** 2 * 8 / 50

    def test_without_exclusion_self_is_top_hit(self, rng):
        X = rng.normal(size=(30, 6))
        index = GemIndex(6)
        index.add(_ids(30), X)
        result = index.search(X, 1)
        assert np.array_equal(result.positions.ravel(), np.arange(30))
        assert np.allclose(result.scores, 1.0)


class TestIVFBackend:
    def test_probe_all_lists_equals_dense(self, rng):
        X = _embeddings(rng)
        dense_top, dense_scores = _dense_reference(X, 10)
        index = GemIndex(X.shape[1], backend="ivf", n_lists=6, n_probe=6, random_state=0)
        index.add(_ids(len(X)), X)
        result = index.search(X, 10, exclude_ids=_ids(len(X)))
        assert np.array_equal(result.positions, dense_top)
        assert np.array_equal(result.scores, dense_scores)

    def test_recall_at_k_on_gds_embeddings(self):
        corpus = make_gds(scale="small")
        gem = GemEmbedder(**FAST)
        emb = gem.fit_transform(corpus)
        dense_top, _ = _dense_reference(emb, 10)
        index = GemIndex(emb.shape[1], backend="ivf", n_lists=8, n_probe=4, random_state=0)
        index.add(_ids(len(emb)), emb)
        result = index.search(emb, 10, exclude_ids=_ids(len(emb)))
        hits = sum(len(set(result.positions[i]) & set(dense_top[i])) for i in range(len(emb)))
        recall = hits / dense_top.size
        assert recall >= 0.95, f"IVF recall@10 {recall:.3f} below 0.95"

    def test_search_is_deterministic(self, rng):
        X = _embeddings(rng)
        index = GemIndex(X.shape[1], backend="ivf", n_lists=6, n_probe=2, random_state=3)
        index.add(_ids(len(X)), X)
        a = index.search(X, 5)
        b = index.search(X, 5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.scores, b.scores)

    def test_unfilled_slots_are_padded(self, rng):
        # 2 tight clusters, 2 lists; probing one list can't fill k=8.
        X = np.concatenate([rng.normal(0, 0.01, (5, 4)) + 10, rng.normal(0, 0.01, (5, 4)) - 10])
        index = GemIndex(4, backend="ivf", n_lists=2, n_probe=1, random_state=0)
        index.add(_ids(10), X)
        result = index.search(X, 8)
        pad = result.positions == -1
        assert pad.any()
        assert np.all(np.isneginf(result.scores[pad]))
        assert all(i is None for i in result.ids[pad])

    def test_probing_consistent_with_list_assignment(self, rng):
        # Regression: probing used to rank lists by raw dot product while
        # rows were assigned by L2 distance. Centroids of diffuse clusters
        # have smaller norms, so the two orderings disagree — n_probe=1
        # would visit a list the query's neighbours were never assigned to.
        from repro.evaluation.neighbors import unit_rows
        from repro.index.ivf import IVFPartition, ivf_topk

        d = 6
        tight = rng.normal(size=(1, d))
        tight /= np.linalg.norm(tight)
        X = np.concatenate(
            [
                tight + rng.normal(0, 0.01, (30, d)),  # tight: ~unit centroid
                rng.normal(size=(30, d)) * 2,          # diffuse: short centroid
            ]
        )
        U = unit_rows(X)
        partition = IVFPartition(n_lists=2, random_state=0)
        partition.train(U)
        # For each stored row queried back with n_probe=1, the probed list
        # must be its own L2 assignment, so its exact duplicate (itself) is
        # always found.
        pos, _ = ivf_topk(U, U, partition, 1, n_probe=1)
        assert np.array_equal(pos.ravel(), np.arange(len(U)))

    def test_add_after_training_assigns_to_lists(self, rng):
        X = rng.normal(size=(40, 5))
        index = GemIndex(5, backend="ivf", n_lists=4, n_probe=4, random_state=0)
        index.add(_ids(40), X)
        index.train()
        extra = rng.normal(size=(5, 5))
        index.add([f"x{i}" for i in range(5)], extra)
        result = index.search(extra, 1)
        assert [row[0] for row in result.ids] == [f"x{i}" for i in range(5)]


class TestIncrementalUpdates:
    def test_many_small_adds_match_one_batch_add(self, rng):
        # The growth buffer behind incremental ingestion must be invisible:
        # row-at-a-time adds produce a bitwise-identical index to one bulk
        # add, across interleaved removals.
        X = rng.normal(size=(40, 5))
        bulk = GemIndex(5, block_size=7)
        bulk.add(_ids(40), X)
        incremental = GemIndex(5, block_size=7)
        for i in range(40):
            incremental.add([f"c{i}"], X[i : i + 1])
        assert np.array_equal(incremental.vectors(), bulk.vectors())
        q = rng.normal(size=(6, 5))
        a, b = bulk.search(q, 5), incremental.search(q, 5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.scores, b.scores)
        bulk.remove(["c3", "c17"])
        incremental.remove(["c3", "c17"])
        incremental.add(["z"], X[:1] * 2)
        bulk.add(["z"], X[:1] * 2)
        a, b = bulk.search(q, 5), incremental.search(q, 5)
        assert np.array_equal(a.positions, b.positions)

    def test_remove_keeps_ids_stable(self, rng):
        X = rng.normal(size=(20, 4))
        index = GemIndex(4)
        index.add(_ids(20), X)
        index.remove(["c0", "c7"])
        assert len(index) == 18
        assert "c0" not in index and "c7" not in index and "c19" in index
        result = index.search(X[19:20], 1)
        assert result.ids[0, 0] == "c19"

    def test_removed_rows_never_returned(self, rng):
        X = rng.normal(size=(10, 4))
        index = GemIndex(4)
        index.add(_ids(10), X)
        index.remove(["c3"])
        result = index.search(X[3:4], 9)
        assert "c3" not in set(result.ids.ravel())

    def test_remove_then_readd(self, rng):
        X = rng.normal(size=(6, 3))
        index = GemIndex(3)
        index.add(_ids(6), X)
        index.remove(["c2"])
        index.add(["c2"], X[2:3] + 1.0)
        assert len(index) == 6

    def test_remove_then_readd_resurrects_and_searches(self, rng):
        # remove -> add of the same id must resurrect the row, and the
        # remove -> add -> search sequence must serve the *new* vector.
        X = rng.normal(size=(8, 4))
        index = GemIndex(4)
        index.add(_ids(8), X)
        index.remove(["c5"])
        new_vec = rng.normal(size=(1, 4))
        index.add(["c5"], new_vec)
        assert len(index) == 8
        result = index.search(new_vec, 1)
        assert result.ids[0, 0] == "c5"
        assert result.scores[0, 0] == pytest.approx(1.0)
        # The old vector must not resolve to c5 any more.
        old = index.search(X[5:6], 8)
        row = {cid: s for cid, s in zip(old.ids[0], old.scores[0])}
        assert row["c5"] < 1.0 - 1e-9

    def test_remove_then_readd_on_trained_ivf(self, rng):
        X = rng.normal(size=(30, 4))
        index = GemIndex(4, backend="ivf", n_lists=3, random_state=0)
        index.add(_ids(30), X)
        index.train()
        index.remove(["c4", "c11"])
        index.add(["c4", "c11"], X[[4, 11]] * 0.5)
        result = index.search(X[4:5], 1)
        assert result.ids[0, 0] == "c4"

    def test_remove_matches_fresh_build(self, rng):
        X = rng.normal(size=(30, 5))
        full = GemIndex(5, block_size=7)
        full.add(_ids(30), X)
        full.remove([f"c{i}" for i in range(0, 30, 3)])
        keep = [i for i in range(30) if i % 3 != 0]
        fresh = GemIndex(5, block_size=7)
        fresh.add([f"c{i}" for i in keep], X[keep])
        q = rng.normal(size=(4, 5))
        a, b = full.search(q, 5), fresh.search(q, 5)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.scores, b.scores)

    def test_duplicate_and_unknown_ids_rejected(self, rng):
        index = GemIndex(3)
        index.add(["a"], rng.normal(size=(1, 3)))
        with pytest.raises(ValueError, match="already stored"):
            index.add(["a"], rng.normal(size=(1, 3)))
        with pytest.raises(ValueError, match="unique"):
            index.add(["b", "b"], rng.normal(size=(2, 3)))
        with pytest.raises(KeyError, match="not stored"):
            index.remove(["missing"])
        with pytest.raises(TypeError, match="strings"):
            index.add([3], rng.normal(size=(1, 3)))

    def test_dim_mismatch_rejected(self, rng):
        index = GemIndex(3)
        with pytest.raises(ValueError, match="dim"):
            index.add(["a"], rng.normal(size=(1, 4)))
        index.add(["a"], rng.normal(size=(1, 3)))
        with pytest.raises(ValueError, match="dim"):
            index.search(rng.normal(size=(1, 4)), 1)


class TestSnapshots:
    def test_snapshot_isolated_from_later_adds_and_removes(self, rng):
        X = rng.normal(size=(20, 4))
        index = GemIndex(4)
        index.add(_ids(20), X)
        snap = index.snapshot()
        index.add(["new0", "new1"], rng.normal(size=(2, 4)))
        index.remove(["c0", "c13"])
        assert len(snap) == 20 and snap.ids == tuple(_ids(20))
        assert np.array_equal(snap.vectors(), X)
        # The snapshot serves exactly the pre-write corpus.
        a = snap.search(X[:5], 4)
        fresh = GemIndex(4)
        fresh.add(_ids(20), X)
        b = fresh.search(X[:5], 4)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.scores, b.scores)

    def test_snapshot_chain_under_writer_discipline(self, rng):
        # The serving pattern: one writer keeps mutating its working index
        # and publishes a snapshot per batch; every published snapshot must
        # stay frozen at its own corpus forever.
        X = rng.normal(size=(64, 3))
        writer = GemIndex(3)
        snaps, sizes = [], []
        for i in range(8):
            writer.add([f"b{i}:{j}" for j in range(8)], X[8 * i : 8 * (i + 1)])
            if i % 3 == 2:
                writer.remove([f"b{i}:0"])
            snaps.append(writer.snapshot())
            sizes.append(len(writer))
        for snap, size in zip(snaps, sizes):
            assert len(snap) == size
            result = snap.search(X[:2], min(4, size))
            # Positions index storage slots, which may exceed the live
            # count while removed rows are tombstoned awaiting compaction —
            # but every returned slot must be a live one.
            assert (result.positions < snap._n_rows).all()
            assert all(cid is not None for cid in result.ids.ravel())

    def test_snapshot_buffers_shared_and_writer_appends_in_place(self, rng):
        X = rng.normal(size=(10, 4))
        index = GemIndex(4)
        index.add(_ids(10), X)
        snap = index.snapshot()
        assert snap._rows_buf is index._rows_buf  # O(1) fork
        # The single writer claims the spare tail and appends in place —
        # no buffer copy per publish; the snapshot still reads only its
        # own first _n_rows, which are never written again.
        index.add(["z"], rng.normal(size=(1, 4)))
        assert snap._rows_buf is index._rows_buf
        assert np.array_equal(snap.vectors(), X)
        assert len(snap) == 10 and len(index) == 11

    def test_second_fork_writer_copies_before_writing(self, rng):
        X = rng.normal(size=(10, 4))
        index = GemIndex(4)
        index.add(_ids(10), X)
        snap = index.snapshot()
        index.add(["claimed"], rng.normal(size=(1, 4)))  # index owns the tail
        snap.add(["other"], rng.normal(size=(1, 4)))  # snap must copy
        assert snap._rows_buf is not index._rows_buf
        assert "claimed" not in snap and "other" not in index
        assert np.array_equal(snap.vectors()[:10], X)
        assert np.array_equal(index.vectors()[:10], X)

    def test_mutating_the_snapshot_leaves_the_source_intact(self, rng):
        X = rng.normal(size=(10, 4))
        index = GemIndex(4)
        index.add(_ids(10), X)
        snap = index.snapshot()
        snap.add(["only-in-snap"], rng.normal(size=(1, 4)))
        snap.remove(["c1"])
        assert len(index) == 10 and "only-in-snap" not in index
        assert np.array_equal(index.vectors(), X)

    def test_ivf_snapshot_forks_partition(self, rng):
        X = rng.normal(size=(40, 4))
        index = GemIndex(4, backend="ivf", n_lists=4, random_state=0)
        index.add(_ids(40), X)
        index.train()
        snap = index.snapshot()
        index.add(["extra"], rng.normal(size=(1, 4)))
        index.remove(["c0"])
        assert snap._partition.assignments_.shape[0] == 40
        # The removed row is tombstoned (below the compaction threshold),
        # so its assignment slot survives until compact().
        assert index._partition.assignments_.shape[0] == 41
        index.compact()
        assert index._partition.assignments_.shape[0] == 40
        result = snap.search(X[:3], 5)
        assert "extra" not in set(result.ids.ravel())

    def test_snapshot_carries_model_binding(self, rng):
        X = rng.normal(size=(5, 3))
        index = GemIndex(3, model_fingerprint="abc123")
        index.add(_ids(5), X)
        snap = index.snapshot()
        index.remove(["c2"])
        assert "c2" in snap
        assert snap.model_fingerprint == "abc123"


class TestEdgeCases:
    def test_empty_index_returns_empty(self, rng):
        index = GemIndex(4)
        result = index.search(rng.normal(size=(3, 4)), 5)
        assert result.positions.shape == (3, 0)

    def test_single_row_with_exclusion_returns_empty(self, rng):
        index = GemIndex(4)
        index.add(["only"], rng.normal(size=(1, 4)))
        result = index.search(rng.normal(size=(2, 4)), 3, exclude_ids=["only", "only"])
        assert result.positions.shape == (2, 0)

    def test_k_capped_at_stored_rows(self, rng):
        X = rng.normal(size=(4, 3))
        index = GemIndex(3)
        index.add(_ids(4), X)
        assert index.search(X, 100).k == 4
        assert index.search(X, 100, exclude_ids=_ids(4)).k == 3

    def test_unresolved_exclusions_rejected(self, rng):
        # Every exclusion names a stored row: an unknown id or None is a
        # caller error, not a query that silently excludes nothing.
        X = rng.normal(size=(3, 4))
        index = GemIndex(4)
        index.add(_ids(3), X)
        with pytest.raises(ValueError, match="'not-stored' is not a stored id"):
            index.search(X, 3, exclude_ids=["not-stored"] * 3)
        with pytest.raises(ValueError, match="None is not a stored id"):
            index.search(X, 3, exclude_ids=[None, None, None])

    def test_mixed_exclusions_rejected(self, rng):
        # One unresolved entry fails the whole batch, so k is always
        # capped at n - 1 under exclusion.
        X = rng.normal(size=(3, 4))
        index = GemIndex(4)
        index.add(_ids(3), X)
        with pytest.raises(ValueError, match="'nope' is not a stored id"):
            index.search(X, 3, exclude_ids=["c0", "nope", "c2"])
        with pytest.raises(ValueError, match="None is not a stored id"):
            index.search(X, 3, exclude_ids=["c0", "c1", None])
        index.remove(["c1"])
        with pytest.raises(ValueError, match="'c1' is not a stored id"):
            index.search(X, 3, exclude_ids=_ids(3))

    def test_zero_rows_stored_and_queried(self):
        X = np.zeros((3, 4))
        X[1, 0] = 1.0
        index = GemIndex(4)
        index.add(_ids(3), X)
        result = index.search(np.zeros((1, 4)), 3)
        assert np.all(np.isfinite(result.scores) | np.isneginf(result.scores))
        assert np.allclose(result.scores, 0.0)  # zero query orthogonal to all

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="backend"):
            GemIndex(4, backend="annoy")
        with pytest.raises(ValueError):
            GemIndex(0)
        with pytest.raises(ValueError):
            GemIndex(4, block_size=0)
        with pytest.raises(ValueError):
            GemIndex(4, n_probe=0)


class TestPersistence:
    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_round_trip_search_identical(self, rng, tmp_path, backend):
        X = _embeddings(rng, n=50, d=6)
        index = GemIndex(6, backend=backend, n_lists=4, n_probe=2, random_state=0)
        index.add(_ids(50), X)
        if backend == "ivf":
            index.train()
        before = index.search(X, 5, exclude_ids=_ids(50))
        save_index(index, tmp_path / "idx.npz")
        loaded = load_index(tmp_path / "idx.npz")
        after = loaded.search(X, 5, exclude_ids=_ids(50))
        assert loaded.backend == backend and len(loaded) == 50
        assert np.array_equal(before.positions, after.positions)
        assert np.array_equal(before.scores, after.scores)
        assert before.ids.tolist() == after.ids.tolist()

    def test_suffix_appended_consistently(self, rng, tmp_path):
        # np.savez silently appends .npz; save/load must agree on the
        # resulting path instead of save succeeding and load raising.
        index = GemIndex(4)
        index.add(_ids(3), rng.normal(size=(3, 4)))
        save_index(index, tmp_path / "lake.idx")
        assert (tmp_path / "lake.idx.npz").exists()
        assert len(load_index(tmp_path / "lake.idx")) == 3

    def test_fingerprint_round_trips(self, rng, tmp_path):
        index = GemIndex(4, model_fingerprint="abc123")
        index.add(_ids(3), rng.normal(size=(3, 4)))
        save_index(index, tmp_path / "idx.npz")
        assert load_index(tmp_path / "idx.npz").model_fingerprint == "abc123"

    def test_unknown_schema_rejected(self, rng, tmp_path):
        import json

        index = GemIndex(4)
        index.add(_ids(3), rng.normal(size=(3, 4)))
        save_index(index, tmp_path / "idx.npz")
        payload = dict(np.load(tmp_path / "idx.npz"))
        config = json.loads(bytes(payload["config_json"]).decode())
        config["schema_version"] = 999
        payload["config_json"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
        np.savez(tmp_path / "bad.npz", **_resign(payload))
        with pytest.raises(ValueError, match="schema version"):
            load_index(tmp_path / "bad.npz")


def _separable(rng, n=120, d=8, n_centers=4):
    """Well-separated clusters: rankings are dtype- and backend-stable."""
    centers = rng.normal(size=(n_centers, d)) * 4.0
    return centers[rng.integers(0, n_centers, n)] + rng.normal(size=(n, d)) * 0.05


def _resign(payload):
    """Recompute a tampered archive's content checksum.

    The consistency guards under test must fire on *checksum-valid*
    archives — a stale checksum would trip CorruptArchiveError first and
    mask them.
    """
    from repro.core.persistence import archive_checksum, json_to_array

    payload.pop("__checksum__", None)
    payload["__checksum__"] = json_to_array(archive_checksum(payload))
    return payload


def _tamper_config(src, dst, **overrides):
    """Rewrite config fields of a saved archive (corruption simulator)."""
    import json

    payload = dict(np.load(src))
    config = json.loads(bytes(payload["config_json"]).decode())
    config.update(overrides)
    payload["config_json"] = np.frombuffer(
        json.dumps(config).encode(), dtype=np.uint8
    )
    np.savez(dst, **_resign(payload))


class TestFloat32Mode:
    def test_rows_stored_in_float32_at_half_the_bytes(self, rng):
        X = _separable(rng)
        f64 = GemIndex(8)
        f64.add(_ids(len(X)), X)
        f32 = GemIndex(8, dtype="float32")
        f32.add(_ids(len(X)), X)
        assert f32._rows.dtype == np.float32
        ratio = f64.storage_bytes()["total"] / f32.storage_bytes()["total"]
        assert ratio >= 1.9

    def test_search_matches_float64_ranking(self, rng):
        X = _separable(rng)
        queries = X[:20]
        f64 = GemIndex(8)
        f64.add(_ids(len(X)), X)
        f32 = GemIndex(8, dtype="float32")
        f32.add(_ids(len(X)), X)
        a, b = f64.search(queries, 10), f32.search(queries, 10)
        assert np.array_equal(a.positions, b.positions)
        # Scores are computed in float64 regardless of the storage dtype.
        assert b.scores.dtype == np.float64
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-5)

    def test_round_trip_preserves_float32_rows_bitwise(self, rng, tmp_path):
        X = _separable(rng, n=40)
        index = GemIndex(8, dtype="float32")
        index.add(_ids(40), X)
        before = index.search(X[:8], 5)
        save_index(index, tmp_path / "f32.npz")
        loaded = load_index(tmp_path / "f32.npz")
        assert loaded.dtype == np.dtype(np.float32)
        assert loaded._rows.dtype == np.float32
        assert np.array_equal(index._rows, loaded._rows)
        after = loaded.search(X[:8], 5)
        assert np.array_equal(before.positions, after.positions)
        assert np.array_equal(before.scores, after.scores)

    def test_archive_dtype_mismatch_rejected(self, rng, tmp_path):
        # A float32 archive whose config claims float64 must refuse to
        # load instead of silently casting the rows up (or down).
        index = GemIndex(8, dtype="float32")
        index.add(_ids(10), _separable(rng, n=10))
        save_index(index, tmp_path / "f32.npz")
        _tamper_config(tmp_path / "f32.npz", tmp_path / "bad.npz", dtype="float64")
        with pytest.raises(ValueError, match="refusing to cast"):
            load_index(tmp_path / "bad.npz")

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            GemIndex(8, dtype="float16")


class TestPQBackend:
    def _trained(self, rng, n=160, d=8, **kwargs):
        kwargs.setdefault("n_lists", 4)
        kwargs.setdefault("n_probe", 4)
        kwargs.setdefault("pq_subvectors", d)
        X = _separable(rng, n=n, d=d)
        index = GemIndex(d, backend="pq", random_state=0, **kwargs)
        index.add(_ids(n), X)
        return index, X

    def test_search_auto_trains_and_finds_cluster_neighbours(self, rng):
        index, X = self._trained(rng)
        exact = GemIndex(8)
        exact.add(_ids(len(X)), X)
        assert index.needs_training
        truth = exact.search(X[:32], 10).positions
        approx = index.search(X[:32], 10).positions  # search() trains lazily
        assert not index.needs_training
        hits = sum(len(set(approx[i]) & set(truth[i])) for i in range(32))
        assert hits / truth.size >= 0.9

    def test_codes_only_mode_releases_rows(self, rng):
        index, _ = self._trained(rng)
        index.train()
        assert not index._stores_rows
        sizes = index.storage_bytes()
        assert sizes["codes"] > 0 and sizes["rows"] == 0 and sizes["unit"] == 0
        with pytest.raises(RuntimeError, match="codes"):
            index.vectors()

    def test_rerank_restores_exact_scores(self, rng):
        # Probing every list with rerank >= n makes the candidate set the
        # whole corpus, so the exact re-scoring pass must reproduce the
        # exact backend's answers.
        index, X = self._trained(rng, pq_rerank=160)
        index.train()
        assert index._stores_rows  # rows kept resident for the re-rank
        exact = GemIndex(8)
        exact.add(_ids(len(X)), X)
        a, b = exact.search(X[:32], 10), index.search(X[:32], 10)
        assert np.array_equal(a.positions, b.positions)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_add_after_training_encodes_new_rows(self, rng):
        index, X = self._trained(rng)
        index.train()
        new_vec = X[7:8] * 1.5  # same direction as a stored cluster row
        index.add(["fresh"], new_vec)
        assert len(index) == 161
        result = index.search(new_vec, 3)
        assert "fresh" in set(result.ids[0])

    def test_remove_tombstones_on_trained_pq(self, rng):
        index, X = self._trained(rng)
        index.train()
        index.remove(["c3", "c5"])
        result = index.search(X[3:4], 20)
        returned = set(result.ids.ravel())
        assert "c3" not in returned and "c5" not in returned
        index.add(["c3"], X[3:4])
        assert "c3" in set(index.search(X[3:4], 3).ids[0])

    def test_round_trip_bitwise(self, rng, tmp_path):
        index, X = self._trained(rng)
        index.train()
        before = index.search(X[:16], 5)
        save_index(index, tmp_path / "pq.npz")
        loaded = load_index(tmp_path / "pq.npz")
        assert np.array_equal(index._codes, loaded._codes)
        assert np.array_equal(index._pq.codebooks_, loaded._pq.codebooks_)
        assert loaded._pq.codebooks_.dtype == index.dtype
        after = loaded.search(X[:16], 5)
        assert np.array_equal(before.positions, after.positions)
        assert np.array_equal(before.scores, after.scores)
        assert before.ids.tolist() == after.ids.tolist()

    def test_float32_pq_round_trips_in_float32(self, rng, tmp_path):
        index, X = self._trained(rng, dtype="float32", pq_rerank=20)
        index.train()
        save_index(index, tmp_path / "pq32.npz")
        loaded = load_index(tmp_path / "pq32.npz")
        assert loaded.dtype == np.dtype(np.float32)
        assert loaded._pq.codebooks_.dtype == np.float32
        assert np.array_equal(index._rows, loaded._rows)
        a, b = index.search(X[:8], 5), loaded.search(X[:8], 5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.scores, b.scores)

    def test_codes_only_archive_refuses_rerank_config(self, rng, tmp_path):
        # A codes-only archive cannot serve a config that promises exact
        # re-ranking: the raw rows were never saved.
        index, _ = self._trained(rng)
        index.train()
        save_index(index, tmp_path / "pq.npz")
        _tamper_config(tmp_path / "pq.npz", tmp_path / "bad.npz", pq_rerank=50)
        with pytest.raises(ValueError, match="pq_rerank"):
            load_index(tmp_path / "bad.npz")

    def test_truncated_codebooks_rejected(self, rng, tmp_path):
        index, _ = self._trained(rng)
        index.train()
        save_index(index, tmp_path / "pq.npz")
        payload = dict(np.load(tmp_path / "pq.npz"))
        del payload["pq_codebooks"]
        np.savez(tmp_path / "bad.npz", **_resign(payload))
        with pytest.raises(ValueError, match="codebooks"):
            load_index(tmp_path / "bad.npz")
        # And a dtype drift between codebooks and config is refused too.
        payload = dict(np.load(tmp_path / "pq.npz"))
        payload["pq_codebooks"] = payload["pq_codebooks"].astype(np.float32)
        np.savez(tmp_path / "bad2.npz", **_resign(payload))
        with pytest.raises(ValueError, match="cast"):
            load_index(tmp_path / "bad2.npz")

    def test_dim_not_divisible_by_subvectors(self, rng):
        X = _separable(rng, n=80, d=10)
        index = GemIndex(10, backend="pq", n_lists=4, n_probe=4,
                         pq_subvectors=4, random_state=0)
        index.add(_ids(80), X)
        index.train()
        assert index._codes.shape == (80, 4)
        result = index.search(X[:4], 5)
        assert result.positions.shape == (4, 5)

    def test_snapshot_isolated_under_writes(self, rng):
        index, X = self._trained(rng)
        index.train()
        snap = index.snapshot()
        baseline = snap.search(X[:8], 5)
        index.add(["w0", "w1"], X[:2] * 2.0)
        index.remove(["c0", "c1"])
        after = snap.search(X[:8], 5)
        assert baseline.ids.tolist() == after.ids.tolist()
        assert np.array_equal(baseline.scores, after.scores)


class TestTombstoneCompaction:
    def test_remove_is_lazy_below_threshold(self, rng):
        X = rng.normal(size=(20, 4))
        index = GemIndex(4)  # compact_threshold=0.25
        index.add(_ids(20), X)
        index.remove(["c0", "c1"])  # 10% dead: tombstoned, not compacted
        assert len(index) == 18 and index._n_rows == 20
        assert index._dead is not None and index._dead.sum() == 2

    def test_autocompact_past_threshold(self, rng):
        X = rng.normal(size=(20, 4))
        index = GemIndex(4)
        index.add(_ids(20), X)
        index.remove([f"c{i}" for i in range(6)])  # 30% dead > 0.25
        assert len(index) == 14 and index._n_rows == 14
        assert index._dead is None

    def test_threshold_one_disables_autocompact(self, rng):
        X = rng.normal(size=(20, 4))
        index = GemIndex(4, compact_threshold=1.0)
        index.add(_ids(20), X)
        index.remove([f"c{i}" for i in range(19)])
        assert len(index) == 1 and index._n_rows == 20
        index.compact()
        assert index._n_rows == 1 and index.ids == ("c19",)

    def test_search_identical_before_and_after_compact(self, rng):
        X = rng.normal(size=(30, 5))
        index = GemIndex(5, compact_threshold=1.0)
        index.add(_ids(30), X)
        index.remove([f"c{i}" for i in range(0, 30, 3)])
        q = rng.normal(size=(4, 5))
        before = index.search(q, 5)
        index.compact()
        after = index.search(q, 5)
        assert before.ids.tolist() == after.ids.tolist()
        assert np.array_equal(before.scores, after.scores)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="compact_threshold"):
            GemIndex(4, compact_threshold=0.0)
        with pytest.raises(ValueError, match="compact_threshold"):
            GemIndex(4, compact_threshold=1.5)


class TestTrainedPartitionPersistence:
    def test_ivf_state_restores_bit_identical(self, rng, tmp_path):
        X = _separable(rng, n=60)
        index = GemIndex(8, backend="ivf", n_lists=4, n_probe=2, random_state=0)
        index.add(_ids(60), X)
        index.train()
        save_index(index, tmp_path / "ivf.npz")
        loaded = load_index(tmp_path / "ivf.npz")
        assert np.array_equal(index._partition.centroids_, loaded._partition.centroids_)
        assert index._partition.centroids_.dtype == loaded._partition.centroids_.dtype
        assert np.array_equal(
            index._partition.assignments_, loaded._partition.assignments_
        )

    def test_pq_coarse_state_restores_bit_identical(self, rng, tmp_path):
        X = _separable(rng, n=60)
        index = GemIndex(8, backend="pq", n_lists=4, n_probe=2,
                         pq_subvectors=8, random_state=0)
        index.add(_ids(60), X)
        index.train()
        save_index(index, tmp_path / "pq.npz")
        loaded = load_index(tmp_path / "pq.npz")
        assert np.array_equal(index._partition.centroids_, loaded._partition.centroids_)
        assert np.array_equal(
            index._partition.assignments_, loaded._partition.assignments_
        )


class TestCowStormOnTrainedPartition:
    @pytest.mark.parametrize("backend", ["ivf", "pq"])
    def test_snapshot_torn_read_free_under_evict_reingest_storm(self, rng, backend):
        # The serving failure this guards: a snapshot published from a
        # *trained* partition keeps serving while the writer churns through
        # evictions, re-ingests, compactions and retrains. Any in-place
        # write into storage the fork shares would show up here as a
        # drifting score or id. The pq variant keeps rows resident
        # (pq_rerank > 0): retraining a codes-only index is refused by
        # design, and the storm includes retrains.
        X = _separable(rng, n=80)
        index = GemIndex(8, backend=backend, n_lists=4, n_probe=4,
                         pq_subvectors=8, pq_rerank=16, random_state=0)
        index.add(_ids(80), X)
        index.train()
        snap = index.snapshot()
        queries = X[:10]
        baseline = snap.search(queries, 5)
        live = list(_ids(80))
        fresh_rows = iter(rng.normal(size=(200, 8)) * 4.0)
        for step in range(12):
            evicted = live[:5]
            del live[:5]
            index.remove(evicted)
            new_ids = [f"s{step}:{j}" for j in range(5)]
            index.add(new_ids, np.stack([next(fresh_rows) for _ in range(5)]))
            live.extend(new_ids)
            if step % 4 == 3:
                index.compact()
            if step % 6 == 5:
                index.train()
            result = snap.search(queries, 5)
            assert baseline.ids.tolist() == result.ids.tolist(), f"step {step}"
            assert np.array_equal(baseline.scores, result.scores), f"step {step}"
        # A snapshot taken mid-storm freezes at *its* corpus too.
        mid = index.snapshot()
        mid_baseline = mid.search(queries, 5)
        index.remove(live[:10])
        index.add(["tail"], np.stack([next(fresh_rows)]))
        final = mid.search(queries, 5)
        assert mid_baseline.ids.tolist() == final.ids.tolist()
        assert np.array_equal(mid_baseline.scores, final.scores)


class TestEmbedderIntegration:
    @pytest.fixture(scope="class")
    def fitted(self):
        corpus = make_gds(scale="small")
        gem = GemEmbedder(**FAST)
        emb = gem.fit_transform(corpus)
        return corpus, gem, emb

    def test_build_index_stores_all_columns(self, fitted):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        assert len(index) == len(corpus)
        assert index.model_fingerprint == gem_fingerprint(gem)
        assert list(index.ids) == corpus_column_ids(corpus)

    def test_search_corpus_excludes_self(self, fitted):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        result = index.search_corpus(corpus, 5)
        own = corpus_column_ids(corpus)
        for i in range(len(corpus)):
            assert own[i] not in set(result.ids[i])

    def test_search_corpus_on_other_corpus_ignores_id_collisions(self, fitted):
        # Regression: querying a *different* corpus used to exclude by
        # positional id alone, so a query corpus whose column 0 shares the
        # stored column 0's header masked that unrelated stored row out of
        # the results (and every query lost its k-th neighbour to the
        # unconditional k cap).
        from repro.data import ColumnCorpus, NumericColumn

        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        # Same positional id "0:<header>" as the stored column 0, but cell
        # values stored under no column — a collision, not the same column.
        other = ColumnCorpus(
            [NumericColumn(corpus[0].name, corpus[10].values * 1.7 + 0.3)],
            name="other",
        )
        excluded = index.search_corpus(other, len(corpus))
        included = index.search(gem.transform(other), len(corpus))
        assert excluded.k == len(corpus)
        assert np.array_equal(excluded.positions, included.positions)
        # A cross-corpus query whose cell values coincide with a stored
        # column (the repeated reference-column case) is NOT "itself" —
        # there is no diagonal to exclude — so its content twin must come
        # back as the legitimate perfect-score top hit, exactly as a
        # duplicate would within the corpus.
        twin = ColumnCorpus([NumericColumn("renamed", corpus[10].values)], name="twin")
        twin_hits = index.search_corpus(twin, len(corpus))
        assert twin_hits.k == len(corpus)
        assert twin_hits.ids[0, 0] == corpus_column_ids(corpus)[10]
        assert twin_hits.scores[0, 0] == pytest.approx(1.0)
        # Querying the indexed corpus itself still excludes every own row.
        self_hits = index.search_corpus(corpus, 5)
        own = corpus_column_ids(corpus)
        assert all(own[i] not in set(self_hits.ids[i]) for i in range(len(corpus)))

    def test_search_corpus_excludes_self_under_custom_ids(self, fitted):
        # Regression: exclusion used to key only on the default positional
        # ids, so an index built with custom ids silently stopped excluding
        # and every column retrieved itself as top hit.
        corpus, gem, emb = fitted
        custom = [f"lake://table-{i}/col" for i in range(len(corpus))]
        index = gem.build_index(corpus, ids=custom)
        result = index.search_corpus(corpus, 5)
        assert all(custom[i] not in set(result.ids[i]) for i in range(len(corpus)))
        # And it matches the dense protocol exactly, like the default-ids path.
        dense_top, _ = _dense_reference(emb, 5)
        assert np.array_equal(result.positions, dense_top)

    def test_search_corpus_duplicate_columns_keep_each_other(self):
        # Exact-duplicate columns must exclude only *themselves*, keeping
        # their duplicates as legitimate perfect-score neighbours — the
        # dense path's diagonal semantics — even under custom ids.
        from repro.data import ColumnCorpus, NumericColumn

        values = np.array([1.0, 2.0, 5.0, 9.0])
        corpus = ColumnCorpus(
            [
                NumericColumn("a", values),
                NumericColumn("b", values),
                NumericColumn("c", values * 40 + 3),
            ],
            name="dups",
        )
        gem = GemEmbedder(n_components=3, n_init=1, max_iter=40, random_state=0)
        gem.fit(corpus)
        index = gem.build_index(corpus, ids=["u1", "u2", "u3"])
        result = index.search_corpus(corpus, 2)
        assert result.ids[0, 0] == "u2" and "u1" not in set(result.ids[0])
        assert result.ids[1, 0] == "u1" and "u2" not in set(result.ids[1])

    def test_positional_coincidence_in_different_corpus_not_excluded(self, fitted):
        # Regression: two different tables often carry an id-like 1..n
        # column at position 0. Under custom ids the positional rule used
        # to treat the query's column 0 as "self" of the stored column 0
        # (same position, same content) and silently drop the 1.0 hit.
        # Identity now requires the whole corpus to match, so the twin
        # comes back.
        from repro.data import ColumnCorpus, NumericColumn

        corpus, gem, emb = fitted
        custom = [f"t/{i}" for i in range(len(corpus))]
        index = gem.build_index(corpus, ids=custom)
        other = ColumnCorpus(
            [
                NumericColumn("order_id", corpus[0].values),  # coincides with stored pos 0
                NumericColumn("amount", corpus[4].values * 3 + 1),
            ],
            name="other-table",
        )
        hits = index.search_corpus(other, 3)
        assert hits.ids[0, 0] == custom[0]
        assert hits.scores[0, 0] == pytest.approx(1.0)

    def test_search_corpus_matches_dense_protocol(self, fitted):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        dense_top, _ = _dense_reference(emb, 5)
        result = index.search_corpus(corpus, 5)
        assert np.array_equal(result.positions, dense_top)

    @pytest.mark.parametrize(
        "index_kwargs",
        [
            dict(backend="exact"),
            dict(backend="exact", dtype="float32"),
            dict(backend="ivf", n_lists=4, n_probe=4),
            dict(backend="pq", n_lists=2, pq_subvectors=4, pq_codes=16, pq_rerank=20),
        ],
        ids=["exact-float64", "exact-float32", "ivf-full-probe", "pq-rerank"],
    )
    def test_search_corpus_excludes_self_on_every_backend(self, fitted, index_kwargs):
        # The indexed corpus is recognised by its rows, cast to the storage
        # dtype: every backend that keeps its rows excludes self, and
        # ranks exactly as a stored-id exclusion over the fresh rows.
        corpus, gem, emb = fitted
        index = gem.build_index(corpus, **index_kwargs)
        own = corpus_column_ids(corpus)
        hits = index.search_corpus(corpus, 5)
        assert all(own[i] not in set(hits.ids[i]) for i in range(len(corpus)))
        direct = index.search(emb, 5, exclude_ids=own)
        assert np.array_equal(hits.positions, direct.positions)
        assert np.array_equal(hits.scores, direct.scores)
        # After removing 3 columns, what remains is the indexed corpus.
        gone = (2, 17, 40)
        index.remove([own[i] for i in gone])
        keep = [i for i in range(len(corpus)) if i not in gone]
        hits = index.search_corpus(corpus.take(keep), 5)
        kept_ids = [own[i] for i in keep]
        assert all(kept_ids[j] not in set(hits.ids[j]) for j in range(len(keep)))
        assert not set(hits.ids.ravel()) & {own[i] for i in gone}
        direct = index.search(emb[keep], 5, exclude_ids=kept_ids)
        assert np.array_equal(hits.positions, direct.positions)
        assert np.array_equal(hits.scores, direct.scores)

    def test_search_corpus_on_codes_only_pq_cannot_recognise_itself(self, fitted):
        # A trained pq index with pq_rerank=0 has released its rows, so it
        # cannot tell whether a same-sized corpus is the indexed one.
        corpus, gem, emb = fitted
        index = gem.build_index(
            corpus, backend="pq", n_lists=2, pq_subvectors=4, pq_codes=16
        ).train()
        with pytest.raises(RuntimeError, match="pq_rerank=0"):
            index.search_corpus(corpus, 5)
        other = make_gds(scale="small", random_state=5).take(list(range(5)))
        assert index.search_corpus(other, 3).positions.shape == (5, 3)
        loose = index.search_corpus(corpus, 5, exclude_self=False)
        expected = index.search(emb, 5)
        assert np.array_equal(loose.positions, expected.positions)
        assert np.array_equal(loose.scores, expected.scores)

    def test_search_corpus_on_fresh_codes_only_pq_answers_alike(self, fitted):
        # A fresh pq index trains on its first search, and training a
        # pq_rerank=0 index releases its rows. search_corpus trains before
        # comparing rows, so two identical calls give the same answer.
        corpus, gem, emb = fitted
        index = gem.build_index(
            corpus, backend="pq", n_lists=2, pq_subvectors=4, pq_codes=16, pq_rerank=0
        )
        assert index.needs_training
        for _ in range(2):
            with pytest.raises(RuntimeError, match="pq_rerank=0"):
                index.search_corpus(corpus, 5)

    def test_archive_with_value_hashes_from_older_versions_loads(self, fitted, tmp_path):
        # Older versions stored a content hash per row in the index
        # archive. Such an archive still loads without a warning, and the
        # indexed corpus is still recognised by its rows.
        import warnings

        from repro.core.cache import array_fingerprint
        from repro.core.persistence import atomic_savez, read_archive

        corpus, gem, emb = fitted
        path = tmp_path / "old.npz"
        save_index(gem.build_index(corpus), path)
        payload = read_archive(path)
        own = corpus_column_ids(corpus)
        fps = dict(zip(own, (array_fingerprint(c.values) for c in corpus)))
        payload["value_fp_ids"] = np.array(sorted(fps), dtype=np.str_)
        payload["value_fp_hashes"] = np.array([fps[c] for c in sorted(fps)], dtype=np.str_)
        atomic_savez(path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_index(path).attach(gem)
            hits = loaded.search_corpus(corpus, 5)
        assert all(own[i] not in set(hits.ids[i]) for i in range(len(corpus)))
        dense_top, _ = _dense_reference(emb, 5)
        assert np.array_equal(hits.positions, dense_top)

    def test_stale_index_refuses_refit_model(self, fitted):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        refit = GemEmbedder(**FAST).fit(
            make_gds(scale="small", random_state=123)
        )
        with pytest.raises(StaleIndexError, match="stale"):
            index.attach(refit)

    def test_loaded_index_attach_enforces_fingerprint(self, fitted, tmp_path):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus)
        save_index(index, tmp_path / "i.npz")
        loaded = load_index(tmp_path / "i.npz")
        with pytest.raises(RuntimeError, match="no embedder attached"):
            loaded.search_corpus(corpus, 3)
        loaded.attach(gem)
        a = loaded.search_corpus(corpus, 3)
        b = index.search_corpus(corpus, 3)
        assert np.array_equal(a.positions, b.positions)

    def test_build_index_overrides(self, fitted):
        corpus, gem, emb = fitted
        index = gem.build_index(corpus, backend="ivf", n_lists=5, n_probe=5)
        assert index.backend == "ivf"
        dense_top, _ = _dense_reference(emb, 4)
        result = index.search(emb, 4, exclude_ids=list(index.ids))
        assert np.array_equal(result.positions, dense_top)

    def test_build_index_passes_index_arguments_through(self, fitted):
        corpus, _, _ = fitted
        gem = GemEmbedder(**{**FAST, "random_state": 5}).fit(corpus)
        index = gem.build_index(corpus, backend="ivf", n_probe=3)
        assert (index.backend, index.n_probe) == ("ivf", 3)
        # The quantizer is seeded from the config's random_state (5), not
        # from GemIndex's default seed (0).
        emb = gem.transform(corpus)
        top = index.search(emb, 5).positions
        for seed, same in ((5, True), (0, False)):
            ref = GemIndex(emb.shape[1], backend="ivf", n_probe=3, random_state=seed)
            ref.add(list(index.ids), emb)
            assert np.array_equal(ref.search(emb, 5).positions, top) is same

    def test_unfitted_embedder_rejected(self):
        gem = GemEmbedder(**FAST)
        with pytest.raises(RuntimeError, match="not fitted"):
            gem.build_index(make_gds(scale="small"))

    def test_corpus_dependent_transform_refuses_cross_corpus_queries(self):
        # per_column mode fits its distributional block at transform time,
        # so the corpus-level balance statistics cannot be frozen at fit —
        # rows from another corpus (or a subset, or another call) live in
        # a different space and must not be ranked against the stored ones.
        corpus = make_gds(scale="small").take(list(range(30)))
        gem = GemEmbedder(fit_mode="per_column", **FAST)
        assert gem.transform_is_corpus_dependent
        gem.fit(corpus)
        index = gem.build_index(corpus)
        other = make_gds(scale="small", random_state=5).take(list(range(5)))
        for query in (other, corpus.take(list(range(5))), corpus):
            with pytest.raises(ValueError, match="corpus-dependent"):
                index.search_corpus(query, 3)
        # The stored rows themselves are one space: ranking them against
        # each other is the way to query the indexed corpus.
        own = index.search(index.vectors(), 3, exclude_ids=list(index.ids))
        assert own.positions.shape == (30, 3)
        assert all(index.ids[i] not in set(own.ids[i]) for i in range(30))

    def test_per_column_generator_seed_is_corpus_dependent_even_single_block(self):
        # Regression: per_column with only the D block has no balance step,
        # but a stateful Generator seed draws fresh per-column seeds each
        # transform call — rows from separate calls are not comparable, so
        # cross-corpus (and cross-call) serving must be refused.
        cfg = dict(
            n_components=4,
            n_init=1,
            max_iter=40,
            use_statistical=False,
            fit_mode="per_column",
        )
        gen_seeded = GemEmbedder(random_state=np.random.default_rng(0), **cfg)
        assert gen_seeded.transform_is_corpus_dependent
        int_seeded = GemEmbedder(random_state=0, **cfg)
        assert not int_seeded.transform_is_corpus_dependent

    def test_autoencoder_composition_refuses_cross_corpus_queries(self):
        corpus = make_gds(scale="small").take(list(range(20)))
        gem = GemEmbedder(composition="autoencoder", ae_epochs=5, **FAST)
        assert gem.transform_is_corpus_dependent
        gem.fit(corpus)
        index = gem.build_index(corpus)
        with pytest.raises(ValueError, match="corpus-dependent"):
            index.search_corpus(corpus.take(list(range(4))), 3)

    def test_corpus_independent_transform_serves_cross_corpus(self, fitted):
        corpus, gem, emb = fitted
        assert not gem.transform_is_corpus_dependent  # frozen balance state
        index = gem.build_index(corpus)
        other = make_gds(scale="small", random_state=5).take(list(range(5)))
        hits = index.search_corpus(other, 3)
        assert hits.positions.shape == (5, 3)

    @pytest.mark.parametrize("member", ["signature_balance", "block_norms"])
    def test_archive_missing_balance_refused(self, fitted, tmp_path, member):
        # Without a frozen balance statistic its config needs, a stacked
        # model would balance each transformed corpus on its own, and rows
        # embedded from different corpora could not be compared. load_gem
        # refuses such an archive instead of serving mixed spaces.
        from repro.core import load_gem, save_gem

        corpus, gem, emb = fitted
        dsc = GemEmbedder(use_contextual=True, **FAST).fit(corpus)
        path = tmp_path / "gem.npz"
        save_gem(dsc, path)
        with np.load(path) as archive:
            payload = dict(archive)
        del payload[member]
        np.savez(path, **_resign(payload))
        with pytest.raises(ValueError, match=member) as excinfo:
            load_gem(path)
        assert str(path) in str(excinfo.value)

    def test_stacked_transform_is_subset_invariant(self, fitted):
        # The point of freezing the balance statistics at fit: embedding a
        # column yields the same row whatever corpus it arrives in, so
        # cross-corpus index queries are meaningful. Checked bitwise for
        # the default D+S config and the full DSC config.
        corpus, gem, emb = fitted
        sub = corpus.take(list(range(7, 19)))
        assert np.array_equal(gem.transform(sub), emb[7:19])
        dsc = GemEmbedder(use_contextual=True, **FAST).fit(corpus)
        full = dsc.transform(corpus)
        assert not dsc.transform_is_corpus_dependent
        assert np.array_equal(dsc.transform(sub), full[7:19])


class TestIndexBackedPrecision:
    @pytest.fixture(scope="class")
    def fitted(self):
        corpus = make_gds(scale="small")
        gem = GemEmbedder(**FAST)
        emb = gem.fit_transform(corpus)
        return corpus, gem, emb

    def test_exact_index_reproduces_dense_scores(self, fitted):
        corpus, gem, emb = fitted
        labels = corpus.labels("fine")
        dense = precision_recall_at_k(emb, labels)
        viaidx = precision_recall_at_k(emb, labels, index=gem.build_index(corpus))
        assert dense.macro_precision == viaidx.macro_precision
        assert dense.macro_recall == viaidx.macro_recall
        assert np.array_equal(dense.per_column_precision, viaidx.per_column_precision)

    def test_mismatched_index_rejected(self, fitted, rng):
        corpus, gem, emb = fitted
        labels = corpus.labels("fine")
        wrong = GemIndex(emb.shape[1])
        wrong.add(_ids(len(emb)), rng.normal(size=emb.shape))
        with pytest.raises(ValueError, match="do not match"):
            precision_recall_at_k(emb, labels, index=wrong)
        short = GemIndex(emb.shape[1])
        short.add(_ids(5), emb[:5])
        with pytest.raises(ValueError, match="stores 5 rows"):
            precision_recall_at_k(emb, labels, index=short)

    def test_tombstoned_index_matches_dense_scores(self, rng):
        # Rows removed ahead of the live ones stay in storage until
        # compaction, so search positions run past the live row numbers.
        X = rng.normal(size=(14, 6))
        index = GemIndex(6, compact_threshold=1.0)
        index.add(_ids(14), X)
        index.remove(["c0", "c1"])
        rows = index.vectors()
        labels = ["a", "b", "c"] * 4
        dense = precision_recall_at_k(rows, labels)
        viaidx = precision_recall_at_k(rows, labels, index=index)
        assert np.array_equal(dense.per_column_precision, viaidx.per_column_precision)
        assert dense.macro_precision == viaidx.macro_precision

    def test_index_and_similarity_mutually_exclusive(self, fitted):
        corpus, gem, emb = fitted
        labels = corpus.labels("fine")
        index = gem.build_index(corpus)
        sim = cosine_similarity_matrix(emb)
        with pytest.raises(ValueError, match="not both"):
            precision_recall_at_k(emb, labels, similarity=sim, index=index)


class TestGemFingerprint:
    def test_same_model_same_fingerprint(self, tiny_corpus):
        gem = GemEmbedder(**FAST).fit(tiny_corpus)
        assert gem_fingerprint(gem) == gem_fingerprint(gem)

    def test_refit_changes_fingerprint(self, tiny_corpus, ambiguous_corpus):
        gem = GemEmbedder(**FAST).fit(tiny_corpus)
        before = gem_fingerprint(gem)
        gem.fit(ambiguous_corpus)
        assert gem_fingerprint(gem) != before

    def test_save_load_preserves_fingerprint(self, tiny_corpus, tmp_path):
        from repro.core import load_gem, save_gem

        gem = GemEmbedder(**FAST).fit(tiny_corpus)
        save_gem(gem, tmp_path / "gem.npz")
        assert gem_fingerprint(load_gem(tmp_path / "gem.npz")) == gem_fingerprint(gem)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            gem_fingerprint(GemEmbedder(**FAST))

    def test_generator_seeded_stacked_model_round_trips_to_index(self, tiny_corpus, tmp_path):
        # Regression: save_gem drops an unserialisable Generator seed, so
        # the reloaded stacked model (whose transform is unaffected by the
        # seed) must still match the index persisted from the original —
        # hashing random_state unconditionally made attach spuriously
        # refuse it.
        from repro.core import load_gem, save_gem

        gem = GemEmbedder(
            n_components=4,
            n_init=1,
            max_iter=40,
            random_state=np.random.default_rng(7),
        ).fit(tiny_corpus)
        index = gem.build_index(tiny_corpus)
        with pytest.warns(RuntimeWarning, match="cannot be persisted"):
            save_gem(gem, tmp_path / "gem.npz")
        save_index(index, tmp_path / "idx.npz")
        restored = load_gem(tmp_path / "gem.npz")
        served = load_index(tmp_path / "idx.npz").attach(restored)
        hits = served.search_corpus(tiny_corpus, 3)
        assert np.array_equal(hits.positions, index.search_corpus(tiny_corpus, 3).positions)

    def test_corpus_dependent_same_corpus_query_skips_retransform(self, tiny_corpus):
        # A corpus-dependent embedder is refused before the (potentially
        # expensive, stochastic) fresh transform runs.
        gem = GemEmbedder(
            n_components=4, n_init=1, max_iter=40, fit_mode="per_column"
        ).fit(tiny_corpus)
        index = gem.build_index(tiny_corpus)

        def boom(corpus):
            raise AssertionError("transform must not be called")

        gem.transform = boom
        with pytest.raises(ValueError, match="corpus-dependent"):
            index.search_corpus(tiny_corpus, 3)

    def test_generator_seeds_fingerprint_stably(self, tiny_corpus):
        # Regression: repr(np.random.Generator) embeds the object's memory
        # address, so two identically constructed embedders fingerprinted
        # differently and a persisted index spuriously refused a perfectly
        # fresh model.
        a = GemEmbedder(
            n_components=4,
            n_init=1,
            max_iter=40,
            random_state=np.random.default_rng(0),
        ).fit(tiny_corpus)
        b = GemEmbedder(
            n_components=4,
            n_init=1,
            max_iter=40,
            random_state=np.random.default_rng(0),
        ).fit(tiny_corpus)
        assert gem_fingerprint(a) == gem_fingerprint(b)

    def test_per_column_fit_knobs_change_fingerprint(self, tiny_corpus):
        # Regression: per_column mode fits its GMMs at *transform* time, so
        # EM knobs like gmm_init define the embedding space there — two
        # embedders differing only in gmm_init must not share a fingerprint
        # (the staleness guard would accept a model from a different space).
        a = GemEmbedder(fit_mode="per_column", gmm_init="quantile", **FAST)
        b = GemEmbedder(fit_mode="per_column", gmm_init="kmeans", **FAST)
        a.fit(tiny_corpus)
        b.fit(tiny_corpus)
        assert gem_fingerprint(a) != gem_fingerprint(b)
        # In stacked mode the knob's effect is frozen into the hashed gmm_
        # arrays; identical fitted parameters mean an identical space.
        s1 = GemEmbedder(gmm_init="quantile", **FAST).fit(tiny_corpus)
        s2 = GemEmbedder(gmm_init="kmeans", **FAST).fit(tiny_corpus)
        s2.gmm_ = s1.gmm_  # same frozen state -> same embedding space
        s2._feature_mean, s2._feature_std = s1._feature_mean, s1._feature_std
        s2._signature_balance = s1._signature_balance
        s2._block_norms = s1._block_norms
        assert gem_fingerprint(s1) == gem_fingerprint(s2)
