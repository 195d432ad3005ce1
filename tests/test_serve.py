"""Tests for the online serving layer (repro.serve).

The load-bearing guarantees: micro-batched results are bit-identical to
solo calls through the same fitted model; concurrent readers racing an
ingest/evict storm observe either the pre- or post-batch corpus, never a
half-applied write; warm starts from archives are fingerprint-checked.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import GemEmbedder, save_gem
from repro.data import ColumnCorpus, NumericColumn, make_gds
from repro.index import StaleIndexError, save_index
from repro.serve import (
    BatcherClosedError,
    Deadline,
    GemService,
    MicroBatcher,
    ServiceMetrics,
)

FAST = dict(n_components=5, n_init=1, max_iter=50, random_state=0)


@pytest.fixture(scope="module")
def corpus():
    return make_gds()


@pytest.fixture(scope="module")
def fitted(corpus):
    return GemEmbedder(**FAST).fit(corpus)


def _columns(seed, n, size=40):
    rng = np.random.default_rng(seed)
    return [
        NumericColumn(
            f"col{seed}:{i}",
            rng.normal(rng.uniform(-5, 55), rng.uniform(0.5, 4), size),
        )
        for i in range(n)
    ]


def _service(fitted, corpus, **kwargs):
    kwargs.setdefault("batch_window_ms", 5)
    kwargs.setdefault("max_batch", 16)
    return GemService(fitted, fitted.build_index(corpus), **kwargs)


def _deadline():
    """A budget no test in this module comes near (submissions need one)."""
    return Deadline.after_ms(60_000)


class TestMicroBatcher:
    def test_single_request_runs_alone(self):
        with MicroBatcher(lambda ps: [p * 2 for p in ps], window_ms=1, max_batch=8) as mb:
            ticket = mb.submit(21, _deadline())
            assert ticket.result(timeout=5) == 42
            assert ticket.batch_size == 1

    def test_concurrent_requests_coalesce(self):
        batches = []

        def fn(ps):
            batches.append(len(ps))
            time.sleep(0.005)  # force pile-up of the other submitters
            return ps

        with MicroBatcher(fn, window_ms=50, max_batch=32) as mb:
            results = [None] * 16

            def client(i):
                results[i] = mb.submit(i, _deadline()).result(timeout=10)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == list(range(16))
        assert sum(batches) == 16
        assert max(batches) > 1  # at least one batch actually coalesced

    def test_max_batch_respected(self):
        sizes = []

        def fn(ps):
            sizes.append(len(ps))
            time.sleep(0.002)
            return ps

        with MicroBatcher(fn, window_ms=50, max_batch=3) as mb:
            threads = [
                threading.Thread(target=lambda i=i: mb.submit(i, _deadline()).result(timeout=10))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(sizes) == 12
        assert max(sizes) <= 3

    def test_per_item_exception_isolated(self):
        def fn(ps):
            return [ValueError("bad") if p == "bad" else p for p in ps]

        with MicroBatcher(fn, window_ms=1, max_batch=8) as mb:
            good = mb.submit("ok", _deadline())
            bad = mb.submit("bad", _deadline())
            assert good.result(timeout=5) == "ok"
            with pytest.raises(ValueError, match="bad"):
                bad.result(timeout=5)

    def test_batch_fn_exception_fails_all(self):
        def fn(ps):
            raise RuntimeError("boom")

        with MicroBatcher(fn, window_ms=1, max_batch=8) as mb:
            with pytest.raises(RuntimeError, match="boom"):
                mb.submit(1, _deadline()).result(timeout=5)

    def test_wrong_result_count_is_an_error(self):
        with MicroBatcher(lambda ps: [1, 2, 3], window_ms=1, max_batch=8) as mb:
            with pytest.raises(RuntimeError, match="returned 3 results"):
                mb.submit("x", _deadline()).result(timeout=5)

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(lambda ps: ps, window_ms=1, max_batch=8)
        mb.close()
        with pytest.raises(BatcherClosedError):
            mb.submit(1, _deadline())

    def test_invalid_parameters(self):
        for kwargs in (
            dict(window_ms=-1, max_batch=8),
            dict(window_ms=1, max_batch=0),
            dict(window_ms=1, max_batch=8, max_workers=0),
        ):
            with pytest.raises(ValueError):
                MicroBatcher(lambda ps: ps, **kwargs)

    def test_writes_execute_in_formation_order_with_one_worker(self):
        log = []

        def fn(ps):
            time.sleep(0.001)
            log.extend(ps)
            return ps

        with MicroBatcher(fn, window_ms=10, max_batch=4, max_workers=1) as mb:
            threads = [
                threading.Thread(target=lambda i=i: mb.submit(i, _deadline()).result(timeout=10))
                for i in range(10)
            ]
            for t in threads:
                t.start()
                time.sleep(0.0015)  # sequential-ish arrival
            for t in threads:
                t.join()
        # Arrival order within the log is preserved batch by batch.
        assert sorted(log) == list(range(10))


class TestServiceReads:
    def test_embed_matches_direct_transform_bitwise(self, fitted, corpus):
        cols = _columns(1, 6)
        with _service(fitted, corpus) as svc:
            rows = svc.embed(cols)
        direct = fitted.transform(ColumnCorpus(cols))
        assert np.array_equal(rows, direct)

    def test_search_matches_direct_index_search_bitwise(self, fitted, corpus):
        cols = _columns(2, 4)
        index = fitted.build_index(corpus)
        direct_rows = fitted.transform(ColumnCorpus(cols))
        direct = index.search(direct_rows, 3)
        with GemService(fitted, index, batch_window_ms=5, max_batch=16) as svc:
            found = svc.search(cols, 3)
        assert np.array_equal(found.ids, direct.ids)
        assert np.array_equal(found.positions, direct.positions)
        assert np.array_equal(found.scores, direct.scores)

    def test_concurrent_mixed_requests_bit_identical_to_sequential(self, fitted, corpus):
        cols = _columns(3, 24)
        index = fitted.build_index(corpus)
        solo_rows = [fitted.transform(ColumnCorpus([c])) for c in cols]
        solo_hits = [index.search(r, 4) for r in solo_rows]
        with GemService(fitted, index, batch_window_ms=20, max_batch=8) as svc:
            embeds = [None] * len(cols)
            hits = [None] * len(cols)

            def client(i):
                embeds[i] = svc.embed([cols[i]])
                hits[i] = svc.search([cols[i]], 4)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(cols))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.metrics.snapshot()
        for i in range(len(cols)):
            assert np.array_equal(embeds[i][0], solo_rows[i][0]), i
            assert np.array_equal(hits[i].positions, solo_hits[i].positions), i
            assert np.array_equal(hits[i].scores, solo_hits[i].scores), i
        assert stats["requests"] == 2 * len(cols)

    def test_corpus_input_accepted(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            rows = svc.embed(corpus)
        assert rows.shape == (len(corpus), fitted.embedding_dim)

    def test_empty_and_invalid_inputs(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            assert svc.embed([]).shape == (0, fitted.embedding_dim)
            assert svc.search([], 3).positions.shape == (0, 0)
            with pytest.raises(ValueError, match="k must be"):
                svc.search(_columns(4, 1), 0)
            with pytest.raises(TypeError, match="NumericColumn"):
                svc.embed([np.arange(5.0)])
            # Zero-length columns cannot even be constructed, so they can
            # never poison a co-batched transform pass.
            with pytest.raises(ValueError):
                NumericColumn("empty", np.array([]))


class TestServiceWrites:
    def test_ingest_visible_on_return(self, fitted, corpus):
        new = _columns(5, 2)
        with _service(fitted, corpus) as svc:
            n0 = len(svc)
            svc.ingest(["n:0", "n:1"], new)
            assert len(svc) == n0 + 2
            found = svc.search([new[0]], 1)
            assert found.ids[0, 0] == "n:0"
            assert found.scores[0, 0] == pytest.approx(1.0)

    def test_evict_visible_on_return(self, fitted, corpus):
        new = _columns(6, 1)
        with _service(fitted, corpus) as svc:
            svc.ingest(["gone"], new)
            svc.evict(["gone"])
            found = svc.search([new[0]], 5)
            assert "gone" not in set(found.ids.ravel())

    def test_evict_then_ingest_same_id_resurrects_in_one_batch(self, fitted, corpus):
        first = _columns(7, 1)
        second = _columns(8, 1)
        # A wide window coaxes the evict and the re-ingest into one write
        # batch; arrival-order application must resurrect, not raise.
        with _service(fitted, corpus, batch_window_ms=60) as svc:
            svc.ingest(["resur"], first)
            errors = []

            def evict():
                try:
                    svc.evict(["resur"])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def ingest():
                try:
                    time.sleep(0.002)
                    svc.ingest(["resur"], second)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            t1, t2 = threading.Thread(target=evict), threading.Thread(target=ingest)
            t1.start()
            t2.start()
            t1.join()
            t2.join()
            assert not errors
            found = svc.search([second[0]], 1)
            assert found.ids[0, 0] == "resur"
            assert found.scores[0, 0] == pytest.approx(1.0)

    def test_failed_op_does_not_poison_the_batch(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            svc.ingest(["dup"], _columns(9, 1))
            with pytest.raises(ValueError, match="already stored"):
                svc.ingest(["dup"], _columns(10, 1))
            with pytest.raises(KeyError):
                svc.evict(["never-stored"])
            # The service still works after per-op failures.
            svc.ingest(["ok"], _columns(11, 1))
            assert "ok" in svc.snapshot().ids

    def test_ingest_validation(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            with pytest.raises(ValueError, match="2 ids for 1 columns"):
                svc.ingest(["a", "b"], _columns(12, 1))
            svc.ingest([], [])  # no-op
            svc.evict([])  # no-op


class TestSnapshotConsistency:
    def test_readers_never_see_a_torn_write_batch(self, fitted, corpus):
        # Groups of near-identical columns ingested/evicted as one op; a
        # query for the group base must see all members or none.
        rng = np.random.default_rng(0)
        group_size = 3
        bases = [
            NumericColumn(f"base{g}", rng.normal(500.0 * (g + 1), 1.0, 60))
            for g in range(2)
        ]
        groups = [
            [
                NumericColumn(f"g{g}:{j}", bases[g].values + rng.normal(0, 1e-3, 60))
                for j in range(group_size)
            ]
            for g in range(2)
        ]
        ids = [[c.name for c in group] for group in groups]
        with _service(fitted, corpus, batch_window_ms=2) as svc:
            for g in range(2):
                svc.ingest(ids[g], groups[g])
            for g in range(2):
                found = svc.search([bases[g]], group_size)
                assert set(found.ids[0]) == set(ids[g])
            torn = []

            def searcher(seed):
                local = np.random.default_rng(seed)
                for _ in range(30):
                    g = int(local.integers(0, 2))
                    found = svc.search([bases[g]], group_size)
                    members = sum(1 for cid in found.ids[0] if cid in set(ids[g]))
                    if members not in (0, group_size):
                        torn.append((g, members))

            def writer():
                for cycle in range(15):
                    g = cycle % 2
                    svc.evict(ids[g])
                    svc.ingest(ids[g], groups[g])

            threads = [threading.Thread(target=searcher, args=(s,)) for s in range(3)]
            storm = threading.Thread(target=writer)
            for t in threads:
                t.start()
            storm.start()
            storm.join()
            for t in threads:
                t.join()
        assert not torn, torn

    def test_snapshot_method_is_stable_across_writes(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            before = svc.snapshot()
            n0 = len(before)
            svc.ingest(["later"], _columns(13, 1))
            assert len(before) == n0
            assert len(svc.snapshot()) == n0 + 1


class TestWarmStart:
    def test_from_archives_round_trip(self, fitted, corpus, tmp_path):
        index = fitted.build_index(corpus)
        save_gem(fitted, tmp_path / "gem.npz")
        save_index(index, tmp_path / "lake.npz")
        svc = GemService.from_archives(tmp_path / "gem.npz", tmp_path / "lake.npz")
        try:
            cols = _columns(14, 2)
            direct = index.search(fitted.transform(ColumnCorpus(cols)), 2)
            found = svc.search(cols, 2)
            # Same ids/scores up to the reloaded model's float round trip
            # (the archive restores arrays exactly, so bitwise here too).
            assert np.array_equal(found.ids, direct.ids)
            assert np.array_equal(found.scores, direct.scores)
        finally:
            svc.close()

    def test_from_archives_without_index_starts_empty(self, fitted, tmp_path):
        save_gem(fitted, tmp_path / "gem.npz")
        svc = GemService.from_archives(tmp_path / "gem.npz")
        try:
            assert len(svc) == 0
            found = svc.search(_columns(15, 1), 3)
            assert found.positions.shape == (1, 0)
        finally:
            svc.close()

    def test_stale_index_refused_at_startup(self, fitted, corpus, tmp_path):
        index = fitted.build_index(corpus)
        save_index(index, tmp_path / "lake.npz")
        refit = GemEmbedder(n_components=4, n_init=1, max_iter=50, random_state=1)
        refit.fit(corpus)
        save_gem(refit, tmp_path / "other.npz")
        with pytest.raises(StaleIndexError):
            GemService.from_archives(tmp_path / "other.npz", tmp_path / "lake.npz")

    def test_corpus_dependent_embedder_refused(self, corpus):
        gem = GemEmbedder(
            fit_mode="per_column", **{k: v for k, v in FAST.items() if k != "n_components"}
        )
        gem.fit(corpus)
        with pytest.raises(ValueError, match="corpus-independent"):
            GemService(gem)

    def test_unfitted_embedder_refused(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GemService(GemEmbedder(**FAST))

    def test_embedder_serve_convenience(self, fitted, corpus):
        # Without an index the service starts over an empty one in the
        # model's space.
        svc = GemService(fitted, batch_window_ms=1)
        try:
            assert len(svc) == 0
            rows = svc.embed(_columns(16, 1))
            assert rows.shape == (1, fitted.embedding_dim)
        finally:
            svc.close()


class TestMetrics:
    def test_counters_populate(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            svc.embed(_columns(17, 1))
            svc.search(_columns(18, 1), 2)
            svc.ingest(["m:0"], _columns(19, 1))
            svc.evict(["m:0"])
            stats = svc.metrics.snapshot()
        assert stats["requests"] == 4
        assert stats["requests_by_op"] == {"embed": 1, "search": 1, "ingest": 1, "evict": 1}
        assert stats["rows_ingested"] == 1
        assert stats["rows_evicted"] == 1
        assert stats["snapshot_publishes"] >= 2
        assert stats["latency_p50_ms"] > 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]
        assert stats["snapshot_age_s"] >= 0

    def test_fresh_metrics_report_none_latency(self):
        stats = ServiceMetrics().snapshot()
        assert stats["requests"] == 0
        assert stats["latency_p50_ms"] is None
        assert stats["snapshot_age_s"] is None
        assert stats["batched_ratio"] == 0.0

    def test_requests_after_close_fail_fast(self, fitted, corpus):
        svc = _service(fitted, corpus)
        svc.close()
        with pytest.raises(BatcherClosedError):
            svc.embed(_columns(20, 1))
