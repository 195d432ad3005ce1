"""Resilience tests for the serving layer (PR 8).

The load-bearing guarantees under failure: no caller blocks past its
deadline, overload sheds instead of queueing, degradation trades quality
(never correctness) for latency, archives are crash-atomic and
checksummed, the op log makes acknowledged writes survive a crash, and
the metrics account for every shed/missed/degraded/replayed event. The
chaos storm at the end drives all of it at once through deterministic
fault injection.
"""

import gc
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import GemEmbedder, load_gem, save_gem
from repro.core.persistence import (
    CorruptArchiveError,
    archive_checksum,
    atomic_savez,
    read_archive,
)
from repro.data import ColumnCorpus, NumericColumn, make_gds
from repro.index import GemIndex, load_index, save_index
from repro.serve import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    DegradationPolicy,
    Delay,
    Fail,
    FaultError,
    FaultPlan,
    GemOpLog,
    GemService,
    Kill,
    KillPoint,
    MicroBatcher,
    ServiceMetrics,
    SheddingError,
    WriteOp,
)
from repro.serve.batching import BatcherClosedError

FAST = dict(n_components=5, n_init=1, max_iter=50, random_state=0)

#: The exception taxonomy a caller may legitimately observe mid-storm.
STORM_ERRORS = (FaultError, DeadlineExceededError, SheddingError, ValueError, KeyError)


@pytest.fixture(scope="module")
def corpus():
    return make_gds()


@pytest.fixture(scope="module")
def fitted(corpus):
    return GemEmbedder(**FAST).fit(corpus)


def _columns(seed, n, size=40, loc_scale=55):
    rng = np.random.default_rng(seed)
    return [
        NumericColumn(
            f"col{seed}:{i}",
            rng.normal(rng.uniform(-5, loc_scale), rng.uniform(0.5, 4), size),
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


class TestDeadline:
    def test_invalid_budgets_rejected(self):
        for bad in (0, -5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="deadline_ms"):
                Deadline.after_ms(bad)

    def test_remaining_and_expired(self):
        d = Deadline.after_ms(50)
        assert 0 < d.remaining() <= 0.05
        assert not d.expired
        expired = Deadline(time.monotonic() - 1)
        assert expired.expired
        assert expired.remaining() < 0


class TestAdmissionController:
    def test_sheds_past_capacity_and_releases(self):
        ctl = AdmissionController(max_pending=2)
        a = ctl.admit()
        b = ctl.admit()
        assert ctl.in_flight == 2
        with pytest.raises(SheddingError, match="saturated"):
            ctl.admit()
        with a:
            pass  # context exit releases the slot
        assert ctl.in_flight == 1
        ctl.admit()  # admitted again after the release
        with b:
            pass

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class TestDegradationPolicy:
    def _policy(self, **kwargs):
        kwargs.setdefault("degrade_pending", 4)
        kwargs.setdefault("shed_pending", 100)
        kwargs.setdefault("recovery_observations", 2)
        kwargs.setdefault("escalate_observations", 3)
        return DegradationPolicy(**kwargs)

    def test_closed_state_preserves_bit_identity(self):
        policy = self._policy()
        assert policy.state == "closed"
        assert policy.search_overrides(8, 50) == {}

    def test_queue_depth_degrades_then_escalates_stepwise(self):
        policy = self._policy()
        assert policy.observe(4) == "degraded"
        assert policy.severity == 1
        assert policy.search_overrides(8, 50) == {"n_probe": 4, "pq_rerank": 0}
        for _ in range(3):
            policy.observe(4)
        assert policy.severity == 2
        assert policy.search_overrides(8, 50) == {"n_probe": 2, "pq_rerank": 0}
        # n_probe never degrades to zero, no matter the severity.
        for _ in range(30):
            policy.observe(4)
        assert policy.search_overrides(8, 50)["n_probe"] == 1

    def test_shedding_past_threshold(self):
        policy = self._policy()
        assert policy.observe(100) == "shedding"
        assert policy.shedding

    def test_recovery_is_hysteretic_and_stepwise(self):
        policy = self._policy()
        policy.observe(100)
        # Sub-threshold but without clear headroom: no recovery credit
        # (degrade_pending=4 → recovery requires depth < 2).
        for _ in range(10):
            policy.observe(3)
        assert policy.state == "shedding"
        # Clear-headroom streak steps down one state at a time.
        policy.observe(0)
        assert policy.state == "shedding"  # streak of 1 < 2
        policy.observe(0)
        assert policy.state == "degraded"  # shedding → degraded, not closed
        for _ in range(2):
            policy.observe(0)
        assert policy.state == "closed"
        assert policy.severity == 0
        assert policy.search_overrides(8, 50) == {}

    def test_latency_trigger(self):
        policy = self._policy(degrade_pending=50, shed_pending=100, degrade_latency_ms=50)
        assert policy.observe(0, latency_s=0.2) == "degraded"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(degrade_pending=0, shed_pending=4)
        with pytest.raises(ValueError):
            DegradationPolicy(degrade_pending=8, shed_pending=4)
        with pytest.raises(ValueError):
            DegradationPolicy(degrade_pending=2, shed_pending=4, degrade_latency_ms=0)


class TestConfigKnobs:
    def test_resilience_knob_validation(self, fitted):
        # Serving policy is validated where it is set: GemService's
        # arguments, each checked by the component that uses it.
        for bad, match in (
            (dict(deadline_ms=0), "deadline_ms"),
            (dict(deadline_ms=float("inf")), "deadline_ms"),
            (dict(max_pending=0), "max_pending"),
            (dict(degrade_pending=0), "degrade_pending"),
            (dict(max_pending=8, degrade_pending=9), "degrade_pending"),
            (dict(degrade_latency_ms=-1), "degrade_latency_ms"),
            (dict(batch_window_ms=-0.5), "window_ms"),
            (dict(max_batch=0), "max_batch"),
            (dict(max_workers=0), "max_workers"),
        ):
            with pytest.raises(ValueError, match=match):
                GemService(fitted, **bad)
        # degrade_pending=None means min(64, max_pending).
        for max_pending, degrade_pending in ((256, 64), (8, 8)):
            with GemService(fitted, max_pending=max_pending) as svc:
                assert svc._policy.degrade_pending == degrade_pending


class TestBatcherDeadlines:
    def test_follower_unblocks_at_deadline_while_executor_wedged(self):
        release = threading.Event()

        def fn(ps):
            release.wait(5.0)
            return ps

        with MicroBatcher(fn, window_ms=0, max_batch=8, max_workers=1) as mb:
            # Occupy the only execution slot with a wedged batch.
            slow = []
            t_slow = threading.Thread(
                target=lambda: slow.append(mb.submit("slow", _deadline()).result(timeout=10))
            )
            t_slow.start()
            time.sleep(0.05)
            # A second leader now waits for the slot; its batch stays open,
            # so this follower joins it and waits on the shared event.
            lead_outcomes = []

            def lead():
                try:
                    mb.submit("lead", Deadline.after_ms(400)).result()
                    lead_outcomes.append("completed")
                except DeadlineExceededError:
                    lead_outcomes.append("deadline")

            t_lead = threading.Thread(target=lead)
            t_lead.start()
            time.sleep(0.05)
            t0 = time.monotonic()
            ticket = mb.submit("follower", Deadline.after_ms(150))
            with pytest.raises(DeadlineExceededError):
                ticket.result()
            elapsed = time.monotonic() - t0
            # Unblocked by its own deadline, long before the wedge clears.
            assert elapsed < 1.0
            # Keep the wedge in place until the second leader's own
            # deadline lapses too, then let everything drain.
            time.sleep(0.4)
            release.set()
            t_slow.join(timeout=5)
            t_lead.join(timeout=5)
            assert slow == ["slow"]
            assert lead_outcomes == ["deadline"]

    def test_all_expired_batch_is_shed_without_executing(self):
        seen = []
        release = threading.Event()

        def fn(ps):
            seen.extend(ps)
            release.wait(2.0)
            return ps

        with MicroBatcher(fn, window_ms=0, max_batch=8, max_workers=1) as mb:
            t_slow = threading.Thread(
                target=lambda: mb.submit("slow", _deadline()).result(timeout=10)
            )
            t_slow.start()
            time.sleep(0.05)
            t0 = time.monotonic()
            ticket = mb.submit("doomed", Deadline.after_ms(100))
            with pytest.raises(DeadlineExceededError, match="shed"):
                ticket.result()
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0  # shed at its deadline, not after the wedge
            release.set()
            t_slow.join(timeout=5)
        assert "doomed" not in seen  # shed means the work was never done

    def test_result_delivers_when_done_despite_expired_deadline(self):
        # The leader executes on its own thread; by the time it calls
        # result() the batch is done, so the landed result is delivered
        # even if the deadline expired mid-execution.
        def fn(ps):
            time.sleep(0.05)
            return ps

        with MicroBatcher(fn, window_ms=0, max_batch=8) as mb:
            ticket = mb.submit("x", Deadline.after_ms(10))
            assert ticket.result() == "x"


class TestCloseSubmitRace:
    def test_every_submission_resolves_or_raises_closed(self):
        # The satellite regression: close racing submit must never strand
        # a caller — each submission either raises BatcherClosedError or
        # is accepted and resolves.
        for round_ in range(25):
            mb = MicroBatcher(
                lambda ps: ps, window_ms=0, max_batch=4, max_workers=2
            )
            start = threading.Barrier(7)
            unexpected = []

            def submitter(i):
                start.wait()
                try:
                    ticket = mb.submit(i, _deadline())
                except BatcherClosedError:
                    return
                try:
                    assert ticket.result(timeout=5) == i
                except Exception as exc:  # pragma: no cover - failure detail
                    unexpected.append(exc)

            def closer():
                start.wait()
                time.sleep(round_ % 3 * 0.0005)
                mb.close()

            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(6)]
            threads.append(threading.Thread(target=closer))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive(), "caller stranded by close/submit race"
            assert not unexpected, unexpected


class TestServiceResilience:
    def test_duplicate_ids_in_one_ingest_rejected_up_front(self, fitted, corpus):
        with _service(fitted, corpus) as svc:
            with pytest.raises(ValueError, match=r"duplicate ids.*\['dup'\]"):
                svc.ingest(["dup", "ok", "dup"], _columns(30, 3))
            # Nothing was embedded or written.
            assert "dup" not in svc.snapshot().ids
            assert svc.metrics.snapshot()["requests"] == 0

    def test_admission_sheds_past_max_pending(self, fitted, corpus):
        plan = FaultPlan.single("batcher.execute", Delay(0.4))
        with _service(fitted, corpus, max_pending=1) as svc:
            with plan.install():
                t = threading.Thread(target=lambda: svc.embed(_columns(31, 1)))
                t.start()
                time.sleep(0.1)  # the occupier holds the only slot
                with pytest.raises(SheddingError):
                    svc.search(_columns(32, 1), 2)
                t.join(timeout=5)
            stats = svc.metrics.snapshot()
        assert stats["shed_count"] == 1
        assert plan.hits("batcher.execute") >= 1

    def test_deadline_miss_recorded_and_caller_released(self, fitted, corpus):
        # Wedge the single-slot write path, then issue a short-deadline
        # write: its caller must be released at its own deadline, while
        # the wedge is still in place.
        with _service(fitted, corpus) as svc:
            svc.ingest(["occ"], _columns(33, 1))
            plan = FaultPlan.single("snapshot.apply", Delay(0.6))
            with plan.install():
                t = threading.Thread(target=lambda: svc.evict(["occ"]))
                t.start()
                time.sleep(0.1)
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    svc.ingest(["late"], _columns(34, 1), deadline_ms=150)
                elapsed = time.monotonic() - t0
                t.join(timeout=5)
            assert elapsed < 0.45  # released by its deadline, not the wedge
            assert svc.metrics.snapshot()["deadline_misses"] == 1

    def test_ingest_budgets_one_deadline_across_both_hops(self, fitted, corpus):
        # Embed hop burns half the budget; the write hop then faces a
        # 600ms wedge with only the *remainder*, so the caller is released
        # around the 300ms deadline — not at 300ms-past-embed (a fresh
        # write-hop allowance) and certainly not at the 600ms wedge.
        with _service(fitted, corpus) as svc:
            svc.ingest(["occ2"], _columns(35, 1))
            plan = FaultPlan(
                {
                    "snapshot.apply": {0: Delay(0.6)},
                    "batcher.execute": {1: Delay(0.15)},
                }
            )
            with plan.install():
                t = threading.Thread(target=lambda: svc.evict(["occ2"]))
                t.start()
                time.sleep(0.1)  # occupier: write execute is hit 0
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    svc.ingest(["two-hop"], _columns(36, 1), deadline_ms=300)
                elapsed = time.monotonic() - t0
                t.join(timeout=5)
            assert elapsed < 0.42, "write hop was granted a fresh budget"
            assert any(
                site == "batcher.execute" and hit == 1 for site, hit, _ in plan.fired
            )

    def test_degradation_engages_accounts_and_preserves_results(self, fitted, corpus):
        cols = _columns(37, 2)
        index = fitted.build_index(corpus)
        direct = index.search(fitted.transform(ColumnCorpus(cols)), 3)
        # degrade_pending=1: every in-flight request counts as pressure,
        # so the breaker degrades after the first observation.
        with GemService(
            fitted, index, batch_window_ms=5, max_batch=16, degrade_pending=1
        ) as svc:
            svc.embed(cols)  # first observation trips the breaker
            found = svc.search(cols, 3)
            stats = svc.metrics.snapshot()
        assert stats["degradation_state"] == "degraded"
        assert stats["degraded_searches"] >= 1
        assert stats["degraded_seconds"] > 0
        # Exact backend ignores the degraded knobs: results stay
        # bit-identical even while degraded.
        assert np.array_equal(found.ids, direct.ids)
        assert np.array_equal(found.scores, direct.scores)

    def test_open_breaker_sheds_then_recovers_hysteretically(self, fitted, corpus):
        with _service(fitted, corpus, max_pending=8) as svc:
            for _ in range(2):
                svc._policy.observe(8)  # drive the breaker open
            assert svc._policy.shedding
            sheds = 0
            found = None
            for _ in range(40):
                try:
                    found = svc.search(_columns(38, 1), 2)
                    break
                except SheddingError:
                    sheds += 1
            # Shed attempts are healthy observations (queue empty), so the
            # default 16-observation streak walks the breaker back.
            assert found is not None
            assert 1 <= sheds <= 20
            stats = svc.metrics.snapshot()
        assert stats["shed_count"] == sheds
        assert stats["degradation_state"] == "degraded"  # one step, not closed


class TestIndexDegradationKnobs:
    def test_search_overrides_equal_reconfigured_index(self, fitted, corpus):
        rows = fitted.transform(corpus)
        ids = [f"r:{i}" for i in range(rows.shape[0])]
        kwargs = dict(
            backend="ivf", n_lists=4, n_probe=4, block_size=64, random_state=0
        )
        full = GemIndex(fitted.embedding_dim, **kwargs)
        full.add(ids, rows)
        narrow = GemIndex(fitted.embedding_dim, **{**kwargs, "n_probe": 1})
        narrow.add(ids, rows)
        q = fitted.transform(ColumnCorpus(_columns(41, 3)))
        overridden = full.search(q, 5, n_probe=1)
        configured = narrow.search(q, 5)
        assert np.array_equal(overridden.ids, configured.ids)
        assert np.array_equal(overridden.scores, configured.scores)
        with pytest.raises(ValueError):
            full.search(q, 5, n_probe=0)
        with pytest.raises(ValueError):
            full.search(q, 5, pq_rerank=-1)


class TestAtomicPersistence:
    def test_atomic_savez_round_trip_with_checksum(self, tmp_path):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2], dtype=np.int32)}
        path = atomic_savez(tmp_path / "x.npz", dict(arrays))
        payload = read_archive(path)
        assert set(payload) == {"a", "b"}  # checksum member is internal
        assert np.array_equal(payload["a"], arrays["a"])
        assert payload["b"].dtype == np.int32

    def test_checksum_detects_silent_bit_rot(self, tmp_path):
        path = atomic_savez(tmp_path / "x.npz", {"a": np.arange(100.0)})
        payload = dict(np.load(path))
        rotted = payload["a"].copy()
        rotted[50] += 1e-9  # a flip zip-level CRC could miss after re-save
        np.savez(path, a=rotted, __checksum__=payload["__checksum__"])
        with pytest.raises(CorruptArchiveError):
            read_archive(path)

    def test_truncated_archive_raises_corrupt_not_crash(self, tmp_path):
        path = atomic_savez(tmp_path / "x.npz", {"a": np.arange(1000.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CorruptArchiveError):
                read_archive(path)
            gc.collect()  # an unclosed handle warns when collected
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("kind", ["gem", "index"])
    def test_archive_without_checksum_is_refused(self, fitted, corpus, tmp_path, kind):
        """Deleting the checksum member must not switch verification off."""
        path = tmp_path / f"{kind}.npz"
        if kind == "gem":
            save_gem(fitted, path)
            loader = load_gem
        else:
            save_index(fitted.build_index(corpus), path)
            loader = load_index
        with np.load(path) as payload:
            arrays = {name: payload[name] for name in payload.files}
        del arrays["__checksum__"]
        np.savez(path, **arrays)
        with pytest.raises(CorruptArchiveError, match=f"{kind}.npz carries no content checksum"):
            loader(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_archive(tmp_path / "absent.npz")

    def test_checksum_is_content_addressed(self):
        a = {"x": np.arange(4.0)}
        b = {"x": np.arange(4.0)}
        assert archive_checksum(a) == archive_checksum(b)
        b["x"] = b["x"].astype(np.float32)  # same values, different dtype
        assert archive_checksum(a) != archive_checksum(b)

    def test_kill_during_replace_leaves_previous_archive_intact(
        self, fitted, corpus, tmp_path
    ):
        index = fitted.build_index(corpus)
        path = tmp_path / "lake.npz"
        save_index(index, path)
        before = sorted(load_index(path).ids)
        index.add(["extra"], fitted.transform(ColumnCorpus(_columns(42, 1))))
        plan = FaultPlan.single("persistence.replace", Kill())
        with plan.install():
            with pytest.raises(KillPoint):
                save_index(index, path)
        # The crash left a tmp sibling (like a real kill) but the archive
        # itself is the previous, fully intact version.
        assert (tmp_path / "lake.npz.tmp").exists()
        assert sorted(load_index(path).ids) == before
        save_index(index, path)  # post-crash save replaces cleanly
        assert "extra" in load_index(path).ids


class TestOpLog:
    def _ops(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(2, 3))
        return [
            WriteOp("ingest", ["a", "b"], rows=rows, value_fps=["f1", "f2"]),
            WriteOp("evict", ["a"]),
        ]

    def test_append_replay_round_trip_bit_exact(self, tmp_path):
        ops = self._ops()
        with GemOpLog(tmp_path / "wal") as log:
            log.append([ops[0]])
            log.append([ops[1]])
        batches = GemOpLog(tmp_path / "wal").replay()
        assert [len(b) for b in batches] == [1, 1]
        got = batches[0][0]
        assert (got.kind, got.ids, got.value_fps) == ("ingest", ["a", "b"], ["f1", "f2"])
        assert got.rows.dtype == ops[0].rows.dtype
        assert np.array_equal(got.rows, ops[0].rows)
        assert batches[1][0].kind == "evict"

    def test_torn_tail_ends_replay_at_last_intact_record(self, tmp_path):
        log = GemOpLog(tmp_path / "wal")
        log.append([self._ops()[0]])
        log.append([self._ops()[1]])
        log.close()
        raw = (tmp_path / "wal").read_bytes()
        (tmp_path / "wal").write_bytes(raw[:-5])  # crash mid-append
        assert [len(b) for b in GemOpLog(tmp_path / "wal").replay()] == [1]

    def test_corrupt_tail_record_detected_by_digest(self, tmp_path):
        log = GemOpLog(tmp_path / "wal")
        log.append([self._ops()[0]])
        log.append([self._ops()[1]])
        log.close()
        raw = bytearray((tmp_path / "wal").read_bytes())
        raw[-3] ^= 0xFF
        (tmp_path / "wal").write_bytes(bytes(raw))
        assert [len(b) for b in GemOpLog(tmp_path / "wal").replay()] == [1]

    def test_truncate_and_missing_file(self, tmp_path):
        log = GemOpLog(tmp_path / "wal")
        assert log.replay() == []
        log.append(self._ops())
        log.truncate()
        log.close()
        assert GemOpLog(tmp_path / "wal").replay() == []
        log2 = GemOpLog(tmp_path / "wal")
        log2.append([])  # empty batch: no record
        log2.close()
        assert GemOpLog(tmp_path / "wal").replay() == []

    def test_close_during_append_defers_until_fsync_completes(
        self, tmp_path, monkeypatch
    ):
        """Regression for the GEM-C04 fix: append no longer fsyncs under
        the handle lock, so a concurrent close() must not deadlock — and
        must not yank the handle out from under the in-flight fsync
        either. It defers until the append checks the handle back in."""
        from repro.serve import oplog as oplog_mod

        in_fsync = threading.Event()
        release = threading.Event()
        real_fsync = oplog_mod.os.fsync

        def blocking_fsync(fd):
            in_fsync.set()
            assert release.wait(5.0), "test released fsync too late"
            real_fsync(fd)

        monkeypatch.setattr(oplog_mod.os, "fsync", blocking_fsync)
        log = GemOpLog(tmp_path / "wal")
        writer = threading.Thread(target=log.append, args=([self._ops()[0]],))
        writer.start()
        try:
            assert in_fsync.wait(5.0)
            # close() while the append is wedged inside fsync: it must
            # return promptly (no lock is held across the fsync) ...
            log.close()
            # ... and must leave the in-flight append's handle alone.
            assert log._fh is not None and not log._fh.closed
            assert log._close_pending
        finally:
            release.set()
            writer.join(5.0)
        assert not writer.is_alive()
        # The deferred close ran when the append finished.
        assert log._fh is None and not log._close_pending
        # The wedged append's record survived the racing close intact.
        assert [len(b) for b in GemOpLog(tmp_path / "wal").replay()] == [1]


class TestCrashRecovery:
    def _archives(self, fitted, corpus, tmp_path):
        save_gem(fitted, tmp_path / "gem.npz")
        save_index(fitted.build_index(corpus), tmp_path / "lake.npz")
        return tmp_path / "gem.npz", tmp_path / "lake.npz", tmp_path / "wal"

    def test_oplog_replay_restores_acknowledged_writes(self, fitted, corpus, tmp_path):
        gem_path, index_path, wal = self._archives(fitted, corpus, tmp_path)
        col_a, col_b = _columns(50, 2)
        svc = GemService.from_archives(gem_path, index_path, oplog=wal)
        try:
            svc.checkpoint(index_path)
            svc.ingest(["wal:a"], [col_a])
            svc.ingest(["wal:b"], [col_b])
            svc.evict(["wal:a"])
            expect_a = svc.search([col_a], 1)
            expect_b = svc.search([col_b], 1)
            n_before = len(svc)
        finally:
            svc.close()  # crash stand-in: no checkpoint after the writes

        recovered = GemService.from_archives(gem_path, index_path, oplog=wal)
        try:
            assert len(recovered) == n_before
            got_a = recovered.search([col_a], 1)
            got_b = recovered.search([col_b], 1)
            # Bit-identical restore: same neighbours, same scores.
            assert np.array_equal(got_a.ids, expect_a.ids)
            assert np.array_equal(got_a.scores, expect_a.scores)
            assert got_b.ids[0, 0] == "wal:b"
            assert np.array_equal(got_b.scores, expect_b.scores)
            stats = recovered.metrics.snapshot()
            assert stats["replayed_ops"] == 3  # two ingests + one evict
        finally:
            recovered.close()

    def test_checkpoint_truncates_log_and_replay_is_idempotent(
        self, fitted, corpus, tmp_path
    ):
        gem_path, index_path, wal = self._archives(fitted, corpus, tmp_path)
        svc = GemService.from_archives(gem_path, index_path, oplog=wal)
        try:
            svc.ingest(["ck:a"], _columns(51, 1))
            svc.checkpoint(index_path)  # archive now covers the ingest
            assert GemOpLog(wal).replay() == []
        finally:
            svc.close()
        # A crash *between* save_index and truncate would leave the log
        # holding ops the archive already contains; replay must skip them.
        stale = GemOpLog(wal)
        rows = np.zeros((1, fitted.embedding_dim))
        stale.append([WriteOp("ingest", ["ck:a"], rows=rows, value_fps=["fp"])])
        stale.close()
        recovered = GemService.from_archives(gem_path, index_path, oplog=wal)
        try:
            assert recovered.metrics.snapshot()["replayed_ops"] == 0
            assert "ck:a" in recovered.snapshot().ids
        finally:
            recovered.close()

    def test_kill_before_log_append_loses_only_unacked_write(
        self, fitted, corpus, tmp_path
    ):
        gem_path, index_path, wal = self._archives(fitted, corpus, tmp_path)
        svc = GemService.from_archives(gem_path, index_path, oplog=wal)
        killed = False
        try:
            svc.ingest(["acked"], _columns(52, 1))
            # Hit counters are per-plan: the first append *under the plan*
            # (the doomed write's) is hit 0.
            plan = FaultPlan.single("oplog.append", Kill())
            with plan.install():
                with pytest.raises(KillPoint):
                    svc.ingest(["lost"], _columns(53, 1))
            killed = True
        finally:
            svc.close()
        assert killed
        recovered = GemService.from_archives(gem_path, index_path, oplog=wal)
        try:
            # The acked write survived; the killed one was never
            # acknowledged, so losing it breaks no promise.
            assert "acked" in recovered.snapshot().ids
            assert "lost" not in recovered.snapshot().ids
            assert recovered.metrics.snapshot()["replayed_ops"] == 1
        finally:
            recovered.close()


class TestChaosStorm:
    def test_storm_under_faults_holds_every_invariant(self, fitted, corpus, tmp_path):
        deadline_ms = 3_000.0
        rng = np.random.default_rng(0)
        # A stable far-away cluster: its members are always each other's
        # neighbours, whatever the write storm does elsewhere.
        stable_base = NumericColumn("stable-base", rng.normal(5_000.0, 1.0, 60))
        stable = [
            NumericColumn(f"stable:{j}", stable_base.values + rng.normal(0, 1e-3, 60))
            for j in range(3)
        ]
        # Churn groups, ingested/evicted whole: searches must see all
        # members or none (snapshot isolation under faults).
        groups = {
            w: [
                NumericColumn(f"g{w}:{j}", rng.normal(900.0 * (w + 1), 1.0, 60))
                for j in range(3)
            ]
            for w in range(2)
        }
        probe_cols = _columns(60, 4)
        solo_rows = {c.name: fitted.transform(ColumnCorpus([c])) for c in probe_cols}

        plan = FaultPlan(
            {
                "batcher.execute": {3: Delay(0.03), 9: Fail("storm"), 17: Delay(0.05)},
                "snapshot.apply": {2: Fail("storm"), 6: Delay(0.03)},
                "snapshot.publish": {1: Delay(0.03)},
                "oplog.append": {3: Fail("storm")},
            }
        )
        violations = []
        counts = {"shed": 0, "miss": 0, "fault": 0, "ok": 0}
        counts_lock = threading.Lock()

        svc = GemService(
            fitted,
            fitted.build_index(corpus),
            batch_window_ms=2,
            max_batch=8,
            deadline_ms=deadline_ms,
            oplog=tmp_path / "wal",
        )

        def guarded(call):
            t0 = time.monotonic()
            try:
                result = call()
                with counts_lock:
                    counts["ok"] += 1
                return result
            except STORM_ERRORS as exc:
                with counts_lock:
                    if isinstance(exc, SheddingError):
                        counts["shed"] += 1
                    elif isinstance(exc, DeadlineExceededError):
                        counts["miss"] += 1
                    else:
                        counts["fault"] += 1
                return None
            finally:
                elapsed = time.monotonic() - t0
                if elapsed > deadline_ms / 1e3 + 1.0:
                    violations.append(f"caller blocked {elapsed:.2f}s")

        def reader(i):
            col = probe_cols[i]
            for it in range(12):
                if it % 3 == 2:
                    found = guarded(lambda: svc.search([stable_base], 3))
                    if found is not None:
                        assert set(found.ids[0]) == {c.name for c in stable}
                else:
                    rows = guarded(lambda: svc.embed([col]))
                    if rows is not None and not np.array_equal(rows, solo_rows[col.name]):
                        violations.append(f"embed of {col.name} not bit-identical")
                for w, group in groups.items():
                    found = guarded(lambda: svc.search([group[0]], 3))
                    if found is None:
                        continue
                    members = sum(
                        1 for cid in found.ids[0] if str(cid).startswith(f"g{w}:")
                    )
                    if members not in (0, 3):
                        violations.append(f"torn read of group {w}: {members}/3")

        def writer(w):
            ids = [c.name for c in groups[w]]
            for _ in range(6):
                guarded(lambda: svc.evict(ids))
                guarded(lambda: svc.ingest(ids, groups[w]))

        try:
            svc.ingest([c.name for c in stable], stable)
            for w, group in groups.items():
                svc.ingest([c.name for c in group], group)
            with plan.install():
                threads = [
                    threading.Thread(target=reader, args=(i,)) for i in range(4)
                ] + [threading.Thread(target=writer, args=(w,)) for w in groups]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive(), "storm caller hung"
            stats = svc.metrics.snapshot()
        finally:
            svc.close()

        assert not violations, violations
        assert counts["ok"] > 0  # the storm was not one long outage
        assert plan.fired, "no scheduled fault actually fired"
        # Every resilience event a caller observed is accounted for in the
        # metrics, exactly.
        assert stats["shed_count"] == counts["shed"]
        assert stats["deadline_misses"] == counts["miss"]
        assert stats["replayed_ops"] == 0  # no recovery happened here


class TestThreadedMetrics:
    def test_threaded_recording_matches_serial_oracle(self):
        metrics = ServiceMetrics()
        ops = ("embed", "search", "ingest", "evict")
        per_thread = 50
        n_threads = 16

        def samples(seed):
            rng = np.random.default_rng(seed)
            return [
                (
                    ops[int(rng.integers(0, len(ops)))],
                    float(rng.uniform(0.001, 0.2)),
                    int(rng.integers(1, 5)),
                )
                for _ in range(per_thread)
            ]

        plans = {seed: samples(seed) for seed in range(n_threads)}

        def worker(seed):
            for op, latency, batch_size in plans[seed]:
                metrics.record_request(op, latency, batch_size)
                if batch_size == 4:
                    metrics.record_shed()

        threads = [threading.Thread(target=worker, args=(s,)) for s in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = metrics.snapshot()

        flat = [s for seed in plans for s in plans[seed]]
        assert stats["requests"] == len(flat)
        by_op = {op: sum(1 for s in flat if s[0] == op) for op in ops}
        assert stats["requests_by_op"] == by_op
        batched = sum(1 for s in flat if s[2] > 1)
        assert stats["batched_ratio"] == pytest.approx(batched / len(flat))
        assert stats["shed_count"] == sum(1 for s in flat if s[2] == 4)
        # Percentiles over the same multiset (window holds every sample,
        # and percentiles are order-independent): exact match.
        latencies = np.array([s[1] for s in flat]) * 1e3
        assert stats["latency_p50_ms"] == pytest.approx(np.percentile(latencies, 50))
        assert stats["latency_p99_ms"] == pytest.approx(np.percentile(latencies, 99))


class TestFaultPlanHarness:
    def test_unknown_site_and_bad_hit_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan({"no.such.site": {0: Fail()}})
        with pytest.raises(ValueError, match="hit index"):
            FaultPlan({"batcher.execute": {-1: Fail()}})

    def test_disabled_fault_point_is_inert(self):
        from repro.serve.faults import fault_point

        fault_point("batcher.execute")  # no plan installed: no-op

    def test_install_is_scoped_and_restores_previous(self):
        from repro.serve import faults

        plan = FaultPlan.single("batcher.execute", Fail(), hit=5)
        assert faults._ACTIVE is None
        with plan.install():
            assert faults._ACTIVE is plan
            faults.fault_point("batcher.execute")
        assert faults._ACTIVE is None
        assert plan.hits("batcher.execute") == 1
        assert plan.fired == []  # hit 5 never reached

    def test_deterministic_hit_schedule(self):
        plan = FaultPlan({"snapshot.apply": {1: Fail("second")}})
        with plan.install():
            from repro.serve.faults import fault_point

            fault_point("snapshot.apply")
            with pytest.raises(FaultError, match="second"):
                fault_point("snapshot.apply")
            fault_point("snapshot.apply")
        assert [(site, hit) for site, hit, _ in plan.fired] == [("snapshot.apply", 1)]
