"""Group commit: batched fsyncs, the async/wait split, and durability
of every acknowledged record."""

import errno
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.journal import JournalError, MetadataJournal
from repro.durability.manager import DurabilityManager
from repro.faults.disk import DiskFaultPlan, SimulatedCrash
from repro.nest.storage import StorageManager


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "journal.log")


class TestAsyncSplit:
    def test_enqueue_then_wait_batches_into_one_flush(self, journal_path):
        """Records enqueued before anyone waits share a single
        write+fsync -- deterministically, no thread races needed."""
        j = MetadataJournal(journal_path, batch_records=64)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(50)]
        assert j.fsync_count == 0  # nothing durable yet
        j.wait_durable(seqs[-1])
        assert j.fsync_count == 1
        assert j.records_appended == 50
        assert j.last_seq == seqs[-1]
        replay = j.replay()
        assert [r["seq"] for r in replay.records] == seqs
        j.close()

    def test_batch_size_cap_is_honoured(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=8)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(20)]
        j.wait_durable(seqs[-1])
        assert j.fsync_count == 3  # ceil(20 / 8)
        assert len(j.replay().records) == 20
        j.close()

    def test_batch_of_one_is_one_fsync_per_record(self, journal_path):
        """batch_records=1 is group commit with one record per flush:
        append_async still only enqueues, and wait_durable pays one
        fsync per record."""
        j = MetadataJournal(journal_path, batch_records=1)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(3)]
        assert j.fsync_count == 0 and j.last_seq == 0
        j.wait_durable(seqs[-1])
        assert j.fsync_count == 3 and j.records_appended == 3
        assert j.last_seq == seqs[-1]
        j.close()

    def test_reset_refuses_while_records_pending(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=64)
        j.append_async("mkdir", {"path": "/a"})
        assert not j.reset_if_quiescent(j.last_seq)
        j.wait_durable(j.append_async("mkdir", {"path": "/b"}))
        assert j.reset_if_quiescent(j.last_seq)
        j.close()

    def test_close_flushes_unwaited_records(self, journal_path):
        j = MetadataJournal(journal_path, batch_records=64)
        seqs = [j.append_async("mkdir", {"path": f"/d{i}"})
                for i in range(3)]
        j.close()
        j2 = MetadataJournal(journal_path)
        assert [r["seq"] for r in j2.replay().records] == seqs


class TestConcurrentAppenders:
    def test_every_acknowledged_record_is_on_disk(self, journal_path):
        """16 threads x 16 durable appends: far fewer fsyncs than
        records, no seq reused, and a fresh journal (the "crashed"
        process's successor) replays every one of them."""
        j = MetadataJournal(journal_path, batch_records=64)
        per_thread, nthreads = 16, 16
        barrier = threading.Barrier(nthreads)
        acked: list[int] = []
        lock = threading.Lock()

        def writer(w):
            barrier.wait()
            for i in range(per_thread):
                seq = j.append("put_begin", {"path": f"/w{w}-f{i}"})
                with lock:
                    acked.append(seq)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = per_thread * nthreads
        assert sorted(acked) == list(range(1, total + 1))
        assert j.records_appended == total
        # Group commit must have shared flushes under this much
        # concurrency; 1.0 fsync/record means batching never engaged.
        assert j.fsync_count < total
        # Simulated crash: no close, just replay what hit the disk.
        j2 = MetadataJournal(journal_path)
        replayed = {r["seq"] for r in j2.replay().records}
        assert replayed == set(range(1, total + 1))
        j.close()


class TestStorageIntegration:
    def test_op_exit_waits_for_durability_outside_the_lock(self, tmp_path):
        """The storage manager enqueues under its lock and waits in the
        op epilogue; every mutation acked to a caller is replayable."""
        storage = StorageManager(capacity_bytes=1 << 30, require_lots=False)
        dm = DurabilityManager(str(tmp_path / "state"), snapshot_every=0)
        dm.recover_into(storage)
        nthreads, per_thread = 8, 8
        barrier = threading.Barrier(nthreads)

        def writer(w):
            from repro.protocols.common import Request, RequestType
            barrier.wait()
            for i in range(per_thread):
                resp = storage.execute(Request(
                    rtype=RequestType.MKDIR, user="admin",
                    path=f"/w{w}-d{i}"))
                assert resp.status.value == "ok"

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        journal = dm.journal
        total = nthreads * per_thread
        assert journal.records_appended == total
        assert journal.fsync_count <= total
        # Crash without a graceful close: replay must see every mkdir.
        replay = MetadataJournal(journal.path).replay()
        made = {r["path"] for r in replay.records if r["type"] == "mkdir"}
        assert made == {f"/w{w}-d{i}" for w in range(nthreads)
                        for i in range(per_thread)}
        dm.close(snapshot=False)


def _enqueue_three(j):
    return [j.append_async("mkdir", {"path": f"/d{i}"}) for i in (1, 2, 3)]


def _raw(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class TestFaultsMidBatch:
    """Disk faults land inside the group-commit flush, at the record
    whose seq they name -- here the middle record of a 3-record batch."""

    def test_crash_lands_the_prefix_then_the_journal_is_dead(
            self, journal_path):
        j = MetadataJournal(journal_path, batch_records=3,
                            faults=DiskFaultPlan.crash_at_record(2))
        seqs = _enqueue_three(j) + _enqueue_three(j)[:2]
        with pytest.raises(SimulatedCrash):
            j.wait_durable(seqs[-1])
        assert [r["seq"] for r in j.replay().records] == [1]
        assert not j.replay().corrupt_tail
        # Dead: every waiter dies too, nothing more is accepted, and
        # close() persists no stragglers (records 4 and 5 were queued).
        for seq in seqs:
            with pytest.raises(SimulatedCrash):
                j.wait_durable(seq)
        with pytest.raises(SimulatedCrash):
            j.append_async("mkdir", {"path": "/late"})
        size = os.path.getsize(journal_path)
        j.close()
        assert os.path.getsize(journal_path) == size

    def test_torn_lands_prefix_plus_fragment(self, journal_path):
        j = MetadataJournal(journal_path,
                            faults=DiskFaultPlan.torn_record(2, keep_bytes=5))
        seqs = _enqueue_three(j)
        with pytest.raises(SimulatedCrash):
            j.wait_durable(seqs[0])
        result = j.replay()
        assert [r["seq"] for r in result.records] == [1]
        assert result.corrupt_tail
        assert os.path.getsize(journal_path) == result.valid_bytes + 5
        j.close()

    def test_short_lands_fragment_then_rest_and_reports_success(
            self, journal_path):
        j = MetadataJournal(journal_path,
                            faults=DiskFaultPlan.short_record(2, keep_bytes=5))
        seqs = _enqueue_three(j)
        j.wait_durable(seqs[-1])  # the nasty one: success is reported
        assert j.last_seq == 3 and j.fsync_count == 1
        result = j.replay()
        assert [r["seq"] for r in result.records] == [1]
        assert result.corrupt_tail
        raw = _raw(journal_path)
        assert raw.endswith(b'"path":"/d3","seq":3,"type":"mkdir"}\n')
        j.close()

    @pytest.mark.parametrize("plan,code", [
        (DiskFaultPlan.eio_at_record(2), errno.EIO),
        (DiskFaultPlan.enospc_at_record(2), errno.ENOSPC),
    ])
    def test_errno_fails_every_waiter_in_the_batch(self, journal_path,
                                                   plan, code):
        j = MetadataJournal(journal_path, faults=plan)
        seqs = _enqueue_three(j)
        for seq in seqs:
            with pytest.raises(JournalError) as exc:
                j.wait_durable(seq)
            assert exc.value.errno == code
        assert j.replay().records == []
        # The journal stays alive: the next record lands normally.
        later = j.append("mkdir", {"path": "/later"})
        assert [r["seq"] for r in j.replay().records] == [later]
        j.close()


class TestConcurrentHistoryProperty:
    """Concurrent durable appenders crashed at an arbitrary record:
    what survives on disk is a gap-free prefix of history that holds
    every record any appender saw acknowledged."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(writers=st.integers(min_value=2, max_value=6),
           per_writer=st.integers(min_value=1, max_value=8),
           crash_frac=st.floats(min_value=0.0, max_value=1.0),
           batch=st.sampled_from([1, 3, 64]),
           torn=st.booleans())
    def test_recovered_history_is_an_acked_prefix(
            self, tmp_path_factory, writers, per_writer, crash_frac, batch,
            torn):
        path = str(tmp_path_factory.mktemp("j") / "journal.log")
        total = writers * per_writer
        at = 1 + int(crash_frac * (total - 1))
        plan = (DiskFaultPlan.torn_record(at) if torn
                else DiskFaultPlan.crash_at_record(at))
        j = MetadataJournal(path, fsync=False, faults=plan,
                            batch_records=batch)
        acked: list[int] = []
        lock = threading.Lock()
        barrier = threading.Barrier(writers)

        def writer(w):
            barrier.wait()
            try:
                for i in range(per_writer):
                    seq = j.append("mkdir", {"path": f"/w{w}-{i}"})
                    with lock:
                        acked.append(seq)
            except SimulatedCrash:
                pass

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive(), "an appender hung after the crash"
        j.close()
        assert plan.fired() == 1
        survived = [r["seq"] for r in MetadataJournal(path).replay().records]
        assert survived == list(range(1, len(survived) + 1))
        assert set(acked) <= set(survived)
        assert len(survived) == at - 1
