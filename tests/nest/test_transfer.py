"""Unit tests for the live transfer manager."""

import io
import sys
import threading
import time

import pytest

from repro.nest.config import NestConfig
from repro.nest.transfer import Transfer, TransferError, TransferManager


@pytest.fixture
def manager():
    tm = TransferManager(NestConfig(transfer_workers=4))
    yield tm
    tm.shutdown()


class TestBasicTransfers:
    def test_round_trip(self, manager):
        payload = b"payload " * 10_000
        sink = io.BytesIO()
        moved = manager.transfer_sync(io.BytesIO(payload), sink,
                                      len(payload), "chirp")
        assert moved == len(payload)
        assert sink.getvalue() == payload

    def test_empty_transfer(self, manager):
        sink = io.BytesIO()
        assert manager.transfer_sync(io.BytesIO(b""), sink, 0, "http") == 0

    def test_unknown_length_reads_to_eof(self, manager):
        payload = b"x" * 123_456
        sink = io.BytesIO()
        moved = manager.transfer_sync(io.BytesIO(payload), sink, -1, "ftp")
        assert moved == len(payload)

    def test_short_source_reports_error(self, manager):
        sink = io.BytesIO()
        transfer = manager.submit(io.BytesIO(b"only 9 by"), sink, 100, "chirp")
        with pytest.raises(TransferError):
            transfer.wait(5)

    def test_concurrent_transfers_isolated(self, manager):
        transfers = []
        for i in range(16):
            payload = bytes([i]) * 10_000
            sink = io.BytesIO()
            transfers.append(
                (manager.submit(io.BytesIO(payload), sink, len(payload),
                                "http"), sink, payload)
            )
        for transfer, sink, payload in transfers:
            assert transfer.wait(10) == len(payload)
            assert sink.getvalue() == payload

    def test_on_done_callback(self, manager):
        done = threading.Event()
        seen = []

        def callback(transfer):
            seen.append(transfer.moved)
            done.set()

        manager.submit(io.BytesIO(b"abc"), io.BytesIO(), 3, "chirp",
                       on_done=callback)
        assert done.wait(5)
        assert seen == [3]


class TestScheduling:
    def test_stride_shapes_live_transfers(self):
        # Throttle via tiny quanta so shaping is observable.
        config = NestConfig(
            scheduling="stride",
            shares={"fast": 4.0, "slow": 1.0},
            transfer_workers=1,
            quantum_bytes=1024,
        )
        tm = TransferManager(config)
        try:
            moved = {"fast": 0, "slow": 0}
            size = 400_000

            class CountingSink(io.BytesIO):
                def __init__(self, key):
                    super().__init__()
                    self.key = key

                def write(self, data):
                    moved[self.key] += len(data)
                    return super().write(data)

            transfers = []
            for key in ("fast", "fast", "slow", "slow"):
                transfers.append(tm.submit(
                    io.BytesIO(b"d" * size), CountingSink(key), size, key))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                total = moved["fast"] + moved["slow"]
                if total > 500_000:
                    break
                time.sleep(0.01)
            # While both classes are backlogged, fast gets ~4x.
            assert moved["fast"] > 2 * moved["slow"]
            for t in transfers:
                t.wait(30)
        finally:
            tm.shutdown()

    def test_shutdown_idempotent_enough(self):
        tm = TransferManager(NestConfig())
        tm.shutdown()
        # A second shutdown must not raise.
        tm._running = False


class GatedSource:
    """``readinto`` blocks until the gate opens: a quantum that stays
    in flight for as long as a test needs."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def readinto(self, view) -> int:
        self.gate.wait(10.0)
        view[:] = b"g" * len(view)
        return len(view)


class TestGrantGate:
    """Owners pump their own quanta; the scheduler only grants them."""

    @staticmethod
    def _pump_threads() -> list[str]:
        return [t.name for t in threading.enumerate()
                if t.name.startswith(("nest-xfer", "nest-events"))]

    def test_construction_starts_no_thread(self):
        before = set(threading.enumerate())
        tm = TransferManager(NestConfig())
        try:
            assert set(threading.enumerate()) == before
        finally:
            tm.shutdown()

    def test_uncontended_transfer_pumps_on_caller_thread(self, manager,
                                                         monkeypatch):
        pumped_on = []
        pump = Transfer.pump_chunk

        def recording_pump(transfer, nbytes):
            pumped_on.append(threading.get_ident())
            return pump(transfer, nbytes)

        monkeypatch.setattr(Transfer, "pump_chunk", recording_pump)
        payload = b"q" * 100_000
        sink = io.BytesIO()
        assert manager.transfer_sync(io.BytesIO(payload), sink,
                                     len(payload), "chirp") == len(payload)
        assert sink.getvalue() == payload
        assert pumped_on and set(pumped_on) == {threading.get_ident()}
        assert self._pump_threads() == []

    def test_grant_wait_times_out_typed(self):
        tm = TransferManager(NestConfig(transfer_workers=1))
        source = GatedSource()
        try:
            blocker = tm.submit(source, io.BytesIO(), 1 << 20, "chirp")
            deadline = time.monotonic() + 5.0
            while tm.in_flight() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert tm.in_flight() == 1
            t0 = time.monotonic()
            with pytest.raises(TransferError, match="timed out"):
                tm.transfer_sync(io.BytesIO(b"late"), io.BytesIO(), 4,
                                 "chirp", timeout=0.2)
            assert time.monotonic() - t0 < 1.0
            # The timed-out transfer left the queue and left a cause.
            assert tm.queue_depth() == 0
            assert any("timed out" in repr(f["error"])
                       for f in tm.failures())
            source.gate.set()
            assert blocker.wait(10) == 1 << 20
        finally:
            source.gate.set()
            tm.shutdown()

    def test_taken_grant_hands_free_slot_on(self):
        """A job ready before its owner runs is picked first; when that
        owner takes its grant and then blocks, the next owner in line
        must get one of the free slots at once, not wait for it."""
        tm = TransferManager(NestConfig(transfer_workers=4))
        source = GatedSource()
        try:
            # Admitted (ready, first in FCFS order), owner not running.
            slow = tm._admit(source, io.BytesIO(), 1 << 20, "chirp")
            payload = b"f" * 4096
            sink = io.BytesIO()
            fast = threading.Thread(
                target=tm.transfer_sync,
                args=(io.BytesIO(payload), sink, len(payload), "http"))
            fast.start()
            deadline = time.monotonic() + 5.0
            while tm.queue_depth() < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # the fast owner is now waiting its turn
            threading.Thread(target=tm._pump, args=(slow, None),
                             daemon=True).start()
            fast.join(2.0)
            assert not fast.is_alive()
            assert not source.gate.is_set()
            assert sink.getvalue() == payload
            source.gate.set()
            assert slow.wait(10) == 1 << 20
        finally:
            source.gate.set()
            tm.shutdown()

    def test_non_work_conserving_idle_ends_in_a_grant(self):
        """With the rightful (minimum-pass) job in flight, stride without
        work conservation selects nobody; after the 2 ms idle the best
        ready job still gets the free slot, so nothing stalls."""
        tm = TransferManager(NestConfig(
            scheduling="stride", work_conserving=False, transfer_workers=2,
            quantum_bytes=1024, burst_bytes=1024))
        source = GatedSource()
        try:
            rightful = tm.submit(source, io.BytesIO(), 1 << 20, "chirp")
            deadline = time.monotonic() + 5.0
            while tm.in_flight() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            payload = b"w" * 8192
            sink = io.BytesIO()
            t0 = time.monotonic()
            assert tm.transfer_sync(io.BytesIO(payload), sink, len(payload),
                                    "http", timeout=2.0) == len(payload)
            assert sink.getvalue() == payload
            assert time.monotonic() - t0 < 1.0
            assert not source.gate.is_set()
            source.gate.set()
            assert rightful.wait(10) == 1 << 20
        finally:
            source.gate.set()
            tm.shutdown()

    def test_stress_grants_never_exceed_pump_slots(self):
        """More owners than cores, a short switch interval: every byte
        arrives, at most ``transfer_workers`` quanta pump at once, and
        the gate ends empty (a lost update would break one of these)."""
        tm = TransferManager(NestConfig(transfer_workers=2,
                                        quantum_bytes=512))
        peak = [0]

        class SlotSink(io.BytesIO):
            def write(self, data):
                peak[0] = max(peak[0], tm.in_flight())
                return super().write(data)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [(bytes([i]) * (20_000 + i), SlotSink()) for i in range(12)]
            transfers = [tm.submit(io.BytesIO(p), s, len(p), f"p{i % 3}")
                         for i, (p, s) in enumerate(jobs[:8])]
            sync_threads = [
                threading.Thread(target=tm.transfer_sync,
                                 args=(io.BytesIO(p), s, len(p), "sync"))
                for p, s in jobs[8:]]
            for thread in sync_threads:
                thread.start()
            for transfer in transfers:
                transfer.wait(30)
            for thread in sync_threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
            tm.shutdown()
        for payload, sink in jobs:
            assert sink.getvalue() == payload
        assert 1 <= peak[0] <= 2
        assert tm.in_flight() == 0 and tm.queue_depth() == 0
        assert tm.failures() == []
