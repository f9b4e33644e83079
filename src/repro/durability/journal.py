"""The write-ahead metadata journal.

One append-only file of CRC-framed JSON records.  Every record is one
line::

    <crc32 of payload, 8 hex chars> <payload JSON>\\n

where the payload carries a monotonically increasing ``seq``, a
``type`` tag, and the event's fields.

There is one append path, **group commit**: appenders enqueue framed
records (:meth:`MetadataJournal.append_async`); whoever reaches the
flush lock first becomes the flusher and writes up to
``batch_records`` queued records with a *single* write+fsync, and each
caller returns only once its record's batch is durable
(:meth:`MetadataJournal.wait_durable`).  Under concurrency the fsync
count collapses from one-per-record to one-per-batch while every
acknowledged record is on disk -- the classic WAL group commit.
``fsync=False`` runs the same path without the fsync;
``batch_records=1`` flushes one record per write on the same path.

Injected disk faults land inside the flush, at the record whose seq
they name, so the crash and torn-write sweeps run the path the
appliance runs -- mid-batch included.

The framing makes every corruption mode the disk-fault layer can
inject *detectable*: a torn tail (no trailing newline), a short write
(CRC mismatch), or a crash between records (file simply ends) all
terminate :meth:`MetadataJournal.replay` at the last durable record
boundary instead of propagating garbage into recovery.

Append failures surface as :class:`JournalError` -- an ``OSError``
subclass carrying the real errno -- so callers can degrade typed
(``ENOSPC`` becomes a no-space response, not a dead connection).
"""

from __future__ import annotations

import errno as _errno
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.disk import CRASH, EIO, SHORT, TORN, SimulatedCrash

__all__ = ["JournalError", "ReplayResult", "MetadataJournal"]


class JournalError(OSError):
    """A journal append (or sync) failed; ``errno`` says why."""


@dataclass
class ReplayResult:
    """What a journal replay found on disk."""

    records: list[dict]  #: every intact record, in append order
    valid_bytes: int  #: length of the intact prefix of the file
    corrupt_tail: bool  #: True when replay stopped at a torn/corrupt record


class MetadataJournal:
    """Group-commit append, fsync and replay over one journal file."""

    def __init__(self, path: str, *, fsync: bool = True, faults=None,
                 registry=None, batch_records: int = 64,
                 batch_delay: float = 0.0):
        self.path = str(path)
        self._fsync = fsync
        self._faults = faults
        self._lock = threading.RLock()
        self._file = None
        #: sequence number of the last record acknowledged (durable or
        #: folded into a snapshot); the next append gets ``last_seq+1``.
        self.last_seq = 0
        self._tail_seq = 0  #: highest seq handed out (>= last_seq)
        self._batch_max = max(1, int(batch_records))
        self._batch_delay = float(batch_delay)
        self._flush_lock = threading.RLock()
        self._pending: list[tuple[int, bytes]] = []
        self._batch_errors: dict[int, JournalError] = {}
        #: set when an injected crash fires: the "process" is dead.
        self._crashed = False
        #: plain hot-path counters (the bench reads these directly).
        self.fsync_count = 0
        self.records_appended = 0
        self._h_fsync = None
        self._h_batch = None
        self._m_records = None
        self._m_errors = None
        if registry is not None:
            self._h_fsync = registry.histogram(
                "journal_fsync_seconds",
                "Wall-clock latency of each metadata-journal fsync.")
            self._h_batch = registry.histogram(
                "journal_batch_records",
                "Records made durable per group-commit flush.",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128))
            self._m_records = registry.counter(
                "journal_records_total",
                "Records appended to the metadata journal.")
            self._m_errors = registry.counter(
                "journal_append_errors_total",
                "Journal appends that failed (EIO, ENOSPC, closed file).")
            registry.gauge_callback(
                "journal_records_per_fsync",
                lambda: (self.records_appended / self.fsync_count
                         if self.fsync_count else 0.0),
                "Fsync amortization: records made durable per fsync "
                "(1.0 = no group-commit batching).")

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    @property
    def tail_seq(self) -> int:
        """The highest seq handed out so far, durable or still queued."""
        return max(self._tail_seq, self.last_seq)

    def append(self, rtype: str, fields: dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        Exactly :meth:`append_async` followed by :meth:`wait_durable`:
        the caller blocks until the batch holding its record is on
        disk, possibly flushing it itself.
        """
        seq = self.append_async(rtype, fields)
        self.wait_durable(seq)
        return seq

    def append_async(self, rtype: str, fields: dict[str, Any]) -> int:
        """Assign a seq and enqueue the framed record *without* waiting
        for the disk.

        This is the WAL split that lets group commit actually batch:
        callers that hold some coarser lock (the storage manager's, in
        this appliance) enqueue under it and call :meth:`wait_durable`
        only after releasing it, so concurrent mutators overlap in the
        queue and share one flush.  The record is not durable until
        ``wait_durable(seq)`` returns; acknowledging before that is a
        durability lie.
        """
        with self._lock:
            if self._crashed:
                raise SimulatedCrash("journal died at a crash point")
            self._tail_seq = max(self._tail_seq, self.last_seq) + 1
            seq = self._tail_seq
            rec = {"seq": seq, "type": rtype, **fields}
            data = json.dumps(rec, sort_keys=True,
                              separators=(",", ":")).encode()
            line = b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF,) + data + b"\n"
            self._pending.append((seq, line))
        return seq

    def wait_durable(self, seq: int) -> None:
        """Drive/await the flush that makes record ``seq`` durable.

        Whoever acquires the flush lock flushes up to ``batch_records``
        queued records; followers blocked on the lock usually find
        their record already durable and return without touching the
        disk.  Batching emerges from fsync backpressure -- no
        background thread, no timers, no idle latency.  A failed batch
        raises its :class:`JournalError` in every waiter; after an
        injected crash every waiter raises :class:`SimulatedCrash`.
        """
        while True:
            with self._flush_lock:
                with self._lock:
                    if self._crashed:
                        raise SimulatedCrash("journal died at a crash point")
                    error = self._batch_errors.pop(seq, None)
                    if error is None and self.last_seq >= seq:
                        return
                if error is not None:
                    if self._m_errors is not None:
                        self._m_errors.inc()
                    raise error
                if self._batch_delay > 0:
                    with self._lock:
                        full = len(self._pending) >= self._batch_max
                    if not full:
                        # Dally with the flush lock held so co-batching
                        # appenders can pile onto the queue.
                        time.sleep(self._batch_delay)
                with self._lock:
                    batch = self._pending[: self._batch_max]
                    del self._pending[: len(batch)]
                if batch:
                    self._flush_batch(batch)

    def _flush_batch(self, batch: list[tuple[int, bytes]]) -> None:
        """One write (+ fsync) covering every record in ``batch``; on
        failure the whole batch is marked failed so each waiter gets a
        typed :class:`JournalError` instead of a false ack."""
        payload = b"".join(line for _, line in batch)
        crash = error = None
        if self._faults is not None:
            payload, crash, error = self._faulted_payload(batch)
        try:
            if payload:
                self._open()
                self._file.write(payload)
                self._do_fsync()
        except ValueError as exc:  # write on a closed file
            error = JournalError(_errno.EIO, f"journal closed: {exc}")
        except OSError as exc:
            error = JournalError(exc.errno or _errno.EIO,
                                 f"journal append failed: {exc}")
        if crash is not None:
            # A SIGKILL: nothing queued ever lands, nobody is acked.
            with self._lock:
                self._crashed = True
                self._pending = []
            raise crash
        if error is not None:
            with self._lock:
                for seq, _ in batch:
                    self._batch_errors[seq] = error
            return
        with self._lock:
            self.last_seq = max(self.last_seq, batch[-1][0])
        self.records_appended += len(batch)
        if self._m_records is not None:
            self._m_records.inc(len(batch))
        if self._h_batch is not None:
            self._h_batch.observe(float(len(batch)))

    def _faulted_payload(self, batch: list[tuple[int, bytes]]):
        """Apply the plan's ``append`` rules by seq; returns
        ``(payload, crash, error)``.  CRASH at k: records before k land,
        then death.  TORN: those plus a fragment of k, then death.
        SHORT: a fragment of k, then the rest; success is reported.
        EIO/ENOSPC: nothing lands, every waiter gets the errno."""
        lines: list[bytes] = []
        for seq, line in batch:
            rule = self._faults.check("append", at=seq)
            if rule is None:
                lines.append(line)
            elif rule.action in (TORN, SHORT):
                keep = rule.keep_bytes
                lines.append(line[:max(1, len(line) // 2)
                                  if keep is None else keep])
                if rule.action == TORN:
                    return b"".join(lines), SimulatedCrash("torn append"), None
            elif rule.action == CRASH:
                return b"".join(lines), SimulatedCrash("crash point"), None
            else:
                code = _errno.EIO if rule.action == EIO else _errno.ENOSPC
                return b"", None, JournalError(
                    code, f"injected {rule.action} on journal append")
        return b"".join(lines), None, None

    def _open(self) -> None:
        if self._file is None or self._file.closed:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # Unbuffered: every write hits the OS immediately, so the
            # only volatile layer left for fsync to flush is the page
            # cache (and torn fragments from injected faults really
            # land on "disk").
            self._file = open(self.path, "ab", buffering=0)

    def _do_fsync(self) -> None:
        if not self._fsync:
            return
        t0 = time.perf_counter()
        os.fsync(self._file.fileno())
        self.fsync_count += 1
        if self._h_fsync is not None:
            self._h_fsync.observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Parse the journal from disk, stopping at the first record
        that is torn, short, or CRC-corrupt.  Never raises on bad
        data: a damaged tail simply ends history early."""
        try:
            with open(self.path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return ReplayResult([], 0, False)
        records: list[dict] = []
        pos = 0
        valid = 0
        corrupt = False
        while pos < len(raw):
            nl = raw.find(b"\n", pos)
            if nl < 0:
                corrupt = True  # torn tail: record never finished
                break
            line = raw[pos:nl]
            rec = self._parse_line(line)
            if rec is None:
                corrupt = True
                break
            records.append(rec)
            pos = nl + 1
            valid = pos
        return ReplayResult(records, valid, corrupt)

    @staticmethod
    def _parse_line(line: bytes) -> Optional[dict]:
        if len(line) < 10 or line[8:9] != b" ":
            return None
        try:
            crc = int(line[:8], 16)
        except ValueError:
            return None
        data = line[9:]
        if zlib.crc32(data) & 0xFFFFFFFF != crc:
            return None
        try:
            rec = json.loads(data)
        except ValueError:
            return None
        if not isinstance(rec, dict) or "seq" not in rec or "type" not in rec:
            return None
        return rec

    # ------------------------------------------------------------------
    # rotation
    # ------------------------------------------------------------------
    def reset_if_quiescent(self, upto_seq: int) -> bool:
        """Truncate the journal *iff* no record newer than ``upto_seq``
        has been appended (i.e. everything on disk is covered by the
        snapshot just written).  Returns whether truncation happened;
        a concurrent append simply defers compaction to the next
        snapshot -- replay skips records ``<= snapshot.seq`` anyway."""
        with self._flush_lock, self._lock:
            if self.last_seq != upto_seq or self._pending:
                return False
            self.close()
            open(self.path, "wb").close()
            return True

    def truncate_to(self, nbytes: int) -> None:
        """Cut a torn/corrupt tail off the journal so future appends
        extend the intact prefix instead of following garbage."""
        with self._flush_lock, self._lock:
            self.close()
            try:
                with open(self.path, "r+b") as f:
                    f.truncate(max(0, nbytes))
            except FileNotFoundError:
                pass

    def size_bytes(self) -> int:
        """Current on-disk journal size."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        """Flush stragglers, then release the file.  A dead journal
        writes nothing: a SIGKILL persists no stragglers."""
        with self._flush_lock:
            # Stragglers from ops that failed before wait_durable;
            # _flush_batch parks any error per-seq rather than raising.
            with self._lock:
                batch = [] if self._crashed else self._pending
                self._pending = []
            if batch:
                self._flush_batch(batch)
            with self._lock:
                if self._file is not None and not self._file.closed:
                    self._file.close()
                self._file = None
