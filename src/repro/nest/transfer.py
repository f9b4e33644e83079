"""The live transfer manager: scheduled data movement (paper, §4).

The transfer manager owns every on-going transfer and puts all of
them, whatever the protocol, under one scheduler (FCFS / stride /
cache-aware -- the same pure policy objects the simulated substrate
uses).  The scheduler is a *grant gate*: whichever thread frees a
pump slot (``transfer_workers``) or makes a job ready hands each free
slot to the job the scheduler selects and wakes that job's owner, which
moves the quantum itself.  A handler calling
:meth:`TransferManager.transfer_sync` thus pumps its own bytes -- an
uncontended transfer never leaves its thread -- while contended ones
interleave quantum by quantum in scheduler order.
:meth:`TransferManager.submit` runs the same loop on a thread of its own.

The paper's adaptive choice among concurrency models (§4.1, Fig. 5)
lives in :mod:`repro.nest.concurrency`: live, it picks the *server*
architecture per connection; the per-request selector is reproduced
on the simulated substrate (:mod:`repro.simnest`).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from typing import Any, BinaryIO, Callable, Optional

from repro.obs import spans as _spans
from repro.obs.log import get_logger

logger = get_logger(__name__)

from repro.nest import io as fastio
from repro.nest.config import NestConfig
from repro.nest.scheduling import Scheduler, TransferJob, make_job, make_scheduler

#: Per-transfer pumping strategies, chosen once at submission and
#: never mixed mid-stream (mixing buffered reads with descriptor-level
#: sendfile would desynchronize the fd offset from the buffer).
SENDFILE = "sendfile"
POOLED = "pooled"


class TransferError(Exception):
    """A transfer failed mid-flight (stream error, short read...)."""


class Transfer:
    """One scheduled data movement between two byte streams."""

    def __init__(
        self,
        job: TransferJob,
        source: BinaryIO,
        sink: BinaryIO,
        total: int,
        on_done: Optional[Callable[["Transfer"], None]] = None,
        span: Optional["_spans.Span"] = None,
    ):
        if not fastio.supports_readinto(source):
            raise TypeError(
                f"transfer source {type(source).__name__} has no readinto()")
        self.job = job
        self.source = source
        self.sink = sink
        self.total = total
        self.on_done = on_done
        self.moved = 0
        self.error: Optional[BaseException] = None
        #: error raised by the ``on_done`` callback itself, if any --
        #: kept separate so it never masks the transfer's own outcome.
        self.callback_error: Optional[BaseException] = None
        self.started_at = time.monotonic()
        #: parent request span, when the submitter is being traced --
        #: queue-wait and transfer children are attached retroactively,
        #: once the first grant and the finish times are known.
        self.span = span
        self.submitted_wall = time.time()
        self.dispatched_at: Optional[float] = None
        self.dispatched_wall: Optional[float] = None
        self._finished = threading.Event()
        #: incremental CRC32 of the bytes moved, or None when the
        #: transfer went (even partly) through sendfile -- those bytes
        #: never surface into Python, so there is nothing to fold.
        self.crc: Optional[int] = 0
        self._buffer: Optional[bytearray] = None
        self._view: Optional[memoryview] = None
        self.strategy = self._choose_strategy()

    def _choose_strategy(self) -> str:
        """Pick the pumping strategy for this source/sink pair.

        ``sendfile`` needs a real descriptor on *both* ends -- checked
        at class level so fault-injection wrappers (which forward
        ``fileno`` via ``__getattr__``) stay on the honest
        ``readinto``/``write`` path.  Everything else takes the pooled
        ``readinto`` loop.
        """
        if (fastio.sendfile_available and self.total > 0
                and fastio.real_fileno(self.source) is not None
                and fastio.real_fileno(self.sink) is not None):
            try:
                # sendfile writes at the descriptor; drain any
                # buffered protocol header first so ordering holds.
                self.sink.flush()
                return SENDFILE
            except (OSError, ValueError):
                pass
        return POOLED

    # -- pump side ---------------------------------------------------------
    def pump_chunk(self, nbytes: int) -> int:
        """Move up to ``nbytes``; returns bytes moved (0 at EOF)."""
        want = nbytes if self.total < 0 else min(nbytes, self.total - self.moved)
        if want <= 0:
            return 0
        if self.strategy == SENDFILE:
            moved = self._pump_sendfile(want)
            if moved is not None:
                return moved
            # fell through: sendfile refused this pair; demoted.
        return self._pump_pooled(want)

    def _pump_sendfile(self, want: int) -> Optional[int]:
        try:
            sent = fastio.sendfile(self.sink.fileno(), self.source.fileno(),
                                   want)
        except OSError:
            # Descriptor pair sendfile cannot serve (or a stalled
            # socket): demote permanently; the pooled path resumes
            # from the current descriptor offsets.
            self.strategy = POOLED
            return None
        if not sent:
            if self.moved < self.total:
                raise TransferError(
                    f"source ended {self.total - self.moved} bytes early"
                )
            return 0
        self.crc = None
        self.moved += sent
        return sent

    def _pump_pooled(self, want: int) -> int:
        if self._buffer is None:
            self._buffer = fastio.DEFAULT_POOL.acquire()
            self._view = memoryview(self._buffer)
        view = self._view
        moved_now = 0
        while moved_now < want:
            step = min(len(view), want - moved_now)
            got = self.source.readinto(view[:step])
            if not got:
                break
            chunk = view[:got]
            if self.crc is not None:
                self.crc = zlib.crc32(chunk, self.crc)
            self.sink.write(chunk)
            self.moved += got
            moved_now += got
            fastio.COUNTERS.count_fallback(got, self.crc is not None)
        if not moved_now and self.total >= 0 and self.moved < self.total:
            raise TransferError(
                f"source ended {self.total - self.moved} bytes early"
            )
        return moved_now

    def _release_buffer(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._buffer is not None:
            fastio.DEFAULT_POOL.release(self._buffer)
            self._buffer = None

    # -- waiter side -------------------------------------------------------
    def wait(self, timeout: float | None = 30.0) -> int:
        """Block until the transfer completes; returns bytes moved.

        Raises the transfer's error, or :exc:`TransferError` on timeout.
        """
        if not self._finished.wait(timeout):
            raise TransferError("transfer timed out")
        if self.error is not None:
            raise self.error
        return self.moved

    def _finish(self, error: BaseException | None = None) -> None:
        if error is not None:
            self.error = error
        self._release_buffer()
        # Run the completion callback before releasing waiters, so a
        # waiter that returns from wait() observes its side effects
        # (including callback_error).
        if self.on_done:
            try:
                self.on_done(self)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                # A broken completion callback must not kill the
                # pumping thread, but it must not vanish either: the
                # waiter can inspect it, and it goes to the log.
                self.callback_error = exc
                logger.warning(
                    "transfer on_done callback failed for %s: %r",
                    self.job.path or self.job.protocol, exc,
                )
        self._finished.set()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started_at


class TransferManager:
    """Schedules transfers under one NestConfig; owners pump them."""

    def __init__(self, config: NestConfig, residency=None, obs=None):
        config.validate()
        self.config = config
        #: optional repro.obs.Observability bundle; when present every
        #: transfer feeds the metrics registry, the health monitor's
        #: rolling throughput, and (for traced requests) queue-wait and
        #: transfer child spans.
        self.obs = obs
        if obs is not None:
            reg = obs.registry
            self._m_bytes = reg.counter(
                "nest_transfer_bytes_total",
                "Bytes moved through the transfer manager.", ("protocol",))
            self._m_transfers = reg.counter(
                "nest_transfers_total",
                "Transfers completed.", ("protocol", "outcome"))
            self._m_failures = reg.counter(
                "nest_transfer_failures_total",
                "Transfer failures by cause.", ("protocol", "cause"))
            self._m_seconds = reg.histogram(
                "nest_transfer_seconds",
                "Transfer duration, submit to completion.", ("protocol",))
            self._m_queue_wait = reg.histogram(
                "nest_queue_wait_seconds",
                "Time from submit to first scheduler grant.",
                ("protocol",))
            reg.gauge_callback("nest_transfer_queue_depth", self.queue_depth,
                               "Transfers waiting for a scheduler grant.")
            reg.gauge_callback("nest_transfers_in_flight", self.in_flight,
                               "Transfer quanta currently executing.")
            reg.gauge_callback("nest_transfer_failure_ring",
                               lambda: len(self._failures),
                               "Failure causes currently retained.")
            fastio.register_metrics(reg)
        self.scheduler: Scheduler = make_scheduler(
            config.scheduling,
            shares=config.shares,
            residency=residency or (lambda path, size: 0.0),
            work_conserving=config.work_conserving,
            share_by=config.share_by,
        )
        self._lock = threading.Lock()
        self._pending: dict[int, Transfer] = {}
        #: one Condition (on ``_lock``) per pending job: a grant wakes
        #: only the owner it was made to, never every waiting owner.
        self._turns: dict[int, threading.Condition] = {}
        #: end of the current non-work-conserving idle, if one is on.
        self._idle_until: float | None = None
        #: ring of recent per-transfer failure causes (newest last);
        #: each entry is timestamped ("at", epoch seconds) and the
        #: bound is the administrator's ``config.failure_history``.
        self._failures: deque[dict[str, Any]] = deque(
            maxlen=config.failure_history)
        self._in_flight = 0
        self._enqueue_seq = 0
        self._running = True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def run(self, *args, timeout: float | None = 60.0, **kwargs) -> Transfer:
        """Move a transfer to completion on the calling thread, one
        granted quantum at a time (the arguments are :meth:`submit`'s).

        Returns the finished :class:`Transfer` (its ``crc`` and
        ``moved``); raises its error, or :exc:`TransferError` when a
        grant does not come within ``timeout`` seconds.
        """
        transfer = self._admit(*args, **kwargs)
        self._pump(transfer, timeout)
        if transfer.error is not None:
            raise transfer.error
        return transfer

    def transfer_sync(self, *args, **kwargs) -> int:
        """:meth:`run` for handlers; returns bytes moved."""
        return self.run(*args, **kwargs).moved

    def submit(self, *args, **kwargs) -> Transfer:
        """Start a transfer on its own thread; returns immediately.

        Arguments: ``source``, ``sink``, ``total`` (bytes; -1 reads to
        EOF), ``protocol``, and optionally ``user``, ``path``,
        ``on_done`` (called with the finished transfer) and ``span``
        (parent of the retroactive queue-wait and transfer child spans;
        defaults to the caller's active span).  The thread runs the
        same grant-and-pump loop as :meth:`run`; collect the outcome
        with :meth:`Transfer.wait`.
        """
        transfer = self._admit(*args, **kwargs)
        threading.Thread(target=self._pump, args=(transfer, None),
                         name=f"nest-transfer-{transfer.job.job_id}",
                         daemon=True).start()
        return transfer

    def _admit(
        self,
        source: BinaryIO,
        sink: BinaryIO,
        total: int,
        protocol: str,
        user: str = "anonymous",
        path: str = "",
        on_done: Optional[Callable[[Transfer], None]] = None,
        span: Optional["_spans.Span"] = None,
    ) -> Transfer:
        """Queue a new transfer, ready for its first grant."""
        job = make_job(protocol, user=user, path=path, total_bytes=total)
        transfer = Transfer(job, source, sink, total, on_done=on_done,
                            span=span or _spans.current_span())
        with self._lock:
            self.scheduler.add(job)
            self._enqueue_seq += 1
            job.enqueue_seq = self._enqueue_seq
            job.ready = True
            job.available = total if total >= 0 else 1 << 62
            self._pending[job.job_id] = transfer
            self._turns[job.job_id] = threading.Condition(self._lock)
            self._grant_locked()
        return transfer

    def failures(self) -> list[dict[str, Any]]:
        """Recent transfer failures, oldest first.

        Each entry records protocol, user, path, bytes moved vs.
        expected, the error, and a timestamp ("at", epoch seconds) --
        the manageability counterpart of the paper's "storage
        appliances must be observable": a failed transfer leaves a
        cause an operator can read, not just a closed socket.  The
        ring keeps the most recent ``config.failure_history`` entries;
        its live size and per-cause totals are also registry metrics.
        """
        with self._lock:
            return list(self._failures)

    def queue_depth(self) -> int:
        """Transfers enqueued and awaiting a scheduler grant."""
        with self._lock:
            return sum(1 for t in self._pending.values() if t.job.ready)

    def in_flight(self) -> int:
        """Transfer quanta currently being pumped."""
        with self._lock:
            return self._in_flight

    def shutdown(self) -> None:
        """Fail every transfer the manager still holds.

        Each one finishes with a typed ``TransferError("manager shut
        down")`` and returns its pooled buffer to ``DEFAULT_POOL``:
        owners waiting for a grant wake and fail at once, instead of
        sitting out their timeout; an owner whose quantum is in flight
        fails the same way when that quantum returns, instead of asking
        for another grant.
        """
        with self._lock:
            self._running = False
            for turn in self._turns.values():
                turn.notify_all()

    # ------------------------------------------------------------------
    # the grant gate
    # ------------------------------------------------------------------
    def _pump(self, transfer: Transfer, timeout: float | None) -> None:
        """Drive ``transfer`` to completion on the calling thread, one
        granted quantum at a time."""
        job = transfer.job
        error: BaseException | None = None
        while True:
            try:
                grant = self._await_grant(job, timeout)
            except TransferError as exc:
                error = exc
                break
            if transfer.dispatched_at is None:
                self._observe_first_grant(transfer)
            moved = 0
            try:
                moved = transfer.pump_chunk(grant)
            except BaseException as exc:  # noqa: BLE001 - reported to waiter
                error = exc
            if self.obs is not None and moved:
                self._m_bytes.inc(moved, protocol=job.protocol)
                self.obs.health.record_bytes(moved)
            # EOF (a quantum that moved nothing) counts as done.
            finished = (error is not None or not moved
                        or 0 <= transfer.total <= transfer.moved)
            with self._lock:
                self._in_flight -= 1
                self.scheduler.charge(job, moved)
                if not finished:
                    # Back in the queue and the freed slot re-granted in
                    # the same critical section, so a pending job is
                    # always either ready (queued) or granted.
                    self._enqueue_seq += 1
                    job.enqueue_seq = self._enqueue_seq
                    job.ready = True
                    self._grant_locked()
            if finished:
                break
        with self._lock:
            self.scheduler.remove(job)
            self._pending.pop(job.job_id, None)
            self._turns.pop(job.job_id, None)
            if error is not None:
                self._failures.append({
                    "protocol": job.protocol,
                    "user": job.user,
                    "path": job.path,
                    "moved": transfer.moved,
                    "total": transfer.total,
                    "error": error,
                    "at": time.time(),
                })
            self._grant_locked()
        self._observe_finish(transfer, error)
        transfer._finish(error)

    def _await_grant(self, job: TransferJob, timeout: float | None) -> int:
        """Block until ``job`` is granted its next quantum; returns the
        grant in bytes.  Raises :exc:`TransferError` if the manager
        shuts down or ``timeout`` seconds pass first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        turn = self._turns[job.job_id]
        with self._lock:
            while job.ready:  # a grant takes the job out of the queue
                if not self._running:
                    job.ready = False
                    raise TransferError("manager shut down")
                now = time.monotonic()
                wait: float | None = None
                if (self._idle_until is not None
                        and self._in_flight < self.config.transfer_workers):
                    # An idle is on with a slot free: whoever wakes
                    # first when it ends makes the grant.
                    if now >= self._idle_until:
                        self._grant_locked()
                        continue
                    wait = self._idle_until - now
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        job.ready = False
                        raise TransferError("transfer timed out")
                    wait = remaining if wait is None else min(wait, remaining)
                turn.wait(wait)
            # Solo transfers get burst-sized grants: nothing else is
            # ready or in flight, so a big quantum costs no fairness
            # and saves hundreds of arbitration passes.  Any contention
            # at all keeps the configured quantum.
            if self._in_flight == 1 and not self.scheduler.has_ready():
                return self.config.burst_bytes
            return self.config.quantum_bytes

    def _grant_locked(self) -> None:
        """Hand each free pump slot to the job the scheduler selects and
        wake its owner.  Every change to the ready set or the slot count
        calls this, so no slot sits free while a job is ready."""
        while self._running and self._in_flight < self.config.transfer_workers:
            pick = self.scheduler.select()
            if pick is None:
                pick = self._best_ready_locked()
                if pick is None:
                    self._idle_until = None
                    return
                # Non-work-conserving idling: give the rightful job
                # 2 ms, then grant the best ready one anyway.  Its owner
                # is woken to time the idle.
                now = time.monotonic()
                if self._idle_until is None:
                    self._idle_until = now + 0.002
                if now < self._idle_until:
                    self._turns[pick.job_id].notify()
                    return
            self._idle_until = None
            pick.ready = False
            self._in_flight += 1
            self._turns[pick.job_id].notify()

    def _best_ready_locked(self) -> TransferJob | None:
        ready = [t.job for t in self._pending.values() if t.job.ready]
        if not ready:
            return None
        return min(ready, key=lambda j: (j.pass_value, j.enqueue_seq))

    def _observe_first_grant(self, transfer: Transfer) -> None:
        """Record the interval since submit as this transfer's
        queue-wait: a retroactive child span plus a histogram
        observation."""
        transfer.dispatched_at = time.perf_counter()
        transfer.dispatched_wall = time.time()
        waited = max(transfer.dispatched_wall - transfer.submitted_wall, 0.0)
        protocol = transfer.job.protocol
        if self.obs is not None:
            self._m_queue_wait.observe(waited, protocol=protocol)
        if transfer.span is not None:
            transfer.span.child_at("queue", transfer.submitted_wall, waited,
                                   protocol=protocol)

    def _observe_finish(self, transfer: Transfer,
                        error: BaseException | None) -> None:
        """Publish one completed transfer's telemetry."""
        obs = self.obs
        if obs is not None:
            outcome = "error" if error is not None else "ok"
            protocol = transfer.job.protocol
            self._m_transfers.inc(1, protocol=protocol, outcome=outcome)
            self._m_seconds.observe(transfer.elapsed, protocol=protocol)
            if error is not None:
                self._m_failures.inc(1, protocol=protocol,
                                     cause=type(error).__name__)
        if transfer.span is not None:
            start = transfer.dispatched_wall or transfer.submitted_wall
            reference = transfer.dispatched_at
            pumped = (time.perf_counter() - reference
                      if reference is not None else 0.0)
            child = transfer.span.child_at(
                "transfer", start, max(pumped, 0.0),
                protocol=transfer.job.protocol, bytes=transfer.moved)
            if error is not None:
                child.status = "error"
                child.set(error=type(error).__name__)
