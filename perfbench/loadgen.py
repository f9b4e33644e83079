"""Closed-loop load generation through the repo's own protocol clients.

Each client thread owns one session per protocol it speaks and keeps
exactly one request in flight: Grid jobs block on every Chirp, NFS or
GridFTP call, and with two cores an open-loop generator would mostly
measure its own scheduler.  Every operation is timed around the public
client call alone; payload generation and CRC checks happen outside the
timed region.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

from inputs import FileSpec, Op, content

from repro.client import (ChirpClient, FtpClient, GridFtpClient, HttpClient,
                          NfsClient)

CLIENT_CLASSES = {"chirp": ChirpClient, "http": HttpClient, "ftp": FtpClient,
                  "gridftp": GridFtpClient, "nfs": NfsClient}


def size_bucket(size: int) -> str:
    """The latency-matrix column a read falls in."""
    if 512 <= size <= 2048:
        return "1k"
    if size >= 48 * 1024:
        return "64k"
    return ""


@dataclass
class Sample:
    kind: str
    proto: str
    op: str
    size: int
    start: float
    end: float
    nbytes: int


@dataclass
class Outcome:
    """Everything the client threads observed, merged."""

    samples: list[Sample] = field(default_factory=list)
    #: (start, end, op, error) of operations that raised
    errors: list[tuple[float, float, Op, str]] = field(default_factory=list)
    #: failed correctness checks, as messages
    problems: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


def open_sessions(ports: dict[str, int], protocols) -> dict:
    sessions = {}
    for proto in protocols:
        client = CLIENT_CLASSES[proto]("127.0.0.1", ports[proto])
        if proto == "nfs":
            client.mount("/")
        sessions[proto] = client
    return sessions


def close_sessions(sessions: dict) -> None:
    for client in sessions.values():
        client.close()


def execute(sessions: dict, op: Op, payload: bytes | None):
    """Run one operation; returns what a check needs (data, size...).
    small-read reads and stats over every protocol; durable-write's
    writes and namespace changes, and listings, go over Chirp."""
    client = sessions[op.proto]
    proto, verb = op.proto, op.op
    if verb == "get":
        if proto in ("chirp", "http"):
            return client.get(op.path)
        if proto in ("ftp", "gridftp"):
            return client.retr(op.path)
        return client.read_file(op.path)
    if verb == "stat":
        if proto == "chirp":
            return client.stat(op.path)["size"]
        if proto == "http":
            return client.head(op.path)["size"]
        if proto in ("ftp", "gridftp"):
            return client.size(op.path)
        return client.lookup_path(op.path)[1]["size"]
    if verb == "put":
        return client.put(op.path, payload)
    if verb == "listdir":
        directory = op.path.rpartition("/")[0]
        return [entry["name"] for entry in client.listdir(directory)]
    if verb == "unlink":
        return client.unlink(op.path)
    if verb == "mkdir":
        return client.mkdir(op.path)
    if verb == "rename":
        return client.rename(op.path, op.new_path)
    raise ValueError(f"unknown operation {proto} {verb!r}")


class Checker:
    """Correctness of one operation's result against the seed-time
    CRCs and sizes."""

    def __init__(self, pool: bytes, crcs: dict[str, int]):
        self.pool = pool
        self.crcs = crcs

    def expected_crc(self, spec: FileSpec) -> int:
        crc = self.crcs.get(spec.path)
        if crc is None:
            crc = zlib.crc32(content(self.pool, spec)) & 0xFFFFFFFF
        return crc

    def check(self, op: Op, result) -> str | None:
        spec = op.file
        if op.kind == "read":
            if len(result) != spec.size:
                return f"{op.proto} {op.path}: {len(result)} bytes, want {spec.size}"
            if zlib.crc32(result) & 0xFFFFFFFF != self.expected_crc(spec):
                return f"{op.proto} {op.path}: CRC mismatch"
        elif op.op == "stat" and result != spec.size:
            return f"{op.proto} stat {op.path}: size {result}, want {spec.size}"
        elif op.op == "listdir" and op.path.rpartition("/")[2] not in result:
            return f"listdir misses {op.path}"
        return None


def client_loop(next_op: Callable[[], Op], sessions: dict, checker: Checker,
                outcome: Outcome, stop: threading.Event,
                acknowledged: Callable[[Op], None] | None = None) -> None:
    """One closed-loop client: send, wait, check, repeat until stop."""
    while not stop.is_set():
        op = next_op()
        payload = (content(checker.pool, op.file)
                   if op.kind == "write" else None)
        start = time.perf_counter()
        try:
            result = execute(sessions, op, payload)
            end = time.perf_counter()
            if acknowledged is not None:
                acknowledged(op)
            sample = Sample(op.kind, op.proto, op.op,
                            op.file.size if op.file else 0, start, end,
                            len(result) if op.kind == "read"
                            else len(payload or b""))
            problem = checker.check(op, result)
        except Exception as exc:  # noqa: BLE001 - recorded and counted
            with outcome.lock:
                outcome.errors.append((start, time.perf_counter(), op,
                                       repr(exc)))
            continue
        with outcome.lock:
            outcome.samples.append(sample)
            if problem is not None:
                outcome.problems.append(problem)
