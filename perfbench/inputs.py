"""Seeded inputs for the appliance benchmark.

Everything a workload feeds the appliance -- file names, sizes,
contents, popularity, the op mix and the order of operations -- is
derived from the ``--seed`` argument here, so the same seed always
drives the same inputs and the appliance receives nothing else.

The generators are *stratified*: a seed decides which file is popular,
which name and size it has and in which order operations come, but the
histogram of sizes, the popularity curve and the op mix are the same
for every seed.  Without that, one seed whose hottest file happened to
be a 64 KiB NFS read would move the whole run's latency, and runs with
different seeds could not be compared.
"""

from __future__ import annotations

import bisect
import random
import zlib
from dataclasses import dataclass
from typing import Iterator

KIB = 1024
MIB = 1024 * KIB

PROTOCOLS = ("chirp", "http", "ftp", "gridftp", "nfs")

#: Bytes of seeded randomness every file's content is cut from.
POOL_BYTES = 1 * MIB

#: Closed-loop client threads: one per core, one request in flight each.
CLIENTS = 2

#: small-read working set: directories x files per directory.
SMALL_DIRS = 30
SMALL_FILES_PER_DIR = 100
#: Zipf exponent of small-read popularity.
ZIPF_S = 0.8
#: small-read size classes (inclusive byte ranges).  Popularity rank r
#: gets class (5 r + 3) mod 8, so every eight consecutive ranks hold one
#: file of each class and the bytes a read moves do not hinge on which
#: size the seed gives the hottest file.
SMALL_SIZE_CLASSES = (
    (0, 0), (64, 511), (512, 2 * KIB), (2 * KIB + 1, 8 * KIB),
    (8 * KIB + 1, 16 * KIB), (16 * KIB + 1, 32 * KIB),
    (32 * KIB + 1, 48 * KIB - 1), (48 * KIB, 64 * KIB),
)
#: One burst of small-read operations, sent over one protocol before
#: the client moves to the next: eight whole-file reads and two metadata ops.  Clients start on
#: different protocols.
SMALL_BURST = ("read",) * 8 + ("meta",) * 2
#: Every n-th Chirp metadata op lists the file's directory instead of
#: stat-ing the file.
SMALL_LISTDIR_EVERY = 4

#: durable-write: files seeded per writer directory, and the op mix of
#: each block of 20 operations (in seeded order).
DURABLE_SEED_FILES = 64
DURABLE_BLOCK = ("put",) * 9 + ("get",) * 4 + ("unlink",) * 4 + (
    "rename",) * 2 + ("mkdir",)
DURABLE_MIN_LIVE = 8
DURABLE_SIZES = (4 * KIB, 64 * KIB)
DURABLE_LOT_BYTES = 2 * 1024 * MIB


@dataclass(frozen=True)
class FileSpec:
    """One file: where it lives, how big it is, where its bytes start
    in the seeded pool."""

    path: str
    size: int
    offset: int


@dataclass
class Op:
    """One client operation.  ``kind`` is read / write / meta; ``op``
    names the protocol verb."""

    kind: str
    proto: str
    op: str
    path: str = ""
    file: FileSpec | None = None
    new_path: str = ""


def make_pool(seed: int) -> bytes:
    return random.Random(f"pool-{seed}").randbytes(POOL_BYTES)


def content(pool: bytes, spec: FileSpec) -> bytes:
    return pool[spec.offset:spec.offset + spec.size]


def crc(pool: bytes, spec: FileSpec) -> int:
    return zlib.crc32(content(pool, spec)) & 0xFFFFFFFF


def _name(rng: random.Random) -> str:
    return f"{rng.getrandbits(48):012x}"


def _size_in(rng: random.Random, lo: int, hi: int) -> int:
    """A size from the middle half of [lo, hi]."""
    return lo + int((0.25 + rng.random() / 2) * (hi - lo))


def _stratified_sizes(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` sizes, one from the middle half of each of ``n`` equal
    slices of [lo, hi], in seeded order."""
    step = (hi - lo) / n
    sizes = [_size_in(rng, int(lo + i * step), int(lo + (i + 1) * step))
             for i in range(n)]
    rng.shuffle(sizes)
    return sizes


class Workload:
    """Base: the seed, the pool, and the appliance manifest."""

    name = ""
    store = "memory"
    #: the user the seeded files are written as
    owner = "admin"
    #: closed-loop client threads
    clients = CLIENTS
    #: the protocols each client opens a session for
    protocols = PROTOCOLS
    #: end with a SIGKILL, a restart and a check of every
    #: acknowledged operation
    crash_check = False

    def __init__(self, seed: int):
        self.seed = seed
        self.files: list[FileSpec] = []
        self.dirs: list[str] = []
        self.grants: list[tuple[str, str, str]] = []
        self.lots: list[tuple[str, int, float, str]] = []
        self.config: dict = {}

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.name}-{label}-{self.seed}")

    def manifest(self) -> dict:
        """What the appliance process is given: its config and the
        generated working set."""
        return {
            "workload": self.name,
            "config": dict(self.config),
            "store": self.store,
            "pool_seed": self.seed,
            "owner": self.owner,
            "dirs": list(self.dirs),
            "grants": [list(g) for g in self.grants],
            "lots": [list(lot) for lot in self.lots],
            "files": [[f.path, f.size, f.offset] for f in self.files],
        }

    def _file(self, rng: random.Random, path: str, size: int) -> FileSpec:
        """A file of at most 64 KiB, cut from a seeded pool position."""
        return FileSpec(path, size, rng.randrange(POOL_BYTES - 64 * KIB))

    def ops(self, client: int) -> Iterator[Op]:
        raise NotImplementedError

    def stream(self, client: int):
        """``(next_op, acknowledged)`` for one client; ``acknowledged``
        is called with each operation the appliance acknowledged, or is
        None when the op stream does not depend on outcomes."""
        ops = self.ops(client)
        return (lambda: next(ops)), None


class SmallRead(Workload):
    """Read-mostly mix over a Zipf-popular set of small files, all five
    protocols in rotation, memory-only appliance."""

    name = "small-read"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("files")
        self.dirs = [f"/sr/d{d:02d}" for d in range(SMALL_DIRS)]
        self.dirs.insert(0, "/sr")
        n = SMALL_DIRS * SMALL_FILES_PER_DIR
        classes = len(SMALL_SIZE_CLASSES)
        # self.files is in popularity order: rank 0 is the hottest.
        self.files = [
            self._file(rng, f"{self.dirs[1 + i % SMALL_DIRS]}/{_name(rng)}.dat",
                       _size_in(rng, *SMALL_SIZE_CLASSES[(5 * i + 3) % classes]))
            for i in range(n)
        ]
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(n)]
        total = sum(weights)
        acc, self._cdf = 0.0, []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def _ranks(self, rng: random.Random, n: int) -> list[int]:
        """``n`` popularity ranks by systematic sampling of the Zipf
        CDF, shuffled: the block's rank mix barely depends on the seed."""
        u0 = rng.random()
        last = len(self._cdf) - 1
        ranks = [min(bisect.bisect_left(self._cdf, (j + u0) / n), last)
                 for j in range(n)]
        rng.shuffle(ranks)
        return ranks

    def ops(self, client: int) -> Iterator[Op]:
        rng = self.rng(f"ops-{client}")
        ranks: list[int] = []
        meta_ranks: list[int] = []
        chirp_metas = 0
        burst = client
        while True:
            proto = PROTOCOLS[burst % len(PROTOCOLS)]
            burst += 1
            kinds = list(SMALL_BURST)
            rng.shuffle(kinds)
            for kind in kinds:
                ranks = ranks or self._ranks(rng, 64)
                meta_ranks = meta_ranks or self._ranks(rng, 16)
                if kind == "read":
                    spec = self.files[ranks.pop()]
                    yield Op("read", proto, "get", spec.path, spec)
                    continue
                spec = self.files[meta_ranks.pop()]
                op = "stat"
                if proto == "chirp":
                    chirp_metas += 1
                    if chirp_metas % SMALL_LISTDIR_EVERY == 0:
                        op = "listdir"
                yield Op("meta", proto, op, spec.path, spec)


class DurableWrite(Workload):
    """Two Chirp writers putting fresh files into a lot on a durable
    appliance, with metadata ops and a read-back share."""

    name = "durable-write"
    store = "localfs"
    #: the writers' own files, charged to their lot
    owner = "anonymous"
    protocols = ("chirp",)
    crash_check = True

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("files")
        self.config = {"state_dir": None, "journal_fsync": True,
                       "journal_batch_records": 64,
                       "journal_batch_delay": 0.0,
                       "require_lots": True}
        self.dirs = ["/dw"] + [f"/dw/w{c}" for c in range(CLIENTS)]
        self.grants = [(d, "*", "rwlidm") for d in self.dirs[1:]]
        self.lots = [("anonymous", DURABLE_LOT_BYTES, 7 * 24 * 3600.0, "/dw")]
        #: one per client stream, holding what it saw acknowledged
        self.writers: list[DurableWriter] = []
        for c in range(CLIENTS):
            sizes = _stratified_sizes(rng, DURABLE_SEED_FILES, *DURABLE_SIZES)
            self.files += [self._file(rng, f"/dw/w{c}/s-{_name(rng)}", s)
                           for s in sizes]

    def seeded_for(self, client: int) -> list[FileSpec]:
        prefix = f"/dw/w{client}/"
        return [f for f in self.files if f.path.startswith(prefix)]

    def stream(self, client: int):
        writer = DurableWriter(self, client)
        self.writers.append(writer)
        return writer.next, writer.acknowledged


class DurableWriter:
    """One writer's op stream.  Its choices depend on the files it has
    seen acknowledged, so it is fed each op's outcome."""

    def __init__(self, workload: DurableWrite, client: int):
        self.rng = workload.rng(f"ops-{client}")
        self.client = client
        self.live: dict[str, FileSpec] = {
            f.path: f for f in workload.seeded_for(client)}
        self._live_paths = list(self.live)  # for O(1) seeded choice
        #: paths an acknowledged unlink or rename removed
        self.gone: set[str] = set()
        self._serial = 0
        self._sizes: list[int] = []
        self._block: list[str] = []
        self._file = workload._file

    def _fresh(self, stem: str) -> str:
        self._serial += 1
        return f"/dw/w{self.client}/{stem}{self._serial:06d}-{_name(self.rng)}"

    def next(self) -> Op:
        if not self._block:
            self._block = list(DURABLE_BLOCK)
            self.rng.shuffle(self._block)
        op = self._block.pop()
        if op in ("get", "unlink", "rename") and len(self.live) < DURABLE_MIN_LIVE:
            op = "put"
        if op == "put":
            if not self._sizes:
                self._sizes = _stratified_sizes(self.rng, 16, *DURABLE_SIZES)
            spec = self._file(self.rng, self._fresh("p"), self._sizes.pop())
            return Op("write", "chirp", "put", spec.path, spec)
        if op == "mkdir":
            return Op("meta", "chirp", "mkdir", self._fresh("d"))
        victim = self.live[self.rng.choice(self._live_paths)]
        if op == "get":
            return Op("read", "chirp", "get", victim.path, victim)
        if op == "unlink":
            return Op("meta", "chirp", "unlink", victim.path, victim)
        return Op("meta", "chirp", "rename", victim.path, victim,
                  new_path=self._fresh("r"))

    def acknowledged(self, op: Op) -> None:
        """Fold an acknowledged op into the live set."""
        if op.op == "put":
            self._add(op.file)
        elif op.op in ("unlink", "rename"):
            spec = self.live.pop(op.path)
            self._live_paths.remove(op.path)
            self.gone.add(op.path)
            if op.op == "rename":
                self._add(FileSpec(op.new_path, spec.size, spec.offset))

    def _add(self, spec: FileSpec) -> None:
        self.live[spec.path] = spec
        self._live_paths.append(spec.path)


WORKLOADS = {cls.name: cls for cls in (SmallRead, DurableWrite)}
