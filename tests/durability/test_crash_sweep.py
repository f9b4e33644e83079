"""Property-style crash sweep: kill the appliance at *every* journal
boundary of a scripted workload, recover, and check the invariants.

Two faults per boundary -- a clean crash just before the record lands,
and a torn write that leaves half the record on disk -- so a workload
of N records yields 2N crash points (the workload below emits 25+,
for the required 50+ points).

Mutations go through ``storage.execute`` (plus the approve/settle pair
for puts), as the live protocol handlers drive them, onto the journal's
one group-commit path: an op's records flush as one batch, so some
faults land in the middle of a batch.
"""

from __future__ import annotations

from repro.durability import DurabilityManager
from repro.faults.disk import DiskFaultPlan, SimulatedCrash
from repro.nest.backends import MemoryStore
from repro.nest.storage import DirNode, FileNode, StorageManager
from repro.protocols.common import Request, RequestType, Status

CAPACITY = 1 << 20


def put(storage, user, path, data: bytes) -> None:
    ticket = storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


def ex(s: StorageManager, rtype: RequestType, user: str, path: str = "",
       **params):
    resp = s.execute(Request(rtype=rtype, user=user, path=path,
                             params=params))
    assert resp.status is Status.OK, resp.message
    return resp.data


def run_workload(s: StorageManager) -> None:
    """A fixed script touching every journaled mutation type."""
    lot = dict(capacity=1 << 16, duration=3600.0)
    ex(s, RequestType.LOT_CREATE, "alice", **lot)
    ex(s, RequestType.LOT_CREATE, "bob", **lot)
    lot3 = ex(s, RequestType.LOT_CREATE, "carol", **lot)["lot_id"]
    s.add_group("team", {"alice", "bob"})  # no wire request for groups
    ex(s, RequestType.MKDIR, "admin", "/a")
    ex(s, RequestType.ACL_SET, "admin", "/a", subject="group:team",
       rights="rwmidl")
    ex(s, RequestType.MKDIR, "admin", "/b")
    ex(s, RequestType.ACL_SET, "admin", "/b", subject="carol",
       rights="rwmidl")
    put(s, "alice", "/a/one", b"1" * 100)
    put(s, "bob", "/a/two", b"2" * 200)
    put(s, "carol", "/b/three", b"3" * 300)
    ex(s, RequestType.RENAME, "alice", "/a/one", new_path="/a/uno")
    ex(s, RequestType.DELETE, "bob", "/a/two")
    ex(s, RequestType.LOT_RENEW, "carol", lot_id=lot3, duration=7200.0)
    ex(s, RequestType.LOT_ATTACH, "carol", "/b", lot_id=lot3)
    put(s, "carol", "/b/four", b"4" * 50)
    put(s, "alice", "/a/five", b"5" * 150)


def boot(state_dir, store, faults=None):
    storage = StorageManager(store=store, require_lots=True,
                             capacity_bytes=CAPACITY)
    manager = DurabilityManager(str(state_dir), fsync=False, faults=faults)
    report = manager.recover_into(storage)
    return storage, manager, report


def crash_workload(state_dir, store, plan) -> tuple[bool, bool]:
    """Run the workload under ``plan``; returns (the crash fired, it
    hit a non-first record of its batch)."""
    storage, manager, _ = boot(state_dir, store, faults=plan)
    try:
        run_workload(storage)
    except SimulatedCrash:
        # The crashed batch began right after the last durable record.
        return True, plan.events[-1].at > manager.journal.last_seq + 1
    finally:
        # A SIGKILL persists nothing further: close the journal file
        # descriptor only, never a shutdown snapshot.
        try:
            manager.journal.close()
        except OSError:
            pass
    return False, False


def tree_sizes(storage) -> dict[str, int]:
    sizes: dict[str, int] = {}

    def walk(dirnode, prefix):
        for name, child in dirnode.children.items():
            path = prefix.rstrip("/") + "/" + name
            if isinstance(child, FileNode):
                sizes[path] = child.size
            elif isinstance(child, DirNode):
                walk(child, path)

    walk(storage.root, "")
    return sizes


def check_invariants(storage) -> None:
    sizes = tree_sizes(storage)
    # 1. Global accounting matches the namespace exactly.
    assert storage.used_bytes == sum(sizes.values())
    # 2. Every lot charge points at a real file and never exceeds it.
    totals: dict[str, int] = {}
    for lot in storage.lots.lots.values():
        assert lot.used == sum(lot.charges.values())
        for path, nbytes in lot.charges.items():
            assert nbytes > 0
            totals[path] = totals.get(path, 0) + nbytes
    for path, total in totals.items():
        assert path in sizes, f"charge for missing file {path}"
        assert total <= sizes[path], f"overcharge on {path}"
    # 3. Every file reads back its recorded size from the store.
    for path, size in sizes.items():
        with storage.store.open_read(path) as r:
            assert len(r.read()) == size, f"{path} lists {size} B"


def workload_record_count(tmp_path) -> int:
    store = MemoryStore()
    storage, manager, _ = boot(tmp_path / "probe", store)
    run_workload(storage)
    n = manager.journal.last_seq
    manager.close(snapshot=False)
    return n


def sweep(tmp_path, make_plan) -> int:
    """Crash at every record boundary; returns the number of points."""
    total = workload_record_count(tmp_path)
    assert total >= 25, f"workload too small for the sweep: {total}"
    mid_batch = 0
    for k in range(1, total + 1):
        state_dir = tmp_path / f"state{k}"
        store = MemoryStore()
        crashed, inside = crash_workload(state_dir, store, make_plan(k))
        assert crashed, f"fault at record {k} never fired"
        mid_batch += inside

        s2, m2, report = boot(state_dir, store)
        check_invariants(s2)
        # Determinism: recovering the same state twice gives the same
        # appliance, byte for byte.
        s3, m3, _ = boot(state_dir, store)
        assert s2.serialize_state() == s3.serialize_state()
        # The recovered appliance still takes writes.
        s3.mkdir("admin", "/post-crash")
        put_user = "alice" if "alice" in {
            l.owner for l in s3.lots.lots.values()} else None
        if put_user:
            s3.acl_set("admin", "/post-crash", put_user, "rwild")
            put(s3, put_user, "/post-crash/ok", b"k" * 10)
            check_invariants(s3)
        m2.close(snapshot=False)
        m3.close()
    assert mid_batch >= 1, "no fault landed inside a multi-record batch"
    return total


def test_crash_at_every_record_boundary(tmp_path):
    n = sweep(tmp_path, DiskFaultPlan.crash_at_record)
    assert n >= 25


def test_torn_write_at_every_record_boundary(tmp_path):
    n = sweep(tmp_path, DiskFaultPlan.torn_record)
    assert n >= 25


def test_sweep_covers_fifty_points(tmp_path):
    # The acceptance bar: both sweeps together cover >= 50 boundaries.
    assert 2 * workload_record_count(tmp_path) >= 50
