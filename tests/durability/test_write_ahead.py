"""Write-ahead order on the group-commit path: a record is durable
before the backend effect it describes, whatever the entry point, and
a snapshot covers exactly the state it serialized.

Each test kills (or fails) the journal's durability wait on a plain
durable journal -- the configuration the appliance runs -- then
recovers over the same backend, as a restarted process would.
"""

from __future__ import annotations

import errno
import gc

import pytest

from repro.durability import DurabilityManager
from repro.durability.journal import JournalError
from repro.faults.disk import SimulatedCrash
from repro.nest.backends import MemoryStore
from repro.nest.storage import StorageError, StorageManager
from repro.protocols.common import Request, RequestType, Status


def make_stack(state_dir, store):
    storage = StorageManager(store=store, require_lots=True,
                             capacity_bytes=1 << 20)
    manager = DurabilityManager(str(state_dir), snapshot_every=0)
    manager.recover_into(storage)
    return storage, manager


def put(storage, user, path, data: bytes) -> None:
    ticket = storage.approve_put(user, path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


def seeded(tmp_path):
    """alice owns a lot and a 100 B file at /a/f."""
    store = MemoryStore()
    storage, manager = make_stack(tmp_path / "state", store)
    storage.lots.create_lot("alice", 4096, 3600.0)
    storage.mkdir("admin", "/a")
    storage.acl_set("admin", "/a", "alice", "rwmidl")
    put(storage, "alice", "/a/f", b"f" * 100)
    return store, storage, manager


def fail_next_wait(monkeypatch, manager, exc: BaseException) -> None:
    """The next durability wait raises ``exc`` before anything lands
    (a crash, or a disk error, while the batch is being flushed)."""
    def wait_durable(seq):
        raise exc
    monkeypatch.setattr(manager.journal, "wait_durable", wait_durable)


def assert_reads_back(storage) -> None:
    """Every file the recovered namespace lists is whole in the store."""
    for entry in storage.listdir("admin", "/a"):
        if entry["type"] == "file":
            path = "/a/" + entry["name"]
            with storage.store.open_read(path) as r:
                assert len(r.read()) == entry["size"], path


@pytest.mark.parametrize("entry", ["execute", "direct"])
@pytest.mark.parametrize("op", ["rename", "delete"])
def test_record_durable_before_backend_effect(tmp_path, monkeypatch,
                                               op, entry):
    store, storage, manager = seeded(tmp_path)
    fail_next_wait(monkeypatch, manager, SimulatedCrash("killed"))
    with pytest.raises(SimulatedCrash):
        if entry == "execute":  # Chirp unlink/rename
            rtype = RequestType.RENAME if op == "rename" else RequestType.DELETE
            storage.execute(Request(rtype=rtype, user="alice", path="/a/f",
                                    params={"new_path": "/a/g"}))
        elif op == "rename":
            storage.rename("alice", "/a/f", "/a/g")
        else:  # HTTP/FTP/NFS delete
            storage.delete("alice", "/a/f")
    # SIGKILL: the queued record never lands, nothing is closed.
    recovered, m2 = make_stack(tmp_path / "state", store)
    assert [e["name"] for e in recovered.listdir("admin", "/a")] == ["f"]
    assert_reads_back(recovered)
    m2.close()


@pytest.mark.parametrize("exc", [
    SimulatedCrash("killed"),
    JournalError(errno.ENOSPC, "disk full"),
    JournalError(errno.EIO, "disk gone"),
])
def test_failed_put_begin_never_touches_existing_bytes(tmp_path, monkeypatch,
                                                       exc):
    store, storage, manager = seeded(tmp_path)
    fail_next_wait(monkeypatch, manager, exc)
    with pytest.raises((SimulatedCrash, StorageError)):
        storage.approve_put("alice", "/a/f", 50)
    gc.collect()  # finalise any writer the failed approval left behind
    with store.open_read("/a/f") as r:
        assert r.read() == b"f" * 100


def test_snapshot_seq_covers_queued_records(tmp_path):
    """A snapshot taken while an op's records are still queued folds
    them in; recovery then replays none of them a second time."""
    store = MemoryStore()
    storage, manager = make_stack(tmp_path / "state", store)
    storage.lots.create_lot("alice", 4096, 3600.0)
    with storage._op("batch"):
        for path in ("/x", "/y"):
            resp = storage.execute(Request(rtype=RequestType.MKDIR,
                                           user="admin", path=path))
            assert resp.status is Status.OK
        assert manager.snapshot()
    manager.close(snapshot=False)
    recovered, m2 = make_stack(tmp_path / "state", store)
    report = m2.last_report
    assert report.replayed_records == 0
    assert report.skipped_records == 0
    assert {e["name"] for e in recovered.listdir("admin", "/")} == {"x", "y"}
    m2.close()
