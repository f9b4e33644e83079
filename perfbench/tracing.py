"""In-memory spans around the appliance's layer boundaries.

Only the traced benchmark run uses this module.  The appliance launcher
calls :func:`install` in the appliance process *before* the server is
built.  It wraps the public functions at each layer boundary of the
request path with a timing shim; the program's own code is unchanged.
A span records its name, start, end, its parent span and a request id
that every span of one request shares.  Spans stay in a list until the
launcher writes them out.

The wrappers are installed disabled, so the traced run can measure an
untraced half and a traced half on one appliance; a disabled wrapper
costs one attribute test per call.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

#: Span name -> layer.  ``*.wait*`` spans are time a request waits on
#: another thread (the transfer pump, the journal flusher).
LAYERS = {
    "server.request": "server",
    "protocols.decode": "protocols",
    "protocols.encode": "protocols",
    "storage.approve": "storage",
    "storage.meta": "storage",
    "acl.allows": "acl",
    "transfer.sync": "transfer",
    "transfer.wait": "transfer",
    "io.pump_chunk": "io",
    "journal.append": "journal",
    "journal.wait_durable": "journal",
}
WAIT_SPANS = ("transfer.wait", "journal.wait_durable")


class Recorder:
    """Collects spans from wrapped functions on every thread."""

    def __init__(self) -> None:
        self.enabled = False
        #: (name, start, end, span_id, parent_id, request_id)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *,
             wait_input: bool = False) -> None:
        """Replace ``owner.attr`` with a timing shim.

        A span opened with no parent on its thread starts a request;
        a root ``protocols.decode`` span hands its request id to the
        ``server.request`` span that follows it on the same thread.
        ``wait_input`` peeks the stream argument first, so a decoder
        that blocks on the socket is timed from the request's first
        byte, not from when the connection went idle.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if wait_input:
                peek = getattr(args[0], "peek", None)
                if peek is not None:
                    try:
                        peek(1)
                    except (OSError, ValueError):
                        pass
            stack = rec._stack()
            span_id = next(rec._ids)
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = 0, next(rec._ids)
                if name == "protocols.decode":
                    rec._local.pending = request
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((name, start, end, span_id, parent, request))

        setattr(owner, attr, traced)

    def wrap_scope(self, owner, attr: str, name: str) -> None:
        """Wrap a context-manager method that brackets one request."""
        scope_fn = getattr(owner, attr)
        rec = self

        @contextmanager
        def traced(handler, *args, **kwargs):
            if not rec.enabled:
                with scope_fn(handler, *args, **kwargs) as value:
                    yield value
                return
            stack = rec._stack()
            request = getattr(rec._local, "pending", None) or next(rec._ids)
            rec._local.pending = None
            span_id = next(rec._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                with scope_fn(handler, *args, **kwargs) as value:
                    yield value
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((name, start, end, span_id, parent, request))

        setattr(owner, attr, traced)


def install() -> Recorder:
    """Wrap the request path's layer boundaries; returns the (disabled)
    recorder.  Must run before the server imports bind anything."""
    from repro.durability.journal import MetadataJournal
    from repro.nest.acl import AccessControl
    from repro.nest.handlers import ConnectionHandler
    from repro.nest.storage import StorageManager
    from repro.nest.transfer import Transfer, TransferManager
    from repro.protocols import chirp, http, nfs

    rec = Recorder()
    rec.wrap_scope(ConnectionHandler, "request_scope", "server.request")
    rec.wrap(chirp, "decode_request", "protocols.decode")
    rec.wrap(http, "read_request", "protocols.decode", wait_input=True)
    rec.wrap(nfs, "unpack_call", "protocols.decode")
    rec.wrap(chirp, "encode_response", "protocols.encode")
    rec.wrap(http, "write_response_head", "protocols.encode")
    rec.wrap(nfs, "pack_reply", "protocols.encode")
    for attr in ("approve_get", "approve_put", "approve_read",
                 "approve_write"):
        rec.wrap(StorageManager, attr, "storage.approve")
    for attr in ("stat", "listdir", "mkdir", "rename", "delete"):
        rec.wrap(StorageManager, attr, "storage.meta")
    rec.wrap(AccessControl, "allows", "acl.allows")
    rec.wrap(TransferManager, "transfer_sync", "transfer.sync")
    rec.wrap(Transfer, "wait", "transfer.wait")
    rec.wrap(Transfer, "pump_chunk", "io.pump_chunk")
    rec.wrap(MetadataJournal, "append", "journal.append")
    rec.wrap(MetadataJournal, "append_async", "journal.append")
    rec.wrap(MetadataJournal, "wait_durable", "journal.wait_durable")
    return rec


def summarize(spans: list) -> dict:
    """Per span name: count, total duration and self time (duration
    minus the time its child spans cover), in seconds.  Children of one
    span run on its thread, one after another, so their durations add."""
    child_time: dict[int, float] = {}
    for _name, start, end, _sid, parent, _rid in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for name, start, end, sid, _parent, _rid in spans:
        row = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += end - start
        row["self"] += (end - start) - child_time.get(sid, 0.0)
    return out
