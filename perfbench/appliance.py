"""The appliance process of the benchmark.

``python3 perfbench/appliance.py MANIFEST.json`` builds a
``repro.nest.server.NestServer`` from the manifest the load generator
wrote, seeds its working set through the storage manager's public API
(directories, ACL grants, lots, files), starts it and prints one line::

    READY {"chirp": PORT, ..., "mgmt": PORT}

It then obeys one command per line on stdin:

* ``trace on`` / ``trace off`` -- enable or disable the span wrappers
  (only when the manifest asks for tracing);
* ``spans PATH`` -- write the recorded spans to PATH as JSON, reply
  ``OK``;
* ``stop`` (or end of input) -- graceful stop, then exit.

With ``"recover": true`` the manifest's working set is not seeded: the
server recovers whatever its ``state_dir`` holds, as after a crash.
"""

from __future__ import annotations

import json
import sys


def _seed(server, manifest: dict) -> None:
    from inputs import FileSpec, content, make_pool

    storage = server.storage
    for path in manifest["dirs"]:
        storage.mkdir("admin", path)
    for path, subject, rights in manifest["grants"]:
        storage.acl_set("admin", path, subject, rights)
    for owner, capacity, duration, prefix in manifest["lots"]:
        lot = storage.lots.create_lot(owner, capacity, duration)
        storage.lots.attach(lot.lot_id, prefix)
    pool = make_pool(manifest["pool_seed"])
    for path, size, offset in manifest["files"]:
        ticket = storage.approve_put(manifest["owner"], path, size)
        try:
            ticket.stream.write(content(pool, FileSpec(path, size, offset)))
        finally:
            ticket.settle(size)


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    recorder = None
    if manifest.get("trace"):
        import tracing

        recorder = tracing.install()
    from repro.nest.backends import LocalFSStore
    from repro.nest.config import NestConfig
    from repro.nest.server import NestServer

    config = NestConfig(name=f"bench-{manifest['workload']}",
                        **manifest["config"])
    store = (LocalFSStore(manifest["data_dir"])
             if manifest["store"] == "localfs" else None)
    server = NestServer(config, store=store)
    if not manifest.get("recover"):
        _seed(server, manifest)
    server.start()
    print("READY " + json.dumps(server.ports), flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "stop":
                break
            if command[0] == "trace" and recorder is not None:
                recorder.enabled = command[1] == "on"
            elif command[0] == "spans":
                spans = recorder.spans if recorder is not None else []
                with open(command[1], "w", encoding="utf-8") as out:
                    json.dump(spans, out)
                print("OK", flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
