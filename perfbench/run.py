"""End-to-end and per-layer benchmark of the NeST appliance.

Usage, from the repository root::

    python3 perfbench/run.py --workload small-read --seed 1 --seconds 20 --trace 0

The appliance (``repro.nest.server.NestServer``) runs in its own
process, started by ``perfbench/appliance.py``; this process is the
load generator.  Two client threads drive it through the repo's own
``repro.client`` protocol clients in a closed loop.  The workloads are
in ``inputs.py``; BENCHMARK.json says why each exists.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
traced run: the appliance starts with timing shims at each layer
boundary (``tracing.py``), the window's first half runs with them off
and the second half with them on, and the run reports per-layer
metrics.  It then regenerates Figs. 3-6 on the simulated substrate.

Every read is CRC-checked against its seed-time CRC.  durable-write
ends with a SIGKILL and a restart of the appliance and checks every
acknowledged operation against the recovered state.  Regenerated
figures must equal the latest ``BENCH_figures.json`` record.  A failed
check makes the run exit with status 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it list every metric with its unit
and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Appliance start-ups per run; setup_s is their median.
SETUPS = 3
#: Untimed closed-loop warm-up before the window opens, in seconds.
WARMUP_S = 1.0
#: Seconds to wait for an appliance to start, answer or exit.
START_TIMEOUT_S = 120.0
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Latency-matrix protocols and the figures of the simulated substrate.
PROTOCOLS = ("chirp", "http", "ftp", "gridftp", "nfs")
FIGURES = ("fig3", "fig4", "fig5", "fig6")

#: The end-to-end metrics of BENCHMARK.json.  Every run also prints
#: write and metadata latency and the tail percentiles its sample count
#: supports, but those are not gated: on a shared two-core host their
#: run-to-run spread exceeds the largest bound a benchmark may set.
#: failed_frac is printed too; it is carried by ``failed``/``attempted``.
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "mb_per_s": "MB/s",
    "read_p50_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for p in PROTOCOLS:
        units[f"wire.{p}.gap_ms"] = "ms"
    for p in PROTOCOLS:
        units[f"server.{p}.request_ms_mean"] = "ms"
    units.update({"server.cpu_ms_per_op": "ms", "server.threads_peak": "count",
                  "server.unaccounted_ms": "ms"})
    for p in PROTOCOLS:
        for column in ("read_1k_p50_ms", "read_64k_p50_ms", "meta_p50_ms"):
            units[f"client.{p}.{column}"] = "ms"
    units.update({
        "client.retries": "count", "client.cpu_ms_per_op": "ms",
        "protocols.decode_us": "us", "protocols.encode_us": "us",
        "storage.approve_us": "us", "storage.meta_us": "us",
        "acl.checks_per_op": "count",
        "transfer.sync_ms": "ms", "transfer.wait_share": "ratio",
        "transfer.quanta_per_transfer": "count",
        "sched.queue_wait_ms": "ms",
        "io.sendfile_byte_share": "ratio",
        "io.fallback_sends_per_transfer": "count",
        "io.pool_hit_rate": "ratio",
        "journal.records_per_op": "count",
        "journal.fsyncs_per_record": "ratio", "journal.append_us": "us",
        "journal.wait_durable_ms": "ms", "journal.fsync_ms": "ms",
        "journal.bytes_per_user_byte": "ratio",
        "durability.recover_s": "s",
    })
    for fig in FIGURES:
        units[f"figures.{fig}_s"] = "s"
    units["figures.wall_s"] = "s"
    units["obs.trace_overhead_frac"] = "ratio"
    for layer in ("protocols", "storage", "acl", "transfer", "io", "journal"):
        units[f"layer.{layer}.self_ms_per_op"] = "ms"
    units["layer.transfer.wait_ms_per_op"] = "ms"
    units["layer.journal.wait_ms_per_op"] = "ms"
    return units


class Appliance:
    """One appliance process and its stdin command channel."""

    def __init__(self, manifest: dict, workdir: Path, tag: str):
        path = workdir / f"manifest-{tag}.json"
        path.write_text(json.dumps(manifest))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p)
        self.log = open(workdir / f"appliance-{tag}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "appliance.py"), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            text=True, env=env, cwd=str(ROOT))
        line = self._readline()
        if not line.startswith("READY "):
            self.kill()
            log = Path(self.log.name).read_text()[-4000:]
            raise RuntimeError(f"appliance did not start:\n{log}")
        self.ports: dict[str, int] = json.loads(line[len("READY "):])
        self.pid = self.proc.pid

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        return self.proc.stdout.readline() if ready else ""

    def command(self, text: str, reply: bool = False) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if reply and self._readline().strip() != "OK":
            raise RuntimeError(f"appliance did not answer {text!r}")

    def stop(self) -> None:
        """Graceful stop; SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            try:
                self.command("stop")
                self.proc.stdin.close()
                self.proc.wait(timeout=START_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL (a crash, when the process is still running)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.log.close()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile; None when fewer than TAIL_SAMPLES samples
    lie beyond it (the median needs one sample)."""
    if not values:
        return None
    if q == 50:
        return statistics.median(values)
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latencies_ms(samples, **match) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in samples
            if all(getattr(s, k) == v for k, v in match.items())]


def end_to_end(samples, seconds: float) -> tuple[dict, dict]:
    """One window's end-to-end metrics and their sample counts."""
    values = {"ops_per_s": len(samples) / seconds,
              "mb_per_s": sum(s.nbytes for s in samples) / seconds / 1e6}
    counts = {"ops_per_s": len(samples), "mb_per_s": len(samples)}
    for kind in ("read", "write", "meta"):
        lat = latencies_ms(samples, kind=kind)
        for q in (50, 75, 90, 99):
            values[f"{kind}_p{q}_ms"] = percentile(lat, q)
            counts[f"{kind}_p{q}_ms"] = len(lat)
    return values, counts


def unsure_paths(errors, killed_at: float) -> set[str]:
    """The paths of failed operations the crash cut off: those sent
    before the appliance was dead.  An operation sent after that never
    reached it, so it cannot excuse a missing acknowledged file."""
    return {p for start, _end, op, _err in errors if start < killed_at
            for p in (op.path, op.new_path) if p}


def verify_recovered(writers, unsure: set, listdir, checksum, read,
                     expected_crc) -> tuple[list[str], dict[str, int]]:
    """Compare the recovered namespace with every acknowledged
    durable-write operation.  ``unsure`` holds the paths of operations
    the crash cut off; they may or may not have landed, so no check
    counts them.  Returns the problems and how much was checked."""
    problems = []
    checked = {"files": 0, "removed": 0, "read_back": 0, "unsure": len(unsure)}
    for writer in writers:
        present = listdir(f"/dw/w{writer.client}")
        for path in sorted(writer.gone - unsure):
            checked["removed"] += 1
            if path in present:
                problems.append(f"acknowledged unlink/rename of {path} lost")
        live = {p: s for p, s in writer.live.items() if p not in unsure}
        for path, spec in sorted(live.items()):
            checked["files"] += 1
            if path not in present:
                problems.append(f"acknowledged put {path} lost")
                continue
            got = checksum(path)
            if got["size"] != spec.size or got["crc32"] != expected_crc(spec):
                problems.append(f"{path} recovered corrupt")
        rng = random.Random(f"readback-{writer.client}")
        for path in rng.sample(sorted(live), min(16, len(live))):
            if path not in present:
                continue
            checked["read_back"] += 1
            if zlib.crc32(read(path)) & 0xFFFFFFFF != expected_crc(live[path]):
                problems.append(f"{path} read back corrupt")
    return problems, checked


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    """One run: set-up, the measured window, the checks, the metrics."""

    def __init__(self, workload, seconds: float, trace: bool, workdir: Path):
        from inputs import crc, make_pool

        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.pool = make_pool(workload.seed)
        # Seed-time CRCs: every read of a seeded file is checked against
        # these.
        self.crcs = {f.path: crc(self.pool, f) for f in workload.files}
        self.problems: list[str] = []
        self.app: Appliance | None = None
        self.tag = ""
        self.recover_s = 0.0
        self.recovery_checked: dict[str, int] = {}

    def close(self) -> None:
        if self.app is not None:
            self.app.stop()
            self.app = None

    # -- appliance lifecycle ---------------------------------------------
    def manifest(self, tag: str, recover: bool = False) -> dict:
        manifest = self.wl.manifest()
        manifest["trace"] = self.trace
        manifest["recover"] = recover
        if self.wl.store == "localfs":
            manifest["data_dir"] = str(self.workdir / tag / "data")
        if "state_dir" in manifest["config"]:
            manifest["config"]["state_dir"] = str(self.workdir / tag / "state")
        return manifest

    def setup(self) -> float:
        """Start the appliance SETUPS times, each on fresh state, and
        keep the last one.  Returns the median start-up time: spawn to
        a seeded working set ready to serve."""
        times = []
        for i in range(SETUPS):
            self.close()
            if self.tag:
                shutil.rmtree(self.workdir / self.tag, ignore_errors=True)
            self.tag = f"s{i}"
            start = time.perf_counter()
            self.app = Appliance(self.manifest(self.tag), self.workdir,
                                 self.tag)
            times.append(time.perf_counter() - start)
        # Write back what seeding dirtied before the window opens, so
        # the flush does not land on the measured requests.
        os.sync()
        return statistics.median(times)

    # -- the measured window ---------------------------------------------
    def drive(self, phases: list[float]) -> dict:
        """Warm up, then run the window phases (seconds each).  Scrapes
        /metrics and samples /proc at every phase boundary."""
        import probes
        from loadgen import (Checker, Outcome, client_loop, close_sessions,
                             open_sessions)
        from repro.obs.metrics import global_registry

        checker = Checker(self.pool, self.crcs)
        outcome = Outcome()
        stop = threading.Event()
        threads, all_sessions = [], []
        for c in range(self.wl.clients):
            sessions = open_sessions(self.app.ports, self.wl.protocols)
            all_sessions.append(sessions)
            next_op, ack = self.wl.stream(c)
            threads.append(threading.Thread(
                target=client_loop,
                args=(next_op, sessions, checker, outcome, stop),
                kwargs={"acknowledged": ack},
                name=f"perfbench-client-{c}", daemon=True))
        for t in threads:
            t.start()
        time.sleep(WARMUP_S)
        bounds, scrapes, cpu, retries = [], [], [], []
        threads_peak = 0
        for i, length in enumerate([0.0] + phases):
            deadline = time.perf_counter() + length
            while time.perf_counter() < deadline:
                threads_peak = max(threads_peak,
                                   probes.status(self.app.pid)["Threads"])
                time.sleep(min(0.1, max(deadline - time.perf_counter(), 0.0)))
            bounds.append(time.perf_counter())
            scrapes.append(probes.scrape(self.app.ports["mgmt"]))
            cpu.append((probes.cpu_seconds(self.app.pid), time.process_time()))
            counter = global_registry().get("repro_client_retries_total")
            retries.append(counter.total() if counter is not None else 0.0)
            if self.trace and i == 1:
                self.app.command("trace on")
        rss_mb = probes.status(self.app.pid)["VmHWM"] / 1024
        spans = []
        if self.trace:
            self.app.command("trace off")
            path = self.workdir / "spans.json"
            self.app.command(f"spans {path}", reply=True)
            spans = [s for s in json.loads(path.read_text())
                     if bounds[1] <= s[1] < bounds[2]]
        journal_record_bytes = self.journal_record_bytes()
        if self.wl.crash_check:
            # The crash lands a seeded moment after the window closes,
            # with both writers mid-operation.
            time.sleep(random.Random(f"kill-{self.wl.seed}").uniform(0.01, 0.05))
            self.app.kill()
            killed_at = time.perf_counter()
        stop.set()
        for t in threads:
            t.join(timeout=START_TIMEOUT_S)
        for sessions in all_sessions:
            close_sessions(sessions)
        if self.wl.crash_check:
            self.check_recovery(unsure_paths(outcome.errors, killed_at),
                                checker)
        return {"outcome": outcome, "bounds": bounds, "scrapes": scrapes,
                "cpu": cpu, "retries": retries, "threads_peak": threads_peak,
                "rss_mb": rss_mb, "spans": spans,
                "journal_record_bytes": journal_record_bytes}

    def journal_record_bytes(self) -> float:
        """Mean size of the records in the journal file right now."""
        path = self.workdir / self.tag / "state" / "journal.log"
        try:
            data = path.read_bytes()
        except OSError:
            return 0.0
        records = data.count(b"\n")
        return len(data) / records if records else 0.0

    def check_recovery(self, unsure: set[str], checker) -> None:
        """Restart on the crashed appliance's state and check every
        acknowledged operation."""
        from repro.client import ChirpClient

        start = time.perf_counter()
        self.app = Appliance(self.manifest(self.tag, recover=True),
                             self.workdir, f"{self.tag}-recover")
        self.recover_s = time.perf_counter() - start
        client = ChirpClient("127.0.0.1", self.app.ports["chirp"])
        try:
            problems, self.recovery_checked = verify_recovered(
                self.wl.writers, unsure,
                lambda d: {f"{d}/{e['name']}" for e in client.listdir(d)},
                client.checksum, client.get, checker.expected_crc)
            self.problems += problems
        finally:
            client.close()

    # -- the whole run ---------------------------------------------------
    def execute(self) -> dict:
        setup_s = self.setup()
        phases = ([self.seconds / 2, self.seconds / 2] if self.trace
                  else [self.seconds])
        d = self.drive(phases)
        self.close()
        outcome, bounds = d["outcome"], d["bounds"]
        # Failures count from the first request up to the window's end;
        # later ones are durable-write's crash casualties.
        errors = [e for e in outcome.errors if e[1] < bounds[-1]]
        window = [s for s in outcome.samples if bounds[0] <= s.end < bounds[1]]
        e2e, counts = end_to_end(window, bounds[1] - bounds[0])
        e2e["setup_s"], counts["setup_s"] = setup_s, SETUPS
        e2e["peak_rss_mb"], counts["peak_rss_mb"] = d["rss_mb"], 1
        attempted = len([s for s in outcome.samples
                         if s.end < bounds[-1]]) + len(errors)
        e2e["failed_frac"] = len(errors) / attempted if attempted else 0.0
        breakdown = {}
        for s in window:
            breakdown.setdefault((s.kind, s.proto, s.op), []).append(
                (s.end - s.start) * 1e3)
        result = {"e2e": e2e, "counts": counts, "attempted": attempted,
                  "breakdown": breakdown,
                  "failed": len(errors), "errors": errors,
                  "problems": outcome.problems + self.problems,
                  "recovery": dict(self.recovery_checked,
                                   restart_s=self.recover_s)
                  if self.recovery_checked else None}
        if self.trace:
            result["layers"] = self.per_layer(d)
            result["layers"].update(self.figures(result["problems"]))
        return result

    # -- per-layer metrics -----------------------------------------------
    def per_layer(self, d: dict) -> dict[str, float]:
        import probes
        import tracing
        from loadgen import size_bucket

        bounds, scrapes, cpu = d["bounds"], d["scrapes"], d["cpu"]
        samples = d["outcome"].samples
        plain = [s for s in samples if bounds[0] <= s.end < bounds[1]]
        traced = [s for s in samples if bounds[1] <= s.end < bounds[2]]
        ops = len(plain) or 1
        ops_traced = len(traced) or 1
        before, after = scrapes[0], scrapes[1]
        out: dict[str, float] = {}

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        for p in PROTOCOLS:
            mine = [s for s in plain if s.proto == p]
            client_s = sum(s.end - s.start for s in mine)
            server_s = probes.delta(after, before, "nest_request_seconds_sum",
                                    protocol=p)
            out[f"wire.{p}.gap_ms"] = ratio(client_s - server_s, len(mine)) * 1e3
            out[f"server.{p}.request_ms_mean"] = probes.mean_delta(
                after, before, "nest_request_seconds", protocol=p) * 1e3
            for column, match in (("read_1k_p50_ms", ("read", "1k")),
                                  ("read_64k_p50_ms", ("read", "64k")),
                                  ("meta_p50_ms", ("meta", None))):
                lat = [(s.end - s.start) * 1e3 for s in mine
                       if s.kind == match[0]
                       and (match[1] is None or size_bucket(s.size) == match[1])]
                out[f"client.{p}.{column}"] = percentile(lat, 50) or 0.0
        out["server.cpu_ms_per_op"] = (cpu[1][0] - cpu[0][0]) / ops * 1e3
        out["server.threads_peak"] = float(d["threads_peak"])
        out["client.retries"] = d["retries"][-1] - d["retries"][0]
        out["client.cpu_ms_per_op"] = (cpu[1][1] - cpu[0][1]) / ops * 1e3
        out["sched.queue_wait_ms"] = probes.mean_delta(
            after, before, "nest_queue_wait_seconds") * 1e3
        sent = probes.delta(after, before, "nest_fastpath_sendfile_bytes")
        fallback = probes.delta(after, before, "nest_fastpath_fallback_bytes")
        out["io.sendfile_byte_share"] = ratio(sent, sent + fallback)
        out["io.fallback_sends_per_transfer"] = ratio(
            probes.delta(after, before, "nest_fastpath_fallback_sends"),
            probes.delta(after, before, "nest_transfers_total"))
        hits = probes.delta(after, before, "nest_buffer_pool_hits")
        out["io.pool_hit_rate"] = ratio(
            hits, hits + probes.delta(after, before, "nest_buffer_pool_misses"))
        records = probes.delta(after, before, "journal_records_total")
        out["journal.records_per_op"] = records / ops
        out["journal.fsyncs_per_record"] = ratio(
            probes.delta(after, before, "journal_fsync_seconds_count"), records)
        out["journal.fsync_ms"] = probes.mean_delta(
            after, before, "journal_fsync_seconds") * 1e3
        written = sum(s.nbytes for s in plain if s.kind == "write")
        out["journal.bytes_per_user_byte"] = ratio(
            records * d["journal_record_bytes"], written)
        out["durability.recover_s"] = self.recover_s

        spans = tracing.summarize(d["spans"])

        def mean(name: str) -> float:
            row = spans.get(name)
            return row["total"] / row["count"] if row else 0.0

        def total(name: str, key: str = "total") -> float:
            row = spans.get(name)
            return row[key] if row else 0.0

        out["protocols.decode_us"] = mean("protocols.decode") * 1e6
        out["protocols.encode_us"] = mean("protocols.encode") * 1e6
        out["storage.approve_us"] = mean("storage.approve") * 1e6
        out["storage.meta_us"] = mean("storage.meta") * 1e6
        out["acl.checks_per_op"] = total("acl.allows", "count") / ops_traced
        out["transfer.sync_ms"] = mean("transfer.sync") * 1e3
        out["transfer.wait_share"] = ratio(total("transfer.wait"),
                                           total("server.request"))
        out["transfer.quanta_per_transfer"] = ratio(
            total("io.pump_chunk", "count"), total("transfer.sync", "count"))
        out["journal.append_us"] = mean("journal.append") * 1e6
        out["journal.wait_durable_ms"] = mean("journal.wait_durable") * 1e3
        out["server.unaccounted_ms"] = ratio(
            total("server.request", "self"),
            total("server.request", "count")) * 1e3
        for layer in ("protocols", "storage", "acl", "transfer", "io",
                      "journal"):
            own = sum(row["self"] for name, row in spans.items()
                      if tracing.LAYERS.get(name) == layer
                      and name not in tracing.WAIT_SPANS)
            out[f"layer.{layer}.self_ms_per_op"] = own / ops_traced * 1e3
        out["layer.transfer.wait_ms_per_op"] = (
            total("transfer.wait", "self") / ops_traced * 1e3)
        out["layer.journal.wait_ms_per_op"] = (
            total("journal.wait_durable", "self") / ops_traced * 1e3)
        plain_rate = ops / (bounds[1] - bounds[0])
        traced_rate = ops_traced / (bounds[2] - bounds[1])
        out["obs.trace_overhead_frac"] = 1.0 - traced_rate / plain_rate
        return out

    def figures(self, problems: list[str]) -> dict[str, float]:
        """Regenerate Figs. 3-6; their numbers must equal the latest
        BENCH_figures.json record."""
        from repro.perf.bench import run_figure_bench

        history = json.loads((ROOT / "BENCH_figures.json").read_text())
        latest = history["runs"][-1]["figures"]
        out = {}
        for fig in FIGURES:
            start = time.perf_counter()
            record = run_figure_bench((fig,))
            out[f"figures.{fig}_s"] = time.perf_counter() - start
            numbers = json.loads(json.dumps(record["figures"][fig]["numbers"]))
            if numbers != latest[fig]["numbers"]:
                problems.append(f"{fig} numbers differ from BENCH_figures.json")
        out["figures.wall_s"] = sum(out.values())
        return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def render(result: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object."""
    lines = []
    e2e, counts = result["e2e"], result["counts"]
    for name in ("setup_s", "ops_per_s", "mb_per_s", "failed_frac",
                 "peak_rss_mb", *(f"{kind}_p{q}_ms" for kind in
                                  ("read", "write", "meta")
                                  for q in (50, 75, 90, 99))):
        value = e2e.get(name)
        unit = END_TO_END.get(name, "ms" if name.endswith("_ms") else "ratio")
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<28} {shown:>12} {unit:<6} n={counts.get(name, result['attempted'])}")
    for (kind, proto, op), lat in sorted(result["breakdown"].items()):
        lines.append(f"  {kind:<5} {proto:<7} {op:<8} n={len(lat):<5} "
                     f"p50={statistics.median(lat):.4g} ms "
                     f"max={max(lat):.4g} ms")
    layers = result.get("layers", {})
    for name, unit in per_layer_units().items():
        if name in layers:
            lines.append(f"{name:<34} {layers[name]:>12.6g} {unit}")
    if result["recovery"]:
        lines.append("crash check: " + " ".join(
            f"{k}={v:.6g}" for k, v in result["recovery"].items()))
    for problem in result["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    for _start, _end, op, error in result["errors"][:10]:
        lines.append(f"FAILED: {op.proto} {op.op} {op.path}: {error}")
    if trace:
        units = per_layer_units()
        metrics = {n: {"value": layers.get(n, 0.0), "unit": u}
                   for n, u in units.items()}
    else:
        metrics = {n: {"value": e2e.get(n) or 0.0, "unit": u}
                   for n, u in END_TO_END.items()}
    doc = {"correct": not result["problems"] and not result["errors"],
           "attempted": max(result["attempted"], 1),
           "failed": result["failed"], "metrics": metrics}
    return lines, doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "nest" / "server.py").is_file():
        print(f"perfbench: no appliance sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds,
              bool(args.trace), workdir)
    try:
        result = run.execute()
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    lines, doc = render(result, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
