"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The short runs start real appliances on loopback; the traced one also
regenerates Figs. 3-6, so the module takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import run as bench  # noqa: E402
from loadgen import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(inputs.WORKLOADS)


def short_run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(doc: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload):
    doc = result_of(short_run(workload, 1, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(isinstance(m["value"], float) for m in doc["metrics"].values())


def test_traced_short_run_emits_every_per_layer_metric():
    doc = result_of(short_run("small-read", 1, 1))
    assert doc["correct"]
    assert units(doc) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The figures were regenerated and matched BENCH_figures.json.
    assert doc["metrics"]["figures.wall_s"]["value"] > 0


def test_two_seeds_same_metric_names_different_inputs():
    one = result_of(short_run("small-read", 1, 0))
    two = result_of(short_run("small-read", 2, 0))
    assert units(one) == units(two)
    for name in WORKLOADS:
        cls = inputs.WORKLOADS[name]
        assert cls(1).manifest() == cls(1).manifest()
        assert cls(1).manifest() != cls(2).manifest()
    ops_one = inputs.SmallRead(1).ops(0)
    ops_two = inputs.SmallRead(2).ops(0)
    assert ([next(ops_one).path for _ in range(50)]
            != [next(ops_two).path for _ in range(50)])


def test_input_distributions_do_not_depend_on_the_seed():
    for seed in (1, 2):
        sizes = sorted(f.size for f in inputs.SmallRead(seed).files)
        classes = [sum(lo <= s <= hi for s in sizes)
                   for lo, hi in inputs.SMALL_SIZE_CLASSES]
        assert classes == [len(sizes) // len(classes)] * len(classes)
    ops = inputs.SmallRead(3).ops(1)
    kinds = [next(ops).kind for _ in range(400)]
    assert kinds.count("read") == 320 and kinds.count("meta") == 80


def _read_op(workload, pool):
    spec = workload.files[0]
    data = inputs.content(pool, spec)
    return inputs.Op("read", "chirp", "get", spec.path, spec), data


def test_corrupted_read_fails_the_check():
    workload = inputs.SmallRead(1)
    pool = inputs.make_pool(workload.seed)
    crcs = {f.path: inputs.crc(pool, f) for f in workload.files[:8]}
    checker = Checker(pool, crcs)
    op, data = _read_op(workload, pool)
    assert checker.check(op, data) is None
    corrupt = bytearray(data)
    corrupt[len(corrupt) // 2] ^= 0x01
    assert "CRC" in checker.check(op, bytes(corrupt))
    assert checker.check(op, data[:-1]) is not None


def _recovered(writer, pool, drop=None, keep=None):
    """A fake recovered appliance holding exactly the writer's
    acknowledged state, minus ``drop`` and plus ``keep``."""
    files = {p: inputs.content(pool, s) for p, s in writer.live.items()
             if p != drop}
    present = set(files) | ({keep} if keep else set())

    def checksum(path):
        data = files[path]
        return {"size": len(data), "crc32": zlib.crc32(data) & 0xFFFFFFFF}

    return (lambda _d: present), checksum, files.__getitem__


def _acknowledged_writer():
    workload = inputs.DurableWrite(1)
    next_op, acknowledged = workload.stream(0)
    writer = workload.writers[0]
    for _ in range(200):
        acknowledged(next_op())
    return workload, writer


def test_dropped_acknowledged_write_fails_the_crash_check():
    workload, writer = _acknowledged_writer()
    pool = inputs.make_pool(workload.seed)
    checker = Checker(pool, {})
    listdir, checksum, read = _recovered(writer, pool)
    problems, checked = bench.verify_recovered(
        [writer], set(), listdir, checksum, read, checker.expected_crc)
    assert problems == [] and checked["files"] == len(writer.live)
    put = next(p for p in sorted(writer.live) if "/p" in p)
    listdir, checksum, read = _recovered(writer, pool, drop=put)
    problems, _ = bench.verify_recovered(
        [writer], set(), listdir, checksum, read, checker.expected_crc)
    assert problems == [f"acknowledged put {put} lost"]
    # The same loss is not a failure when the crash cut that put off.
    problems, _ = bench.verify_recovered(
        [writer], {put}, listdir, checksum, read, checker.expected_crc)
    assert problems == []


def test_only_ops_sent_before_the_kill_are_unsure():
    workload, writer = _acknowledged_writer()
    cut_off, later = sorted(writer.live)[:2]
    get = inputs.Op("read", "chirp", "get", later, writer.live[later])
    rename = inputs.Op("meta", "chirp", "rename", cut_off,
                       writer.live[cut_off], new_path="/dw/w0/r-new")
    errors = [(1.0, 3.0, rename, "reset"), (2.5, 2.6, get, "refused")]
    assert bench.unsure_paths(errors, killed_at=2.0) == {cut_off,
                                                         "/dw/w0/r-new"}


def test_resurrected_unlink_fails_the_crash_check():
    workload, writer = _acknowledged_writer()
    pool = inputs.make_pool(workload.seed)
    gone = sorted(writer.gone)[0]
    listdir, checksum, read = _recovered(writer, pool, keep=gone)
    problems, _ = bench.verify_recovered(
        [writer], set(), listdir, checksum, read,
        Checker(pool, {}).expected_crc)
    assert problems == [f"acknowledged unlink/rename of {gone} lost"]


def test_failed_check_makes_the_run_incorrect():
    result = {"e2e": {}, "counts": {}, "attempted": 5, "failed": 0,
              "errors": [], "breakdown": {}, "recovery": None,
              "problems": ["/x: CRC mismatch"]}
    lines, doc = bench.render(result, trace=False)
    assert doc["correct"] is False
    assert "CHECK FAILED: /x: CRC mismatch" in lines


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = short_run("small-read", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
