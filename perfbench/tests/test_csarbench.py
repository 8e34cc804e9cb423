"""Tests of the benchmark itself: inputs, determinism, tracing, checks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from csarbench import calib, gen, layers, stats, workloads
from csarbench.tracer import Tracer, leftover_wrappers

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _episode(name: str, seed: int, episode: int = 0, tracer=None):
    workload = workloads.make(name, seed,
                              wrap=tracer.wrap_coroutine if tracer else None)
    workload.prepare(episode)
    with workloads.EventCounter() as counter:
        workload.setup()
        return workload.measure(counter)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_same_stream_and_other_seed_differs(name):
    assert gen.op_stream(name, 5) == gen.op_stream(name, 5)
    assert gen.op_stream(name, 5) != gen.op_stream(name, 6)
    assert len(gen.op_stream(name, 5)) == gen.EPISODES[name]


def test_smallio_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted((op[0], op[3]) for client in gen.op_stream(
            "smallio", seed)[0] for op in client)

    assert mix(1) == mix(2)
    ops = [op for client in gen.op_stream("smallio", 1)[0] for op in client]
    writes = sum(op[0] == "write" for op in ops)
    assert writes / len(ops) == pytest.approx(gen.SMALLIO["write_frac"],
                                              abs=0.01)
    small = sum(op[3] < 2048 for op in ops)
    assert small / len(ops) == pytest.approx(gen.SMALLIO["small_frac"],
                                             abs=0.01)


def test_content_regions_are_disjoint_and_files_fixed_size():
    c = gen.CONTENT
    episode = gen.op_stream("content", 3)[0]
    for client, ops in enumerate(episode["writes"]):
        lo, hi = client * c["region"], (client + 1) * c["region"]
        assert all(lo <= op[2] and op[2] + op[3] <= hi for op in ops)
        for name, _scheme in c["files"]:
            assert max(op[2] + op[3] for op in ops if op[1] == name) == hi
    for client, phases in enumerate(episode["reads"]):
        for records in phases:
            assert records[0][0] == client * c["region"]
            assert sum(length for _at, length in records) == c["region"]


# ---------------------------------------------------------------------------
# determinism and output checks
# ---------------------------------------------------------------------------
def test_same_seed_same_simulated_digest():
    first = _episode("smallio", 4)
    again = _episode("smallio", 4)
    other = _episode("smallio", 5)
    assert first.failed == 0
    assert stats.digest(first.sim) == stats.digest(again.sim)
    assert stats.digest(first.sim) != stats.digest(other.sim)
    assert first.events == again.events > 0


def test_corrupted_read_fails_the_content_check(monkeypatch):
    from repro.pvfs.client import PVFSClient
    from repro.storage.payload import Payload

    original = PVFSClient.read
    state = {"reads": 0}

    def corrupting_read(client, name, offset, length):
        data = yield from original(client, name, offset, length)
        state["reads"] += 1
        if state["reads"] != 5:
            return data
        raw = bytearray(data.to_bytes())
        raw[len(raw) // 2] ^= 0xFF
        return Payload.from_bytes(raw)

    monkeypatch.setattr(PVFSClient, "read", corrupting_read)
    rep = _episode("content", 2)
    assert rep.failed == 1
    assert "differs from the reference" in rep.checks[0]


def test_clean_content_episode_passes_every_check():
    rep = _episode("content", 2)
    assert rep.failed == 0 and rep.checks == []
    assert rep.bytes_read == 3 * len(gen.CONTENT["files"]) \
        * gen.CONTENT["clients"] * gen.CONTENT["region"]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def test_traced_run_simulates_the_same_digest_and_restores_wrappers():
    from repro.hw import link
    from repro.pvfs.client import PVFSClient
    from repro.sim.engine import Environment

    originals = (link.stream, vars(PVFSClient)["write"],
                 vars(Environment)["run"])
    plain = _episode("smallio", 3)
    tracer = Tracer()
    tracer.install()
    try:
        assert link.stream is not originals[0]
        before = layers.collect(tracer)
        tracer.start_window()
        traced = _episode("smallio", 3, tracer=tracer)
        tracer.stop_window()
        raw = layers.window(tracer, before, layers.collect(tracer))
    finally:
        tracer.uninstall()
    assert stats.digest(traced.sim) == stats.digest(plain.sim)
    assert leftover_wrappers() == []
    assert (link.stream, vars(PVFSClient)["write"],
            vars(Environment)["run"]) == originals
    summary = layers.summarize(raw, traced.ops, traced.events)
    assert summary["pvfs.rpcs"] > 0 and summary["hw.link.messages"] > 0
    assert summary["sim.self_host_s"] > 0 and summary["pvfs.self_host_s"] > 0
    assert tracer.spans and all(s[2] >= s[1] for s in tracer.spans)
    events = tracer.chrome_events()
    assert {e["ph"] for e in events} == {"M", "X"}


def test_traced_chaos_matches_untraced():
    plain = _episode("chaos", 8)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _episode("chaos", 8, tracer=tracer)
    finally:
        tracer.uninstall()
    assert stats.digest(traced.sim) == stats.digest(plain.sim)
    assert leftover_wrappers() == []
    assert tracer.layer_self["analysis"] > 0
    assert tracer.layer_self["faults"] > 0


# ---------------------------------------------------------------------------
# metric names, statistics, BENCHMARK.json
# ---------------------------------------------------------------------------
def _run_module():
    sys.path.insert(0, str(BENCH))
    import run  # noqa: E402  (perfbench/run.py)

    return run


def test_metric_names_and_units_are_well_formed():
    run = _run_module()
    for table in (run.END_TO_END_UNITS, layers.PER_LAYER_UNITS):
        for name, unit in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)


def test_benchmark_json_matches_the_harness():
    run = _run_module()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    reported = [k for k in layers.PER_LAYER_UNITS
                if k not in layers.SUMMARY_ONLY]
    assert [m["name"] for m in spec["per_layer"]] == reported
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.PER_LAYER_UNITS[metric["name"]]
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(20000) == 99.9
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_calibration_kernel_is_fixed_and_independent_of_the_program():
    assert calib.kernel() == calib.kernel()
    chain = calib._chase_chain()
    at, seen = 0, set()
    while at not in seen:
        seen.add(at)
        at = chain[at]
    assert len(seen) == calib.CHASE_ENTRIES  # one cycle through the list
    source = (BENCH / "csarbench" / "calib.py").read_text()
    assert not re.search(r"^\s*(from|import)\s+(repro|csarbench)", source,
                         re.MULTILINE)


def test_calibration_scales_to_the_reference_speed():
    ref = calib.REFERENCE_S
    assert calib.scale(ref, ref) == 1.0
    # a host half as fast: twice the kernel time, half the host seconds
    assert calib.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert calib.scale(ref, 3 * ref) == pytest.approx(0.5)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ckpt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
