"""End-to-end CSAR benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload ckpt --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1``
every per-layer metric (an untraced and a traced run, compared).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run happens in child processes (``csarbench.child``), one at a time,
so peak RSS is per workload.  The exit code is 0 only when every output
check passed; it is 2 without a result line when the program under test
is missing or a child crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from csarbench import calib  # noqa: E402
from csarbench.gen import DEFAULT_SEED, WORKLOADS  # noqa: E402
from csarbench.layers import PER_LAYER_UNITS, SUMMARY_ONLY  # noqa: E402

#: ``name -> unit`` of every end-to-end metric.
END_TO_END_UNITS = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_write_MBps": "MB/s",
    "sim_read_MBps": "MB/s",
    "sim_write_p50_ms": "ms",
    "sim_write_tail_ms": "ms",
    "sim_read_p50_ms": "ms",
    "sim_read_tail_ms": "ms",
    "storage_ratio": "x",
}

#: Probe processes per run; ``setup_s`` and ``peak_rss_mb`` are the
#: medians over them.
PROBES = 5

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

OUT_DIR = HERE / "out"


class ChildError(RuntimeError):
    """A child process crashed or printed no result."""


def child(workload: str, seed: int, mode: str,
          seconds: float = 0.0) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
    cmd = [sys.executable, "-m", "csarbench.child", "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildError(f"{mode} child printed no result") from None


def _metric(name: str, value: float, units: Dict[str, str]) -> Dict[str, Any]:
    return {"value": value, "unit": units[name]}


def end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    probes = [child(workload, seed, "probe") for _ in range(PROBES)]
    run = child(workload, seed, "measure", seconds)
    for result in probes:
        run["attempted"] += result["attempted"]
        run["failed"] += result["failed"]
        run["checks"] += result["checks"]
    sim = run["sim"]
    raw_setup_s = statistics.median(p["raw_setup_s"] for p in probes)
    values = {
        "host_ops_per_s": run["host_ops_per_s"],
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }
    values.update({k: sim[k] for k in END_TO_END_UNITS if k in sim})
    tails = sim["tails"]
    print(f"# {workload} seed {seed}: {run['episodes']} episodes timed; "
          f"one pass is {run['ops_per_pass']} ops and {run['events']} "
          f"sim events, digest {run['digest'][:16]}")
    print(f"# unscaled host_ops_per_s {run['raw_host_ops_per_s']:.6g}, "
          f"setup_s {raw_setup_s:.6g}"
          f"; calibration kernel {run['kernel_s'] * 1e3:.4g} ms, "
          f"reference {calib.REFERENCE_S * 1e3:.4g} ms")
    print(f"# write tail = p{tails['write']['percentile']:g} of "
          f"{tails['write']['samples']} samples; read tail = "
          f"p{tails['read']['percentile']:g} of "
          f"{tails['read']['samples']} samples")
    return {"run": run, "metrics": {
        k: _metric(k, values[k], END_TO_END_UNITS) for k in END_TO_END_UNITS}}


def per_layer(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced and one traced pass over the seed's episodes."""
    del seconds  # both children make exactly one pass
    plain = child(workload, seed, "measure")
    traced = child(workload, seed, "traced")
    values = dict(traced["layers"])
    values["sim.events_per_host_s"] = plain["events"] / plain["pass_host_s"]
    values["trace.overhead_frac"] = (
        traced["pass_host_s"] / plain["pass_host_s"] - 1.0)
    if traced["digest"] != plain["digest"]:
        traced["failed"] += 1
        traced["checks"].append("traced run simulated a different digest "
                                "than the untraced run")
    run = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "checks": plain["checks"] + traced["checks"]}
    summary = OUT_DIR / f"{workload}-seed{seed}.layers.json"
    with open(summary, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": {k: _metric(k, values[k], PER_LAYER_UNITS)
                               for k in PER_LAYER_UNITS},
                   "top_functions": traced["top_functions"],
                   "dropped_spans": traced["dropped_spans"]},
                  handle, indent=1)
    print(f"# {workload} seed {seed}: traced digest "
          f"{traced['digest'][:16]}, untraced {plain['digest'][:16]}; "
          f"trace and summary in {OUT_DIR.relative_to(ROOT)}")
    for fn in traced["top_functions"][:10]:
        print(f"#   {fn['layer']:<11} {fn['name']:<36} "
              f"{fn['calls']:>8} calls {fn['self_host_s']:.4f} s self")
    for name in SUMMARY_ONLY:
        print(f"# {name:<36} {values[name]:>16.6g} {PER_LAYER_UNITS[name]}")
    names = [k for k in PER_LAYER_UNITS
             if workload == "chaos" or k not in SUMMARY_ONLY]
    return {"run": run, "metrics": {
        k: _metric(k, values[k], PER_LAYER_UNITS) for k in names}}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="End-to-end CSAR benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        out = measure(args.workload, args.seed, args.seconds)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    run = out["run"]
    for name, metric in out["metrics"].items():
        print(f"{name:<38} {metric['value']:>16.6g} {metric['unit']}")
    for check in run["checks"]:
        print(f"CHECK FAILED: {check}")
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": out["metrics"]}))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
