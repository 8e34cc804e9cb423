"""One workload in one process: set up, measure, check, report.

Run by ``perfbench/run.py`` as ``python -m csarbench.child`` with
``perfbench`` and ``src`` on ``PYTHONPATH``.  Modes:

* ``probe``: import the program, build and pre-populate the first
  episode's cluster (one ``setup_s`` sample), run that episode, and report
  the process's peak RSS (one ``peak_rss_mb`` sample);
* ``measure``: cycle set-up plus measured phases through the seed's
  episodes with tracing off, for one full pass and then until
  ``--seconds`` have passed;
* ``traced``: one pass with the :class:`~csarbench.tracer.Tracer`
  installed, reporting per-layer metrics and writing the Chrome trace.

The untraced modes also time the :mod:`~csarbench.calib` kernel and
report host times at its reference speed beside the unscaled ones: a
probe scales its set-up time by two kernel calls made after it has read
its peak RSS, and ``measure`` scales each episode by the kernel calls
just before and after it.

The last line of standard output is one JSON object.  The exit code is 0
when every output check passed and 1 when one failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from repro.units import mbps  # noqa: E402

from csarbench import calib, layers, stats, workloads  # noqa: E402
from csarbench.tracer import Tracer, leftover_wrappers  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: Most passes over a seed's episodes in one run.
MAX_PASSES = 50


def sim_metrics(rep: workloads.Rep) -> Dict[str, Any]:
    """End-to-end simulated metrics of one run's pooled episodes."""
    write = stats.latency_summary(rep.write_lat)
    read = stats.latency_summary(rep.read_lat)
    return {
        "sim_write_MBps": mbps(rep.bytes_written, rep.write_sim_s),
        "sim_read_MBps": mbps(rep.bytes_read, rep.read_sim_s),
        "sim_write_p50_ms": write["p50_ms"],
        "sim_write_tail_ms": write["tail_ms"],
        "sim_read_p50_ms": read["p50_ms"],
        "sim_read_tail_ms": read["tail_ms"],
        "storage_ratio": rep.stored_bytes / rep.logical_bytes,
        "tails": {"write": {"percentile": write["tail_pct"],
                            "samples": write["n"]},
                  "read": {"percentile": read["tail_pct"],
                           "samples": read["n"]}},
    }


def probe(name: str, seed: int) -> Dict[str, Any]:
    """Set-up time and peak RSS of a process that runs one episode."""
    workload = workloads.make(name, seed)
    workload.prepare(0)
    with workloads.EventCounter() as counter:
        t0 = time.perf_counter()
        workload.setup()
        setup_s = IMPORT_S + time.perf_counter() - t0
        rep = workload.measure(counter)
    # read the peak before the kernel's own memory can add to it
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = calib.scale(calib.kernel_s(), calib.kernel_s())
    return {"setup_s": setup_s * scale, "raw_setup_s": setup_s,
            "peak_rss_mb": rss_kib / 1024.0,
            "attempted": rep.ops, "failed": rep.failed,
            "checks": rep.checks}


def measure(name: str, seed: int, seconds: float, traced: bool,
            out_dir: str = "") -> Dict[str, Any]:
    """Cycle through the seed's episodes until ``seconds`` have passed,
    completing at least one pass; a traced run makes exactly one pass."""
    tracer = Tracer() if traced else None
    workload = workloads.make(name, seed,
                              wrap=tracer.wrap_coroutine if tracer else None)
    count = len(workload.episodes)
    first: List[workloads.Rep] = []
    digests: List[str] = []
    rates: List[float] = []
    raw_rates: List[float] = []
    kernel_times: List[float] = []
    pass_host = 0.0
    raw: Dict[str, float] = {}
    failed = attempted = 0
    checks: List[str] = []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        tracer.install()
    else:
        kernel_times.append(calib.kernel_s())
    try:
        with workloads.EventCounter() as counter:
            for step in range(MAX_PASSES * count):
                episode = step % count
                if step >= count and (traced
                                      or time.perf_counter() >= deadline):
                    break
                workload.prepare(episode)
                if tracer is not None:
                    tracer.forget_instances()
                workload.setup()
                if tracer is not None:
                    before = layers.collect(tracer)
                    tracer.start_window(record=step == 0)
                t0 = time.perf_counter()
                rep = workload.measure(counter)
                host = time.perf_counter() - t0
                if tracer is not None:
                    tracer.stop_window()
                    layers.accumulate(raw, layers.window(
                        tracer, before, layers.collect(tracer)))
                workload.system = None
                gc.collect()  # free the episode's cluster outside timing
                raw_rates.append(rep.ops / host)
                if tracer is None:
                    kernel_times.append(calib.kernel_s())
                    rates.append(rep.ops / (host * calib.scale(
                        *kernel_times[-2:])))
                attempted += rep.ops
                failed += rep.failed
                checks.extend(rep.checks)
                digest = stats.digest(rep.sim)
                if step < count:
                    first.append(rep)
                    digests.append(digest)
                    pass_host += host
                elif digest != digests[episode]:
                    failed += 1
                    checks.append(f"episode {episode} simulated a different "
                                  "digest when repeated")
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        leftovers = leftover_wrappers()
        if leftovers:
            failed += 1
            checks.append(f"wrappers left installed: {leftovers[:5]}")
    pooled = workloads.Rep.pooled(first)
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "traced": traced,
        "episodes": len(raw_rates), "pass_host_s": pass_host,
        "raw_host_ops_per_s": stats.median(raw_rates),
        "ops_per_pass": pooled.ops, "attempted": attempted, "failed": failed,
        "checks": checks[:20], "events": pooled.events,
        "digest": stats.digest(digests),
        "sim": sim_metrics(pooled),
    }
    if tracer is None:
        result["host_ops_per_s"] = stats.median(rates)
        result["kernel_s"] = stats.median(kernel_times)
    else:
        result["layers"] = layers.summarize(raw, pooled.ops, pooled.events)
        result["top_functions"] = tracer.top_functions()
        result["dropped_spans"] = tracer.dropped_spans
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write_chrome(os.path.join(
                out_dir, f"{name}-seed{seed}.trace.json"))
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--out-dir", default="")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        result = probe(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds,
                         args.mode == "traced", args.out_dir)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
