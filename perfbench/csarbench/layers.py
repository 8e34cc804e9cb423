"""Per-layer metrics of one traced repetition.

Counters are read from the instances the :class:`~csarbench.tracer.Tracer`
registered, before and after the measured window; self times and call
counts come from the tracer's spans.  ``sim.events_per_host_s`` and
``trace.overhead_frac`` need the untraced run too and are added by the
orchestrator (``run.py``).
"""

from __future__ import annotations

from typing import Dict

from csarbench.tracer import LAYERS, Tracer

#: ``name -> unit`` of every per-layer metric the traced run reports.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events_dispatched": "count",
    "sim.events_per_host_s": "1/s",
    "sim.self_host_s": "s",
    "hw.link.messages": "count",
    "hw.nic.grants": "count",
    "hw.nic.grants_per_message": "count",
    "hw.link.self_host_s": "s",
    "hw.nic.tx_busy_max_frac": "fraction",
    "hw.nic.queue_wait_s": "s",
    "hw.disk.ops": "count",
    "hw.disk.seeks": "count",
    "hw.disk.busy_s": "s",
    "hw.disk.queue_wait_s": "s",
    "hw.disk.self_host_s": "s",
    "hw.cache.hit_ratio": "fraction",
    "hw.cache.throttle_s": "s",
    "hw.cache.self_host_s": "s",
    "hw.cpu.busy_s": "s",
    "hw.cpu.self_host_s": "s",
    "pvfs.rpcs": "count",
    "pvfs.rpcs_per_op": "count",
    "pvfs.coalesce_ratio": "fraction",
    "pvfs.self_host_s": "s",
    "redundancy.lock_contended_ratio": "fraction",
    "redundancy.lock_wait_s": "s",
    "redundancy.overflow_bytes": "B",
    "redundancy.self_host_s": "s",
    "storage.self_host_s": "s",
    "util.parity_xor_bytes": "B",
    "util.self_host_s": "s",
    "analysis.self_host_s": "s",
    "analysis.bufsan_bytes_fingerprinted": "B",
    "faults.fired": "count",
    "faults.self_host_s": "s",
    "trace.overhead_frac": "fraction",
}

#: Per-layer metrics that stay zero on some workload -- there is no cache
#: throttling on ``smallio`` and ``content``, no parity XOR in extent
#: mode, and sanitizers and faults run only under ``chaos``.  They are
#: printed and saved with the rest, but only ``chaos`` puts them in its
#: result line, so no reported figure is a constant zero.
SUMMARY_ONLY = ("hw.cache.throttle_s", "util.self_host_s",
                "analysis.self_host_s", "analysis.bufsan_bytes_fingerprinted",
                "faults.fired")

_METRIC_KEYS = ("cache.hit_bytes", "cache.miss_bytes", "cache.throttle_time",
                "client.coalesced_fragments", "hybrid.overflow_write_bytes")


def collect(tracer: Tracer) -> Dict[str, float]:
    """Cumulative counters summed over every registered instance."""
    out: Dict[str, float] = dict.fromkeys(
        ("disk.ops", "disk.seeks", "disk.busy", "disk.wait", "cpu.busy",
         "nic.wait", "nic.grants", "lock.acq", "lock.contended",
         "lock.wait", "bufsan.bytes", "faults.fired"), 0.0)
    for node in tracer.instances["Node"]:
        disk = node.disk
        out["disk.ops"] += disk.reads + disk.writes
        out["disk.seeks"] += disk.seeks
        out["disk.busy"] += disk.busy_time
        out["disk.wait"] += disk._resource.total_wait_time
        out["cpu.busy"] += node.cpu.busy_time
        out["nic.wait"] += (node.nic.tx.total_wait_time
                            + node.nic.rx.total_wait_time)
    out["nic.grants"] = float(sum(tx.grants for tx, _rx in tracer.nics))
    for key in _METRIC_KEYS:
        out[key] = 0.0
    for system in tracer.instances["System"]:
        for key in _METRIC_KEYS:
            out[key] += system.metrics.get(key)
    for table in tracer.instances["ParityLockTable"]:
        out["lock.acq"] += table.acquisitions
        out["lock.contended"] += table.contended_acquisitions
        out["lock.wait"] += table.total_wait_time
    for san in tracer.instances["BufSan"]:
        out["bufsan.bytes"] += san.bytes_fingerprinted
    for injector in tracer.instances["FaultInjector"]:
        out["faults.fired"] += len(injector.fired)
    out["xor.bytes"] = float(tracer.xor_bytes)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def window(tracer: Tracer, before: Dict[str, float],
           after: Dict[str, float]) -> Dict[str, float]:
    """Raw counts of one measured window (one episode)."""
    raw = {key: after[key] - before.get(key, 0.0) for key in after}
    for layer in LAYERS:
        raw[f"self.{layer}"] = tracer.layer_self[layer]
    raw["messages"] = float(tracer.calls("hw.link", "transfer", entries=True)
                            + tracer.calls("hw.link", "stream", entries=True))
    raw["rpcs"] = float(tracer.calls("pvfs", "PVFSClient.rpc"))
    fracs = [0.0]
    for tx, _rx in tracer.nics:
        span = tx.env.now - tx.base_now
        if span > 0:
            fracs.append((tx.busy_now() - tx.base_busy) / span)
    raw["tx_busy_max_frac"] = max(fracs)
    return raw


def accumulate(total: Dict[str, float], raw: Dict[str, float]) -> None:
    """Add one window's raw counts into a run's totals."""
    for key, value in raw.items():
        if key == "tx_busy_max_frac":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


def summarize(raw: Dict[str, float], ops: int,
              events: int) -> Dict[str, float]:
    """The per-layer metrics of a run from its summed raw counts."""
    hit, miss = raw["cache.hit_bytes"], raw["cache.miss_bytes"]
    messages, rpcs = raw["messages"], raw["rpcs"]
    saved = raw["client.coalesced_fragments"]
    return {
        "sim.events_dispatched": events,
        "sim.self_host_s": raw["self.sim"],
        "hw.link.messages": messages,
        "hw.nic.grants": raw["nic.grants"],
        "hw.nic.grants_per_message": _ratio(raw["nic.grants"], messages),
        "hw.link.self_host_s": raw["self.hw.link"],
        "hw.nic.tx_busy_max_frac": raw["tx_busy_max_frac"],
        "hw.nic.queue_wait_s": raw["nic.wait"],
        "hw.disk.ops": raw["disk.ops"],
        "hw.disk.seeks": raw["disk.seeks"],
        "hw.disk.busy_s": raw["disk.busy"],
        "hw.disk.queue_wait_s": raw["disk.wait"],
        "hw.disk.self_host_s": raw["self.hw.disk"],
        "hw.cache.hit_ratio": _ratio(hit, hit + miss),
        "hw.cache.throttle_s": raw["cache.throttle_time"],
        "hw.cache.self_host_s": raw["self.hw.cache"],
        "hw.cpu.busy_s": raw["cpu.busy"],
        "hw.cpu.self_host_s": raw["self.hw.cpu"],
        "pvfs.rpcs": rpcs,
        "pvfs.rpcs_per_op": _ratio(rpcs, ops),
        "pvfs.coalesce_ratio": _ratio(saved, rpcs + saved),
        "pvfs.self_host_s": raw["self.pvfs"],
        "redundancy.lock_contended_ratio": _ratio(raw["lock.contended"],
                                                  raw["lock.acq"]),
        "redundancy.lock_wait_s": raw["lock.wait"],
        "redundancy.overflow_bytes": raw["hybrid.overflow_write_bytes"],
        "redundancy.self_host_s": raw["self.redundancy"],
        "storage.self_host_s": raw["self.storage"],
        "util.parity_xor_bytes": raw["xor.bytes"],
        "util.self_host_s": raw["self.util"],
        "analysis.self_host_s": raw["self.analysis"],
        "analysis.bufsan_bytes_fingerprinted": raw["bufsan.bytes"],
        "faults.fired": raw["faults.fired"],
        "faults.self_host_s": raw["self.faults"],
    }
