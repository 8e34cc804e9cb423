"""Seeded op streams: the only input the simulated cluster receives.

Every workload's inputs are a pure function of ``(workload, seed)``.  The
generators here use nothing but :mod:`random`, so the same seed yields the
same stream on any machine, and the streams can be built and compared
without importing the system under test.

Ops are plain tuples:

* ``("write", file, offset, length)`` and ``("read", file, offset, length)``
  for the extent-mode workloads (``ckpt``, ``smallio``);
* ``("write", file, offset, length, data_seed)`` for ``content``, whose
  bytes the benchmark derives from ``data_seed`` (see :func:`content_bytes`).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

KiB = 1024
MiB = 1024 * KiB

#: Workload names in the order the README documents them.
WORKLOADS = ("ckpt", "smallio", "content", "chaos")

#: The documented default seed; seed 7919 is held out from tuning.
DEFAULT_SEED = 1

#: Episodes per workload.  Simulated metrics pool all of a run's
#: episodes; host throughput is the median over episodes, so one run
#: yields many host-time samples without shrinking the simulated sample.
EPISODES = {"ckpt": 12, "smallio": 16, "content": 10, "chaos": 5}

CKPT = {
    "profile": "osc",
    "servers": 6,
    "ranks": 16,
    #: checkpoint step ``s`` goes to file ``s % 3``
    "files": (("ckpt_r1", "raid1"), ("ckpt_r5", "raid5"),
              ("ckpt_hy", "hybrid")),
    "steps": 3,
    "share": 4 * MiB,
    "jitter": 96 * KiB,
    #: restart-read records are stratified over this range, seeded order
    "read_min": 128 * KiB,
    "read_max": 512 * KiB,
}
#: An episode's share of BTIO class C (162**3 cells x 40 B x 40 steps);
#: the page caches shrink by the same factor so RAID1's doubled bytes
#: overflow them as in the paper's Figure 7.
CKPT["cache_scale"] = (CKPT["steps"] * CKPT["ranks"] * CKPT["share"]
                       / (162 ** 3 * 40 * 40))

SMALLIO = {
    "profile": "osu8",
    "servers": 6,
    "clients": 8,
    "files": (("small_r5", "raid5"), ("small_hy", "hybrid")),
    "file_size": 3 * MiB,
    "prefill_record": 1 * MiB,
    "ops_per_client": 100,
    "write_frac": 0.7,
    #: FLASH-like share of requests under 2 KiB
    "small_frac": 0.4,
    "min_len": 512,
    "max_len": 64 * KiB,
}

CONTENT = {
    "profile": "osu8",
    "servers": 6,
    "clients": 4,
    "files": (("data_r1", "raid1"), ("data_r5", "raid5"),
              ("data_hy", "hybrid")),
    #: each client owns one disjoint region of every file
    "region": 2 * MiB,
    "writes_per_region": 8,
    "min_len": 3 * KiB,
    "max_len": 2 * MiB,
    #: read-back records are stratified over this range, in seeded order
    "read_min": 128 * KiB,
    "read_max": 1 * MiB,
}

CHAOS = {
    "schemes": ("raid0", "raid1", "raid5", "hybrid"),
    #: with 5 episodes, the CI chaos campaign's 8 plans per scheme, of
    #: the runner's default 10 ops each (episode ``k`` also runs the
    #: crash-matrix cells whose victim is server ``k``)
    "plans_per_scheme": 2,
    "num_ops": 10,
    "servers": 5,
    "matrix_schemes": ("raid5", "hybrid"),
}


def _stratified(n: int, quantile: Callable[[float], int]) -> List[int]:
    """``n`` values at the midpoints of ``n`` equal-probability strata.

    Every seed draws the same multiset of sizes, so the amount of work
    does not vary with the seed; the seed picks order and placement.
    """
    return [quantile((i + 0.5) / n) for i in range(n)]


def _log_quantile(lo: int, hi: int) -> Callable[[float], int]:
    """Quantile function of a size spread evenly over powers of two."""
    a, b = lo.bit_length() - 1, hi.bit_length() - 1
    return lambda u: int(round(2 ** (a + u * (b - a))))


def _cover(rng: random.Random, lo: int, hi: int, sizes: List[int]):
    """Seeded ``(offset, length)`` records covering ``[lo, hi)``."""
    records = []
    offset = lo
    while offset < hi:
        length = min(sizes[rng.randrange(len(sizes))], hi - offset)
        records.append((offset, length))
        offset += length
    return records


def ckpt_ops(rng: random.Random) -> Dict[str, object]:
    """A BTIO-shaped collective checkpoint.

    ``steps`` lists, per checkpoint step, each rank's one unaligned write
    of about ``share`` bytes; step ``s`` goes to file ``s % 3`` so the
    files rotate over raid1, raid5 and hybrid.  The same writes are
    replayed as the cold-cache overwrite.  ``restart`` lists each rank's
    reads of its part of the last step, in records of seeded sizes.
    """
    c = CKPT
    read_sizes = _stratified(8, _log_quantile(c["read_min"], c["read_max"]))
    base = rng.randrange(1, 64 * KiB)
    region = c["ranks"] * (c["share"] + c["jitter"])
    steps: List[List[Tuple]] = []
    for step in range(c["steps"]):
        name = c["files"][step % len(c["files"])][0]
        offset = base + (step // len(c["files"])) * region
        row = []
        for _rank in range(c["ranks"]):
            length = c["share"] + rng.randint(-c["jitter"], c["jitter"])
            row.append(("write", name, offset, length))
            offset += length
        steps.append(row)
    restart: List[List[Tuple]] = []
    for _kind, name, offset, length in steps[-1]:
        restart.append([("read", name, at, piece) for at, piece in
                        _cover(rng, offset, offset + length, read_sizes)])
    return {"steps": steps, "restart": restart}


def _smallio_size(u: float) -> int:
    c = SMALLIO
    small = c["small_frac"]
    if u < small:
        return int(c["min_len"] + (u / small) * (2 * KiB - 1 - c["min_len"]))
    lo, hi = 11, c["max_len"].bit_length() - 1
    return int(round(2 ** (lo + (u - small) / (1 - small) * (hi - lo))))


def smallio_ops(rng: random.Random) -> List[List[Tuple]]:
    """Per-client random records against pre-filled raid5/hybrid files.

    Each client issues the same stratified mix -- ``write_frac`` writes,
    ``small_frac`` of requests under 2 KiB, sizes split evenly between
    the two files -- in a seeded order at seeded offsets.
    """
    c = SMALLIO
    names = [name for name, _scheme in c["files"]]
    n = c["ops_per_client"]
    writes = round(n * c["write_frac"])
    streams = []
    for _client in range(c["clients"]):
        ops = []
        for kind, count in (("write", writes), ("read", n - writes)):
            for i, length in enumerate(_stratified(count, _smallio_size)):
                if i % 2 == 0:
                    pair = rng.sample(names, 2)
                offset = rng.randrange(c["file_size"] - length + 1)
                ops.append((kind, pair[i % 2], offset, length))
        rng.shuffle(ops)
        streams.append(ops)
    return streams


def content_ops(rng: random.Random) -> Dict[str, object]:
    """Real-byte writes in disjoint per-client regions, plus the failure.

    ``writes`` holds one list per client; each write lands inside that
    client's region of a file, so the final bytes do not depend on how
    the clients interleave.  Every region gets the same stratified sizes
    and ends with a write that reaches its last byte, so file sizes are
    fixed.  ``reads[client][k]`` are the ``(offset, length)`` records of
    read-back ``k`` (healthy, degraded, rebuilt) of the client's region in
    every file.  ``victim`` is the server failed before the degraded
    read-back.
    """
    c = CONTENT
    sizes = _stratified(c["writes_per_region"],
                        _log_quantile(c["min_len"], c["max_len"]))
    read_sizes = _stratified(8, _log_quantile(c["read_min"], c["read_max"]))
    writes = []
    for client in range(c["clients"]):
        lo = client * c["region"]
        ops = []
        for name, _scheme in c["files"]:
            lengths = rng.sample(sizes, len(sizes))
            for i, length in enumerate(lengths):
                last = i == len(lengths) - 1
                offset = lo + (c["region"] - length if last else
                               rng.randrange(c["region"] - length + 1))
                ops.append(("write", name, offset, length,
                            rng.randrange(1 << 31)))
        rng.shuffle(ops)
        writes.append(ops)
    reads = [[_cover(rng, client * c["region"], (client + 1) * c["region"],
                     read_sizes) for _ in range(3)]
             for client in range(c["clients"])]
    return {"writes": writes, "reads": reads,
            "victim": rng.randrange(c["servers"])}


def chaos_ops(rng: random.Random) -> List[Tuple[int, str, int]]:
    """``(plan_seed, scheme, num_ops)`` for each chaos run of an episode.

    Plan seeds are drawn from the workload seed, so distinct workload
    seeds sample distinct fault plans.
    """
    c = CHAOS
    return [(rng.randrange(1 << 30), scheme, c["num_ops"])
            for _ in range(c["plans_per_scheme"])
            for scheme in c["schemes"]]


_MAKERS = {"ckpt": ckpt_ops, "smallio": smallio_ops,
           "content": content_ops, "chaos": chaos_ops}


def op_stream(workload: str, seed: int) -> List:
    """The full generated input of one workload: ``EPISODES[workload]``
    independent episodes, each with its own fresh cluster."""
    try:
        make = _MAKERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}") from None
    return [make(random.Random(f"{workload}:{seed}:{k}"))
            for k in range(EPISODES[workload])]


def content_bytes(data_seed: int, length: int) -> bytes:
    """The bytes a ``content`` write carries."""
    return random.Random(data_seed).randbytes(length)
