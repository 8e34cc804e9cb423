"""Host-speed calibration: a fixed pure-Python kernel timed beside the
program, so that host times can be given at a reference host speed.

On a shared host the speed a process gets drifts by tens of percent from
minute to minute, and the drift moves the simulator and any other Python
code together.  A run times :func:`kernel` between its measured spans and
scales each span by ``REFERENCE_S`` over the kernel times around it,
which cancels most of that drift.

The kernel imports nothing from the program under test, so a change to
the program cannot move it.  It has two halves of about equal length,
because the host's drift moves them by different amounts and the
simulator does both kinds of work: a small event loop (generator resumes,
a heap of timestamped entries, dictionary updates, attribute access) and
a pointer chase through a 400 000-entry list (about 14 MB with its
integers), which waits on memory more than the loop does.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Dict, List, Optional

#: Typical wall time of one :func:`kernel` call (0.075-0.115 s seen) on
#: the host the README's figures were taken on: a 2-vCPU x86-64 VM (Intel
#: Xeon) shared with other tenants, CPython 3.11.  Scaled host times read
#: as seconds on a host where the kernel takes exactly this long.
REFERENCE_S = 0.100

#: Processes of the event-loop half.
PROCESSES = 3000

#: Entries of the pointer-chase list, and steps taken through it.
CHASE_ENTRIES = 400_000
CHASE_STEPS = 150_000

_chain: Optional[List[int]] = None


class _Job:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.done = 0
        self.log: List[int] = []


def _process(job: _Job, table: Dict[int, int]):
    """Eight timed steps, each touching a shared table and the job."""
    for step in range(8):
        key = (job.ident * 31 + step) & 1023
        table[key] = table.get(key, 0) + step
        job.done += 1
        job.log.append(key)
        yield ((job.ident * 7 + step) % 13 + 1) * 1e-3


def _event_loop() -> int:
    table: Dict[int, int] = {}
    heap: list = []
    seq = 0
    jobs = [_Job(i) for i in range(PROCESSES)]
    for job in jobs:
        proc = _process(job, table)
        heapq.heappush(heap, (next(proc), seq, proc))
        seq += 1
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + proc.send(None), seq, proc))
        except StopIteration:
            continue
        seq += 1
    return sum(table.values()) + sum(job.done for job in jobs)


def _chase_chain() -> List[int]:
    """A fixed permutation that is one cycle (Sattolo's shuffle), so the
    chase visits every entry before it repeats."""
    global _chain
    if _chain is None:
        chain = list(range(CHASE_ENTRIES))
        rng = random.Random(0)
        for i in range(CHASE_ENTRIES - 1, 0, -1):
            j = rng.randrange(i)
            chain[i], chain[j] = chain[j], chain[i]
        _chain = chain
    return _chain


def _chase(chain: List[int]) -> int:
    at = total = 0
    for _ in range(CHASE_STEPS):
        at = chain[at]
        total += at
    return total


def kernel() -> int:
    """Run both halves once; returns a checksum of their results."""
    return _event_loop() + _chase(_chase_chain())


def kernel_s() -> float:
    """Wall seconds of one kernel call (the chase list is built first,
    outside the timing)."""
    _chase_chain()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a host time bracketed by two kernel timings into
    seconds at the reference speed."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
