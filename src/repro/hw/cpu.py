"""Per-node CPU cost model.

Only the compute costs the paper quantifies are modeled: XOR parity
(Fig 4a's RAID5 vs RAID5-npc gap, ~8%), fixed per-request server
processing, and the extra kernel-module crossing cost that levels the
Hartree-Fock results in Section 6.6.

The processor is a single FIFO server, and every job's hold time is
known when it arrives.  So the CPU keeps its jobs in a deque and puts
only the head job's completion on the event heap, timed when the job
becomes head: a job starts exactly when its predecessor ends, and no
grant event is spent on the way (docs/PERF.md, "CPU queue and direct
hand-off").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Tuple

from repro.sim.engine import NORMAL, Environment, Event
from repro.hw.params import CpuParams


class Cpu:
    """One node's processor as a serialized compute resource."""

    def __init__(self, env: Environment, node_name: str,
                 params: CpuParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        #: pending ``(completion, duration)`` jobs in FIFO order; only
        #: the head's completion is on the heap
        self._jobs: Deque[Tuple[Event, float]] = deque()
        self.busy_time = 0.0

    def _start(self, job: Tuple[Event, float]) -> None:
        """Make ``job`` the running one: its completion fires in
        ``duration`` from now."""
        done, duration = job
        done._value = None
        self.env._schedule(done, NORMAL, duration)

    def _occupy(self, duration: float) -> Generator[Event, Any, None]:
        """Hold the processor for ``duration`` after every earlier job.

        An interrupt while the job runs frees the processor at once, and
        one while it waits drops it from the queue, as releasing or
        cancelling a held or queued resource request would.
        """
        if duration <= 0:
            return
        jobs = self._jobs
        job = (Event(self.env), duration)
        jobs.append(job)
        if len(jobs) == 1:
            self._start(job)
        try:
            yield job[0]
        except BaseException:
            if jobs[0] is job:
                jobs.popleft()
                if jobs:
                    self._start(jobs[0])
            else:
                jobs.remove(job)
            raise
        jobs.popleft()
        self.busy_time += duration
        if jobs:
            self._start(jobs[0])

    def compute_parity(self, nbytes: int,
                       bytewise: bool = False) -> Generator[Event, Any, None]:
        """XOR ``nbytes`` of stripe data (word-wise unless ``bytewise``)."""
        rate = (self.params.parity_bandwidth_bytewise if bytewise
                else self.params.parity_bandwidth)
        yield from self._occupy(nbytes / rate)

    def request_processing(self) -> Generator[Event, Any, None]:
        """Fixed server-side cost of handling one protocol request."""
        yield from self._occupy(self.params.request_overhead)

    def process_bytes(self, nbytes: int) -> Generator[Event, Any, None]:
        """Per-byte data handling (TCP receive/send, copies, cache insert).

        The dominant server-side cost in 2003-era PVFS; this resource —
        one per node, shared by all concurrent request handlers — is what
        caps a single iod's delivered bandwidth.
        """
        yield from self._occupy(nbytes / self.params.byte_rate)

    def kernel_module_crossing(self) -> Generator[Event, Any, None]:
        """Extra client-side cost when I/O goes through the kernel module."""
        yield from self._occupy(self.params.kernel_module_overhead)
