"""The CPU as a FIFO queue with scheduled completions.

Every scenario is played twice, once against :class:`Cpu` and once
against a reference copy of the ``Resource``-based CPU it replaced, and
each job's outcome time and the accumulated ``busy_time`` must be equal.
"""

from random import Random

import pytest

from repro.hw.cpu import Cpu
from repro.hw.params import CpuParams
from repro.sim import Environment, Interrupt, Resource
from repro.units import MBps


class ReferenceCpu:
    """The CPU as it was before: a capacity-1 ``Resource`` held for the
    job's duration."""

    def __init__(self, env):
        self.env = env
        self._resource = Resource(env, capacity=1)
        self.busy_time = 0.0

    def _occupy(self, duration):
        if duration <= 0:
            return
        with self._resource.request() as req:
            yield req
            yield self.env.timeout(duration)
            self.busy_time += duration


def make_cpu(env):
    return Cpu(env, "n", CpuParams(parity_bandwidth=1000 * MBps,
                                   parity_bandwidth_bytewise=100 * MBps,
                                   request_overhead=1e-4,
                                   kernel_module_overhead=1e-3,
                                   byte_rate=20 * MBps))


def play(make, jobs, interrupts=()):
    """Run ``jobs`` (``(arrival, duration)``) on a fresh CPU, interrupting
    job ``i`` at each ``(time, i)``; returns each job's outcome and time,
    and the CPU's busy time."""
    env = Environment()
    cpu = make(env)
    log = {}

    def job(i, arrival, duration):
        try:
            yield env.timeout(arrival)
            yield from cpu._occupy(duration)
            log[i] = ("done", env.now)
        except Interrupt:
            log[i] = ("interrupted", env.now)

    procs = [env.process(job(i, arrival, duration))
             for i, (arrival, duration) in enumerate(jobs)]

    def interrupter(at, i):
        yield env.timeout(at)
        if procs[i].is_alive:
            procs[i].interrupt()

    for at, i in interrupts:
        env.process(interrupter(at, i))
    env.run()
    return log, cpu.busy_time


def assert_same(jobs, interrupts=()):
    got = play(make_cpu, jobs, interrupts)
    assert got == play(ReferenceCpu, jobs, interrupts)
    return got


class TestMatchesResourceCpu:
    def test_isolated_jobs(self):
        log, busy = assert_same([(0.0, 1.0), (2.0, 0.5), (5.0, 0.3)])
        assert log == {0: ("done", 1.0), 1: ("done", 2.5),
                       2: ("done", 5.3)}
        assert busy == pytest.approx(1.8)

    def test_back_to_back_and_queued_jobs(self):
        # Job 1 arrives the instant job 0 ends; 2-4 queue behind job 0,
        # and the zero-length job 4 never takes the processor.
        log, busy = assert_same([(0.0, 1.0), (1.0, 0.5), (0.2, 0.3),
                                 (0.2, 0.7), (0.2, 0.0)])
        assert log[4] == ("done", 0.2)
        assert busy == pytest.approx(2.5)
        assert max(t for _, t in log.values()) == pytest.approx(2.5)

    def test_interrupting_the_head_mid_hold(self):
        log, busy = assert_same([(0.0, 1.0), (0.1, 1.0), (0.2, 1.0)],
                                [(0.5, 0)])
        assert log == {0: ("interrupted", 0.5), 1: ("done", 1.5),
                       2: ("done", 2.5)}
        assert busy == 2.0

    def test_interrupting_a_queued_job(self):
        log, busy = assert_same([(0.0, 1.0), (0.1, 1.0), (0.2, 1.0)],
                                [(0.5, 1)])
        assert log == {0: ("done", 1.0), 1: ("interrupted", 0.5),
                       2: ("done", 2.0)}
        assert busy == 2.0

    def test_interrupting_a_job_as_its_predecessor_ends(self):
        log, busy = assert_same([(0.0, 1.0), (0.1, 1.0), (0.2, 1.0)],
                                [(1.0, 1)])
        assert log == {0: ("done", 1.0), 1: ("interrupted", 1.0),
                       2: ("done", 2.0)}
        assert busy == 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_arrivals_and_interrupts(self, seed):
        rng = Random(seed)
        jobs = [(rng.uniform(0, 5), rng.uniform(0, 0.4))
                for _ in range(40)]
        interrupts = [(rng.uniform(0, 8), rng.randrange(40))
                      for _ in range(8)]
        assert_same(jobs, interrupts)


class TestTieOrder:
    def test_interrupt_at_the_instant_a_hold_ends(self):
        # Job 1 queues behind job 0 and holds [1, 2).  At t=1 the
        # interrupter, running after job 0 has finished, sets a 1 s
        # timer and then interrupts job 1: the timer and job 1's
        # completion fall on the same instant.  The reference scheduled
        # job 1's completion when it resumed from its grant, after the
        # timer, so the interrupt won; the queue schedules it when job 0
        # ends, before the timer, so the job completes and the interrupt
        # finds it finished.  Same instant, opposite order.
        def scenario(make):
            env = Environment()
            cpu = make(env)
            log = {}

            def job(i):
                try:
                    yield from cpu._occupy(1.0)
                    log[i] = ("done", env.now)
                except Interrupt:
                    log[i] = ("interrupted", env.now)

            procs = [env.process(job(0)), env.process(job(1))]

            def interrupter():
                yield env.timeout(0.5)
                yield env.timeout(0.5)
                yield env.timeout(1.0)
                if procs[1].is_alive:
                    procs[1].interrupt()

            env.process(interrupter())
            env.run()
            return log, cpu.busy_time

        assert scenario(ReferenceCpu) == (
            {0: ("done", 1.0), 1: ("interrupted", 2.0)}, 1.0)
        assert scenario(make_cpu) == (
            {0: ("done", 1.0), 1: ("done", 2.0)}, 2.0)


class TestQueue:
    def test_only_the_head_completion_is_scheduled(self):
        env = Environment()
        cpu = make_cpu(env)
        for _ in range(5):
            env.process(cpu._occupy(1.0))
        env.run(until=0.5)
        assert len(cpu._jobs) == 5
        # The five Initialize events are gone; one completion is pending.
        assert env.stats()["pending"] == 1
        env.run()
        assert not cpu._jobs
        assert env.now == 5.0
