"""The four workloads, driven through the public ``repro`` API.

Each workload is a class run one episode at a time:

* ``prepare(k)`` selects episode ``k``'s ops and builds the benchmark's
  own references (untimed);
* ``setup()`` builds the :class:`~repro.System` and pre-populates it (the
  ``setup_s`` metric);
* ``measure()`` runs the measured phases and returns a :class:`Rep`.

Every simulated client is a closed loop: it issues its next op only when
the previous one returned, as an MPI rank does.  Clients are coroutines
inside the one simulation thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import CSARConfig, Payload, System
from repro.faults import matrix as fault_matrix
from repro.faults import plan as fault_plan
from repro.faults import runner as fault_runner
from repro.pvfs.client import PVFSClient
from repro.redundancy import recovery
from repro.sim import engine

from csarbench import gen


@dataclass
class Rep:
    """What one measured episode produced."""

    ops: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    bytes_written: int = 0
    bytes_read: int = 0
    #: simulated seconds of the phases that wrote / read
    write_sim_s: float = 0.0
    read_sim_s: float = 0.0
    write_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    stored_bytes: int = 0
    logical_bytes: int = 0
    events: int = 0
    #: deterministic simulated statistics (see :meth:`Workload.finish`)
    sim: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.checks) < 20:
            self.checks.append(message)

    @classmethod
    def pooled(cls, reps: List["Rep"]) -> "Rep":
        """One run's episodes as a single sample: counts and simulated
        times add up, latency samples concatenate."""
        out = cls()
        for rep in reps:
            for name in ("ops", "failed", "bytes_written", "bytes_read",
                         "write_sim_s", "read_sim_s", "stored_bytes",
                         "logical_bytes", "events"):
                setattr(out, name, getattr(out, name) + getattr(rep, name))
            out.checks.extend(rep.checks)
            out.write_lat.extend(rep.write_lat)
            out.read_lat.extend(rep.read_lat)
        return out


class EventCounter:
    """Counts dispatched events over every ``Environment`` in a window,
    through the simulator's environment-observer hook."""

    def __init__(self) -> None:
        self.envs: List[Any] = []
        self._base: Dict[int, int] = {}
        self._previous = None

    def __enter__(self) -> "EventCounter":
        self._previous = engine.env_observer()
        engine.set_env_observer(self.envs.append)
        return self

    def __exit__(self, *exc) -> None:
        engine.set_env_observer(self._previous)

    def start(self) -> None:
        self._base = {id(env): env.stats()["dispatched"] for env in self.envs}

    def dispatched(self) -> int:
        return sum(env.stats()["dispatched"] - self._base.get(id(env), 0)
                   for env in self.envs)


def _storage(system: System, rep: Rep) -> None:
    for name, meta in system.manager.files.items():
        rep.stored_bytes += system.storage_report(name)["total"]
        rep.logical_bytes += meta.size


class Barrier:
    """A reusable all-ranks barrier made of one sim event per step."""

    def __init__(self, env, parties: int, steps: int) -> None:
        self.parties = parties
        self.events = [env.event() for _ in range(steps)]
        self.waiting = [0] * steps

    def wait(self, step: int):
        self.waiting[step] += 1
        if self.waiting[step] == self.parties:
            self.events[step].succeed()
        else:
            yield self.events[step]


class Workload:
    """Common workload plumbing; subclasses define the phases.

    A run cycles through the seed's episodes; for each one it calls
    :meth:`prepare` (benchmark-side input preparation, untimed),
    :meth:`setup` and :meth:`measure`.
    """

    name = ""

    def __init__(self, seed: int,
                 wrap: Optional[Callable[[Any], Any]] = None) -> None:
        self.seed = seed
        self.episodes = gen.op_stream(self.name, seed)
        #: lets a traced run account the client coroutines to ``bench``
        self.wrap = wrap or (lambda g: g)
        self.system: Optional[System] = None
        self.ops: Any = None
        self.episode = 0

    def prepare(self, episode: int) -> None:
        self.episode = episode
        self.ops = self.episodes[episode]

    def run(self, *coroutines) -> float:
        """Run client coroutines to completion; simulated seconds taken."""
        elapsed, _ = self.system.timed(*[self.wrap(c) for c in coroutines])
        return elapsed

    def closed_loop(self, client: PVFSClient, ops, rep: Rep,
                    payloads: Optional[Dict[tuple, Payload]] = None):
        """One client: issue each op after the previous one returned."""
        env = client.env
        for op in ops:
            kind, name, offset, length = op[:4]
            t0 = env.now
            if kind == "write":
                payload = (payloads[op] if payloads is not None
                           else Payload.virtual(length))
                yield from client.write(name, offset, payload)
                rep.write_lat.append(env.now - t0)
                rep.bytes_written += length
            else:
                data = yield from client.read(name, offset, length)
                rep.read_lat.append(env.now - t0)
                rep.bytes_read += length
                if data.length != length:
                    rep.fail(f"{name}[{offset}:+{length}] returned "
                             f"{data.length} bytes")
            rep.ops += 1

    def close(self, rep: Rep) -> None:
        """Every client flushes every file to disk, as ranks closing
        their files do; the phase counts as ops but not toward write or
        read time."""
        names = sorted(self.system.manager.files)

        def closer(client):
            for name in names:
                yield from client.fsync(name)
                rep.ops += 1

        self.run(*[closer(client) for client in self.system.clients])

    def finish(self, rep: Rep, counter: EventCounter) -> Rep:
        """Count events and storage, and record the simulated statistics
        that must repeat exactly: event count, clock, the ``Metrics``
        snapshot and every latency sample."""
        rep.events = counter.dispatched()
        _storage(self.system, rep)
        rep.sim = {"events": rep.events, "now": self.system.env.now,
                   "metrics": self.system.metrics.snapshot(),
                   "write_lat": rep.write_lat, "read_lat": rep.read_lat}
        return rep


class Ckpt(Workload):
    """BTIO-shaped checkpoint: initial pass, cold overwrite, restart read."""

    name = "ckpt"

    def setup(self) -> None:
        c = gen.CKPT
        self.system = System(CSARConfig(
            scheme="raid5", num_servers=c["servers"],
            num_clients=c["ranks"], profile=c["profile"],
            scale=c["cache_scale"], content_mode=False))
        client = self.system.client(0)

        def create():
            for name, scheme in c["files"]:
                yield from client.create(name, scheme=scheme)

        self.run(create())

    def _pass(self, rep: Rep) -> float:
        steps = self.ops["steps"]
        barrier = Barrier(self.system.env, len(steps[0]), len(steps))

        def rank(r: int):
            client = self.system.clients[r]
            for step, row in enumerate(steps):
                yield from self.closed_loop(client, [row[r]], rep)
                yield from barrier.wait(step)

        return self.run(*[rank(r) for r in range(len(steps[0]))])

    def measure(self, counter: EventCounter) -> Rep:
        rep = Rep()
        counter.start()
        rep.write_sim_s += self._pass(rep)
        self.system.drop_all_caches()
        rep.write_sim_s += self._pass(rep)
        rep.read_sim_s += self.run(*[
            self.closed_loop(self.system.clients[r], reads, rep)
            for r, reads in enumerate(self.ops["restart"])])
        return self.finish(rep, counter)


class SmallIO(Workload):
    """Random small records on warm raid5/hybrid files, 8 clients."""

    name = "smallio"

    def setup(self) -> None:
        c = gen.SMALLIO
        self.system = System(CSARConfig(
            scheme="raid5", num_servers=c["servers"],
            num_clients=c["clients"], profile=c["profile"],
            content_mode=False))
        client = self.system.client(0)
        record = c["prefill_record"]

        def prefill():
            for name, scheme in c["files"]:
                yield from client.create(name, scheme=scheme)
                for offset in range(0, c["file_size"], record):
                    yield from client.write(name, offset,
                                            Payload.virtual(record))

        self.run(prefill())

    def measure(self, counter: EventCounter) -> Rep:
        rep = Rep()
        counter.start()
        elapsed = self.run(*[
            self.closed_loop(self.system.clients[i], ops, rep)
            for i, ops in enumerate(self.ops)])
        rep.write_sim_s = rep.read_sim_s = elapsed
        self.close(rep)
        return self.finish(rep, counter)


class Content(Workload):
    """Real bytes: write, read back, fail, degraded read, rebuild, read."""

    name = "content"

    def prepare(self, episode: int) -> None:
        super().prepare(episode)
        c = gen.CONTENT
        size = c["clients"] * c["region"]
        self.reference = {name: np.zeros(size, dtype=np.uint8)
                          for name, _scheme in c["files"]}
        self.raw: Dict[tuple, bytes] = {}
        for ops in self.ops["writes"]:
            for op in ops:
                _kind, name, offset, length, data_seed = op
                raw = gen.content_bytes(data_seed, length)
                self.raw[op] = raw
                self.reference[name][offset:offset + length] = \
                    np.frombuffer(raw, dtype=np.uint8)

    def setup(self) -> None:
        c = gen.CONTENT
        self.system = System(CSARConfig(
            scheme="raid5", num_servers=c["servers"],
            num_clients=c["clients"], profile=c["profile"],
            content_mode=True))
        client = self.system.client(0)

        def create():
            for name, scheme in c["files"]:
                yield from client.create(name, scheme=scheme)

        self.run(create())
        self.payloads = {op: Payload.from_bytes(raw)
                         for op, raw in self.raw.items()}

    def _read_back(self, rep: Rep, phase: int, what: str) -> float:
        """Every client reads its own region of every file and checks
        each record byte for byte against the reference."""
        c = gen.CONTENT

        def reader(index: int):
            client = self.system.clients[index]
            env = client.env
            for name, _scheme in c["files"]:
                for offset, length in self.ops["reads"][index][phase]:
                    t0 = env.now
                    data = yield from client.read(name, offset, length)
                    rep.read_lat.append(env.now - t0)
                    rep.bytes_read += length
                    rep.ops += 1
                    got = np.frombuffer(data.to_bytes(), dtype=np.uint8)
                    want = self.reference[name][offset:offset + length]
                    if not np.array_equal(got, want):
                        rep.fail(f"{what}: {name}[{offset}:+{length}] "
                                 "differs from the reference")

        return self.run(*[reader(i) for i in range(c["clients"])])

    def measure(self, counter: EventCounter) -> Rep:
        rep = Rep()
        counter.start()
        victim = self.ops["victim"]
        rep.write_sim_s = self.run(*[
            self.closed_loop(self.system.clients[i], ops, rep, self.payloads)
            for i, ops in enumerate(self.ops["writes"])])
        self.close(rep)
        rep.read_sim_s += self._read_back(rep, 0, "healthy read")
        self.system.fail_server(victim)
        rep.read_sim_s += self._read_back(rep, 1, "degraded read")
        self.system.replace_server(victim)
        self.run(recovery.rebuild_server(self.system, victim))
        rep.read_sim_s += self._read_back(rep, 2, "rebuilt read")
        return self.finish(rep, counter)


class LatencyProbe:
    """Times ``PVFSClient.write``/``read`` in sim seconds.

    The chaos workload's ops are issued by the program's own chaos
    runner, so their latencies are taken at the client entry points.
    Installed for traced and untraced runs alike; it schedules nothing.
    """

    def __init__(self, rep: Rep) -> None:
        self.rep = rep
        self._saved: Dict[str, Any] = {}

    def _probe(self, original, samples: List[float]):
        rep = self.rep

        def probe(client, *args, **kwargs):
            env = client.env
            t0 = env.now
            rep.ops += 1
            result = yield from original(client, *args, **kwargs)
            samples.append(env.now - t0)
            return result

        return probe

    def __enter__(self) -> "LatencyProbe":
        for attr, samples in (("write", self.rep.write_lat),
                              ("read", self.rep.read_lat)):
            self._saved[attr] = vars(PVFSClient)[attr]
            setattr(PVFSClient, attr,
                    self._probe(self._saved[attr], samples))
        return self

    def __exit__(self, *exc) -> None:
        for attr, original in self._saved.items():
            setattr(PVFSClient, attr, original)


class Chaos(Workload):
    """Seeded fault plans under all sanitizers, plus the crash matrix."""

    name = "chaos"

    def setup(self) -> None:
        c = gen.CHAOS
        self.plans = [fault_plan.sample_plan(plan_seed, scheme,
                                             c["servers"], num_ops)
                      for plan_seed, scheme, num_ops in self.ops]

    def measure(self, counter: EventCounter) -> Rep:
        rep = Rep()
        systems: List[System] = []
        verdicts = []
        counter.start()
        with LatencyProbe(rep):
            for plan in self.plans:
                result = fault_runner.run_plan(plan, inject=systems.append)
                verdicts.append(result.digest)
                if not result.ok:
                    rep.fail(result.format())
            for scheme in gen.CHAOS["matrix_schemes"]:
                for cell in fault_matrix.crash_matrix(
                        scheme, victims=(self.episode,)):
                    verdicts.append(cell.format())
                    if not cell.ok:
                        rep.fail(cell.format())
        rep.events = counter.dispatched()
        for system in systems:
            _storage(system, rep)
            snap = system.metrics.snapshot()
            rep.bytes_written += int(snap.get("client.bytes_written", 0))
            rep.bytes_read += int(snap.get("client.bytes_read", 0))
            rep.write_sim_s += system.env.now
        rep.read_sim_s = rep.write_sim_s
        rep.sim = {"events": rep.events, "verdicts": verdicts,
                   "write_lat": rep.write_lat, "read_lat": rep.read_lat}
        return rep


WORKLOAD_CLASSES = {cls.name: cls for cls in (Ckpt, SmallIO, Content, Chaos)}


def make(name: str, seed: int, wrap=None) -> Workload:
    return WORKLOAD_CLASSES[name](seed, wrap)
