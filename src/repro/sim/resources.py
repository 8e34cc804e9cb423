"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — ``capacity`` slots with a strict FIFO wait queue.
  Modeled after SimPy's but simplified: requests are events; use them as
  context managers inside processes for exception safety.
* :class:`FifoLock` — a ``Resource`` of capacity 1 with lock vocabulary;
  the parity-block lock manager builds on it.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  used as message queues between clients and I/O daemons.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource

    # Context-manager protocol so processes can write
    # ``with res.request() as req: yield req``.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with FIFO granting.

    A request that finds a free slot while the run loop delivers an
    event with exactly one callback, and with nothing else on the heap
    at ``now``, is granted in place: it comes back already processed,
    so the requester's ``yield`` resumes at once instead of through a
    heap event that would have been dispatched next anyway.  Every
    other grant is scheduled as before.
    """

    #: Whether free-slot grants may skip the heap (see the class notes).
    _inline_grants = True

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()
        # Cumulative statistics for utilization reporting.
        self.total_waits: int = 0
        self.total_wait_time: float = 0.0
        self._wait_started: dict[Request, float] = {}

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        env = self.env
        req = Request(env, self)
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            if self._inline_grants and env._sole_delivery():
                req._value = None
                req.callbacks = None
            else:
                req.succeed()
        else:
            self.total_waits += 1
            self._wait_started[req] = env._now
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free a slot; grants the head of the queue if any.

        Releasing a queued (never granted) request cancels it; releasing an
        unknown request is an error.
        """
        if request in self.users:
            self.users.remove(request)
        else:
            try:
                self.queue.remove(request)
                self._wait_started.pop(request, None)
                return
            except ValueError:
                raise SimulationError("release of a request not held or queued")
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.total_wait_time += self.env.now - self._wait_started.pop(nxt)
            self.users.append(nxt)
            nxt.succeed()


class FifoLock(Resource):
    """A mutual-exclusion lock with FIFO fairness.

    When a sanitizer is attached to the environment (see
    :mod:`repro.analysis.locksan`), every request/grant/release is
    reported so held locks can be tracked and leaks detected at the end
    of the run.  The sanitizer is fixed for an environment's lifetime
    (installed in ``Environment.__init__``), so it is bound once at lock
    construction: unsanitized runs take the plain :class:`Resource` path
    with zero extra lookups per acquire/release.

    Lock grants keep their heap event (no in-place grant), so a queued
    grant's LockSan callback runs exactly where it always has.
    """

    _inline_grants = False

    def __init__(self, env: Environment) -> None:
        super().__init__(env, capacity=1)
        self._san = env.sanitizer

    @property
    def locked(self) -> bool:
        return bool(self.users)

    def request(self) -> Request:
        san = self._san
        if san is None:
            return Resource.request(self)
        req = Resource.request(self)
        proc = self.env.active_process
        name = proc.name if proc is not None else "<main>"
        if req.triggered:
            san.on_lock_granted(self, req, name)
        else:
            # Grants happen inside a release(); record the hold when
            # the grant event is processed, before the waiting
            # process resumes (its callback was not yet appended).
            req.callbacks.append(
                lambda _ev: san.on_lock_granted(self, req, name))
        return req

    def release(self, request: Request) -> None:
        san = self._san
        if san is not None:
            san.on_lock_released(self, request)
        Resource.release(self, request)


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO message queue with blocking ``get``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks; the store is unbounded)."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """An event that fires with the next item."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.items)
