"""The PVFS metadata manager.

A single daemon that owns the file namespace: creation, lookup (returning
the striping layout to clients at open time) and unlink.  Like PVFS, the
manager is *not* on the data path — clients talk to I/O daemons directly
after open — so its model stays deliberately small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.errors import FileExists, FileNotFound, ProtocolError
from repro.hw.link import transfer
from repro.hw.node import Node
from repro.metrics import Metrics
from repro.pvfs import messages as msg
from repro.pvfs.layout import StripeLayout
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store


@dataclass
class FileMeta:
    """What the manager knows about one PVFS file."""

    name: str
    layout: StripeLayout
    scheme: str
    size: int = 0  # logical EOF, maintained as clients complete writes


class WriteLedger:
    """Cluster-wide registry of writes in flight.

    Every client write registers here (``begin``/``end``), so an online
    rebuild (:func:`repro.redundancy.recovery.rebuild_server`) can (a)
    learn which files were modified while it was copying them — its
    *watchers* get ``note_write(name)`` at write completion, when the
    survivors hold the settled bytes — and (b) wait for the cluster to
    quiesce before bringing the rebuilt server live, so no write that
    started while the server was down can complete after it rejoined
    (such a write skips the "failed" server and would leave it stale).
    """

    def __init__(self) -> None:
        self._active: Dict[int, str] = {}
        self._next = 0
        self._waiters: list = []
        #: rebuild trackers; each gets ``note_write(name)`` per completion
        self.watchers: list = []

    @property
    def active(self) -> int:
        """Number of client writes currently in flight."""
        return len(self._active)

    def begin(self, name: str) -> int:
        self._next += 1
        self._active[self._next] = name
        return self._next

    def end(self, token: int) -> None:
        name = self._active.pop(token)
        for watcher in list(self.watchers):
            watcher.note_write(name)
        if not self._active:
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def quiesce_event(self, env: Environment) -> Event:
        """An event that fires when no write is in flight."""
        event = env.event()
        if not self._active:
            event.succeed()
        else:
            self._waiters.append(event)
        return event


class Manager:
    """The metadata daemon."""

    def __init__(self, env: Environment, node: Node, metrics: Metrics,
                 layout: StripeLayout, scheme: str) -> None:
        self.env = env
        self.node = node
        self.metrics = metrics
        self.layout = layout
        self.scheme = scheme
        self.files: Dict[str, FileMeta] = {}
        self.write_ledger = WriteLedger()
        self.inbox = Store(env)
        env.process(self._serve(), name="manager")

    def submit(self, request, reply_nic) -> Event:
        """Queue ``request`` for the dispatch loop; the returned event
        fires with the :class:`~repro.pvfs.messages.MgrResponse`."""
        done = self.env.event()
        self.inbox.put((request, reply_nic, done))
        return done

    def _serve(self) -> Generator[Event, Any, None]:
        while True:
            request, reply_nic, done = yield self.inbox.get()
            yield from self.node.cpu.request_processing()
            try:
                result = self._dispatch(request)
                error = None
            except (FileExists, FileNotFound, ProtocolError) as exc:
                result, error = None, exc
            yield from transfer(self.env, self.node.nic, reply_nic,
                                request.reply_size(), self.metrics)
            done.succeed(msg.MgrResponse(meta=result, error=error))

    def _dispatch(self, request) -> FileMeta | None:
        if isinstance(request, msg.MgrCreate):
            if request.name in self.files:
                raise FileExists(request.name)
            if request.scheme is not None:
                from repro.redundancy.base import SCHEMES

                if request.scheme not in SCHEMES:
                    raise ProtocolError(
                        f"unknown scheme {request.scheme!r}")
                if request.scheme in ("raid5", "hybrid") \
                        and self.layout.n < 2:
                    raise ProtocolError(
                        f"{request.scheme} needs at least 2 servers")
            meta = FileMeta(request.name, self.layout,
                            request.scheme or self.scheme)
            self.files[request.name] = meta
            return meta
        if isinstance(request, msg.MgrOpen):
            meta = self.files.get(request.name)
            if meta is None:
                raise FileNotFound(request.name)
            return meta
        if isinstance(request, msg.MgrUnlink):
            if request.name not in self.files:
                raise FileNotFound(request.name)
            del self.files[request.name]
            return None
        raise ProtocolError(f"manager: unknown request {request!r}")
