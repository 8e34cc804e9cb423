"""Flow-level network model.

Each node owns a :class:`NIC` with independent transmit and receive
resources (Myrinet is full duplex).  A message transfer:

1. acquires the sender's TX slot, then the receiver's RX slot (TX and RX
   are disjoint pools, so the two-step acquisition cannot deadlock);
2. holds both for ``per_message + nbytes / min(tx_bw, rx_bw)``;
3. delivers after one additional one-way ``latency``.

Saturation behaviour is what matters for the paper's figures: many flows
out of one client serialize on its TX (RAID1's 2x bytes flatten Fig 4a);
many clients into one server serialize on its RX (the parity hot spot in
Fig 3).  Single-flow store-and-forward pipelining is approximated — a
documented limitation (DESIGN.md §6).

:func:`stream` adds the per-byte CPU stage of the sending or receiving
node, pipelined with the wire per NIC segment.  It spends no process on
a one-segment message and one helper process on a longer one; an
interrupted stream frees its TX, RX and CPU slots at once.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.metrics import Metrics
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource, Store
from repro.hw.params import NetworkParams


class NIC:
    """A full-duplex network attachment for one node."""

    def __init__(self, env: Environment, node_name: str,
                 params: NetworkParams) -> None:
        self.env = env
        self.node_name = node_name
        self.params = params
        self.tx = Resource(env, capacity=1)
        self.rx = Resource(env, capacity=1)


def _apply_link_fault(env: Environment, action: tuple, src: NIC, dst: NIC,
                      nbytes: int) -> Generator[Event, Any, None]:
    """Apply an injected message fault (see :mod:`repro.faults`).

    ``drop`` parks forever — the message silently never arrives, and
    only a client RPC timeout rescues the waiter.  ``delay`` stalls the
    message before it takes the wire.  ``dup`` sends the bytes across
    the wire twice (the duplicate burns occupancy; end-to-end
    duplicate *delivery* is exercised by retry-after-delay instead,
    since retried idempotent RPCs really do arrive twice).
    """
    kind = action[0]
    if kind == "drop":
        yield env.event()  # black hole: nothing ever triggers this
    elif kind == "delay":
        yield env.timeout(action[1])
    elif kind == "dup":
        yield from _transfer_timed(env, src, dst, nbytes, None)


def _transfer_timed(env: Environment, src: NIC, dst: NIC, nbytes: int,
                    metrics: Optional[Metrics],
                    ) -> Generator[Event, Any, None]:
    """The fault-free wire movement shared by :func:`transfer`/:func:`stream`."""
    if src is dst:
        # Loopback (e.g. a client co-located with an I/O server): charge
        # only the per-message overhead, no wire time.
        yield env.timeout(src.params.per_message)
        return
    bandwidth = min(src.params.bandwidth, dst.params.bandwidth)
    occupancy = src.params.per_message + nbytes / bandwidth
    with src.tx.request() as tx_req:
        yield tx_req
        with dst.rx.request() as rx_req:
            yield rx_req
            yield env.timeout(occupancy)
    yield env.timeout(src.params.latency)
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)


def transfer(env: Environment, src: NIC, dst: NIC, nbytes: int,
             metrics: Optional[Metrics] = None) -> Generator[Event, Any, None]:
    """Process body: move ``nbytes`` from ``src``'s node to ``dst``'s node.

    Use as ``yield env.process(transfer(...))`` or ``yield from transfer(...)``.
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size {nbytes}")
    faults = env.faults
    if faults is not None:
        action = faults.link_action(src, dst, nbytes)
        if action is not None:
            yield from _apply_link_fault(env, action, src, dst, nbytes)
    yield from _transfer_timed(env, src, dst, nbytes, metrics)


def stream(env: Environment, src: NIC, dst: NIC, nbytes: int,
           metrics: Optional[Metrics] = None, cpu=None, cpu_at: str = "dst",
           ) -> Generator[Event, Any, None]:
    """Move ``nbytes`` in segments, overlapping wire and per-byte CPU time.

    Large messages are sent in NIC-segment-sized pieces so (a) concurrent
    flows through one NIC interleave fairly, approximating TCP
    multiplexing, and (b) the per-byte data-handling cost (``cpu``, a
    :class:`~repro.hw.cpu.Cpu`) of the receiving (``cpu_at='dst'``) or
    sending (``cpu_at='src'``) node pipelines with the wire time, the way
    a real server processes a socket while more data is in flight.  The
    slower of the two stages sets the steady-state rate — this is what
    lets aggregate PVFS bandwidth scale with I/O servers until the client
    link saturates (Figure 4a).

    The two stages run in order: wire then CPU for ``'dst'``, CPU then
    wire for ``'src'``.  A message of one segment runs both in the
    caller, one after the other.  A longer one runs the first stage in
    the caller and the second in one helper process fed through a
    :class:`~repro.sim.resources.Store`, and the caller joins the helper
    at the end.  Interrupting the caller part-way releases the NIC and
    CPU slots it holds at once and interrupts the helper, which releases
    its own; the helper's failure is defused, since nobody awaits it.
    """
    if nbytes <= 0 or cpu is None:
        yield from transfer(env, src, dst, nbytes, metrics)
        return
    if cpu_at not in ("dst", "src"):
        raise ValueError(f"cpu_at must be 'src' or 'dst', got {cpu_at!r}")
    # One fault consult per *message*: the segments below move pieces of
    # a single logical transfer, so drop/delay/dup apply to the whole
    # message, not per segment.
    faults = env.faults
    if faults is not None:
        action = faults.link_action(src, dst, nbytes)
        if action is not None:
            yield from _apply_link_fault(env, action, src, dst, nbytes)

    def wire(size: int) -> Generator[Event, Any, None]:
        return _transfer_timed(env, src, dst, size, None)

    if cpu_at == "dst":
        first, second = wire, cpu.process_bytes
    else:
        first, second = cpu.process_bytes, wire
    segment = src.params.segment
    if nbytes <= segment:
        yield from first(nbytes)
        yield from second(nbytes)
    else:
        sizes = [segment] * (nbytes // segment)
        if nbytes % segment:
            sizes.append(nbytes % segment)
        queue = Store(env)

        def second_stage() -> Generator[Event, Any, None]:
            for _ in sizes:
                size = yield queue.get()
                yield from second(size)

        helper = env.process(second_stage())
        try:
            for size in sizes:
                yield from first(size)
                queue.put(size)
            yield helper
        finally:
            if helper.is_alive:
                helper.defused()
                helper.interrupt()
    if metrics is not None:
        metrics.record_tx(src.node_name, nbytes)
        metrics.record_rx(dst.node_name, nbytes)
