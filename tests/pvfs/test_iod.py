"""Protocol-level tests of the I/O daemon."""

import pytest

from repro import CSARConfig, Payload, System
from repro.errors import ProtocolError, ServerFailed
from repro.pvfs import messages as msg
from repro.sim.engine import Process
from repro.units import KiB

UNIT = 16 * KiB


def make_system(**kw):
    kw.setdefault("scheme", "hybrid")
    kw.setdefault("stripe_unit", UNIT)
    kw.setdefault("content_mode", True)
    return System(CSARConfig(**kw))


def rpc(system, iod, request):
    client = system.client()

    def work():
        response = yield from client.rpc(iod, request)
        return response

    return system.run(work())


class TestReadWrite:
    def test_write_then_read(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=64,
                                      payload=Payload.from_bytes(b"abc")))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=64, length=3))
        assert response.payload.to_bytes() == b"abc"

    def test_read_unwritten_returns_zeros(self):
        system = make_system()
        response = rpc(system, system.iods[2],
                       msg.ReadReq("f", kind="data", offset=0, length=4))
        assert response.payload.to_bytes() == b"\x00" * 4

    def test_kinds_address_separate_files(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"DD")))
        rpc(system, iod, msg.WriteReq("f", kind="red", offset=0,
                                      payload=Payload.from_bytes(b"RR")))
        data = rpc(system, iod, msg.ReadReq("f", kind="data", offset=0,
                                            length=2))
        red = rpc(system, iod, msg.ReadReq("f", kind="red", offset=0,
                                           length=2))
        assert data.payload.to_bytes() == b"DD"
        assert red.payload.to_bytes() == b"RR"

    def test_unknown_kind_rejected(self):
        system = make_system()
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0],
                msg.ReadReq("f", kind="junk", offset=0, length=1))

    def test_unknown_request_type_rejected(self):
        system = make_system()

        class Bogus(msg.Request):
            pass

        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], Bogus("f"))


class TestOverflowProtocol:
    def test_overflow_write_resolves_on_data_read(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"old!")))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(1, 3)], payload=Payload.from_bytes(b"NE")))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"oNE!"
        assert response.overflow_bytes == 2

    def test_inplace_read_bypasses_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"old!")))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"NEW!")))
        response = rpc(system, iod, msg.ReadReq("f", kind="inplace",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"old!"

    def test_mismatched_overflow_payload_rejected(self):
        system = make_system()
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], msg.OverflowWriteReq(
                "f", ranges=[(0, 10)], payload=Payload.from_bytes(b"xy")))

    def test_invalidate_flag_supersedes_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"OVFL")))
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"base"),
                                      invalidate=True))
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=4))
        assert response.payload.to_bytes() == b"base"

    def test_mirror_table_separate_per_origin(self):
        system = make_system()
        iod = system.iods[1]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 2)], payload=Payload.from_bytes(b"AA"),
            mirror=True, origin=0))
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 2)], payload=Payload.from_bytes(b"BB"),
            mirror=True, origin=5))
        a = rpc(system, iod, msg.MirrorResolveReq("f", origin=0, offset=0,
                                                  length=2))
        b = rpc(system, iod, msg.MirrorResolveReq("f", origin=5, offset=0,
                                                  length=2))
        assert a.payload.to_bytes() == b"AA"
        assert b.payload.to_bytes() == b"BB"
        assert a.ranges == ((0, 2),)

    def test_mirror_resolve_without_table_returns_nothing(self):
        system = make_system()
        response = rpc(system, system.iods[3],
                       msg.MirrorResolveReq("f", origin=2, offset=0,
                                            length=8))
        assert response.ranges == ()


class TestParityProtocol:
    def test_parity_read_locks_until_parity_write(self):
        system = make_system(scheme="raid5")
        iod = system.iods[0]
        rpc(system, iod, msg.ParityReadReq("f", group=5, local_offset=0,
                                           intra=(0, 8), xid=1))
        assert iod.locks.is_locked("f", 5)
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=5, local_offset=0, intra=(0, 8),
            payload=Payload.zeros(8), unlock=True, xid=1))
        assert not iod.locks.is_locked("f", 5)

    def test_full_stripe_parity_write_does_not_need_lock(self):
        system = make_system(scheme="raid5")
        iod = system.iods[0]
        # unlock=False: a full-stripe parity write with no prior read.
        rpc(system, iod, msg.ParityWriteReq(
            "f", group=0, local_offset=0, intra=(0, 4),
            payload=Payload.zeros(4), unlock=False, xid=9))
        assert not iod.locks.is_locked("f", 0)

    def test_parity_payload_length_checked(self):
        system = make_system(scheme="raid5")
        with pytest.raises(ProtocolError):
            rpc(system, system.iods[0], msg.ParityWriteReq(
                "f", group=0, local_offset=0, intra=(0, 8),
                payload=Payload.zeros(4), xid=2))


class TestFailureBehaviour:
    def test_failed_server_rejects_everything(self):
        system = make_system()
        system.fail_server(0)
        with pytest.raises(ServerFailed):
            rpc(system, system.iods[0],
                msg.ReadReq("f", kind="data", offset=0, length=1))

    def test_repair_restores_service_with_wiped_state(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"x")))
        iod.fail()
        iod.repair(wipe=True)
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=1))
        assert response.payload.to_bytes() == b"\x00"  # fresh disk

    def test_repair_without_wipe_keeps_data(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"x")))
        iod.fail()
        iod.repair(wipe=False)
        response = rpc(system, iod, msg.ReadReq("f", kind="data",
                                                offset=0, length=1))
        assert response.payload.to_bytes() == b"x"


class TestMaintenance:
    def test_fsync_flushes_all_local_files(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.zeros(8 * KiB)))
        rpc(system, iod, msg.WriteReq("f", kind="red", offset=0,
                                      payload=Payload.zeros(8 * KiB)))
        rpc(system, iod, msg.FsyncReq("f"))
        assert iod.node.cache.dirty_bytes == 0

    def test_truncate_overflow(self):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.OverflowWriteReq(
            "f", ranges=[(0, 4)], payload=Payload.from_bytes(b"data")))
        rpc(system, iod, msg.TruncateOverflowReq("f"))
        assert iod.overflow["f"].allocated_bytes == 0

    def test_storage_of_unknown_file_zeroes(self):
        system = make_system()
        assert system.iods[0].storage_of("ghost") == {
            "data": 0, "red": 0, "ovf": 0, "ovfm": 0}


def spy_submit(monkeypatch, iod, crowd=False, store_path=False):
    """Record the events ``iod.submit`` hands out.  ``crowd`` schedules
    another event for the hand-off instant first; ``store_path`` makes
    the run loop's guard fail for this one delivery."""
    submit = iod.submit
    handed = []

    def spied(request, reply_nic):
        if crowd:
            iod.env.timeout(0)
        if store_path:
            iod.env._single_callback = False
        event = submit(request, reply_nic)
        handed.append(event)
        return event

    monkeypatch.setattr(iod, "submit", spied)
    return handed


class TestHandOff:
    def read_req(self):
        return msg.ReadReq("f", kind="data", offset=0, length=3)

    def scheduled_by_rpc(self, monkeypatch, store_path):
        system = make_system()
        iod = system.iods[0]
        rpc(system, iod, msg.WriteReq("f", kind="data", offset=0,
                                      payload=Payload.from_bytes(b"abc")))
        handed = spy_submit(monkeypatch, iod, store_path=store_path)
        before = system.env.stats()["scheduled"]
        response = rpc(system, iod, self.read_req())
        assert response.payload.to_bytes() == b"abc"
        return (system.env.stats()["scheduled"] - before, system.env.now,
                isinstance(handed[0], Process))

    def test_direct_hand_off_saves_two_events(self, monkeypatch):
        direct, t_direct, started = self.scheduled_by_rpc(monkeypatch,
                                                          False)
        queued, t_queued, via_inbox = self.scheduled_by_rpc(monkeypatch,
                                                            True)
        assert started and not via_inbox
        assert direct == queued - 2  # no StoreGet, no separate reply
        assert t_direct == t_queued

    def test_event_due_now_forces_the_store_path(self, monkeypatch):
        system = make_system()
        iod = system.iods[0]
        handed = spy_submit(monkeypatch, iod, crowd=True)
        response = rpc(system, iod, self.read_req())
        assert response.payload.to_bytes() == b"\x00" * 3
        assert not isinstance(handed[0], Process)
        assert not iod._inflight

    def test_fail_during_a_direct_handler(self, monkeypatch):
        system = make_system()
        iod = system.iods[0]
        handed = spy_submit(monkeypatch, iod)
        env = system.env
        client = system.client()
        seen = []

        def work():
            try:
                yield from client.rpc(iod, msg.ReadReq(
                    "f", kind="data", offset=0, length=64 * KiB))
            except ServerFailed as exc:
                seen.append(str(exc))

        def crash():
            while not handed:
                yield env.timeout(1e-6)
            yield env.timeout(1e-6)
            seen.append(handed[0].is_alive)
            iod.fail()

        env.process(crash())
        system.run(work())
        assert isinstance(handed[0], Process)
        assert seen == [True, "iod0 crashed mid-request"]
        assert not iod._inflight

    def test_unexpected_handler_error_reaches_the_client(self,
                                                         monkeypatch):
        system = make_system()
        iod = system.iods[0]
        handed = spy_submit(monkeypatch, iod)

        def broken(request):
            raise RuntimeError("handler bug")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(iod, "_dispatch", broken)
        client = system.client()

        def work():
            try:
                yield from client.rpc(iod, self.read_req())
            except RuntimeError as exc:
                return str(exc)

        assert system.run(work()) == "handler bug"
        assert isinstance(handed[0], Process)
        assert not iod._inflight
