"""Tests for Resource / FifoLock / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, FifoLock, Resource, Store
from repro.sim import engine


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_enforced(self, env):
        res = Resource(env, capacity=2)
        spans = []

        def worker(k):
            with res.request() as req:
                yield req
                start = env.now
                yield env.timeout(10)
                spans.append((k, start, env.now))

        for k in range(4):
            env.process(worker(k))
        env.run()
        # Two run at a time: starts at 0,0,10,10.
        starts = sorted(s for _k, s, _e in spans)
        assert starts == [0, 0, 10, 10]

    def test_fifo_granting(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(k):
            with res.request() as req:
                yield req
                order.append(k)
                yield env.timeout(1)

        for k in range(5):
            env.process(worker(k))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_on_exception(self, env):
        res = Resource(env, capacity=1)
        got = []

        def crasher():
            with res.request() as req:
                yield req
                yield env.timeout(1)
                raise ValueError("die holding the resource")

        def waiter():
            with res.request() as req:
                yield req
                got.append(env.now)

        def supervisor(target):
            with pytest.raises(ValueError):
                yield target

        crash_proc = env.process(crasher())
        env.process(supervisor(crash_proc))
        env.process(waiter())
        env.run()
        assert got == [1]  # granted right after the crasher released

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        holder_req = res.request()  # granted immediately
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # cancellation
        res.release(holder_req)
        assert res.count == 0

    def test_release_unknown_rejected(self, env):
        res = Resource(env, capacity=1)
        granted = res.request()
        res.release(granted)
        with pytest.raises(SimulationError):
            res.release(granted)

    def test_wait_time_statistics(self, env):
        res = Resource(env, capacity=1)

        def worker():
            with res.request() as req:
                yield req
                yield env.timeout(4)

        env.process(worker())
        env.process(worker())
        env.run()
        assert res.total_waits == 1
        assert res.total_wait_time == 4

    def test_bad_capacity(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


class TestFifoLock:
    def test_locked_flag(self, env):
        lock = FifoLock(env)
        assert not lock.locked
        req = lock.request()
        assert lock.locked
        lock.release(req)
        assert not lock.locked

    def test_grant_goes_through_the_heap(self, env):
        lock = FifoLock(env)
        seen = []

        def proc():
            yield env.timeout(1)
            req, scheduled = request_counting(env, lock)
            seen.append((scheduled, req.processed))
            yield req
            lock.release(req)

        env.process(proc())
        env.run()
        assert seen == [(1, False)]


def request_counting(env, res):
    """Request a slot; return the request and the heap events it scheduled."""
    before = env.stats()["scheduled"]
    req = res.request()
    return req, env.stats()["scheduled"] - before


class _FirstPick:
    """A tie-breaker that keeps the default order."""

    def choose(self, when, priority, events):
        return None


class TestInPlaceGrant:
    """A free slot requested where the grant event would be dispatched
    next is granted without one; every other grant is scheduled."""

    def test_sole_callback_nothing_else_due_is_granted_in_place(self, env):
        res = Resource(env)
        seen = []

        def proc():
            yield env.timeout(1)
            req, scheduled = request_counting(env, res)
            seen.append((scheduled, req.processed))
            yield req
            seen.append(env.now)
            res.release(req)

        env.process(proc())
        env.run()
        assert seen == [(0, True), 1]

    def test_request_outside_run_is_scheduled(self, env):
        req, scheduled = request_counting(env, Resource(env))
        assert (scheduled, req.processed) == (1, False)

    def test_other_event_due_now_forces_a_scheduled_grant(self, env):
        res = Resource(env)
        seen = []

        def proc():
            yield env.timeout(1)
            env.timeout(0)  # another event due at this instant
            req, scheduled = request_counting(env, res)
            seen.append(scheduled)
            yield req
            res.release(req)

        env.process(proc())
        env.run()
        assert seen == [1]

    def test_event_with_two_callbacks_forces_scheduled_grants(self, env):
        res = Resource(env, capacity=2)
        gate = env.event()
        seen = []

        def waiter():
            yield gate
            req, scheduled = request_counting(env, res)
            seen.append(scheduled)
            yield req
            res.release(req)

        def opener():
            yield env.timeout(1)
            gate.succeed()

        env.process(waiter())
        env.process(waiter())
        env.process(opener())
        env.run()
        assert seen == [1, 1]

    def test_step_never_grants_in_place(self, env):
        res = Resource(env)
        seen = []

        def proc():
            yield env.timeout(1)
            req, scheduled = request_counting(env, res)
            seen.append(scheduled)
            yield req
            res.release(req)

        env.process(proc())
        while env.peek() < float("inf"):
            env.step()
        assert seen == [1]

    def test_explored_run_never_grants_in_place(self):
        engine.set_tie_breaker_factory(_FirstPick)
        try:
            env = Environment()
        finally:
            engine.set_tie_breaker_factory(None)
        res = Resource(env)
        seen = []

        def proc():
            yield env.timeout(1)
            req, scheduled = request_counting(env, res)
            seen.append(scheduled)
            yield req
            res.release(req)

        env.process(proc())
        env.run()
        assert seen == [1]

    @pytest.mark.parametrize("until_event", [False, True])
    def test_flag_cleared_when_a_callback_raises(self, env, until_event):
        def boom(_event):
            raise RuntimeError("callback failed")

        event = env.event()
        event.callbacks.append(boom)
        event.succeed()
        with pytest.raises(RuntimeError, match="callback failed"):
            env.run(until=env.event() if until_event else None)
        req, scheduled = request_counting(env, Resource(env))
        assert (scheduled, req.processed) == (1, False)

    def test_fifo_order_under_contention_unchanged(self, env):
        res = Resource(env, capacity=1)
        grants = []

        def worker(name, start, hold):
            yield env.timeout(start)
            with res.request() as req:
                yield req
                grants.append((name, env.now))
                yield env.timeout(hold)

        env.process(worker("a", 0, 2))
        env.process(worker("b", 1, 2))
        env.process(worker("c", 2, 2))  # arrives as "a" releases
        env.run()
        assert grants == [("a", 0), ("b", 2), ("c", 4)]

    def test_release_then_rerequest_queues_behind_waiters(self, env):
        res = Resource(env, capacity=1)
        grants = []

        def greedy():
            for _ in range(2):
                with res.request() as req:
                    yield req
                    grants.append(("greedy", env.now))
                    yield env.timeout(1)

        def patient():
            with res.request() as req:
                yield req
                grants.append(("patient", env.now))
                yield env.timeout(1)

        env.process(greedy())
        env.process(patient())
        env.run()
        assert grants == [("greedy", 0), ("patient", 1), ("greedy", 2)]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("a")

        def consumer():
            item = yield store.get()
            return item

        p = env.process(consumer())
        assert env.run(until=p) == "a"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(5)
            store.put("late")

        p = env.process(consumer())
        env.process(producer())
        assert env.run(until=p) == (5, "late")

    def test_fifo_order_of_items(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        env.process(consumer())
        env.run()
        assert out == [0, 1, 2]

    def test_fifo_order_of_getters(self, env):
        store = Store(env)
        out = []

        def consumer(k):
            item = yield store.get()
            out.append((k, item))

        env.process(consumer(0))
        env.process(consumer(1))

        def producer():
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert out == [(0, "x"), (1, "y")]

    def test_len(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
