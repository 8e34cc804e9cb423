"""Per-layer tracing of the CSAR simulator from outside the program.

:class:`Tracer` wraps the entry points of each ``repro`` module (every
function and method the module defines, minus dunders and properties)
for the length of a traced run and restores them afterwards.  A wrapped
generator function -- a simulated process body -- is timed at each
resume, so each call becomes one span carrying its host self time and
its sim-time start and end; a wrapped plain function is one span of zero
sim duration.  Spans nest through a stack, and a layer's self time is
the time its spans ran minus the time their wrapped children ran.

The wrappers forward every yielded event unchanged, so a traced run
schedules exactly the events an untraced run does, in the same order.
Generator names are copied onto the wrapper so process names (which the
sanitizers report) stay the same too.

Counters the program already keeps (``Disk``, ``Cpu``, ``Resource``,
``ParityLockTable``, ``Metrics``, ``BufSan``, ``FaultInjector``) are read
from instances the tracer registers as they are built.  The NICs' TX/RX
``Resource`` instances get per-instance ``request``/``release`` wrappers
that account busy time and grants.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Attribute marking a benchmark wrapper; its value is the original.
MARK = "__csarbench_original__"

#: ``(layer, module)``: every function and method ``module`` defines
#: belongs to ``layer``.  The sim kernel is traced at ``Environment.run``
#: only: its self time is the dispatch loop plus unwrapped callbacks.
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("hw.link", "repro.hw.link"),
    ("hw.disk", "repro.hw.disk"),
    ("hw.cache", "repro.hw.cache"),
    ("hw.cpu", "repro.hw.cpu"),
    ("pvfs", "repro.pvfs.client"),
    ("pvfs", "repro.pvfs.iod"),
    ("pvfs", "repro.pvfs.manager"),
    ("pvfs", "repro.pvfs.layout"),
    ("redundancy", "repro.redundancy.base"),
    ("redundancy", "repro.redundancy.raid0"),
    ("redundancy", "repro.redundancy.raid1"),
    ("redundancy", "repro.redundancy.raid5"),
    ("redundancy", "repro.redundancy.hybrid"),
    ("redundancy", "repro.redundancy.locks"),
    ("redundancy", "repro.redundancy.overflow"),
    ("redundancy", "repro.redundancy.recovery"),
    ("storage", "repro.storage.payload"),
    ("storage", "repro.storage.blockfile"),
    ("storage", "repro.storage.localfs"),
    ("util", "repro.util.parity"),
    ("analysis", "repro.analysis.bufsan"),
    ("analysis", "repro.analysis.paritysan"),
    ("analysis", "repro.analysis.locksan"),
    ("faults", "repro.faults.injector"),
    ("faults", "repro.faults.plan"),
    ("faults", "repro.faults.runner"),
    ("faults", "repro.faults.matrix"),
)

#: Every layer a summary reports, in report order.
LAYERS = ("sim", "hw.link", "hw.disk", "hw.cache", "hw.cpu", "pvfs",
          "redundancy", "storage", "util", "analysis", "faults", "bench")

#: Classes whose instances the tracer collects counters from.
REGISTERED = (
    ("repro.csar.system", "System"),
    ("repro.hw.node", "Node"),
    ("repro.redundancy.locks", "ParityLockTable"),
    ("repro.analysis.bufsan", "BufSan"),
    ("repro.faults.injector", "FaultInjector"),
)

#: util.parity leaf kernels: ``name -> index of the XORed operand``.
#: Every parity computation bottoms out in one of these.
XOR_KERNELS = {"xor_into": 1, "xor_into_at": 2}

#: Spans kept for the Chrome trace; later spans are counted, not kept.
MAX_SPANS = 100_000

# Span record fields (a list, for speed).
_REC, _SIM0, _SIM1, _SELF, _ID, _PARENT, _TID = range(7)


class Fn:
    """Accounting for one wrapped function."""

    __slots__ = ("layer", "name", "calls", "nested", "self_s")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.calls = 0
        #: calls made from a span of the same layer (not layer entries)
        self.nested = 0
        self.self_s = 0.0


class _Nic:
    """Busy-time and grant accounting for one NIC ``Resource``."""

    __slots__ = ("env", "res", "grants", "busy", "since", "base_busy",
                 "base_now")

    def __init__(self, env, res) -> None:
        self.env = env
        self.res = res
        self.grants = 0
        self.busy = 0.0
        self.since: Optional[float] = None
        self.base_busy = 0.0
        self.base_now = env.now

    def note(self) -> None:
        if self.res.users:
            if self.since is None:
                self.since = self.env.now
        elif self.since is not None:
            self.busy += self.env.now - self.since
            self.since = None

    def busy_now(self) -> float:
        extra = 0.0 if self.since is None else self.env.now - self.since
        return self.busy + extra


class Tracer:
    """Wraps ``repro`` entry points; collects spans and counters."""

    def __init__(self) -> None:
        self.fns: Dict[Tuple[str, str], Fn] = {}
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.dropped_spans = 0
        self.recording = False
        self.env = None
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self.nics: List[Tuple[_Nic, _Nic]] = []
        self.xor_bytes = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._tids: Dict[Tuple[int, str], int] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _tid(self, proc) -> int:
        """A small track id per simulated process.  Keyed by ``id`` and
        name: an id reused after a process died names the same kind of
        process, and the two never overlap in time."""
        if proc is None:
            return 0
        key = (id(proc), proc.name)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = len(self._tids) + 1
        return tid

    def _open(self, fn: Fn) -> list:
        fn.calls += 1
        env = self.env
        now = env._now if env is not None else 0.0
        proc = env._active if env is not None else None
        stack = self._stack
        self._next_id += 1
        parent = 0
        if stack:
            outer = stack[-1][1]
            parent = outer[_ID]
            if outer[_REC].layer == fn.layer:
                fn.nested += 1
        return [fn, now, now, 0.0, self._next_id, parent, self._tid(proc)]

    def _account(self, span: list, t0: float, t1: float) -> None:
        stack = self._stack
        frame = stack.pop()
        dur = t1 - t0
        own = dur - frame[0]
        span[_SELF] += own
        fn = span[_REC]
        fn.self_s += own
        self.layer_self[fn.layer] += own
        if stack:
            stack[-1][0] += dur

    def _close(self, span: list) -> None:
        env = self.env
        span[_SIM1] = env._now if env is not None else span[_SIM0]
        if self.recording:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped_spans += 1

    def traced(self, gen, fn: Fn):
        """Drive ``gen`` exactly as ``yield from`` would, timing each
        resume; returns the wrapping generator."""
        wrapper = self._traced(gen, fn)
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def _traced(self, gen, fn: Fn):
        stack = self._stack
        span = None
        value = None
        exc: Optional[BaseException] = None
        try:
            while True:
                if span is None:
                    span = self._open(fn)
                stack.append([0.0, span])
                t0 = perf_counter()
                try:
                    if exc is None:
                        target = gen.send(value)
                    else:
                        target = gen.throw(exc)
                except StopIteration as stop:
                    self._account(span, t0, perf_counter())
                    return stop.value
                except BaseException:
                    self._account(span, t0, perf_counter())
                    raise
                self._account(span, t0, perf_counter())
                exc = None
                try:
                    value = yield target
                except GeneratorExit:
                    raise
                except BaseException as thrown:
                    exc = thrown  # forwarded inward, as yield from does
                    value = None
        finally:
            gen.close()
            if span is not None:
                self._close(span)

    def _wrap(self, original: Callable, fn: Fn,
              nbytes_arg: Optional[int] = None) -> Callable:
        if inspect.isgeneratorfunction(original):
            traced = self.traced

            def wrapper(*args, **kwargs):
                return traced(original(*args, **kwargs), fn)
        else:
            def wrapper(*args, **kwargs):
                if nbytes_arg is not None:
                    operand = args[nbytes_arg]
                    self.xor_bytes += getattr(operand, "nbytes", None) \
                        or len(operand)
                span = self._open(fn)
                self._stack.append([0.0, span])
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._account(span, t0, perf_counter())
                    self._close(span)
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARK, original)
        return wrapper

    def _fn(self, layer: str, name: str) -> Fn:
        key = (layer, name)
        fn = self.fns.get(key)
        if fn is None:
            fn = self.fns[key] = Fn(layer, name)
        return fn

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module namespace
        (``from x import f`` copies the reference)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                inner = raw.__func__
                if not inspect.isfunction(inner):
                    continue
                wrapped = type(raw)(self._wrap(
                    inner, self._fn(layer, f"{cls.__name__}.{attr}")))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw,
                                     self._fn(layer, f"{cls.__name__}.{attr}"))
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _wrap_module(self, layer: str, mod_name: str) -> None:
        module = importlib.import_module(mod_name)
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != mod_name:
                continue
            if inspect.isclass(value):
                self._wrap_class(layer, value)
            elif inspect.isfunction(value) and not hasattr(value, MARK):
                nbytes_arg = (XOR_KERNELS.get(attr)
                              if mod_name == "repro.util.parity" else None)
                self._patch_function(value, self._wrap(
                    value, self._fn(layer, attr), nbytes_arg))

    def _register(self, cls: type) -> None:
        original = vars(cls)["__init__"]
        bucket = self.instances[cls.__name__]
        on_new = self._on_node if cls.__name__ == "Node" else None

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)
            if on_new is not None:
                on_new(obj)

        functools.update_wrapper(__init__, original)
        setattr(__init__, MARK, original)
        self._patch(cls, "__init__", __init__)

    def _on_node(self, node) -> None:
        pair = []
        for res in (node.nic.tx, node.nic.rx):
            stat = _Nic(node.env, res)
            request, release = res.request, res.release

            def counted_request(request=request, stat=stat):
                req = request()
                stat.grants += 1
                stat.note()
                return req

            def counted_release(req, release=release, stat=stat):
                release(req)
                stat.note()

            res.request = counted_request
            res.release = counted_release
            pair.append(stat)
        self.nics.append((pair[0], pair[1]))

    def _on_run(self) -> None:
        from repro.sim.engine import Environment

        original = vars(Environment)["run"]
        fn = self._fn("sim", "Environment.run")
        tracer = self

        def run(env, until=None):
            outer = tracer.env
            tracer.env = env
            span = tracer._open(fn)
            tracer._stack.append([0.0, span])
            t0 = perf_counter()
            try:
                return original(env, until)
            finally:
                tracer._account(span, t0, perf_counter())
                tracer._close(span)
                tracer.env = outer

        functools.update_wrapper(run, original)
        setattr(run, MARK, original)
        self._patch(Environment, "run", run)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per tracer)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        _import_all()
        try:
            self._on_run()
            for layer, mod_name in LAYER_MODULES:
                self._wrap_module(layer, mod_name)
            for mod_name, cls_name in REGISTERED:
                self._register(getattr(importlib.import_module(mod_name),
                                       cls_name))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, value, had = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self.installed = False

    def wrap_coroutine(self, gen):
        """Account one of the benchmark's own client coroutines to the
        ``bench`` layer."""
        return self.traced(gen, self._fn("bench", gen.__name__))

    # ------------------------------------------------------------------
    # measurement window
    # ------------------------------------------------------------------
    def start_window(self, record: bool = True) -> None:
        """Zero self times and call counts; keep spans if ``record``."""
        self.layer_self.clear()
        for fn in self.fns.values():
            fn.calls = fn.nested = 0
            fn.self_s = 0.0
        for pair in self.nics:
            for stat in pair:
                stat.base_busy = stat.busy_now()
                stat.base_now = stat.env.now
        self.recording = record

    def stop_window(self) -> None:
        self.recording = False

    def forget_instances(self) -> None:
        """Drop registered instances (between repetitions)."""
        for bucket in self.instances.values():
            bucket.clear()
        self.nics.clear()

    def calls(self, layer: str, name: str, entries: bool = False) -> int:
        """Calls of one wrapped function; with ``entries``, only those
        made from outside its layer."""
        fn = self.fns.get((layer, name))
        if fn is None:
            return 0
        return fn.calls - fn.nested if entries else fn.calls

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Spans on the sim-time axis, one track per simulated process."""
        events: List[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "tid": 0, "args": {"name": "csar-sim"}},
                              {"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": 0, "args": {"name": "<main>"}}]
        used = {span[_TID] for span in self.spans}
        for (_id, name), tid in self._tids.items():
            if tid in used:
                events.append({"name": "thread_name", "ph": "M", "pid": 1,
                               "tid": tid, "args": {"name": name}})
        for span in self.spans:
            fn = span[_REC]
            events.append({
                "name": fn.name, "cat": fn.layer, "ph": "X", "pid": 1,
                "tid": span[_TID], "ts": span[_SIM0] * 1e6,
                "dur": (span[_SIM1] - span[_SIM0]) * 1e6,
                "args": {"host_self_us": round(span[_SELF] * 1e6, 3),
                         "id": span[_ID], "parent": span[_PARENT]}})
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms",
                       "otherData": {"time_axis": "simulated",
                                     "dropped_spans": self.dropped_spans}},
                      handle)

    def top_functions(self, count: int = 40) -> List[dict]:
        ranked = sorted(self.fns.values(), key=lambda f: -f.self_s)
        return [{"layer": f.layer, "name": f.name, "calls": f.calls,
                 "self_host_s": f.self_s}
                for f in ranked[:count] if f.calls]


def _import_all() -> None:
    """Import every ``repro`` module up front, so no module can copy a
    wrapper into its namespace by importing while the tracer is on."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name not in ("repro.__main__",):
            importlib.import_module(info.name)


def leftover_wrappers() -> List[str]:
    """Names of benchmark wrappers still reachable from ``repro``: module
    globals, class dicts, and NIC ``Resource`` instance patches are the
    places a tracer writes, and all must be clean after uninstall."""
    found: List[str] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value) and value.__module__ == mod_name:
                for cattr, raw in vars(value).items():
                    inner = getattr(raw, "__func__", raw)
                    if hasattr(inner, MARK):
                        found.append(f"{mod_name}.{value.__name__}.{cattr}")
    return found
