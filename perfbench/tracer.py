"""Layer attribution measured from outside the program.

A :class:`Tracer` replaces public entry points of each layer with timing
wrappers at class level (and restores them on :meth:`Tracer.uninstall`).
Every wrapper pushes a span on a per-thread stack, so a layer's *self*
time is its span's duration minus the time its child spans cover. The
engine's step hook (``Engine.profile_hook``) opens one span per event,
attributed to the package that defined the event's callback, so protocol
handlers scheduled as engine events are charged to their protocol and
not to the engine loop.

Spans are aggregated in memory (per thread, merged on read); nothing is
written while a traced run is in progress. Wrapper overhead between a
child's two clock reads lands in the parent's self time, so layers
reached through many tiny calls (``Mesh.hops``, cache lookups) inflate
their callers slightly; ``trace.overhead_ratio`` reports the total cost.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, most specific first. Thread bodies (workloads
#: and sync primitives) run inside ``Core._resume`` and count as core.
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.stats", "stats"),
    ("repro.sim", "engine"),
    ("repro.core", "core"),
    ("repro.workloads", "core"),
    ("repro.sync", "core"),
    ("repro.protocols.mesi", "protocols.mesi"),
    ("repro.protocols.vips", "protocols.vips"),
    ("repro.protocols.callback", "protocols.callback"),
    ("repro.protocols.table", "protocols.table"),
    ("repro.protocols", "protocols.base"),
    ("repro.mem", "mem.cache"),
    ("repro.noc", "noc"),
)

#: Every layer the simulator wrappers and step hook can charge.
SIM_LAYERS = ("engine", "core", "protocols.base", "protocols.mesi",
              "protocols.vips", "protocols.callback", "protocols.table",
              "mem.cache", "noc", "stats", "other")


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module is not None and (module == prefix
                                   or module.startswith(prefix + ".")):
            return layer
    return "other"


def _function_of(callback: Any) -> Any:
    """The plain function behind a bound method or functools.partial."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
        elif hasattr(callback, "__func__"):
            callback = callback.__func__
        else:
            return callback


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "samples")

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)


class Tracer:
    """Span-stack tracer over class-level wrappers.

    ``threaded=False`` keeps one state for the whole process (the
    single-threaded simulator); ``threaded=True`` keeps one per thread
    (the in-process service, whose HTTP handlers run concurrently).
    """

    def __init__(self, threaded: bool = False) -> None:
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[type, str, Any]] = []
        self._layer_cache: Dict[Any, str] = {}
        if threaded:
            local = threading.local()

            def state() -> _ThreadState:
                st = getattr(local, "st", None)
                if st is None:
                    st = local.st = _ThreadState()
                    with self._lock:
                        self._states.append(st)
                return st
        else:
            only = _ThreadState()
            self._states.append(only)

            def state() -> _ThreadState:
                return only
        self._state = state

    # ---------------------------------------------------------- patching

    def wrap(self, owner: type, attr: str, layer: str,
             counter: Optional[str] = None,
             layer_of: Optional[Callable[[tuple], str]] = None,
             before: Optional[Callable[[_ThreadState, tuple], None]] = None,
             sample: Optional[Callable[[tuple], Optional[str]]] = None,
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``layer_of(args)`` picks the layer per call instead of ``layer``;
        ``before(state, args)`` records extra counts; ``sample(args)``
        names a list that receives the call's inclusive duration.
        """
        original = owner.__dict__[attr]
        perf = time.perf_counter
        get_state = self._state

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = get_state()
            if counter is not None:
                st.calls[counter] += 1
            if before is not None:
                before(st, args)
            stack = st.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                name = layer if layer_of is None else layer_of(args)
                st.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
                if sample is not None:
                    key = sample(args)
                    if key is not None:
                        st.samples[key].append(dt)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_of_callable(self, fn: Any) -> str:
        func = _function_of(fn)
        key = getattr(func, "__code__", func)
        layer = self._layer_cache.get(key)
        if layer is None:
            layer = layer_of_module(getattr(func, "__module__", None))
            self._layer_cache[key] = layer
        return layer

    # -------------------------------------------------------- simulator

    def install_sim(self) -> None:
        """Wrap the simulator layers (single-threaded use only)."""
        from repro.core.core import Core
        from repro.mem.cache import SetAssociativeCache
        from repro.noc.mesh import Mesh
        from repro.noc.network import Network
        from repro.protocols.base import CoherenceProtocol
        from repro.protocols.callback.directory import CallbackDirectory
        from repro.protocols.table import TransitionTable
        from repro.sim.engine import Engine
        from repro.sim.stats import Stats

        self.wrap(Engine, "run", "engine")
        self.wrap(Engine, "schedule", "engine", "engine.schedule_calls")
        self.wrap(Engine, "schedule_at", "engine", "engine.schedule_calls")
        # Core has no public per-op entry point: _resume is the
        # trampoline every resumption of a thread body goes through.
        self.wrap(Core, "_resume", "core", "core.resume_calls")

        handler_layers: Dict[Tuple[type, type], str] = {}

        def issue_layer(args: tuple) -> str:
            proto, op = args[0], args[2]
            key = (type(proto), type(op))
            layer = handler_layers.get(key)
            if layer is None:
                handler = proto._handlers.get(type(op))
                layer = (self.layer_of_callable(handler)
                         if handler is not None else "protocols.base")
                handler_layers[key] = layer
            return layer

        self.wrap(CoherenceProtocol, "issue", "protocols.base",
                  "protocols.issue_calls", layer_of=issue_layer)
        self.wrap(TransitionTable, "step", "protocols.table",
                  "protocols.table.step_calls")
        for name, member in list(vars(CallbackDirectory).items()):
            if (inspect.isfunction(member) and not name.startswith("_")
                    and name != "ckpt_state"):
                self.wrap(CallbackDirectory, name, "protocols.callback")

        def count_scanned(st: _ThreadState, args: tuple) -> None:
            st.calls["mem.cache.fence_lines_scanned"] += len(args[0])

        self.wrap(SetAssociativeCache, "lookup", "mem.cache")
        self.wrap(SetAssociativeCache, "insert", "mem.cache")
        self.wrap(SetAssociativeCache, "evict_matching", "mem.cache",
                  before=count_scanned)
        self.wrap(Network, "send", "noc", "noc.send_calls")
        self.wrap(Mesh, "hops", "noc", "noc.mesh_hops_calls")
        self.wrap(Stats, "record_message", "stats",
                  "stats.record_message_calls")

    def step_hook(self) -> Callable[[Callable[[], None]], None]:
        """An ``Engine.profile_hook``: one span per event, charged to the
        layer whose package defined the callback."""
        perf = time.perf_counter
        st = self._state()
        layer_of = self.layer_of_callable
        stack, self_s, calls = st.stack, st.self_s, st.calls

        def hook(callback: Callable[[], None]) -> None:
            calls["engine.events"] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                callback()
            finally:
                dt = perf() - t0
                child = stack.pop()
                self_s[layer_of(callback)] += dt - child
                if stack:
                    stack[-1] += dt

        return hook

    # ----------------------------------------------------- service plane

    def install_host(self) -> None:
        """Wrap the service-plane layers that run in this process."""
        from repro.orchestrate.cache import ResultCache
        from repro.serve.client import ServeClient
        from repro.serve.journal import Journal
        from repro.serve.queue import JobQueue

        for op in ("submit", "lease", "commit"):
            self.wrap(JobQueue, op, f"serve.queue.{op}",
                      f"serve.queue.{op}_calls")
        self.wrap(Journal, "append_many", "serve.journal.append",
                  "serve.journal.append_calls")
        self.wrap(ResultCache, "get", "orchestrate.cache.get")
        self.wrap(ResultCache, "put", "orchestrate.cache.put")

        def client_kind(args: tuple) -> Optional[str]:
            method, path = args[1], args[2]
            if method == "POST" and path == "/v1/jobs":
                return "client.submit"
            if method == "GET" and path.startswith("/v1/submissions/"):
                return "client.poll"
            return None

        self.wrap(ServeClient, "request", "serve.client",
                  sample=client_kind)

    # ------------------------------------------------------------ report

    def totals(self) -> Tuple[Dict[str, float], Counter,
                              Dict[str, List[float]]]:
        """(self seconds by layer, call counts, duration samples), merged
        over every thread that recorded anything."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        samples: Dict[str, List[float]] = defaultdict(list)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, value in list(st.self_s.items()):
                self_s[name] += value
            calls.update(dict(st.calls))
            for name, values in list(st.samples.items()):
                samples[name].extend(values)
        return self_s, calls, samples
