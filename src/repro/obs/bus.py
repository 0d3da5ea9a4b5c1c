"""The probe bus: cycle-stamped pub/sub telemetry inside one simulation.

Components publish *probes* — tiny structured facts like "core 3 parked a
callback on word 0x40" — onto a :class:`ProbeBus`; collectors (the span
recorder, the metrics registry, ad-hoc test subscribers) subscribe by
topic. Two properties keep this near-free:

* **No collector, no cost.** Instrumented components hold ``obs = None``
  until a :class:`~repro.obs.telemetry.Telemetry` is attached, so every
  probe site is a single ``is None`` branch on the simulation's hot path.
  Even with a bus attached, an emission to a topic nobody subscribed to
  is one dict lookup.
* **No scheduling.** ``emit`` never touches the event heap — subscribers
  run synchronously inside the publishing event — so attaching collectors
  cannot perturb simulated time. The only thing that ever enters the heap
  is the cycle-window tick of :meth:`every`, and that uses *daemon*
  events, which the engine excludes from liveness and final time (see
  :mod:`repro.sim.engine`).

Topics are plain dotted strings (``"cb.park"``, ``"sync.episode"``,
``"orchestrate.finished"``). Subscribing to ``"*"`` receives everything.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import Engine

#: A subscriber: ``fn(topic, cycle, fields)``.
Subscriber = Callable[[str, int, Dict[str, Any]], None]


class ProbeBus:
    """Topic-keyed synchronous pub/sub with engine cycle stamping.

    ``engine`` is optional so producers outside a simulation (e.g. the
    orchestrator's event log) can share the same bus; their emissions are
    stamped with cycle 0 unless they pass an explicit ``_cycle``.
    """

    def __init__(self, engine: Optional[Engine] = None) -> None:
        self.engine = engine
        self._subs: Dict[str, List[Subscriber]] = {}
        self._emitted = 0

    # ----------------------------------------------------------- subscribe

    def subscribe(self, topic: str, fn: Subscriber) -> None:
        """Deliver every emission on ``topic`` (or all, for ``"*"``) to
        ``fn(topic, cycle, fields)``."""
        self._subs.setdefault(topic, []).append(fn)

    def unsubscribe(self, topic: str, fn: Subscriber) -> None:
        subs = self._subs.get(topic)
        if subs and fn in subs:
            subs.remove(fn)
            if not subs:
                del self._subs[topic]

    def active(self, topic: str) -> bool:
        """True if anyone listens to ``topic`` (directly or via ``"*"``)."""
        return topic in self._subs or "*" in self._subs

    @property
    def emitted(self) -> int:
        """Total emissions that reached at least one subscriber."""
        return self._emitted

    # --------------------------------------------------------------- emit

    def emit(self, topic: str, _cycle: Optional[int] = None,
             **fields: Any) -> None:
        """Publish one probe; a no-op unless someone subscribed."""
        subs = self._subs.get(topic)
        stars = self._subs.get("*")
        if not subs and not stars:
            return
        if _cycle is None:
            _cycle = self.engine.now if self.engine is not None else 0
        self._emitted += 1
        if subs:
            for fn in tuple(subs):
                fn(topic, _cycle, fields)
        if stars:
            for fn in tuple(stars):
                fn(topic, _cycle, fields)

    # ------------------------------------------------------- cycle windows

    def every(self, cycles: int, fn: Callable[[int], None],
              phase: int = 0) -> None:
        """Call ``fn(cycle)`` every ``cycles`` simulated cycles.

        The tick is a *daemon* event: it observes the run without keeping
        it alive or moving the final clock, so enabling it leaves the
        simulation's results bit-identical. The first tick fires at cycle
        ``phase``.
        """
        if self.engine is None:
            raise RuntimeError("cycle windows need a bus bound to an engine")
        if cycles <= 0:
            raise ValueError(f"cycle window must be positive: {cycles}")
        window = _Window(self.engine, cycles, fn)
        self.engine.schedule_at(max(self.engine.now, phase), window.tick,
                                "obs.window", daemon=True)


class _Window:
    """One :meth:`ProbeBus.every` cycle window. Its tick is a bound
    method, not a closure naming itself, so it forms no reference cycle
    once the engine lets go of it."""

    __slots__ = ("engine", "cycles", "fn")

    def __init__(self, engine: Engine, cycles: int,
                 fn: Callable[[int], None]) -> None:
        self.engine = engine
        self.cycles = cycles
        self.fn = fn

    def tick(self) -> None:
        self.fn(self.engine.now)
        self.engine.schedule(self.cycles, self.tick, "obs.window",
                             daemon=True)
