"""The telemetry facade: one object that lights up the whole stack.

:class:`TelemetryConfig` says *what* to collect; :class:`Telemetry` owns
the collectors (probe bus, metrics registry, time-series sampler, span
recorder, host profiler) and knows how to wire them into a
:class:`~repro.core.machine.Machine`::

    telemetry = Telemetry(TelemetryConfig(sample_every=200, spans=True))
    machine = Machine(config, telemetry=telemetry)
    workload.install(machine)
    stats = machine.run()
    telemetry.write_perfetto("trace.json")

Attaching sets the ``obs`` handle on every instrumented component (cores,
network, protocol, callback-directory banks, thread contexts), registers
the live gauges the paper's dynamics call for — callback-directory active
entries per bank, cores parked, flits in flight — and starts the
cycle-window sampler on daemon engine events. Detached (the default
``telemetry=None``), every probe site stays a single ``is None`` check
and results are bit-identical to an uninstrumented build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.obs.bus import ProbeBus
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import HostProfiler
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine

#: Per-bank gauge columns are emitted only up to this many banks (beyond
#: it the aggregate column still tells the occupancy story).
MAX_PER_BANK_GAUGES = 16


@dataclass
class TelemetryConfig:
    """What to collect. Everything defaults to off."""

    #: Sampling cadence in cycles; 0 disables the time-series sampler.
    sample_every: int = 0
    #: Stats counters to sample: None = the curated default set,
    #: "all" = every int counter, or an explicit sequence of names.
    counters: Optional[Union[str, Sequence[str]]] = None
    #: Record sync-episode / callback-lifetime spans.
    spans: bool = False
    #: Attribute host wall-clock to engine callbacks by component.
    profile: bool = False

    @property
    def enabled(self) -> bool:
        return bool(self.sample_every or self.spans or self.profile)

    def to_dict(self) -> Dict[str, Any]:
        counters = self.counters
        if counters is not None and not isinstance(counters, str):
            counters = list(counters)
        return {"sample_every": self.sample_every, "counters": counters,
                "spans": self.spans, "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        return cls(**data)


class Telemetry:
    """All collectors for one machine run, wired by :meth:`attach`."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig(sample_every=200, spans=True)
        self.bus = ProbeBus()
        self.registry = MetricsRegistry()
        self.sampler: Optional[TimeSeriesSampler] = None
        self.spans: Optional[SpanRecorder] = None
        self.profiler: Optional[HostProfiler] = None

    # ------------------------------------------------------------- attach

    def attach(self, machine: "Machine") -> None:
        """Wire every collector into ``machine`` (once, before spawn).

        Nothing here keeps a reference back to ``machine`` itself: the
        machine owns its telemetry, so one would be a reference cycle."""
        if self.bus.engine is not None:
            raise RuntimeError("telemetry already attached to a machine")
        self.bus.engine = machine.engine
        cfg = self.config

        # Hand the bus to every instrumented component.
        machine.obs = self.bus
        machine.protocol.obs = self.bus
        machine.network.obs = self.bus
        machine.network.track_inflight = True
        for core in machine._cores:
            core.obs = self.bus
        for directory in getattr(machine.protocol, "cb_dirs", ()):
            directory.obs = self.bus

        self._register_gauges(machine)

        if cfg.spans:
            self.spans = SpanRecorder()
            self.spans.install(self.bus)
            self.bus.subscribe("sync.episode", self._episode_histogram)

        if cfg.sample_every:
            gauges = {g.name if not g.labels else
                      f"{g.name}[{','.join(v for _, v in g.labels)}]":
                      (lambda g=g: g.value)
                      for g in self.registry.gauges()}
            self.sampler = TimeSeriesSampler(
                machine.stats, cfg.sample_every,
                counters=cfg.counters, gauges=gauges)
            self.sampler.install(self.bus)

        if cfg.profile:
            self.profiler = HostProfiler()
            self.profiler.attach(machine.engine)

    def _register_gauges(self, machine: "Machine") -> None:
        registry = self.registry
        engine = machine.engine
        network = machine.network
        protocol = machine.protocol
        registry.gauge("events_pending", fn=lambda: engine.live_pending)
        registry.gauge("flits_in_flight",
                       fn=lambda: network.inflight_flits)
        registry.gauge("cores_parked", fn=protocol.parked_cores)
        cb_dirs = getattr(protocol, "cb_dirs", None)
        if cb_dirs:
            registry.gauge("cb_active_entries",
                           fn=lambda: sum(d.active_entries()
                                          for d in cb_dirs))
            if len(cb_dirs) <= MAX_PER_BANK_GAUGES:
                for directory in cb_dirs:
                    registry.gauge("cb_active", fn=directory.active_entries,
                                   bank=f"bank{directory.bank}")

    def _episode_histogram(self, topic: str, cycle: int,
                           fields: Dict[str, Any]) -> None:
        self.registry.histogram(
            "episode_cycles", category=fields["category"]
        ).observe(fields["end"] - fields["start"])

    # ------------------------------------------------------------- finish

    def finish(self) -> None:
        """End-of-run bookkeeping (called by :meth:`Machine.run`): close
        still-open spans, stop the profiler, and stop feeding the
        episode histogram (its registry holds the gauges, which hold the
        protocol, which holds the bus: a cycle while subscribed)."""
        if self.spans is not None:
            self.spans.close_open(self.bus.engine.now)
            self.bus.unsubscribe("sync.episode", self._episode_histogram)
        if self.profiler is not None:
            self.profiler.detach()

    # ------------------------------------------------------------- export

    def series(self) -> Dict[str, List[float]]:
        return self.sampler.as_dict() if self.sampler is not None else {}

    def perfetto(self, label: str = "repro") -> Dict[str, Any]:
        """The run as a Perfetto-loadable trace-event document."""
        spans = self.spans.spans if self.spans is not None else ()
        instants = self.spans.instants if self.spans is not None else ()
        return chrome_trace(spans=spans, instants=instants,
                            series=self.series() or None, label=label)

    def write_perfetto(self, path: str, label: str = "repro",
                       validate: bool = True) -> Dict[str, Any]:
        doc = self.perfetto(label)
        if validate:
            problems = validate_chrome_trace(doc)
            if problems:
                raise ValueError(
                    f"invalid trace ({len(problems)} problem(s)): "
                    + "; ".join(problems[:5]))
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return doc

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest: sampler shape, span counts, metrics, profile."""
        out: Dict[str, Any] = {"config": self.config.to_dict(),
                               "probes_emitted": self.bus.emitted}
        if self.sampler is not None:
            out["samples"] = self.sampler.rows
            out["columns"] = sorted(self.sampler.columns)
        if self.spans is not None:
            out["spans"] = len(self.spans.spans)
            out["instants"] = len(self.spans.instants)
            out["span_categories"] = self.spans.by_category()
        if self.registry is not None and len(self.registry):
            out["metrics"] = self.registry.snapshot()
        if self.profiler is not None:
            out["profile"] = self.profiler.as_dict()
        return out
