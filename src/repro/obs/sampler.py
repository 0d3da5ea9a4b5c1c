"""Cycle-domain time-series sampling.

The paper's dynamics — the BackOff spin storm hitting the LLC, the
callback directory filling during a race, cores going quiescent while
parked — are invisible in end-of-run aggregates. The
:class:`TimeSeriesSampler` snapshots any subset of
:class:`~repro.sim.stats.Stats` counters plus live gauges every N cycles
into columnar series, using daemon engine events so the sampled run stays
bit-identical to an unsampled one.

Columns are cumulative counters as sampled; :meth:`deltas` converts one
to a per-window rate series (e.g. LLC accesses per 100 cycles — the spin
storm, directly).
"""

from __future__ import annotations

import json
from typing import IO, Callable, Dict, List, Optional, Sequence

from repro.obs.bus import ProbeBus
from repro.sim.stats import Stats, int_field_names

#: Counters sampled when no explicit subset is given: the ones the
#: paper's figures move cycle by cycle.
DEFAULT_COUNTERS = (
    "llc_accesses", "llc_sync_accesses", "llc_spin_probes", "messages",
    "flit_hops", "invalidations_sent", "cb_installs", "cb_evictions",
    "cb_wakeups", "cb_blocked_reads", "cb_parked_cycles", "spin_iterations",
    "backoff_cycles",
)


class TimeSeriesSampler:
    """Periodic snapshots of counters and gauges into columnar series."""

    def __init__(self, stats: Stats, every: int,
                 counters: Optional[Sequence[str]] = None,
                 gauges: Optional[Dict[str, Callable[[], float]]] = None
                 ) -> None:
        if every <= 0:
            raise ValueError(f"sampling cadence must be positive: {every}")
        if counters is None:
            counters = DEFAULT_COUNTERS
        elif counters == "all":
            counters = int_field_names()
        unknown = set(counters) - set(int_field_names())
        if unknown:
            raise ValueError(f"unknown Stats counters: {sorted(unknown)}")
        self.stats = stats
        self.every = every
        self.counter_names = tuple(counters)
        self.gauges: Dict[str, Callable[[], float]] = dict(gauges or {})
        self.columns: Dict[str, List[float]] = {"cycle": []}
        for name in self.counter_names:
            self.columns[name] = []
        for name in self.gauges:
            self.columns[name] = []

    def install(self, bus: ProbeBus) -> None:
        """Start the cycle-window tick on the bus's engine."""
        bus.every(self.every, self.sample)

    # ------------------------------------------------------------ sampling

    def sample(self, cycle: int) -> None:
        """Take one snapshot now (normally called by the bus tick)."""
        self.columns["cycle"].append(cycle)
        stats = self.stats
        for name in self.counter_names:
            self.columns[name].append(getattr(stats, name))
        for name, fn in self.gauges.items():
            self.columns[name].append(fn())

    # ------------------------------------------------------------- access

    @property
    def rows(self) -> int:
        return len(self.columns["cycle"])

    def series(self, name: str) -> List[float]:
        return self.columns[name]

    def deltas(self, name: str) -> List[float]:
        """Per-window increments of a cumulative column (a rate series)."""
        values = self.columns[name]
        return [b - a for a, b in zip([0] + values[:-1], values)]

    # -------------------------------------------------------------- export

    def as_dict(self) -> Dict[str, List[float]]:
        return dict(self.columns)

    def to_json(self, stream: IO[str]) -> None:
        json.dump({"every": self.every, "columns": self.columns}, stream)

    def to_csv(self, stream: IO[str]) -> None:
        names = ["cycle"] + [n for n in self.columns if n != "cycle"]
        stream.write(",".join(names) + "\n")
        for row in range(self.rows):
            stream.write(",".join(str(self.columns[n][row])
                                  for n in names) + "\n")
