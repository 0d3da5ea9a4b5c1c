"""The simulator workloads: Fig-21 applications and the Fig-20 sync grid.

Each workload is a fixed list of points (one configuration x one
workload on one freshly built :class:`~repro.core.machine.Machine`),
driven through ``config_for`` + ``Machine`` directly. The figure helpers
in :mod:`repro.harness.experiments` memoise runs in a module-level dict,
so a second pass through them would time dictionary lookups.

A point's result is fingerprinted as ``cycles`` plus the full
``Stats.ckpt_state()``. At the default seed every point must match the
committed reference; at any seed every repeat of a point must match its
first run. Engine event counts are reported per layer and are not part
of the fingerprint, so an exact shortcut may lower them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.config import PAPER_CONFIGS, config_for
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.sim.stats import Stats
from repro.workloads.base import Workload
from repro.workloads.microbench import (BarrierMicrobench, LockMicrobench,
                                        SignalWaitMicrobench)
from repro.workloads.suite import get_workload

import calib
from tracer import SIM_LAYERS, Tracer

#: The seed the committed reference fingerprints were recorded at.
DEFAULT_SEED = 1
#: Set-up repetitions per run (fresh-interpreter imports, and builds of
#: every point or service starts); setup_s sums the two medians.
SETUP_TRIALS = 5

FIG21_APPS = ("barnes", "raytrace", "streamcluster", "swaptions")
FIG21_CONFIGS = ("Invalidation", "BackOff-10", "CB-One")
FIG20_ITERATIONS = 2
#: Fig-20 points left out because they deadlock (a lost wakeup; the run
#: raises DeadlockError) at some seeds: signal-wait under CB-One at ~23%
#: of seeds 1-149 (e.g. 2, 4, 5, 12), under CB-All at seeds 49, 69, 135.
FIG20_EXCLUDED = {("signal-wait", "CB-One"), ("signal-wait", "CB-All")}

#: Fig-20 constructs: name -> factory(iterations) -> Workload.
_CONSTRUCTS: Dict[str, Callable[[int], Workload]] = {
    "ttas": lambda it: LockMicrobench("ttas", iterations=it),
    "clh": lambda it: LockMicrobench("clh", iterations=it),
    "sr": lambda it: BarrierMicrobench("sr", episodes=it),
    "treesr": lambda it: BarrierMicrobench("treesr", episodes=it),
    "signal-wait": lambda it: SignalWaitMicrobench(rounds=it),
}


@dataclass(frozen=True)
class Point:
    """One simulation of a workload: a name, a configuration label, a
    core count, and a factory for a fresh workload object."""

    name: str
    label: str
    cores: int
    make: Callable[[], Workload]


def _app_point(app: str, label: str, cores: int, scale: float) -> Point:
    return Point(f"{app}/{label}/c{cores}/s{scale:g}", label, cores,
                 lambda: get_workload(app, "clh", "treesr", scale))


def _sync_point(construct: str, label: str, cores: int,
                iterations: int) -> Point:
    factory = _CONSTRUCTS[construct]
    return Point(f"{construct}/{label}/c{cores}/i{iterations}", label, cores,
                 lambda: factory(iterations))


def points_for(workload: str, smoke: bool = False) -> List[Point]:
    """The points of ``fig21_apps`` or ``fig20_sync``; ``smoke`` gives a
    16-core subset that finishes in well under a second."""
    if workload == "fig21_apps":
        if smoke:
            return [_app_point("barnes", label, 16, 0.05)
                    for label in ("Invalidation", "CB-One")]
        return [_app_point(app, label, 64, 1.0)
                for app in FIG21_APPS for label in FIG21_CONFIGS]
    if workload == "fig20_sync":
        if smoke:
            return [_sync_point(construct, label, 16, 1)
                    for construct in ("ttas", "sr")
                    for label in ("BackOff-0", "CB-All")]
        return [_sync_point(construct, label, 64, FIG20_ITERATIONS)
                for construct in _CONSTRUCTS for label in PAPER_CONFIGS
                if (construct, label) not in FIG20_EXCLUDED]
    raise ValueError(f"not a simulator workload: {workload!r}")


def build(point: Point, seed: int) -> Machine:
    """A machine for ``point`` with its threads installed, not yet run."""
    machine = Machine(config_for(point.label, num_cores=point.cores,
                                 seed=seed))
    point.make().install(machine)
    return machine


def fingerprint(stats: Stats) -> str:
    return sha256_of({"cycles": stats.cycles, "stats": stats.ckpt_state()})


class _Checker:
    """Per-point correctness: reference digests at the default seed,
    agreement across repeats at every seed. One failed point is one
    failed operation, however many of its runs disagreed."""

    def __init__(self, reference: Optional[Dict[str, str]],
                 seed: int) -> None:
        self.reference = reference if seed == DEFAULT_SEED else None
        self.first: Dict[str, str] = {}
        self.failures: Dict[str, str] = {}

    def check(self, point: Point, digest: str, what: str = "repeat") -> None:
        if point.name in self.failures:
            return
        if self.reference is not None:
            expected = self.reference.get(point.name)
            if expected is None:
                self.failures[point.name] = "no reference fingerprint"
            elif digest != expected:
                self.failures[point.name] = (
                    f"fingerprint {digest[:12]} != reference "
                    f"{expected[:12]}")
            return
        first = self.first.setdefault(point.name, digest)
        if digest != first:
            self.failures[point.name] = (
                f"{what} fingerprint {digest[:12]} != first run "
                f"{first[:12]}")

    def fail(self, point: Point, exc: BaseException) -> None:
        self.failures.setdefault(point.name,
                                 f"raised {type(exc).__name__}: {exc}")


def _timed_run(point: Point, seed: int, checker: _Checker,
               hook: Optional[Callable] = None, what: str = "repeat"):
    """Build, run and check one point. Returns (run seconds, machine) or
    None when the point raised."""
    try:
        machine = build(point, seed)
        if hook is not None:
            machine.engine.profile_hook = hook
        t0 = time.perf_counter()
        stats = machine.run()
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed point is reported
        checker.fail(point, exc)
        return None
    checker.check(point, fingerprint(stats), what)
    return elapsed, machine


def _calibrated_run(point: Point, seed: int, checker: _Checker,
                    kernel: calib.Kernel):
    """Build, run (sliced, see :mod:`calib`) and check one point.
    Returns (run seconds, the same at the reference host speed, cycles)
    or None when the point raised."""
    try:
        stats, elapsed, scaled = calib.calibrated_run(build(point, seed),
                                                      kernel)
    except Exception as exc:  # noqa: BLE001 - a failed point is reported
        checker.fail(point, exc)
        return None
    checker.check(point, fingerprint(stats))
    return elapsed, scaled, stats.cycles


def _setup_seconds(points: List[Point], seed: int,
                   kernel: calib.Kernel) -> float:
    """Median over SETUP_TRIALS of building and installing every point,
    at the reference host speed."""
    times = []
    for _ in range(SETUP_TRIALS):
        before = kernel.seconds()
        t0 = time.perf_counter()
        for point in points:
            build(point, seed)
        elapsed = time.perf_counter() - t0
        times.append(calib.to_reference(elapsed, before, kernel.seconds()))
    return statistics.median(times)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values: List[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def measure(points: List[Point], seed: int, seconds: float,
            reference: Optional[Dict[str, str]]) -> dict:
    """Untraced run: cycle through the points until ``seconds`` have
    passed and every point has run at least twice. ``wall_s`` is the sum
    of per-point medians of run seconds at the reference host speed
    (:mod:`calib`); ``raw_wall_s``, printed beside it, the same of
    unscaled seconds."""
    checker = _Checker(reference, seed)
    kernel = calib.Kernel()
    setup_s = _setup_seconds(points, seed, kernel)
    raw: Dict[str, List[float]] = {p.name: [] for p in points}
    scaled: Dict[str, List[float]] = {p.name: [] for p in points}
    cycles: Dict[str, int] = {}
    start = time.perf_counter()
    runs = 0
    while True:
        point = points[runs % len(points)]
        runs += 1
        if point.name not in checker.failures:
            done = _calibrated_run(point, seed, checker, kernel)
            if done is not None:
                raw[point.name].append(done[0])
                scaled[point.name].append(done[1])
                cycles[point.name] = done[2]
        if runs >= 2 * len(points) and \
                time.perf_counter() - start >= seconds:
            break
    wall_s = _sum_of_medians(scaled)
    return {
        "failures": checker.failures,
        "attempted": len(points),
        "metrics": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "sim_cycles_per_s": ratio(sum(cycles.values()), wall_s),
            "jobs_per_s": ratio(len(cycles), wall_s),
        },
        "info": {
            "raw_wall_s": _sum_of_medians(raw),
            "kernel_s": statistics.median(kernel.samples),
        },
    }


def _sum_of_medians(samples: Dict[str, List[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values() if v)


def measure_traced(points: List[Point], seed: int,
                   reference: Optional[Dict[str, str]]) -> dict:
    """One untraced pass, then one traced pass over the same points.
    Every traced fingerprint must equal its untraced one."""
    checker = _Checker(reference, seed)
    untraced = 0.0
    for point in points:
        done = _timed_run(point, seed, checker)
        if done is not None:
            untraced += done[0]
    tracer = Tracer()
    tracer.install_sim()
    traced = 0.0
    total = Stats()
    events = 0
    try:
        hook = tracer.step_hook()
        for point in points:
            done = _timed_run(point, seed, checker, hook=hook, what="traced")
            if done is not None:
                traced += done[0]
                total.merge(done[1].stats)
                events += done[1].events_executed
    finally:
        tracer.uninstall()
    self_s, calls, _ = tracer.totals()
    scanned = calls["mem.cache.fence_lines_scanned"]
    episodes = sum(len(v) for v in total.episode_latencies.values())
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in SIM_LAYERS}
    metrics.update({
        "engine.events": events,
        "mem.cache.fence_lines_scanned": scanned,
        "mem.cache.fence_useful_ratio":
            ratio(total.lines_self_invalidated, scanned),
        "l1_accesses": total.l1_accesses,
        "l1_hit_ratio": ratio(total.l1_hits, total.l1_accesses),
        "noc.flit_hops": total.flit_hops,
        "llc_accesses": total.llc_accesses,
        "llc_spin_probes": total.llc_spin_probes,
        "llc.spin_probes_per_episode":
            ratio(total.llc_spin_probes, episodes),
        "cb.installs": total.cb_installs,
        "cb.wakeups": total.cb_wakeups,
        "cb.blocked_reads": total.cb_blocked_reads,
        "cb.immediate_ratio": ratio(
            total.cb_immediate_reads,
            total.cb_immediate_reads + total.cb_blocked_reads),
        "trace.wall_s": traced,
        "trace.overhead_ratio": ratio(traced, untraced),
    })
    for name in ("engine.schedule_calls", "core.resume_calls",
                 "protocols.issue_calls", "protocols.table.step_calls",
                 "noc.send_calls", "noc.mesh_hops_calls",
                 "stats.record_message_calls"):
        metrics[name] = calls[name]
    return {"failures": checker.failures, "attempted": len(points),
            "metrics": metrics}


def reference_digests(points: List[Point], seed: int = DEFAULT_SEED
                      ) -> Dict[str, str]:
    """One run of every point: ``{point name: fingerprint}``."""
    out = {}
    for point in points:
        machine = build(point, seed)
        out[point.name] = fingerprint(machine.run())
    return out
