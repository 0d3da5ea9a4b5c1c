"""``SpinThrough`` is exact: the spin runner equals the thread-side loop.

Every point runs twice: as shipped, where each yielded ``SpinThrough``
runs as a spin record in the engine's spin heap, and with every thread
wrapped in :func:`tests.spin_loop.expand_spins`, which yields the
historical ``LoadThrough`` / ``BackoffWait(attempt)`` loop instead. The
two runs must agree on the full ``Stats`` digest and cycle count,
per-core retired and useful ops, and on whatever an attached observer
saw: the recorded trace, every ``spin.backoff`` and ``noc.send`` probe,
a host profile's event count, checkpoint captures of a sliced run, and
where a watchdog budget or the liveness watchdog stopped the run. Hooks
that perturb a run (NoC and back-off fault hooks, link contention) must
perturb both alike.
"""

from dataclasses import asdict

import pytest

from repro.config import config_for
from repro.core.core import Core
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.noc.messages import MsgKind
from repro.noc.network import Network
from repro.obs.profiler import HostProfiler
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.protocols import ops
from repro.resilience.faults import Fault, FaultKind, FaultPlan
from repro.resilience.resilience import Resilience, ResilienceConfig
from repro.sim.engine import LivenessError, SimulationTimeout
from repro.trace.recorder import TraceRecorder
from repro.workloads.microbench import (BarrierMicrobench, LockMicrobench,
                                        SignalWaitMicrobench)
from tests.spin_loop import expand_spins

CONSTRUCTS = {
    "ttas": lambda: LockMicrobench("ttas", iterations=2),
    "clh": lambda: LockMicrobench("clh", iterations=2),
    "sr": lambda: BarrierMicrobench("sr", episodes=2),
    "treesr": lambda: BarrierMicrobench("treesr", episodes=2),
    "signal-wait": lambda: SignalWaitMicrobench(rounds=2),
}
LABELS = ("BackOff-0", "BackOff-10")
SEEDS = (1, 7)
#: Cycles between a bare sampler's looks at ``Stats``.
SAMPLE_EVERY = 13
#: The queued event a ``BackoffWait`` pause is in the thread-side loop;
#: the spin runner queues the same pause as its ``spin.pause`` phase.
LOOP_PAUSE = "core.resume"


def _perturb_plan(label, construct, seed):
    """Back-off jitter over the whole run, shortened in one window."""
    return FaultPlan(config_label=label, workload=construct, seed=seed,
                     faults=[
                         Fault(FaultKind.BACKOFF_PERTURB, cycle=0,
                               duration=10**9, magnitude=5),
                         Fault(FaultKind.BACKOFF_PERTURB, cycle=500,
                               duration=2_000, magnitude=-9),
                     ])


def _noc_hook(machine):
    """A NoC fault hook on the probe traffic: every third 64-cycle window
    delays ``ld_through`` requests and replies and duplicates requests.
    ``hook.calls`` counts the messages it was asked about."""
    engine = machine.engine

    def hook(src, dst, kind, latency):
        hook.calls += 1
        if (engine.now // 64) % 3:
            return 0, 0
        if kind is MsgKind.LOAD_THROUGH:
            return 2, 1
        if kind is MsgKind.DATA_WORD:
            return 5, 0
        return 0, 0

    hook.calls = 0
    return hook


def _idle_noc_hook(src, dst, kind, latency):
    return 0, 0


def _as_loop(capture, expand):
    """A ``Machine.ckpt_state()`` with the spin runner's pause phase named
    as the loop's ``BackoffWait`` event (the only label that differs)."""
    if not expand:
        queue = capture["engine"]["queue"]
        capture["engine"]["queue"] = [
            (time, LOOP_PAUSE if name == "spin.pause" else name)
            for time, name in queue]
    return capture


def _run(construct, label, seed, expand, monkeypatch, observe=False,
         plan=None, noc_hook=None, profile=False, checkpoint_every=0,
         sample=False, **overrides):
    resilience = (Resilience(ResilienceConfig(plan=plan))
                  if plan is not None else None)
    telemetry = Telemetry(TelemetryConfig()) if observe else None
    machine = Machine(config_for(label, num_cores=16, seed=seed,
                                 **overrides),
                      telemetry=telemetry, resilience=resilience)
    backoffs, sends = [], []
    recorder = profiler = None
    if observe:
        machine.obs.subscribe("spin.backoff", lambda _topic, cycle, fields:
                              backoffs.append((cycle, fields)))
        machine.obs.subscribe("noc.send", lambda _topic, cycle, fields:
                              sends.append((cycle, fields)))
        recorder = TraceRecorder(machine)
    hook = None
    if noc_hook is not None:
        hook = machine.network.fault_hook = noc_hook(machine)
    if profile:
        profiler = HostProfiler()
        profiler.attach(machine.engine)
    samples = []
    if sample:
        engine = machine.engine

        def tick():
            samples.append((engine.now, machine.stats.ckpt_state()))
            engine.schedule(SAMPLE_EVERY, tick, "tick", daemon=True)

        engine.schedule(SAMPLE_EVERY, tick, "tick", daemon=True)
    with monkeypatch.context() as patch:
        if expand:
            start = Core.start
            patch.setattr(Core, "start",
                          lambda core, gen: start(core, expand_spins(gen)))
        CONSTRUCTS[construct]().install(machine)
    captures = []
    timeout = None
    try:
        stats = machine.run(
            checkpoint_every=checkpoint_every,
            on_checkpoint=lambda boundary: captures.append(
                (boundary, _as_loop(machine.ckpt_state(), expand))))
    except SimulationTimeout as exc:
        timeout = (exc.reason, exc.cycle, exc.events, exc.progress,
                   machine.engine.pending, machine.engine.live_pending,
                   _as_loop(machine.ckpt_state(), expand))
        stats = machine.stats
    return {
        "digest": sha256_of({"cycles": stats.cycles,
                             "stats": stats.ckpt_state()}),
        "cycles": stats.cycles,
        "cores": [(core.ops_retired, core.useful_ops)
                  for core in machine._cores],
        "events": machine.events_executed,
        "trace": ([asdict(event) for event in recorder.detach()]
                  if recorder is not None else None),
        "backoffs": backoffs,
        "sends": sends,
        "perturbed": stats.backoff_perturbations,
        "duplicated": stats.msgs_duplicated,
        "messages": stats.messages,
        "hook_calls": getattr(hook, "calls", None),
        "inflight": machine.network.inflight_flits,
        "profiled": profiler.events if profiler is not None else None,
        "labels": ({name for name, _calls, _s in profiler.by_component()}
                   if profiler is not None else None),
        "captures": captures,
        "samples": samples,
        "timeout": timeout,
    }


def _same_results(shipped, looped):
    assert shipped["cycles"] == looped["cycles"]
    assert shipped["digest"] == looped["digest"]
    assert shipped["cores"] == looped["cores"]


POINTS = [(construct, label, seed) for construct in CONSTRUCTS
          for label in LABELS for seed in SEEDS]


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_results_match_the_thread_side_loop(construct, label, seed,
                                            monkeypatch):
    _same_results(_run(construct, label, seed, False, monkeypatch),
                  _run(construct, label, seed, True, monkeypatch))


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_trace_and_backoff_probes_match(construct, label, seed,
                                        monkeypatch):
    shipped = _run(construct, label, seed, False, monkeypatch, observe=True)
    looped = _run(construct, label, seed, True, monkeypatch, observe=True)
    assert shipped["backoffs"], "no back-off was booked"
    assert shipped["backoffs"] == looped["backoffs"]
    assert shipped["sends"] == looped["sends"]
    assert shipped["trace"] == looped["trace"]
    assert shipped["inflight"] == looped["inflight"] == 0
    kinds = {event["kind"] for event in shipped["trace"]}
    assert "ld_through" in kinds and "spin" not in kinds
    # Observers never change results.
    plain = _run(construct, label, seed, False, monkeypatch)
    assert shipped["digest"] == plain["digest"]


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_backoff_fault_plan_matches(construct, label, seed, monkeypatch):
    plan = _perturb_plan(label, construct, seed)
    shipped = _run(construct, label, seed, False, monkeypatch, plan=plan)
    looped = _run(construct, label, seed, True, monkeypatch, plan=plan)
    assert shipped["perturbed"] > 0
    _same_results(shipped, looped)
    assert shipped["digest"] != _run(construct, label, seed, False,
                                     monkeypatch)["digest"]


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_mid_run_stats_match(construct, label, seed, monkeypatch):
    """A bare daemon sampler leaves the runner on its fast path, where it
    tallies counters in locals; every 13 cycles ``Stats`` must read what
    the loop shows there."""
    shipped = _run(construct, label, seed, False, monkeypatch, sample=True)
    looped = _run(construct, label, seed, True, monkeypatch, sample=True)
    _same_results(shipped, looped)
    assert len(shipped["samples"]) > 10
    assert shipped["samples"] == looped["samples"]


def test_a_plain_run_never_books_through_the_network(monkeypatch):
    """With nothing attached, every message (probes and protocol sends
    alike) is booked inline; telemetry sends them through
    ``Network.book``."""
    booked = []
    book = Network.book

    def counting_book(network, *args, **kwargs):
        booked.append(args)
        return book(network, *args, **kwargs)

    monkeypatch.setattr(Network, "book", counting_book)
    plain = _run("ttas", "BackOff-0", 1, False, monkeypatch)
    assert plain["messages"] > 0 and booked == []
    observed = _run("ttas", "BackOff-0", 1, False, monkeypatch, observe=True)
    assert len(booked) == observed["messages"] == plain["messages"]


#: The rows below run a smaller grid: both back-off caps on one lock and
#: one barrier at one seed, plus signal/wait at BackOff-0.
ROWS = [("ttas", "BackOff-0", 1), ("treesr", "BackOff-10", 7),
        ("signal-wait", "BackOff-0", 1)]


@pytest.mark.parametrize("construct,label,seed", ROWS)
def test_noc_fault_hook_matches(construct, label, seed, monkeypatch):
    """Delayed and duplicated probe traffic, booked through the network."""
    shipped = _run(construct, label, seed, False, monkeypatch,
                   noc_hook=_noc_hook)
    looped = _run(construct, label, seed, True, monkeypatch,
                  noc_hook=_noc_hook)
    assert shipped["duplicated"] > 0
    # Every message, probes included, went through the hook once.
    assert shipped["messages"] == shipped["hook_calls"] + shipped["duplicated"]
    _same_results(shipped, looped)
    plain = _run(construct, label, seed, False, monkeypatch)
    assert shipped["digest"] != plain["digest"]
    # A hook that changes nothing books every message through the
    # network instead of the runner's inline tables: same results.
    idle = _run(construct, label, seed, False, monkeypatch,
                noc_hook=lambda _machine: _idle_noc_hook)
    assert idle["digest"] == plain["digest"]
    assert idle["cores"] == plain["cores"]


@pytest.mark.parametrize("construct,label,seed", ROWS)
def test_link_contention_matches(construct, label, seed, monkeypatch):
    shipped = _run(construct, label, seed, False, monkeypatch,
                   model_link_contention=True)
    looped = _run(construct, label, seed, True, monkeypatch,
                  model_link_contention=True)
    _same_results(shipped, looped)
    assert shipped["digest"] != _run(construct, label, seed, False,
                                     monkeypatch)["digest"]


@pytest.mark.parametrize("construct,label,seed", ROWS)
def test_profile_hook_sees_every_event(construct, label, seed,
                                       monkeypatch):
    shipped = _run(construct, label, seed, False, monkeypatch, profile=True)
    looped = _run(construct, label, seed, True, monkeypatch, profile=True)
    _same_results(shipped, looped)
    assert shipped["profiled"] == shipped["events"] == looped["profiled"]
    assert "protocols.vips.spin:SpinRunner.step_spin" in shipped["labels"]
    plain = _run(construct, label, seed, False, monkeypatch)
    assert shipped["digest"] == plain["digest"]
    assert shipped["events"] == plain["events"]


@pytest.mark.parametrize("construct,label,seed", ROWS)
def test_sliced_captures_match(construct, label, seed, monkeypatch):
    """Checkpoint boundaries every 37 cycles fall between the phases of
    probes; the machine capture at each one equals the loop's."""
    shipped = _run(construct, label, seed, False, monkeypatch,
                   checkpoint_every=37)
    looped = _run(construct, label, seed, True, monkeypatch,
                  checkpoint_every=37)
    _same_results(shipped, looped)
    assert shipped["captures"] == looped["captures"]
    mid_probe = [boundary for boundary, capture in shipped["captures"]
                 if any(name in ("spin.reply", "spin.deliver")
                        for _time, name in capture["engine"]["queue"])]
    assert mid_probe, "no boundary fell inside a probe"
    plain = _run(construct, label, seed, False, monkeypatch)
    assert shipped["digest"] == plain["digest"]


@pytest.mark.parametrize("construct,label,seed", ROWS)
@pytest.mark.parametrize("budget", ["max_events", "max_cycles"])
def test_budgets_trip_at_the_same_point(construct, label, seed, budget,
                                        monkeypatch):
    plain = _run(construct, label, seed, False, monkeypatch)
    limit = (plain["events"] if budget == "max_events"
             else plain["cycles"]) // 2 + 1
    shipped = _run(construct, label, seed, False, monkeypatch,
                   **{budget: limit})
    looped = _run(construct, label, seed, True, monkeypatch,
                  **{budget: limit})
    assert shipped["timeout"] is not None
    assert shipped["timeout"][0] == budget
    assert shipped["timeout"] == looped["timeout"]
    assert shipped["digest"] == looped["digest"]
    assert shipped["cores"] == looped["cores"]


def test_mesi_cannot_spin_through():
    machine = Machine(config_for("Invalidation", num_cores=4))

    def body(_ctx):
        yield ops.SpinThrough(machine.layout.alloc_sync_word(),
                              lambda v: v == 0)

    machine.spawn([body])
    with pytest.raises(TypeError, match="SpinThrough"):
        machine.run()


def _hang(expand, monkeypatch, **kwargs):
    """Core 0 spins on a word nobody writes; core 1 finishes at once.
    Returns the engine introspection where the run was stopped."""
    overrides = {k: kwargs.pop(k) for k in ("max_cycles",) if k in kwargs}
    telemetry = Telemetry(TelemetryConfig())
    machine = Machine(config_for("BackOff-5", num_cores=4, **overrides),
                      telemetry=telemetry,
                      resilience=Resilience(ResilienceConfig(**kwargs)))
    word = machine.layout.alloc_sync_word()

    def spinner(_ctx):
        yield ops.SpinThrough(word, lambda v: v == 1)

    def other(_ctx):
        yield ops.Compute(10)

    with monkeypatch.context() as patch:
        if expand:
            start = Core.start
            patch.setattr(Core, "start",
                          lambda core, gen: start(core, expand_spins(gen)))
        machine.spawn([spinner, other])
    with pytest.raises((SimulationTimeout, LivenessError)) as info:
        machine.run()
    engine = machine.engine
    gauge = next(g for g in telemetry.registry.gauges()
                 if g.name == "events_pending")
    diagnosis = getattr(info.value, "diagnosis", None)
    return {
        "error": type(info.value).__name__,
        "cycle": engine.now,
        "pending": engine.pending,
        "daemons": engine.pending - engine.live_pending,
        "live": engine.live_pending,
        "next": engine.next_time(),
        "gauge": gauge.value,
        "queue": _as_loop(machine.ckpt_state(), expand)["engine"],
        "diagnosis": ((diagnosis.pending_events, diagnosis.live_events)
                      if diagnosis is not None else None),
        "cores": [(core.ops_retired, core.useful_ops)
                  for core in machine._cores],
    }


@pytest.mark.parametrize("stop", [{"max_cycles": 20_000},
                                  {"watchdog_stall": 5_000}])
def test_a_hung_spin_stays_visible(stop, monkeypatch):
    """A spin that never ends is pending work to every introspection
    surface: pending/live counts, next event, the checkpoint queue, the
    ``events_pending`` gauge and the watchdog's diagnosis."""
    shipped = _hang(False, monkeypatch, **stop)
    looped = _hang(True, monkeypatch, **stop)
    assert shipped == looped
    assert shipped["live"] == 1 and shipped["gauge"] == 1
    assert shipped["pending"] == shipped["daemons"] + 1
    [(time, _name)] = shipped["queue"]["queue"]
    assert shipped["next"] is not None and shipped["next"] <= time
    if "watchdog_stall" in stop:
        assert shipped["error"] == "LivenessError"
        assert shipped["diagnosis"][1] == 1
    else:
        assert shipped["error"] == "SimulationTimeout"
