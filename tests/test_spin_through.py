"""``SpinThrough`` is exact: the core-run spin equals the thread-side loop.

Every point runs twice: as shipped, where the core runs each yielded
``SpinThrough``, and with every thread wrapped in
:func:`tests.spin_loop.expand_spins`, which yields the historical
``LoadThrough`` / ``BackoffWait(attempt)`` loop instead. The two runs
must agree on the full ``Stats`` digest and cycle count, per-core
retired and useful ops, the recorded trace, every ``spin.backoff``
probe, and the same results under a back-off fault plan.
"""

from dataclasses import asdict

import pytest

from repro.config import config_for
from repro.core.core import Core
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.protocols import ops
from repro.resilience.faults import Fault, FaultKind, FaultPlan
from repro.resilience.resilience import Resilience, ResilienceConfig
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


def _perturb_plan(label, construct, seed):
    """Back-off jitter over the whole run, shortened in one window."""
    return FaultPlan(config_label=label, workload=construct, seed=seed,
                     faults=[
                         Fault(FaultKind.BACKOFF_PERTURB, cycle=0,
                               duration=10**9, magnitude=5),
                         Fault(FaultKind.BACKOFF_PERTURB, cycle=500,
                               duration=2_000, magnitude=-9),
                     ])


def _run(construct, label, seed, expand, monkeypatch, observe=False,
         plan=None):
    resilience = (Resilience(ResilienceConfig(plan=plan))
                  if plan is not None else None)
    telemetry = Telemetry(TelemetryConfig()) if observe else None
    machine = Machine(config_for(label, num_cores=16, seed=seed),
                      telemetry=telemetry, resilience=resilience)
    backoffs = []
    recorder = None
    if observe:
        machine.obs.subscribe("spin.backoff", lambda _topic, cycle, fields:
                              backoffs.append((cycle, fields)))
        recorder = TraceRecorder(machine)
    with monkeypatch.context() as patch:
        if expand:
            start = Core.start
            patch.setattr(Core, "start",
                          lambda core, gen: start(core, expand_spins(gen)))
        CONSTRUCTS[construct]().install(machine)
    stats = machine.run()
    return {
        "digest": sha256_of({"cycles": stats.cycles,
                             "stats": stats.ckpt_state()}),
        "cycles": stats.cycles,
        "cores": [(core.ops_retired, core.useful_ops)
                  for core in machine._cores],
        "trace": ([asdict(event) for event in recorder.detach()]
                  if recorder is not None else None),
        "backoffs": backoffs,
        "perturbed": stats.backoff_perturbations,
    }


POINTS = [(construct, label, seed) for construct in CONSTRUCTS
          for label in LABELS for seed in SEEDS]


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_results_match_the_thread_side_loop(construct, label, seed,
                                            monkeypatch):
    shipped = _run(construct, label, seed, False, monkeypatch)
    looped = _run(construct, label, seed, True, monkeypatch)
    assert shipped["cycles"] == looped["cycles"]
    assert shipped["digest"] == looped["digest"]
    assert shipped["cores"] == looped["cores"]


@pytest.mark.parametrize("construct,label,seed", POINTS)
def test_trace_and_backoff_probes_match(construct, label, seed,
                                        monkeypatch):
    shipped = _run(construct, label, seed, False, monkeypatch, observe=True)
    looped = _run(construct, label, seed, True, monkeypatch, observe=True)
    assert shipped["backoffs"], "no back-off was booked"
    assert shipped["backoffs"] == looped["backoffs"]
    assert shipped["trace"] == looped["trace"]
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
    assert shipped["digest"] == looped["digest"]
    assert shipped["cores"] == looped["cores"]
    assert shipped["digest"] != _run(construct, label, seed, False,
                                     monkeypatch)["digest"]


def test_mesi_cannot_spin_through():
    machine = Machine(config_for("Invalidation", num_cores=4))

    def body(_ctx):
        yield ops.SpinThrough(machine.layout.alloc_sync_word(),
                              lambda v: v == 0)

    machine.spawn([body])
    with pytest.raises(TypeError, match="SpinThrough"):
        machine.run()
