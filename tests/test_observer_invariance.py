"""Observers never change a full-state capture.

A checkpoint proves that re-execution reached the same machine state,
so its capture must depend on that state and the boundary only. Each
row runs one point sliced with and without one observer attached and
asserts that the boundaries crossed and the full capture at every one
of them (plus the final one) are equal:

* telemetry with spans and a sampler, whose in-flight gauge wraps
  every delivery handler and whose ticks are daemon events;
* a liveness watchdog with a short check period;
* periodic invariant audits;
* a :class:`~repro.analyze.hb.RaceMonitor`, which records every op.

The app row computes for long stretches that span several boundary
periods: a daemon head there would add boundaries that an unobserved
run skips.
"""

import pytest

from repro.analyze.hb import RaceMonitor
from repro.ckpt import capture_state
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.orchestrate import JobSpec, build_machine
from repro.resilience import Resilience, ResilienceConfig

LOCK = ("lock", {"lock_name": "ttas", "iterations": 2})

#: (workload, params, config, cores, checkpoint period).
POINTS = {
    "ttas-Invalidation": (*LOCK, "Invalidation", 4, 150),
    "ttas-BackOff-10": (*LOCK, "BackOff-10", 4, 150),
    "ttas-CB-One": (*LOCK, "CB-One", 4, 150),
    "ttas-CB-All": (*LOCK, "CB-All", 4, 150),
    "barnes-BackOff-10": ("app", {"name": "barnes", "scale": 0.02},
                          "BackOff-10", 4, 1500),
}


def _telemetry():
    return {"telemetry": Telemetry(TelemetryConfig(sample_every=61,
                                                   spans=True))}


def _watchdog():
    return {"resilience": Resilience(ResilienceConfig(
        watchdog_stall=1_000_000, watchdog_check_every=97))}


def _audits():
    return {"resilience": Resilience(ResilienceConfig(audit_every=53))}


def _race_monitor():
    return {"prepare": RaceMonitor}


OBSERVERS = {"telemetry": _telemetry, "watchdog": _watchdog,
             "audits": _audits, "race_monitor": _race_monitor}


def _captures(point, **attach):
    workload, params, label, cores, every = POINTS[point]
    spec = JobSpec(config_label=label, workload=workload,
                   workload_params=params,
                   config_overrides={"num_cores": cores}, seed=1)
    machine = build_machine(spec, **attach)
    seen = []
    machine.run(checkpoint_every=every,
                on_checkpoint=lambda boundary: seen.append(
                    (boundary, capture_state(machine))))
    seen.append(("final", capture_state(machine)))
    return seen


_BASELINES = {}


def _baseline(point):
    if point not in _BASELINES:
        _BASELINES[point] = _captures(point)
    return _BASELINES[point]


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("point", sorted(POINTS))
def test_observer_leaves_every_capture_unchanged(point, observer):
    plain = _baseline(point)
    observed = _captures(point, **OBSERVERS[observer]())
    assert len(plain) > 3, "run too short to slice"
    assert [b for b, _ in observed] == [b for b, _ in plain]
    for (boundary, want), (_, got) in zip(plain, observed):
        assert got == want, f"capture at boundary {boundary} differs"
