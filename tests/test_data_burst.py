"""A ``DataBurst`` record is exact: it equals the slot-chained step.

Each point runs twice: as shipped, where a burst is one record whose
bound ``step`` is every access's continuation, and with
:func:`tests.burst_chain.install`, which chains the accesses through one
op object and one result slot each, as the burst step it replaced did. A bare
daemon sampler looks at the machine every few cycles; the two runs must
agree at every sample and on the engine events executed.

The sampler records ``Stats`` at every sample and the protocol's
checkpoint capture (all 16 L1s, the LLC and directories) at every
``PROTOCOL_EVERY``-th sample, and only where a live event ran since the
previous capture: the engine's ``(seq, live)`` pair moved by more than
the sampler's own ticks account for. The state below the cores cannot
change without an event, and a capture costs milliseconds: one at every
sample would make each run take about ten seconds.
"""

import hashlib
import pickle

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.workloads.suite import get_workload
from tests.burst_chain import install

LABELS = ("Invalidation", "BackOff-10", "CB-One")
SEEDS = (1, 7)
#: Cycles between a bare sampler's looks at the machine.
SAMPLE_EVERY = 13
#: Samples between looks at the protocol's capture.
PROTOCOL_EVERY = 8


def _digest(state):
    return hashlib.sha256(pickle.dumps(state)).hexdigest()


def _run(label, seed, reference):
    machine = Machine(config_for(label, num_cores=16, seed=seed))
    protocol = machine.protocol
    if reference:
        install(protocol)
    handlers = protocol._handlers
    burst = handlers[ops.DataBurst]
    bursts = []

    def counted(*args):
        bursts.append(None)
        burst(*args)

    protocol._handlers = {**handlers, ops.DataBurst: counted}
    get_workload("barnes", "clh", "treesr", 0.05).install(machine)
    engine = machine.engine
    samples = []
    captured_at = None

    def tick():
        nonlocal captured_at
        # Every tick queues one event: take those out of ``seq``.
        mark = (engine._seq - len(samples), engine._live)
        capture = len(samples) % PROTOCOL_EVERY == 0 and mark != captured_at
        if capture:
            captured_at = mark
        samples.append((engine.now, machine.stats.ckpt_state(),
                        _digest(protocol.ckpt_state()) if capture else None))
        engine.schedule(SAMPLE_EVERY, tick, daemon=True)

    engine.schedule(SAMPLE_EVERY, tick, daemon=True)
    stats = machine.run()
    return {"samples": samples, "events": machine.events_executed,
            "cycles": stats.cycles, "bursts": len(bursts),
            "captures": sum(digest is not None for *_, digest in samples)}


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mid_run_state_matches_the_chained_step(label, seed):
    shipped = _run(label, seed, False)
    chained = _run(label, seed, True)
    assert shipped["bursts"] > 0, "no DataBurst was issued"
    assert shipped["bursts"] == chained["bursts"]
    assert shipped["captures"] > 100
    assert shipped["cycles"] == chained["cycles"]
    assert len(shipped["samples"]) == len(chained["samples"])
    for ours, theirs in zip(shipped["samples"], chained["samples"]):
        assert ours == theirs, f"first divergence at cycle {ours[0]}"
    assert shipped["events"] == chained["events"]
