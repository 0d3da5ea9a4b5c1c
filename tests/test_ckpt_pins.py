"""Pinned full-state checkpoint digests at slice boundaries.

Each point builds ``lock:ttas`` on 4 cores with seed 1 through
``build_machine``, runs it sliced every 700 cycles, and at each of the
first three boundaries takes the full digest
``state_fingerprint(capture_state(machine))`` and the functional digest
(SHA-256 over the word store's non-zero values). The faulted point adds
a 4-fault ``cb_evict`` plan to CB-One; its plan key is pinned too, so a
changed draw is named apart from a changed machine.

Stats digests (``test_hotpath_parity.py``) pin only end-of-run counters.
These pins cover what a checkpoint stores mid-run: the engine queue, the
L1s and directories, the callback directory and the core positions. A
change that moves any of them must name the digest it moves.
"""

import pytest

from repro.ckpt import capture_state, state_fingerprint
from repro.mem.store import functional_fingerprint
from repro.orchestrate import JobSpec, build_machine
from repro.resilience.faults import FaultKind, make_fault_plan

EVERY = 700

PARAMS = {"lock_name": "ttas"}
OVERRIDES = {"num_cores": 4}

#: point -> [(boundary, full digest, functional digest)] x 3.
PINS = {
    "Invalidation": [
        (700,
         "6242048a645fdefae014e589026b00f7207e268b79ee042606b297d01c1e9e14",
         "8b20be209e8ef216e80780e482e7083a50c852a5fb7ae9f0ccaee42c0d735d3f"),
        (1400,
         "e0eda13bac042ffe0000d8624417c902fb29b855476cbb7d1c40b84564186ecb",
         "55e8480146b7a7df2f447ab8a604bcc70adab35dea461805b0dfb47e9c69749d"),
        (2100,
         "c1d6ad267eabbe6bd039a0929aa4b76ec8dcffc0577cf1aabc5910b1faeda34f",
         "52b6997c9dd0b82046e2e1b99810411f24aa745ca76985f4997397fced9b2291"),
    ],
    "BackOff-10": [
        (700,
         "7d7a2216692b580dc2647d9468ecd7ba4ab6208f604ca2b8339fc830fec7b582",
         "8c5005152a74ae091b553aede6879b7cccdf7289c1712ad3e5a8d487ed588e8a"),
        (1400,
         "a449f3d02eb2208cc6ebe84a6fba49283be78080802f0c30e84cac3718a05dd0",
         "1fb74d7495649dd68a20048bdd432bcefd3f652be9b2eb0bc12b616b751e2534"),
        (2100,
         "3e9ecc3daebcb8544a0278e5f35176b0e4106118775fc0bdad8f0a1aab6a79f1",
         "2d0d027277ffd88248ea3c876ddd95b781771939f1c68f5c3817499acb6357ca"),
    ],
    "CB-One": [
        (700,
         "3050077edb592114c77c593c0daed7a40113b26865ab193e0936a46ac455b3e4",
         "dfc8e81f5f5ede1674700f4cf7bdf3c7d43df84a330d82acaeb4691243c482bb"),
        (1400,
         "dc968a8f8a4d807e43258d2d99aef404ac6457384b0f73b140bd8a70ca320723",
         "9ad66d19e79ae16dcc5ed29fccd3575954d4d760cae7107ef0a7f9dd71bf8b20"),
        (2100,
         "e0e1e6d4ea551e64ff9811529d50e29d9047a792a39a065ab7afa7ab1f85c987",
         "71ab3e237f632e51af17427aba9ac4cfb17220e8b4bf029ee17c780d088a735f"),
    ],
    "CB-One+cb_evict": [
        (700,
         "4263ada0b0633593608811489817cd77dcdd5f5f0f4190e9e95c445b46f16ef0",
         "dfc8e81f5f5ede1674700f4cf7bdf3c7d43df84a330d82acaeb4691243c482bb"),
        (1400,
         "89a439447746aeea82426ef88a2270ba48d9c96bbb2c702e276eb7f40f579eeb",
         "9ad66d19e79ae16dcc5ed29fccd3575954d4d760cae7107ef0a7f9dd71bf8b20"),
        (2100,
         "30081453774e0311273837bf1468b0f3911bf8222041e80baed6d0c58b799178",
         "8920db374598cd6019d8314190f4df17eded7566bcbed47e98fb8cea09251905"),
    ],
}

FAULT_PLAN_KEY = \
    "2ac5893d9b90d9b3938adaa1f4344c5c5245b84bfaa3a145a3156afdc05bc857"


def cb_evict_plan():
    return make_fault_plan("CB-One", "lock", PARAMS, OVERRIDES, seed=1,
                           kinds=(FaultKind.CB_EVICT,), count=4,
                           horizon=2000)


def boundary_digests(label, plan=None):
    spec = JobSpec(config_label=label, workload="lock",
                   workload_params=PARAMS, config_overrides=OVERRIDES,
                   seed=1)
    machine = build_machine(spec, plan=plan)
    seen = []

    def at(boundary):
        if len(seen) < 3:
            seen.append((boundary,
                         state_fingerprint(capture_state(machine)),
                         functional_fingerprint(machine.store)))

    machine.run(checkpoint_every=EVERY, on_checkpoint=at)
    return seen


@pytest.mark.parametrize("label", ["Invalidation", "BackOff-10", "CB-One"])
def test_fault_free_boundary_digests(label):
    assert boundary_digests(label) == PINS[label]


def test_cb_evict_plan_boundary_digests():
    plan = cb_evict_plan()
    assert plan.plan_key() == FAULT_PLAN_KEY
    assert boundary_digests("CB-One", plan) == PINS["CB-One+cb_evict"]
