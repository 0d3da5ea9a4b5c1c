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
         "5ee01aaff68e079e090159d331c83d2998290f8d2743c3b61e9fa08828ecbf8f",
         "8b20be209e8ef216e80780e482e7083a50c852a5fb7ae9f0ccaee42c0d735d3f"),
        (1400,
         "641e6167afeadfc67a99a4637b34b53ae2d9c50f39320b2b74bdedda3087d85f",
         "55e8480146b7a7df2f447ab8a604bcc70adab35dea461805b0dfb47e9c69749d"),
        (2100,
         "fda12802482d8e8f17534842f4a2bdad8c0f5012abaf924141678de99c11fb8d",
         "52b6997c9dd0b82046e2e1b99810411f24aa745ca76985f4997397fced9b2291"),
    ],
    "BackOff-10": [
        (700,
         "6190ecf30f6b5eca560f984039cfd8667dd801a59c6eb0a4a756e6b02c19d6f8",
         "8c5005152a74ae091b553aede6879b7cccdf7289c1712ad3e5a8d487ed588e8a"),
        (1400,
         "c3a74966e7c155fda20266ff464c68ec6b2e101e24620c780c5d023723c36583",
         "1fb74d7495649dd68a20048bdd432bcefd3f652be9b2eb0bc12b616b751e2534"),
        (2100,
         "2453c1fd2171dded07dd13ccd86c09de29fdb135f516073e2fff54da562bda78",
         "2d0d027277ffd88248ea3c876ddd95b781771939f1c68f5c3817499acb6357ca"),
    ],
    "CB-One": [
        (700,
         "52c7a00805aa36749d30b77b4d66b425e4af6b349d3fce3720b8e874efc3042e",
         "dfc8e81f5f5ede1674700f4cf7bdf3c7d43df84a330d82acaeb4691243c482bb"),
        (1400,
         "0cce64b5928e40df919512d9b3025a309805bd9a928f76aab624762ef04c12bb",
         "9ad66d19e79ae16dcc5ed29fccd3575954d4d760cae7107ef0a7f9dd71bf8b20"),
        (2100,
         "70d636389377be8d4ea38991e6bf7620f9486363a68da214e62329d11f91d298",
         "71ab3e237f632e51af17427aba9ac4cfb17220e8b4bf029ee17c780d088a735f"),
    ],
    "CB-One+cb_evict": [
        (700,
         "e48b3b5af7945dede2ef063699cca715f4041b1a709fd308d8d10ceb45a32657",
         "dfc8e81f5f5ede1674700f4cf7bdf3c7d43df84a330d82acaeb4691243c482bb"),
        (1400,
         "85fd9f19ef2692f8a95e9a3e03cf3cdd5234b8b886b4d75fa8b285ad00c2c154",
         "9ad66d19e79ae16dcc5ed29fccd3575954d4d760cae7107ef0a7f9dd71bf8b20"),
        (2100,
         "698165ccd481fb81e1632b1f966bf2bb800736912da82cc3da5768baa9ce41c9",
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
