"""Pinned digests of the harness's figure, ablation, extension, sweep
and replication outputs.

Each digest is ``sha256_of(output)`` (SHA-256 over the canonical JSON
form) of one harness call at a small, fast size: 4 cores, two
iterations, scale 0.15 and two applications. Figure outputs drop their
``runs`` entry (live ``RunResult`` objects); the normalized tables and
geomeans they are computed from are what a figure prints and saves.

The shape tests in ``test_harness.py`` check keys and normalization
only. These pins check values: a change to how the harness names or
builds its runs must leave every one of them unchanged. The same sweep
is pinned at ``jobs=1`` (in-process) and ``jobs=2`` (process pool) to
the same digest.
"""

import pytest

from repro.harness import experiments, extensions
from repro.harness.replication import replicate
from repro.harness.sweeps import Sweep
from repro.ioutil import sha256_of
from repro.orchestrate import JobSpec

APPS = ["swaptions", "radix"]

PINS = {
    "fig01":
        "b6fb98c7f929902e7647e41f98e86a7a76b5ceff66cb00c366db103ba745377e",
    "fig20":
        "8f8ea6e204701e02ddb72d1e4b85b3c60451b8e22135757dac07986177854be2",
    "fig21":
        "bffad3594c64b72e40f2e54a109d0576e799129a89e76ab61fd85d284db78d40",
    "fig22":
        "e2dce344e235a343a25d27a53dd15c2b1892ec30da2b0459a0bb0e261b5d2d40",
    "fig23":
        "4cf9fbbc7c03c4b1e9f68a7407ed232d22695158cfd4ee49ccc92353163e15e2",
    "ablation_dirsize":
        "f6bccd48c3d0bf9189f46f39aaafc25170b58ed7f3f5fe913d37b059589b264b",
    "ablation_policy":
        "618462a6eedeb039091374ba090889f7fc09d0ee9e4562048224f0a67ef057c5",
    "power_saving":
        "3aa92a30912d5a02fe1aac26a64c0bf2c4d3527c588e20b2273c44452821a45c",
    "link_contention":
        "970efa3a3167b585e98337e32e1d30ac35944d7e1155aa77d5d10bd39fae91e0",
    "sweep":
        "87e1e29ba6e43d9be817c2332c429f1e061c32cdff23b097b8005c386618d3a8",
    "replicate":
        "a1c8d3b112d1112994c0f64a05d168752b7b09f027fc60dac988ad3c0abb04f0",
}


def _without_runs(out):
    return {key: value for key, value in out.items() if key != "runs"}


OUTPUTS = {
    "fig01": lambda: experiments.fig01(num_cores=4, iterations=2,
                                       verbose=False),
    "fig20": lambda: experiments.fig20(num_cores=4, iterations=2,
                                       verbose=False),
    "fig21": lambda: _without_runs(experiments.fig21(
        num_cores=4, scale=0.15, verbose=False, apps=APPS)),
    "fig22": lambda: _without_runs(experiments.fig22(
        num_cores=4, scale=0.15, verbose=False, apps=APPS)),
    "fig23": lambda: experiments.fig23(num_cores=4, scale=0.15,
                                       verbose=False, apps=APPS),
    "ablation_dirsize": lambda: experiments.ablation_dirsize(
        num_cores=4, scale=0.15, sizes=(4, 16), apps=APPS, verbose=False),
    "ablation_policy": lambda: experiments.ablation_policy(
        num_cores=4, iterations=2, verbose=False),
    "power_saving": lambda: extensions.power_saving(
        num_cores=4, episodes=3, skew_cycles=800, verbose=False),
    "link_contention": lambda: extensions.link_contention(
        num_cores=4, iterations=2, verbose=False),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_harness_output_pinned(name):
    assert sha256_of(OUTPUTS[name]()) == PINS[name]


def _sweep():
    return Sweep(
        configs=["Invalidation", "CB-One"],
        workload_spec="lock",
        spec_params={"lock_name": "ttas"},
        overrides={"cb_entries_per_bank": [4, 16]},
        params={"iterations": [1, 2]},
        metrics={"cycles": lambda r: r.cycles,
                 "traffic": lambda r: r.traffic,
                 "llc_sync": lambda r: r.llc_sync,
                 "acquire": lambda r: r.episode_mean("lock_acquire")},
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_pinned(jobs):
    rows = _sweep().run(seed=2, jobs=jobs, num_cores=4)
    assert sha256_of(rows) == PINS["sweep"]


def test_replicate_pinned():
    rep = replicate(JobSpec("CB-One", "lock",
                            {"lock_name": "ttas", "iterations": 2},
                            {"num_cores": 4}),
                    lambda r: float(r.cycles), seeds=(1, 2, 3))
    assert sha256_of(rep.values) == PINS["replicate"]
