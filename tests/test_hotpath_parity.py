"""Pinned full-``Stats`` digests of application and sync runs.

Each digest is ``sha256_of({"cycles": ..., "stats": stats.ckpt_state()})``
of one run. The application points are 16-core, scale-0.25, seed-1 runs
of Fig-21 applications with CLH locks and TreeSR barriers. A hot-path change (fence indexes, transition
tables, tile lookup) must leave every one of them unchanged.

The small-L1 points (2 KB, 8 sets) evict dirty lines, so they also pin
the victim path of the VIPS L1 and of the MESI L1 (PutM, PutE and silent
S drops) under each replacement policy.

The sync points are lock, barrier, signal/wait and task-queue runs built
through the orchestrator registry at 16 cores and seed 1. Their cycles
sit next to the digest so a failure names the cycle drift. Engine event
counts are not pinned: an exact shortcut may lower them.

The SMT point (4 cores x 2 threads, Invalidation) pins the re-check of
a sibling's parked SpinUntil after a store that commits in the shared L1.
"""

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.ioutil import sha256_of
from repro.orchestrate.registry import build_workload
from repro.workloads.suite import get_workload

DEFAULT_L1 = {
    ("barnes", "Invalidation"):
        "4987e57f185e3801af72536d47768b4cba73c53106cc6b81afdf38315c8d1719",
    ("barnes", "BackOff-10"):
        "6b7dbf430b6027b63c7af56d3cd3596287b4dee73ba16cf40295fd685f0fb0e7",
    ("barnes", "CB-One"):
        "fa0a4d836d15cb4001ef2aae9432919d76a09cdae033eed260169112b177622d",
    ("streamcluster", "Invalidation"):
        "742def43b8711bee7e4ae4b508777d6f7755d400c4ef0c6ed7458c3532e8766f",
    ("streamcluster", "BackOff-10"):
        "eb6ed5bc49ccaf6635b0c338fca96b7183fd7d83396ec0361ad5313dd88d894c",
    ("streamcluster", "CB-One"):
        "c04fd8ee4b95639dd12970d919b5fb99287bae7bd1b0634ddc92c256e8b145a7",
}

#: streamcluster with ``l1_size_bytes=2048``: (policy, label) -> digest.
SMALL_L1 = {
    ("lru", "BackOff-10"):
        "758b46232c1b6c6f6ac6da16cf06b40a67f07f01791ed3b1cab96ef8758c2618",
    ("lru", "CB-One"):
        "3289a9c88c3c5c170d82423a112f1620779b834b08437bf964d195e1430c6d7d",
    ("fifo", "BackOff-10"):
        "df4eaede6127c431b46df978006f20db4d2fba013c592b6f8cca72135d30ed83",
    ("fifo", "CB-One"):
        "9a04f83bdd794a78ccc4eb1e61b80f3ea70ec72b277fe503bacea1e57b2c4d68",
    ("random", "BackOff-10"):
        "d379cebf8efd794795ec5fcc1469c93b8446351179b32a3e813aa52f350544f8",
    ("random", "CB-One"):
        "e563f6b730eb4032a35a2628f638687216c57a787a511fe812efc8b838887ab6",
    ("lru", "Invalidation"):
        "581637e8d85a49609fdbab01efd47fe003c513735ceeca2fcda6946185300b68",
    ("fifo", "Invalidation"):
        "9c8df62ab757bfdab70fe43422664d50d065ff1b7466230d67f5b08017e74240",
    ("random", "Invalidation"):
        "2309b94e6f269faab3c33dca68d97d5aca1340b5ad64977110fa31dba77cd9cd",
}

#: name -> (registry workload, params, label, cycles).
SYNC_CASES = {
    "lock_ttas_cb": ("lock", {"lock_name": "ttas", "iterations": 5},
                     "CB-One", 9088),
    "lock_ttas_inv": ("lock", {"lock_name": "ttas", "iterations": 5},
                      "Invalidation", 37369),
    "barrier_sr_cb": ("barrier", {"barrier_name": "sr", "episodes": 4},
                      "CB-One", 11507),
    "barrier_sr_inv": ("barrier", {"barrier_name": "sr", "episodes": 4},
                       "Invalidation", 42186),
    "signal_wait_inv": ("signal_wait", {"rounds": 6}, "Invalidation",
                        13984),
    "task_queue_inv": ("task_queue", {"tasks": 24}, "Invalidation", 41984),
    "signal_wait_cb": ("signal_wait", {"rounds": 6}, "CB-One", 7775),
    "task_queue_cb": ("task_queue", {"tasks": 24}, "CB-One", 6308),
    # ld_cb RMWs (the directory gate ahead of an atomic) and the st_cbA
    # wake-all effect under CB-All.
    "lock_tas_cb": ("lock", {"lock_name": "tas", "iterations": 5},
                    "CB-One", 6756),
    "lock_tas_cba": ("lock", {"lock_name": "tas", "iterations": 5},
                     "CB-All", 7167),
    "lock_ttas_cba": ("lock", {"lock_name": "ttas", "iterations": 5},
                      "CB-All", 10579),
    "signal_wait_cba": ("signal_wait", {"rounds": 6}, "CB-All", 11554),
    "barrier_sr_cba": ("barrier", {"barrier_name": "sr", "episodes": 4},
                       "CB-All", 12268),
}

SYNC = {
    "lock_ttas_cb":
        "94490d0522d793828b5c4b07b18063e08b4a018f730f3791c395408e33b49dd7",
    "lock_ttas_inv":
        "72f781ee7d505a45a7fa73427a2698a9b4d64d089aa4b0e2c443516e1af2ff60",
    "barrier_sr_cb":
        "76f8dcbcc5c086a43ee33bd3adcd39ef0fd834a12fbdf1ae41aa613b66919cc7",
    "signal_wait_cb":
        "6cdcd195ae40914119c9b058af5f89c8381a13ec74d6ca229a930077bad112a0",
    "task_queue_cb":
        "ca484d74d9a18a43a2c520fa92a4a10500a4964ab6c3ff73d6a3be72161eb32d",
    "lock_tas_cb":
        "ce8d93f4ff74ae7c7846820982a43469c534a70fbff60fd7ac4805bc02d70b32",
    "lock_tas_cba":
        "74230d0203555c4e203e5ef959799c3903a3a9ddc06befba1fe19e9e42cd7dae",
    "lock_ttas_cba":
        "37995c184b8a87567560e08f20731f72b17f05cfedd8bc81d30150f023450998",
    "signal_wait_cba":
        "4865f2314b2c1e7c45ae4ae3d3ba45d2e6b7a67dbbbdcc894dbb6db27542aac0",
    "barrier_sr_cba":
        "49f95ce085cd4a3aff16d62bca6167fbc62ce58f2f6c987c6c26fb22845816a8",
    "barrier_sr_inv":
        "d53223aaa6a1c48448d8a804fd793ffe69f23391ed28933e92b351f81cb0df88",
    "signal_wait_inv":
        "2cbce66fec7494da0a6d5874e03173c4892deae6732ba98dceb251d0836baeca",
    "task_queue_inv":
        "83c364aa4fb03bf7f5bcb831d59dd9d2d03b7e88adb7ce635aae173688c8b91f",
}

#: lock:ttas under Invalidation, 4 cores x 2 threads, seed 1.
SMT_TTAS_INV = (
    4434, "4622ed5f1e7903e584172f6fb731bec1440a21b7f5d0a7d36785bca4ac59fed6")


def _digest(stats):
    return sha256_of({"cycles": stats.cycles, "stats": stats.ckpt_state()})


def _run(app, label, **overrides):
    machine = Machine(config_for(label, num_cores=16, seed=1, **overrides))
    get_workload(app, "clh", "treesr", 0.25).install(machine)
    stats = machine.run()
    return stats, _digest(stats)


@pytest.mark.parametrize("app,label", sorted(DEFAULT_L1))
def test_default_l1_digest(app, label):
    _stats, digest = _run(app, label)
    assert digest == DEFAULT_L1[(app, label)]


@pytest.mark.parametrize("policy,label", sorted(SMALL_L1))
def test_small_l1_digest(policy, label):
    stats, digest = _run("streamcluster", label, l1_size_bytes=2048,
                         l1_replacement=policy)
    assert stats.writebacks > 0  # the victim path ran
    assert digest == SMALL_L1[(policy, label)]


@pytest.mark.parametrize("name", sorted(SYNC))
def test_sync_digest(name):
    workload, params, label, cycles = SYNC_CASES[name]
    machine = Machine(config_for(label, num_cores=16, seed=1))
    build_workload(workload, params).install(machine)
    stats = machine.run()
    assert stats.cycles == cycles
    assert _digest(stats) == SYNC[name]


def test_smt_invalidation_digest():
    machine = Machine(config_for("Invalidation", num_cores=4,
                                 threads_per_core=2, seed=1))
    build_workload("lock", {"lock_name": "ttas",
                            "iterations": 5}).install(machine)
    stats = machine.run()
    assert (stats.cycles, _digest(stats)) == SMT_TTAS_INV
