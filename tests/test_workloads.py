"""Workloads: microbenchmarks and the 19-app suite."""

import pytest

from repro.config import config_for
from repro.core.machine import Machine
from repro.workloads import (APP_NAMES, PROFILES, BarrierMicrobench,
                             LockMicrobench, SignalWaitMicrobench,
                             get_workload, make_burst)


def run(label, workload, cores=4):
    machine = Machine(config_for(label, num_cores=cores))
    workload.install(machine)
    return machine, machine.run()


class TestSuiteDefinition:
    def test_nineteen_applications(self):
        """Section 5.1: the entire Splash-2 suite + PARSEC benchmarks."""
        assert len(APP_NAMES) == 19
        splash = [n for n, p in PROFILES.items() if p.suite == "splash2"]
        parsec = [n for n, p in PROFILES.items() if p.suite == "parsec"]
        assert len(splash) == 14  # the complete Splash-2 suite
        assert len(parsec) == 5

    def test_expected_names_present(self):
        for name in ("barnes", "fft", "radix", "raytrace", "water-nsq",
                     "blackscholes", "streamcluster", "fluidanimate"):
            assert name in APP_NAMES

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            get_workload("doom")

    def test_profiles_are_sane(self):
        for profile in PROFILES.values():
            assert profile.phases >= 1
            assert profile.cs_per_phase >= 0
            assert 0.0 <= profile.write_frac <= 1.0
            assert profile.num_locks >= 1
            assert profile.compute[0] <= profile.compute[1]


class TestAppWorkload:
    @pytest.mark.parametrize("name", ["barnes", "fft", "raytrace",
                                      "swaptions"])
    def test_runs_to_completion_under_all_protocols(self, name):
        for label in ("Invalidation", "BackOff-10", "CB-One"):
            workload = get_workload(name, scale=0.3)
            _machine, stats = run(label, workload)
            assert stats.cycles > 0

    def test_scale_reduces_work(self):
        big = run("CB-One", get_workload("ocean", scale=1.0))[1]
        small = run("CB-One", get_workload("ocean", scale=0.25))[1]
        assert small.cycles < big.cycles

    def test_deterministic_given_seed(self):
        a = run("CB-One", get_workload("barnes", scale=0.3))[1]
        b = run("CB-One", get_workload("barnes", scale=0.3))[1]
        assert a.cycles == b.cycles
        assert a.flit_hops == b.flit_hops

    def test_naive_vs_scalable_lock_selection(self):
        naive = get_workload("barnes", "ttas", "sr", scale=0.3)
        scalable = get_workload("barnes", "clh", "treesr", scale=0.3)
        assert naive.lock_name == "ttas"
        _m, s1 = run("CB-One", naive)
        _m, s2 = run("CB-One", scalable)
        assert s1.cycles > 0 and s2.cycles > 0

    def test_lock_free_apps_have_no_acquires(self):
        workload = get_workload("fft", scale=0.3)
        _m, stats = run("CB-One", workload)
        assert stats.episode_latencies.get("lock_acquire", []) == []


class TestMicrobenches:
    def test_lock_microbench_counts(self):
        workload = LockMicrobench("ttas", iterations=5)
        machine, stats = run("CB-One", workload)
        assert machine.store.read(workload.counter_addr) == 4 * 5
        assert len(stats.episode_latencies["lock_acquire"]) == 20

    def test_barrier_microbench_episodes(self):
        workload = BarrierMicrobench("treesr", episodes=4)
        _machine, stats = run("BackOff-0", workload)
        assert len(stats.episode_latencies["barrier_wait"]) == 4 * 4

    def test_signal_wait_microbench_balances(self):
        workload = SignalWaitMicrobench(rounds=3)
        _machine, stats = run("CB-One", workload)
        # 3 consumers x 3 rounds on a 4-core machine (1 producer).
        assert len(stats.episode_latencies["wait"]) == 9

    def test_signal_wait_needs_two_threads(self):
        workload = SignalWaitMicrobench(rounds=1)
        machine = Machine(config_for("CB-One", num_cores=1))
        with pytest.raises(ValueError, match="two threads"):
            workload.install(machine)


class TestMakeBurst:
    def test_burst_stays_in_region(self):
        import random
        from repro.mem.layout import MemoryLayout
        from repro.config import SystemConfig
        layout = MemoryLayout(SystemConfig(num_cores=16))
        region = layout.alloc_array(64 * 10)
        burst = make_burst(random.Random(1), region, lines=5,
                           write_frac=0.5, line_bytes=64)
        assert len(burst.accesses) == 5
        for access in burst.accesses:
            assert region.base <= access.addr < region.end
        assert burst.extra_hits == 15

    def test_burst_clamps_to_region_size(self):
        import random
        from repro.mem.layout import MemoryLayout
        from repro.config import SystemConfig
        layout = MemoryLayout(SystemConfig(num_cores=16))
        region = layout.alloc_array(64 * 2)
        burst = make_burst(random.Random(1), region, lines=100,
                           write_frac=0.0, line_bytes=64)
        assert len(burst.accesses) == 2
