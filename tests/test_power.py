"""Core power-state extension (Section 2.1 future work)."""

import pytest

from repro.config import config_for
from repro.energy.power import (CORE_ACTIVE_PJ_PER_CYCLE,
                                CORE_SLEEP_PJ_PER_CYCLE, core_power_report)
from repro.harness.runner import run_config
from repro.sim.stats import Stats
from repro.workloads.microbench import BarrierMicrobench


class TestArithmetic:
    def test_empty_run(self):
        report = core_power_report(Stats(), config_for("CB-One",
                                                       num_cores=4))
        assert report.total_core_cycles == 0
        assert report.sleepable_fraction == 0.0
        assert report.saving_fraction == 0.0

    def test_all_active_baseline(self):
        stats = Stats()
        stats.cycles = 100
        cfg = config_for("Invalidation", num_cores=4)
        report = core_power_report(stats, cfg)
        assert report.total_core_cycles == 400
        assert report.baseline_pj == 400 * CORE_ACTIVE_PJ_PER_CYCLE
        assert report.gated_pj == report.baseline_pj

    def test_parked_cycles_sleep(self):
        stats = Stats()
        stats.cycles = 100
        stats.cb_parked_cycles = 100
        cfg = config_for("CB-One", num_cores=4)
        report = core_power_report(stats, cfg)
        expected = (300 * CORE_ACTIVE_PJ_PER_CYCLE
                    + 100 * CORE_SLEEP_PJ_PER_CYCLE)
        assert report.gated_pj == pytest.approx(expected)
        assert report.sleepable_fraction == pytest.approx(0.25)

    def test_sleepable_clamped_to_total(self):
        stats = Stats()
        stats.cycles = 10
        stats.cb_parked_cycles = 10**9  # corrupt/overlapping accounting
        cfg = config_for("CB-One", num_cores=4)
        report = core_power_report(stats, cfg)
        assert report.sleepable_cycles == 40


class TestParkedAccounting:
    def test_cb_parked_cycles_accumulate(self):
        result = run_config("CB-One", BarrierMicrobench("sr", episodes=4,
                                                        skew_cycles=400),
                            num_cores=16)
        assert result.stats.cb_parked_cycles > 0

    def test_mesi_has_no_parked_cycles(self):
        result = run_config("Invalidation",
                            BarrierMicrobench("sr", episodes=4,
                                              skew_cycles=400),
                            num_cores=16)
        assert result.stats.cb_parked_cycles == 0


class TestThriftyBarrierStory:
    """Barrier waiters under callbacks can sleep; spinners cannot."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for label in ("Invalidation", "BackOff-10", "CB-All"):
            result = run_config(label,
                                BarrierMicrobench("sr", episodes=5,
                                                  skew_cycles=600),
                                num_cores=16)
            cfg = config_for(label, num_cores=16)
            out[label] = core_power_report(result.stats, cfg)
        return out

    def test_callback_sleeps_a_meaningful_fraction(self, reports):
        assert reports["CB-All"].sleepable_fraction > 0.10

    def test_spinning_techniques_cannot_deep_sleep(self, reports):
        assert reports["Invalidation"].sleepable_cycles == 0
        assert reports["BackOff-10"].sleepable_cycles == 0

    def test_callback_saves_most_core_energy(self, reports):
        assert (reports["CB-All"].saving_fraction
                > reports["Invalidation"].saving_fraction)
        assert (reports["CB-All"].saving_fraction
                > reports["BackOff-10"].saving_fraction)
