"""Energy model and the Figure 22 story."""

import pytest

from repro.energy.model import (FLIT_HOP_PJ, L1_ACCESS_PJ, LLC_DATA_PJ,
                                LLC_TAG_PJ, energy_of)
from repro.harness.runner import run_config
from repro.sim.stats import Stats
from repro.workloads.microbench import LockMicrobench


class TestArithmetic:
    def test_zero_stats_zero_energy(self):
        e = energy_of(Stats())
        assert e.total_pj == 0.0

    def test_l1_term(self):
        stats = Stats()
        stats.l1_accesses = 10
        assert energy_of(stats).l1_pj == 10 * L1_ACCESS_PJ

    def test_llc_terms(self):
        stats = Stats()
        stats.llc_tag_accesses = 2
        stats.llc_data_accesses = 3
        expected = 2 * LLC_TAG_PJ + 3 * (LLC_TAG_PJ + LLC_DATA_PJ)
        assert energy_of(stats).llc_pj == expected

    def test_network_term(self):
        stats = Stats()
        stats.flit_hops = 100
        assert energy_of(stats).network_pj == 100 * FLIT_HOP_PJ

    def test_breakdown_sums(self):
        stats = Stats()
        stats.l1_accesses = 1
        stats.flit_hops = 1
        stats.mem_accesses = 1
        e = energy_of(stats)
        assert e.total_pj == pytest.approx(
            e.l1_pj + e.llc_pj + e.network_pj + e.mem_pj + e.cb_dir_pj)
        assert e.onchip_pj == pytest.approx(e.total_pj - e.mem_pj)

    def test_as_dict_keys(self):
        d = energy_of(Stats()).as_dict()
        assert set(d) == {"l1", "llc", "network", "mem", "cb_dir", "total"}


class TestFigure22Story:
    """Section 5.4.2: invalidation spins in the (expensive) L1; back-off
    shifts energy to LLC+network; callbacks minimize all three."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for label in ("Invalidation", "BackOff-0", "CB-One"):
            out[label] = run_config(
                label, LockMicrobench("ttas", iterations=6), num_cores=16)
        return out

    def test_invalidation_l1_energy_dominates(self, runs):
        inv = runs["Invalidation"].energy
        assert inv.l1_pj > inv.llc_pj
        assert inv.l1_pj > runs["CB-One"].energy.l1_pj * 3

    def test_backoff_shifts_energy_to_llc_and_network(self, runs):
        """Back-off burns LLC energy where MESI burned L1 energy; its
        LLC and network terms also dwarf the callback ones."""
        backoff = runs["BackOff-0"].energy
        inv = runs["Invalidation"].energy
        cb = runs["CB-One"].energy
        assert backoff.llc_pj > inv.llc_pj
        assert backoff.l1_pj < inv.l1_pj
        assert backoff.llc_pj > cb.llc_pj
        assert backoff.network_pj > cb.network_pj

    def test_callbacks_minimize_total(self, runs):
        cb = runs["CB-One"].energy.onchip_pj
        assert cb < runs["Invalidation"].energy.onchip_pj
        assert cb < runs["BackOff-0"].energy.onchip_pj
