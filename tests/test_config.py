"""SystemConfig: Table 2 defaults, derived geometry, validation."""

import pytest

from repro.config import (PAPER_CONFIGS, CallbackMode, Protocol, SystemConfig,
                          config_for)
from repro.orchestrate.scheduler import is_retryable
from repro.resilience.classify import classify_failure


class TestTable2Defaults:
    """The default configuration must match Table 2 of the paper."""

    def setup_method(self):
        self.cfg = SystemConfig()

    def test_core_count(self):
        assert self.cfg.num_cores == 64

    def test_block_and_page_size(self):
        assert self.cfg.line_bytes == 64
        assert self.cfg.page_bytes == 4096

    def test_l1_geometry(self):
        assert self.cfg.l1_size_bytes == 32 * 1024
        assert self.cfg.l1_ways == 4
        assert self.cfg.l1_latency == 1

    def test_llc_geometry(self):
        assert self.cfg.llc_bank_size_bytes == 256 * 1024
        assert self.cfg.llc_ways == 16
        assert self.cfg.llc_tag_latency == 6
        assert self.cfg.llc_data_latency == 12

    def test_callback_directory(self):
        assert self.cfg.cb_entries_per_bank == 4
        assert self.cfg.cb_latency == 1

    def test_memory_latency(self):
        assert self.cfg.mem_latency == 160

    def test_network(self):
        assert self.cfg.mesh_side == 8
        assert self.cfg.flit_bytes == 16
        assert self.cfg.switch_latency == 6

    def test_one_bank_per_tile(self):
        assert self.cfg.num_banks == self.cfg.num_cores

    def test_l1_sets(self):
        assert self.cfg.l1_sets == 32 * 1024 // (64 * 4)

    def test_llc_sets(self):
        assert self.cfg.llc_sets == 256 * 1024 // (64 * 16)

    def test_words_per_line(self):
        assert self.cfg.words_per_line == 8


class TestValidation:
    def test_non_square_core_count_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            SystemConfig(num_cores=6)

    def test_line_must_divide_words(self):
        with pytest.raises(ValueError):
            SystemConfig(line_bytes=60)

    def test_page_must_divide_lines(self):
        with pytest.raises(ValueError):
            SystemConfig(page_bytes=1000)

    def test_negative_backoff_limit_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(backoff_limit=-1)

    def test_zero_cb_entries_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(cb_entries_per_bank=0)

    @pytest.mark.parametrize("name,value", [
        ("num_cores", 0), ("word_bytes", 0), ("line_bytes", 0),
        ("flit_bytes", 0), ("l1_ways", 0), ("llc_ways", 0),
        ("l1_size_bytes", 0), ("llc_bank_size_bytes", -64),
        ("l1_latency", -1), ("llc_tag_latency", -1),
        ("llc_data_latency", -1), ("cb_latency", -1), ("mem_latency", -1),
        ("switch_latency", -3), ("backoff_base", -4),
        ("spin_iteration_cycles", 0), ("rmw_compute_cycles", -5),
        ("header_bytes", -100), ("page_bytes", 0),
    ])
    def test_bad_machine_size_is_a_spec_error(self, name, value):
        # A served spec override like this must fail once, as a spec
        # error, not as a retryable crash deep in validate or mid-run.
        with pytest.raises(ValueError, match=name) as info:
            config_for("CB-One", **{name: value})
        assert not is_retryable(info.value, classify_failure(info.value))


class TestBackoffDelay:
    def test_limit_zero_is_constant(self):
        cfg = SystemConfig(backoff_limit=0)
        delays = [cfg.backoff_delay(i) for i in range(5)]
        assert len(set(delays)) == 1

    def test_exponential_growth_until_limit(self):
        cfg = SystemConfig(backoff_limit=5, backoff_base=2)
        for attempt in range(5):
            assert cfg.backoff_delay(attempt + 1) == 2 * cfg.backoff_delay(attempt)

    def test_ceiling_after_limit(self):
        cfg = SystemConfig(backoff_limit=5, backoff_base=2)
        assert cfg.backoff_delay(5) == cfg.backoff_delay(50)

    def test_monotone_nondecreasing(self):
        cfg = SystemConfig(backoff_limit=10)
        delays = [cfg.backoff_delay(i) for i in range(20)]
        assert delays == sorted(delays)


class TestConfigFor:
    def test_all_paper_labels_resolve(self):
        for label in PAPER_CONFIGS:
            cfg = config_for(label, num_cores=16)
            assert cfg.label() == label

    def test_invalidation_is_mesi(self):
        assert config_for("Invalidation").protocol is Protocol.MESI

    def test_backoff_label_sets_limit(self):
        assert config_for("BackOff-7").backoff_limit == 7
        assert config_for("BackOff-7").protocol is Protocol.VIPS_BACKOFF

    def test_cb_modes(self):
        assert config_for("CB-All").callback_mode is CallbackMode.ALL
        assert config_for("CB-One").callback_mode is CallbackMode.ONE

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            config_for("MOESI")

    def test_overrides_pass_through(self):
        cfg = config_for("CB-One", num_cores=16, cb_entries_per_bank=64)
        assert cfg.num_cores == 16
        assert cfg.cb_entries_per_bank == 64


class TestMessageSizing:
    def test_flits_round_up(self):
        cfg = SystemConfig()
        assert cfg.flits_for(1) == 1
        assert cfg.flits_for(16) == 1
        assert cfg.flits_for(17) == 2
        assert cfg.flits_for(72) == 5

    def test_control_message_is_one_flit(self):
        assert SystemConfig().control_msg_flits == 1

    def test_line_message_bytes(self):
        cfg = SystemConfig()
        assert cfg.line_msg_bytes == 8 + 64
        assert cfg.word_msg_bytes == 8 + 8
