"""Extension experiment functions (scaling, power, tuning, contention)."""

from repro.harness.extensions import (backoff_tuning, link_contention,
                                      power_saving, scaling)


class TestScaling:
    def test_structure(self):
        out = scaling(core_counts=(4, 16), app="swaptions", scale=0.2,
                      configs=("Invalidation", "CB-One"), verbose=False)
        assert set(out) == {4, 16}
        for per_config in out.values():
            assert set(per_config) == {"Invalidation", "CB-One"}
            for row in per_config.values():
                assert row["cycles"] > 0 and row["traffic"] > 0

    def test_traffic_grows_with_cores(self):
        out = scaling(core_counts=(4, 16), app="swaptions", scale=0.2,
                      configs=("CB-One",), verbose=False)
        assert out[16]["CB-One"]["traffic"] > out[4]["CB-One"]["traffic"]


class TestPowerSaving:
    def test_structure_and_shape(self):
        out = power_saving(num_cores=4, episodes=3, skew_cycles=800,
                           verbose=False)
        assert set(out) == {"Invalidation", "BackOff-10", "CB-All"}
        assert out["CB-All"]["sleepable_frac"] > 0
        assert out["Invalidation"]["sleepable_frac"] == 0


class TestBackoffTuning:
    def test_rows_and_callback_row(self):
        out = backoff_tuning(num_cores=4, iterations=2, bases=(2,),
                             limits=(0, 5), verbose=False)
        assert "CB-One (untuned)" in out
        assert "base=2,limit=0" in out
        assert "base=2,limit=5" in out
        for row in out.values():
            assert row["cycles"] > 0


class TestLinkContention:
    def test_contention_rows_present(self):
        out = link_contention(num_cores=4, iterations=2,
                              configs=("CB-One",), verbose=False)
        assert set(out) == {"CB-One", "CB-One/link-contention"}
        assert (out["CB-One/link-contention"]["cycles"]
                >= out["CB-One"]["cycles"] * 0.99)


class TestVerboseOutput:
    def test_tables_print(self, capsys):
        power_saving(num_cores=4, episodes=2, skew_cycles=200, verbose=True)
        out = capsys.readouterr().out
        assert "power saving" in out
        assert "sleepable_frac" in out
