"""Machine-checkable paper claims: no claim may FAIL on a reduced run."""

import pytest

from repro.harness import experiments
from repro.harness.expectations import (FIG21_TRAFFIC_CLAIMS, Claim,
                                        Verdict, evaluate_fig21,
                                        evaluate_fig22, failures, report)


class TestClaimMechanics:
    def test_pass_within_band(self):
        claim = Claim("x", "anchor", lambda row: row["a"] / row["b"],
                      band=0.8)
        result = claim.judge({"a": 0.7, "b": 1.0})
        assert result.verdict is Verdict.PASS

    def test_attenuated_between_band_and_one(self):
        claim = Claim("x", "anchor", lambda row: row["a"] / row["b"],
                      band=0.8)
        result = claim.judge({"a": 0.9, "b": 1.0})
        assert result.verdict is Verdict.ATTENUATED

    def test_fail_when_direction_reverses(self):
        claim = Claim("x", "anchor", lambda row: row["a"] / row["b"],
                      band=0.8)
        result = claim.judge({"a": 1.2, "b": 1.0})
        assert result.verdict is Verdict.FAIL

    def test_report_mentions_anchor(self):
        claim = Claim("traffic", "-27%", lambda row: 0.5, band=0.8)
        text = report([claim.judge({})])
        assert "-27%" in text and "PASS" in text


class TestAgainstMeasuredSuite:
    """Run a reduced suite and hold every claim to at least direction."""

    @pytest.fixture(scope="class")
    def fig21_rows(self):
        out = experiments.fig21(
            num_cores=16, scale=0.25, verbose=False,
            configs=("Invalidation", "BackOff-0", "BackOff-10",
                     "BackOff-15", "CB-One"),
            apps=["barnes", "raytrace", "streamcluster", "lu",
                  "fluidanimate", "swaptions"],
        )
        return out["time"]["geomean"], out["traffic"]["geomean"]

    def test_no_fig21_claim_fails(self, fig21_rows):
        time_gm, traffic_gm = fig21_rows
        results = evaluate_fig21(time_gm, traffic_gm)
        assert failures(results) == [], "\n" + report(results)

    def test_traffic_claims_fully_pass(self, fig21_rows):
        """The traffic axis is the paper's strongest result and must PASS
        outright, not merely hold direction."""
        _time, traffic_gm = fig21_rows
        for claim in FIG21_TRAFFIC_CLAIMS:
            result = claim.judge(traffic_gm)
            assert result.verdict is Verdict.PASS, str(result)

    def test_fig22_claims(self, fig21_rows):
        out = experiments.fig22(
            num_cores=16, scale=0.25, verbose=False,
            configs=("Invalidation", "BackOff-10", "CB-One"),
            apps=["barnes", "raytrace", "streamcluster", "fluidanimate"],
        )
        results = evaluate_fig22(out["energy"])
        assert failures(results) == [], "\n" + report(results)
