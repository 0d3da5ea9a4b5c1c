"""Model-checker tests: clean sweeps, the seeded-mutant gate,
counterexample replay through the real simulator structures,
determinism, state-space reductions, and the analyzer wiring
(rules, spec-coverage lint, CLI)."""

import json

import pytest

from repro.analyze import RULES, Severity, lint_spec_coverage
from repro.analyze.cli import main as analyze_main
from repro.analyze.mc import (MUTANTS, CheckConfig, ReplayError, check,
                              check_mutants, find_scenario,
                              replay_counterexample, scenario_catalog)

CFG = CheckConfig(max_states=100_000)


#: (states, transitions) of each clean-sweep scenario at ``CFG``.
SWEEP_PINS = {
    "mesi-handoff2": (7, 8),
    "mesi-mutex2": (6, 7),
    "vips-handoff2": (8, 9),
    "vips-mutex2": (7, 8),
    "callback-handoff2": (11, 14),
    "callback-mutex2": (11, 12),
    "vips-fence2": (12, 15),
    "callback-fence2": (15, 20),
    "callback-evict2": (11, 17),
    "mesi-handoff3": (12, 20),
    "mesi-mutex3": (9, 15),
    "vips-handoff3": (16, 27),
    "vips-mutex3": (13, 21),
    "callback-handoff3": (23, 45),
    "callback-mutex3": (27, 43),
    "vips-fence3": (35, 64),
    "callback-fence3": (43, 89),
    "callback-overflow3": (45, 90),
    "callback-evict3": (31, 72),
}


def _scenario_id(scenario):
    return f"{scenario.protocol}-{scenario.name}"


# ------------------------------------------------------------- clean sweep


@pytest.mark.parametrize("scenario", scenario_catalog((2, 3)),
                         ids=_scenario_id)
def test_clean_sweep(scenario):
    """Every catalog scenario verifies clean at 2 and 3 cores, over the
    pinned number of states and transitions."""
    result = check(scenario, config=CFG)
    assert result.ok, result.summary()
    assert not result.truncated
    assert result.states > 1
    assert result.counterexample is None
    assert ((result.states, result.transitions)
            == SWEEP_PINS[_scenario_id(scenario)])


def test_truncation_reported():
    scenario = find_scenario("callback", "mutex3")
    result = check(scenario, config=CheckConfig(max_states=3))
    assert result.truncated
    # A truncated clean run is still "ok" — the warning is the CLI's job.
    assert result.counterexample is None


# ------------------------------------------------------------ mutant gate


def test_mutant_gate():
    """Every seeded-bad table is flagged, for the pinned invariant, and
    its baseline scenario passes with the clean table."""
    outcomes = check_mutants(config=CFG)
    assert len(outcomes) == len(MUTANTS) == 5
    for outcome in outcomes:
        assert outcome.ok, (
            f"{outcome.mutant.name}: caught={outcome.caught} "
            f"invariant={outcome.invariant!r} "
            f"expected={outcome.expected!r} clean_ok={outcome.clean_ok}")
        assert outcome.result.counterexample is not None
        assert outcome.result.counterexample.steps


def test_mutants_cover_all_three_protocols():
    assert {m.protocol for m in MUTANTS} == {"mesi", "vips", "callback"}


# ----------------------------------------------------------------- replay


def test_counterexamples_replay_through_real_structures():
    """Each mutant counterexample, JSON round-tripped, re-executes
    through the real protocol data structures with per-step fingerprint
    parity (the acceptance-criterion assertion)."""
    for outcome in check_mutants(config=CFG):
        cex = outcome.result.counterexample
        payload = json.loads(cex.dumps())
        report = replay_counterexample(payload)
        assert report.steps == len(cex.steps)
        assert report.invariant == cex.invariant
        assert report.final_fingerprint == cex.steps[-1]["fingerprint"]


def test_replay_detects_divergence():
    """A tampered trace (wrong recorded fingerprint) must not replay."""
    mutant = next(m for m in MUTANTS if m.name == "cb_st1_wake_dropped")
    scenario = find_scenario(mutant.protocol, mutant.scenario)
    result = check(scenario, tables=mutant.tables(), config=CFG,
                   mutant=mutant.name)
    payload = json.loads(result.counterexample.dumps())
    payload["steps"][-1]["fingerprint"] = "0" * 16
    with pytest.raises(ReplayError):
        replay_counterexample(payload)


def test_replay_detects_tampered_actions():
    """Altering a recorded action (a different written value) diverges."""
    mutant = next(m for m in MUTANTS if m.name == "mesi_missing_inv")
    scenario = find_scenario(mutant.protocol, mutant.scenario)
    result = check(scenario, tables=mutant.tables(), config=CFG,
                   mutant=mutant.name)
    payload = json.loads(result.counterexample.dumps())
    tampered = False
    for step in payload["steps"]:
        for action in step["actions"]:
            if action[0] == "store_write":
                action[2] = action[2] + 41
                tampered = True
                break
        if tampered:
            break
    assert tampered, "expected a store_write action in the trace"
    with pytest.raises(ReplayError):
        replay_counterexample(payload)


# ------------------------------------------------------------ determinism


def test_counterexample_determinism():
    """Same scenario + mutant => byte-identical counterexample JSON and
    identical replay fingerprint across fresh checker runs."""
    mutant = next(m for m in MUTANTS if m.name == "cb_st1_wake_dropped")
    scenario = find_scenario(mutant.protocol, mutant.scenario)

    def run():
        result = check(scenario, tables=mutant.tables(), config=CFG,
                       mutant=mutant.name)
        assert result.counterexample is not None
        return result.counterexample

    first, second = run(), run()
    assert first.dumps() == second.dumps()
    replay_one = replay_counterexample(json.loads(first.dumps()))
    replay_two = replay_counterexample(json.loads(second.dumps()))
    assert replay_one.final_fingerprint == replay_two.final_fingerprint


# -------------------------------------------------------------- reductions


def test_symmetry_and_sleep_sets_preserve_verdicts():
    """The reduced exploration agrees with the unreduced one and never
    visits more states."""
    for protocol, name in (("mesi", "handoff3"), ("vips", "mutex3"),
                           ("callback", "handoff2")):
        scenario = find_scenario(protocol, name)
        full = check(scenario, config=CheckConfig(
            max_states=100_000, symmetry=False, sleep_sets=False))
        reduced = check(scenario, config=CFG)
        assert full.ok and reduced.ok
        assert reduced.states <= full.states, (protocol, name)


def test_reductions_preserve_mutant_detection():
    """Reductions must not mask bugs: the gate holds with them off."""
    mutant = next(m for m in MUTANTS if m.name == "mesi_missing_inv")
    scenario = find_scenario(mutant.protocol, mutant.scenario)
    result = check(scenario, tables=mutant.tables(),
                   config=CheckConfig(max_states=100_000, symmetry=False,
                                      sleep_sets=False),
                   mutant=mutant.name)
    assert not result.ok
    assert result.counterexample.invariant == mutant.expected_invariant


# --------------------------------------------------------- analyzer wiring


def test_mc_rules_registered():
    for rule_id in ("MC-E401", "MC-E402", "MC-E403"):
        assert RULES[rule_id].severity is Severity.ERROR
    assert RULES["MC-W401"].severity is Severity.WARNING
    # Spec-coverage rules sit in the A2xx namespace but are errors.
    for rule_id in ("CB-A210", "CB-A211"):
        assert RULES[rule_id].severity is Severity.ERROR


def test_spec_coverage_clean():
    assert lint_spec_coverage().ok


def test_spec_coverage_flags_missing_spec(monkeypatch):
    import repro.analyze.coverage as coverage
    monkeypatch.setattr(coverage, "REGISTERED_PRIMITIVES",
                        coverage.REGISTERED_PRIMITIVES + ("phantom_lock",))
    report = coverage.lint_spec_coverage()
    assert not report.ok
    assert any(f.rule == "CB-A210" and f.primitive == "phantom_lock"
               for f in report)


def test_spec_coverage_flags_missing_table(monkeypatch):
    import repro.analyze.coverage as coverage
    monkeypatch.setitem(coverage.PROTOCOL_REGISTRY, "phantomproto",
                        (None, None))
    report = coverage.lint_spec_coverage()
    assert not report.ok
    assert any(f.rule == "CB-A211" and f.primitive == "phantomproto"
               for f in report)


# -------------------------------------------------------------------- CLI


def test_cli_mc_sweep(tmp_path, capsys):
    out = tmp_path / "mc.json"
    code = analyze_main(["mc", "--protocol", "mesi", "--cores", "2",
                         "--json", "--out", str(out)])
    assert code == 0
    findings = json.loads(out.read_text())
    assert findings["findings"] == []


def test_cli_mc_mutants_and_replay(tmp_path, capsys):
    cex_dir = tmp_path / "cex"
    code = analyze_main(["mc", "--mutants", "--verify-replay",
                         "--cex-dir", str(cex_dir), "--json",
                         "--out", str(tmp_path / "gate.json")])
    assert code == 0
    dumped = sorted(p.name for p in cex_dir.iterdir())
    assert len(dumped) == len(MUTANTS)
    # Each dumped counterexample replays standalone via the CLI too.
    code = analyze_main(["mc", "--replay", str(cex_dir / dumped[0])])
    assert code == 0
    assert "replayed" in capsys.readouterr().out


def test_cli_mc_replay_divergence_exits_nonzero(tmp_path, capsys):
    mutant = next(m for m in MUTANTS if m.name == "cb_drop_wake_on_evict")
    scenario = find_scenario(mutant.protocol, mutant.scenario)
    result = check(scenario, tables=mutant.tables(), config=CFG,
                   mutant=mutant.name)
    payload = json.loads(result.counterexample.dumps())
    payload["steps"][-1]["fingerprint"] = "f" * 16
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = analyze_main(["mc", "--replay", str(path)])
    assert code == 1
    assert "MC-E403" in capsys.readouterr().out
