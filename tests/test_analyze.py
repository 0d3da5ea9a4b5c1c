"""repro.analyze: the Table-1 encoding linter, the AST never-yielded
pass, and the happens-before race sanitizer."""

import json

import pytest

from repro.analyze import (DEFAULT_WORKLOADS, PRIMITIVE_SPECS, RULES,
                           HBEngine, RaceMonitor, Severity, analyze_trace,
                           lint_primitive, lint_workload)
from repro.analyze import astlint
from repro.analyze.cli import main as cli_main
from repro.analyze.fixtures import AST_EXPECTED, FIXTURES, check_fixtures
from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.analyze.linter import PrimitiveSpec
from repro.analyze.rules import SessionKind, WakeupDiscipline
from repro.sync.base import SyncPrimitive, SyncStyle
from repro.trace.recorder import TraceEvent

ALL_STYLES = tuple(SyncStyle)


def _ev(time, core, kind, addr, detail=None):
    return TraceEvent(time=time, core=core, kind=kind, addr=addr,
                      detail=detail)


# ----------------------------------------------------------------- rules


class TestRules:
    # Spec-coverage rules keep their historical A2xx numbering but are
    # promoted to ERROR: a registered artifact with no analysis
    # counterpart escapes every checker (see repro.analyze.coverage).
    PROMOTED_TO_ERROR = ("CB-A210", "CB-A211")

    def test_catalog_prefixes_match_severity(self):
        for rule in RULES.values():
            assert rule.id and rule.title and rule.description
            if rule.id in self.PROMOTED_TO_ERROR:
                assert rule.severity is Severity.ERROR, rule.id
            elif "-E" in rule.id:
                assert rule.severity is Severity.ERROR, rule.id
            elif "-A" in rule.id:
                assert rule.severity is Severity.ADVICE, rule.id
            elif "-W" in rule.id:
                assert rule.severity is Severity.WARNING, rule.id

    def test_catalog_covers_linter_and_sanitizer(self):
        for rule_id in ("CB-E101", "CB-E107", "CB-E110", "AST-E301",
                        "RACE-E001", "RACE-A001"):
            assert rule_id in RULES


# ---------------------------------------------------------------- linter


class _SpinFlag(SyncPrimitive):
    """Waits for a flag with ``op`` (SpinThrough unless told otherwise),
    optionally re-reading it with a plain load."""

    def __init__(self, style, op, plain_reread):
        super().__init__(style)
        self.op = op
        self.plain_reread = plain_reread
        self.addr = -1

    def setup(self, layout, num_threads):
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx):
        yield self.op(self.addr, lambda v: v != 0)
        if self.style is not SyncStyle.MESI:
            yield ops.Fence(ops.FenceKind.SELF_INVL)
        if self.plain_reread:
            yield ops.Load(self.addr)

    def release(self, ctx):
        if self.style is SyncStyle.MESI:
            yield ops.Store(self.addr, 1)
        else:
            yield ops.Fence(ops.FenceKind.SELF_DOWN)
            yield ops.StoreThrough(self.addr, 1)


def _spin_flag_spec(op=ops.SpinThrough, plain_reread=False):
    return PrimitiveSpec(
        "spin_flag", lambda style, n: _SpinFlag(style, op, plain_reread),
        (("acquire", SessionKind.ENTER), ("release", SessionKind.EXIT)),
        WakeupDiscipline.SINGLE_WAITER)



class TestLinter:
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_SPECS))
    @pytest.mark.parametrize("style", ALL_STYLES,
                             ids=[s.value for s in ALL_STYLES])
    def test_every_shipped_encoding_lints_clean(self, name, style):
        """Acceptance: all encodings x all four styles, zero errors."""
        report = lint_primitive(PRIMITIVE_SPECS[name], style)
        assert not report.errors(), "\n".join(
            f.brief() for f in report.errors())
        # The symbolic drive must have completed, not bailed.
        assert not report.warnings(), "\n".join(
            f.brief() for f in report.warnings())

    def test_default_workload_bodies_lint_clean(self):
        for wl_name, params in DEFAULT_WORKLOADS:
            for style in ALL_STYLES:
                report = lint_workload(wl_name, params, style)
                assert not report.errors(), (wl_name, style, "\n".join(
                    f.brief() for f in report.errors()))

    @pytest.mark.parametrize("style,errors,advice", [
        (SyncStyle.MESI, {"CB-E103"}, set()),
        (SyncStyle.VIPS, set(), set()),
        (SyncStyle.CB_ALL, set(), {"CB-A201"}),
        (SyncStyle.CB_ONE, set(), {"CB-A201"}),
    ], ids=lambda v: v.value if isinstance(v, SyncStyle) else None)
    def test_spin_through_rules(self, style, errors, advice):
        """SpinThrough is VIPS's spin: a through-op under MESI, a
        back-off loop under callbacks."""
        report = lint_primitive(_spin_flag_spec(), style)
        assert {f.rule for f in report.errors()} == errors
        assert {f.rule for f in report.findings
                if f.severity is Severity.ADVICE} == advice

    def test_spin_through_marks_its_word_racy(self):
        report = lint_primitive(_spin_flag_spec(plain_reread=True),
                                SyncStyle.VIPS)
        assert {f.rule for f in report.errors()} == {"CB-E104"}

    def test_spin_until_under_self_invalidation_is_still_e101(self):
        report = lint_primitive(_spin_flag_spec(op=ops.SpinUntil),
                                SyncStyle.VIPS)
        assert "CB-E101" in {f.rule for f in report.errors()}

    def test_findings_round_trip_json(self):
        from repro.analyze.findings import Report
        spec = FIXTURES["plain_spin"].spec
        report = lint_primitive(spec, SyncStyle.CB_ONE)
        assert report.errors()
        again = Report.from_json(report.to_json())
        assert [f.to_dict() for f in again] == [f.to_dict() for f in report]


# -------------------------------------------------------------- fixtures


class TestFixtures:
    def test_every_seeded_bug_is_caught_exactly(self):
        """Acceptance: each fixture flagged with the right rule ID and
        op location, and nothing beyond the seeded bugs fires."""
        assert check_fixtures() == []

    def test_findings_name_the_offending_op_and_style(self):
        case = FIXTURES["plain_spin"]
        report = lint_primitive(case.spec, SyncStyle.CB_ONE)
        errors = report.errors()
        assert errors
        for finding in errors:
            assert finding.rule == "CB-E104"
            assert finding.style == "cb_one"
            assert finding.primitive == case.spec.name
            assert finding.file and finding.file.endswith("fixtures.py")
            assert finding.line and finding.line > 0
            assert "Load" in finding.message or "Store" in finding.message

    def test_fixtures_are_style_conditional(self):
        """The seeded bugs are encoding bugs: under styles where the
        construct is legal, the same fixture lints clean."""
        for case in FIXTURES.values():
            for style in ALL_STYLES:
                expected = case.expected.get(style, frozenset())
                report = lint_primitive(case.spec, style)
                got = {f.rule for f in report.errors()}
                assert got == set(expected), (case.name, style)


# ---------------------------------------------------------------- astlint


class TestAstLint:
    def test_dropped_op_is_flagged_with_line(self):
        source = ("def release(self, ctx):\n"
                  "    yield Fence(FenceKind.SELF_DOWN)\n"
                  "    StoreThrough(self.addr, 0)\n")
        findings = astlint.check_source(source, "snippet.py")
        assert len(findings) == 1
        assert findings[0].rule == "AST-E301"
        assert findings[0].line == 3
        assert "StoreThrough" in findings[0].message

    def test_yielded_and_assigned_ops_are_clean(self):
        source = ("def acquire(self, ctx):\n"
                  "    op = Atomic(self.addr, AtomicKind.TAS, (0, 1))\n"
                  "    yield op\n"
                  "    yield LoadCB(self.addr)\n")
        assert astlint.check_source(source, "snippet.py") == []

    def test_shipped_encodings_have_no_dropped_ops(self):
        report = astlint.lint_default()
        assert len(report) == 0, "\n".join(f.brief() for f in report)

    def test_fixture_file_carries_the_one_seeded_drop(self):
        from repro.analyze import fixtures as fixture_mod
        findings = astlint.check_file(fixture_mod.__file__)
        assert tuple(f.rule for f in findings) == AST_EXPECTED


# ------------------------------------------------------------- HB engine


class TestHBEngine:
    def test_release_acquire_handoff_is_clean(self):
        data, flag = 0x100, 0x200
        events = [
            _ev(0, 0, "st", data),          # plain write under the flag
            _ev(10, 0, "st_through", flag),  # release
            _ev(20, 1, "ld_through", flag),  # acquire (deferred)
            _ev(30, 1, "ld", data),          # drained here: ordered
        ]
        report = analyze_trace(events, style="cb_one")
        assert report.ok, report.summary()

    def test_unannotated_race_reports_witness(self):
        events = [
            _ev(0, 0, "st", 0x100),
            _ev(5, 1, "ld", 0x100),
        ]
        report = analyze_trace(events, style="cb_one")
        errors = report.errors()
        assert len(errors) == 1
        finding = errors[0]
        assert finding.rule == "RACE-E001"
        assert finding.addr == 0x100
        assert finding.witness["prior"]["core"] == 0
        assert finding.witness["current"]["core"] == 1
        assert "clock" in finding.witness

    def test_racy_read_vs_plain_write_races(self):
        events = [
            _ev(0, 0, "st", 0x100),
            _ev(5, 1, "ld_through", 0x100),
        ]
        report = analyze_trace(events, style="cb_one")
        assert {f.rule for f in report.errors()} == {"RACE-E001"}

    def test_acquire_defers_past_later_issued_release(self):
        """The crux: a parked ld_cb *issues* before the releasing write
        but *completes* after it. Issue-order HB must not flag the
        post-wake plain read."""
        data, flag = 0x100, 0x200
        events = [
            _ev(5, 1, "ld_cb", flag),        # parks in the directory
            _ev(10, 0, "st", data),          # owner writes data...
            _ev(20, 0, "st_cb1", flag),      # ...then wakes the waiter
            _ev(30, 1, "ld", data),          # acquire drains here
        ]
        report = analyze_trace(events, style="cb_one")
        assert report.ok, report.summary()

    def test_atomic_halves_carry_the_lock_handoff(self):
        lock, data = 0x200, 0x100
        tas = ["TAS", "PLAIN", "CBA", [0, 1]]

        def atomic(time, core):
            return [
                _ev(time, core, "atomic", lock, detail=tas),
                _ev(time, core, "atomic.ld", lock, detail=["PLAIN"]),
                _ev(time, core, "atomic.st", lock, detail=["CBA"]),
            ]

        events = (atomic(0, 0)
                  + [_ev(5, 0, "st", data), _ev(10, 0, "st_through", lock)]
                  + atomic(20, 1)
                  + [_ev(30, 1, "ld", data)])
        report = analyze_trace(events, style="cb_one")
        assert report.ok, report.summary()

    def test_single_core_annotation_is_an_advisory_not_an_error(self):
        events = [_ev(0, 0, "st_through", 0x300),
                  _ev(5, 0, "ld_through", 0x300)]
        report = analyze_trace(events, style="cb_one")
        assert report.ok
        advisories = report.advisories()
        assert len(advisories) == 1
        assert advisories[0].rule == "RACE-A001"
        assert advisories[0].addr == 0x300

    def test_mesi_sync_lines_exempt_plain_racing(self):
        data, flag = 0x100, 0x200
        events = [
            _ev(0, 0, "st", data),
            _ev(10, 0, "st", flag),   # plain release on the sync line
            _ev(20, 1, "ld", flag),   # plain acquire
            _ev(30, 1, "ld", data),
        ]
        clean = analyze_trace(events, style="mesi", sync_lines=[0x200])
        assert clean.ok, clean.summary()
        # Without the layout's sync-line knowledge the same trace is a
        # genuine unannotated race on both words.
        dirty = analyze_trace(events, style="mesi")
        assert not dirty.ok

    def test_mesi_promotes_spun_words_from_the_trace(self):
        data, flag = 0x100, 0x200
        events = [
            _ev(0, 0, "st", data),
            _ev(10, 0, "st", flag),
            _ev(15, 1, "spin", flag),  # marks flag as a sync word
            _ev(30, 1, "ld", data),
        ]
        report = analyze_trace(events, style="mesi")
        assert report.ok, report.summary()

    def test_wake_events_drain_the_parked_acquire(self):
        data, flag = 0x100, 0x200
        events = [
            _ev(5, 1, "ld_cb", flag),
            _ev(10, 0, "st", data),
            _ev(20, 0, "st_cb1", flag),
            _ev(30, 1, "ld", data),
        ]
        wakes = [_ev(25, 1, "cb.wake", flag)]
        engine = HBEngine(style="cb_one")
        report = engine.process(events, wakes=wakes)
        assert report.ok, report.summary()
        assert engine.stats["acquires"] >= 1

    def test_duplicate_races_are_reported_once(self):
        events = [_ev(0, 0, "st", 0x100)]
        events += [_ev(5 + i, 1, "ld", 0x100) for i in range(4)]
        report = analyze_trace(events, style="cb_one")
        assert len(report.errors()) == 1


# ----------------------------------------------------------- RaceMonitor


class TestRaceMonitor:
    def test_clean_lock_run_has_no_errors(self):
        from repro.sync import make_lock, style_for
        cfg = config_for("CB-One", num_cores=4)
        machine = Machine(cfg)
        lock = make_lock("tas", style_for(cfg))
        lock.setup(machine.layout, 4)
        for addr, value in lock.initial_values().items():
            machine.store.write(addr, value)

        def body(ctx):
            for _ in range(2):
                yield from lock.acquire(ctx)
                yield ops.Compute(5)
                yield from lock.release(ctx)

        monitor = RaceMonitor(machine)
        machine.spawn([body] * 4)
        machine.run()
        report = monitor.finish()
        assert not report.errors(), "\n".join(
            f.brief() for f in report.errors())

    def test_detects_an_unsynchronized_plain_race(self):
        cfg = config_for("Invalidation", num_cores=4)
        machine = Machine(cfg)
        addr = 0x4000  # never layout-allocated as a sync word

        def writer(ctx):
            yield ops.Store(addr, 1)
            yield ops.Compute(5)

        def reader(ctx):
            yield ops.Compute(1)
            yield ops.Load(addr)

        monitor = RaceMonitor(machine)
        machine.spawn([writer, reader])
        machine.run()
        report = monitor.finish()
        assert {f.rule for f in report.errors()} == {"RACE-E001"}
        assert all(f.addr == addr for f in report.errors())


# ------------------------------------------------------------------- CLI


class TestCLI:
    def test_lint_fixtures_gate_passes(self, capsys):
        assert cli_main(["lint", "--fixtures"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lint_subset_exits_zero(self, capsys):
        code = cli_main(["lint", "--primitive", "tas", "--style", "cb_one",
                         "--no-workloads", "--no-ast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0

    def test_lint_rejects_unknown_primitive(self):
        with pytest.raises(SystemExit):
            cli_main(["lint", "--primitive", "nope", "--no-workloads"])

    def test_race_simulated_workload_exits_zero(self, capsys):
        code = cli_main(["race", "--workload", "lock:tas",
                         "--config", "CB-One", "--cores", "4"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_race_on_racy_trace_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "ops.jsonl"
        with trace.open("w") as handle:
            for event in (_ev(0, 0, "st", 0x100), _ev(5, 1, "ld", 0x100)):
                handle.write(json.dumps({
                    "time": event.time, "core": event.core,
                    "kind": event.kind, "addr": event.addr,
                    "weight": event.weight, "detail": event.detail,
                }) + "\n")
        out = tmp_path / "race.json"
        code = cli_main(["race", "--trace", str(trace),
                         "--style", "cb_one", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "RACE-E001"

    def test_report_merges_archived_findings(self, tmp_path, capsys):
        lint_out = tmp_path / "lint.json"
        assert cli_main(["lint", "--primitive", "tas", "--style", "cb_one",
                         "--no-workloads", "--no-ast",
                         "--out", str(lint_out)]) == 0
        assert cli_main(["report", str(lint_out)]) == 0
        capsys.readouterr()
