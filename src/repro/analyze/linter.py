"""The static encoding linter: Table-1 discipline over driven ops.

Each registered :class:`PrimitiveSpec` says how to build a primitive,
which generator methods make up its sessions (and their fence
obligations), and what the wake-up write of its spun-on words must look
like. :func:`lint_primitive` symbolically drives every session per
style under several :class:`~repro.analyze.symbolic.StubPolicy`
schedules (fast path, short spin, long spin, failing atomics) and runs
the rule checks of :mod:`repro.analyze.rules` over the recorded ops.

Workload generators are linted the same way (:func:`lint_workload`),
but as ``BODY`` sessions: op-level rules only, since a whole thread
body has no single fence obligation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.config import config_for
from repro.core.machine import Machine
from repro.core.thread import ThreadContext
from repro.protocols import ops
from repro.sync.base import SyncPrimitive, SyncStyle
from repro.sync.clh import CLHLock
from repro.sync.dissemination_barrier import DisseminationBarrier
from repro.sync.mcs import MCSLock
from repro.sync.rwlock import RWLock
from repro.sync.signal_wait import SignalWait
from repro.sync.sr_barrier import SRBarrier
from repro.sync.tas import TASLock
from repro.sync.ticket import TicketLock
from repro.sync.treesr_barrier import TreeSRBarrier
from repro.sync.ttas import TTASLock

from repro.analyze.findings import Finding, Report
from repro.analyze.rules import (CB_STYLES, RULES, SI_STYLES, SessionKind,
                                 WakeupDiscipline, legal_atomic_pair)
from repro.analyze.symbolic import (LintContext, LintLayout, OpRecord,
                                    SessionRun, StubPolicy, drive_session)

ALL_STYLES: Tuple[SyncStyle, ...] = tuple(SyncStyle)

#: (load spin rounds, atomic fail rounds) schedules the driver explores.
POLICY_ROUNDS: Tuple[Tuple[int, int], ...] = ((0, 0), (1, 1), (3, 3), (0, 2))

#: Style -> paper configuration label, for workload linting.
STYLE_LABELS: Dict[SyncStyle, str] = {
    SyncStyle.MESI: "Invalidation",
    SyncStyle.VIPS: "BackOff-10",
    SyncStyle.CB_ALL: "CB-All",
    SyncStyle.CB_ONE: "CB-One",
}


@dataclass(frozen=True)
class PrimitiveSpec:
    """How to lint one synchronization algorithm."""

    name: str
    factory: Callable[[SyncStyle, int], SyncPrimitive]
    #: (method name, fence obligation) driven in order, per thread.
    sessions: Tuple[Tuple[str, SessionKind], ...]
    #: What a releasing write to this primitive's wake words must be.
    discipline: WakeupDiscipline
    #: The spun-on words whose wake-up writes the discipline governs
    #: (None for single-waiter structures, which need no check).
    wake_addrs: Optional[Callable[[SyncPrimitive], Set[int]]] = None
    episodes: int = 2
    num_threads: int = 4


_LOCK = (("acquire", SessionKind.ENTER), ("release", SessionKind.EXIT))
_BARRIER = (("wait", SessionKind.FULL),)

PRIMITIVE_SPECS: Dict[str, PrimitiveSpec] = {spec.name: spec for spec in (
    PrimitiveSpec("tas", lambda s, n: TASLock(s), _LOCK,
                  WakeupDiscipline.ONE, lambda p: {p.addr}),
    PrimitiveSpec("ttas", lambda s, n: TTASLock(s), _LOCK,
                  WakeupDiscipline.ONE, lambda p: {p.addr}),
    PrimitiveSpec("ticket", lambda s, n: TicketLock(s), _LOCK,
                  WakeupDiscipline.BROADCAST,
                  lambda p: {p.now_serving_addr}),
    PrimitiveSpec("clh", lambda s, n: CLHLock(s), _LOCK,
                  WakeupDiscipline.SINGLE_WAITER),
    PrimitiveSpec("mcs", lambda s, n: MCSLock(s), _LOCK,
                  WakeupDiscipline.SINGLE_WAITER),
    PrimitiveSpec("rwlock", lambda s, n: RWLock(s),
                  (("acquire_read", SessionKind.ENTER),
                   ("release_read", SessionKind.EXIT),
                   ("acquire_write", SessionKind.ENTER),
                   ("release_write", SessionKind.EXIT)),
                  WakeupDiscipline.BROADCAST,
                  lambda p: {p.state_addr, p.writers_waiting_addr}),
    PrimitiveSpec("signal_wait", lambda s, n: SignalWait(s),
                  (("signal", SessionKind.EXIT),
                   ("wait", SessionKind.ENTER)),
                  WakeupDiscipline.ONE, lambda p: {p.counter_addr}),
    PrimitiveSpec("sr", lambda s, n: SRBarrier(s, n, lock=TTASLock(s)),
                  _BARRIER, WakeupDiscipline.BROADCAST,
                  lambda p: {p.sense_addr}),
    PrimitiveSpec("sr_atomic", lambda s, n: SRBarrier(s, n), _BARRIER,
                  WakeupDiscipline.BROADCAST, lambda p: {p.sense_addr}),
    PrimitiveSpec("treesr", lambda s, n: TreeSRBarrier(s, n), _BARRIER,
                  WakeupDiscipline.SINGLE_WAITER),
    PrimitiveSpec("dissemination",
                  lambda s, n: DisseminationBarrier(s, n), _BARRIER,
                  WakeupDiscipline.SINGLE_WAITER),
)}

#: The workload specs the CLI/CI lint by default (name, params).
DEFAULT_WORKLOADS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("lock", {"lock_name": "ttas", "iterations": 2}),
    ("lock", {"lock_name": "clh", "iterations": 2}),
    ("barrier", {"barrier_name": "sr", "episodes": 2}),
    ("barrier", {"barrier_name": "treesr", "episodes": 2}),
    ("barrier", {"barrier_name": "dissemination", "episodes": 2}),
    ("signal_wait", {"rounds": 2}),
    ("pipeline", {"items": 2}),
    ("task_queue", {"tasks": 3}),
    ("app", {"name": "fft", "scale": 0.1}),
)


# --------------------------------------------------------------- op views


def op_name(op: ops.Op) -> str:
    """The Table-1 spelling of an op, for finding messages."""
    if isinstance(op, ops.Atomic):
        return (f"Atomic[{op.kind.name.lower()} "
                f"{{{op.ld.value}}}&{{{op.st.value}}}]")
    if isinstance(op, ops.Fence):
        return f"Fence[{op.kind.value}]"
    return type(op).__name__


def _store_kind(op: ops.Op) -> Optional[ops.StKind]:
    """The StKind of a racy write op (None for everything else)."""
    if isinstance(op, (*ops.RACY_STORES, ops.Atomic)):
        return op.st
    return None


def _is_racy(op: ops.Op) -> bool:
    return isinstance(op, (ops.LoadThrough, ops.SpinThrough, ops.LoadCB,
                           *ops.RACY_STORES, ops.Atomic))


# ----------------------------------------------------------- rule engine


class _Checker:
    """Applies the rule catalog to the session runs of one (spec, style,
    policy) drive."""

    def __init__(self, spec: PrimitiveSpec, style: SyncStyle,
                 primitive: Optional[SyncPrimitive]) -> None:
        self.spec = spec
        self.style = style
        self.primitive = primitive
        self.findings: List[Finding] = []
        self.si = style in SI_STYLES
        self.cb = style in CB_STYLES
        # Cross-session state (one primitive instance).
        self.racy_addrs: Set[int] = set()
        self.spun_cb_addrs: Set[int] = set()
        self.writes: Dict[int, List[Tuple[SessionRun, OpRecord,
                                          ops.StKind]]] = {}
        self.plain: List[Tuple[SessionRun, OpRecord, int]] = []

    # ------------------------------------------------------------ emit

    def emit(self, rule_id: str, run: Optional[SessionRun],
             record: Optional[OpRecord], detail: str = "") -> None:
        rule = RULES[rule_id]
        message = rule.title
        if record is not None:
            message = f"{op_name(record.op)}: {message}"
        if detail:
            message = f"{message} ({detail})"
        self.findings.append(Finding(
            rule=rule_id, severity=rule.severity, message=message,
            primitive=run.primitive if run else self.spec.name,
            style=self.style.value,
            session=run.session if run else None,
            file=record.file if record else None,
            line=record.line if record else None,
        ))

    # --------------------------------------------------------- per run

    def check_run(self, run: SessionRun) -> None:
        probed: Set[int] = set()       # non-blockingly probed this session
        unguarded: Set[int] = set()    # E107 already reported (per addr)
        a202: Set[int] = set()
        a201 = False
        prev_op: Optional[ops.Op] = None
        for record in run.records:
            op = record.op
            if isinstance(op, ops.SpinUntil):
                if self.si:
                    self.emit("CB-E101", run, record)
            elif isinstance(op, ops.LoadThrough):
                if self.style is SyncStyle.MESI:
                    self.emit("CB-E103", run, record)
                self.racy_addrs.add(op.addr)
                if (self.style is SyncStyle.VIPS
                        and isinstance(prev_op, ops.LoadThrough)
                        and prev_op.addr == op.addr
                        and op.addr not in a202):
                    a202.add(op.addr)
                    self.emit("CB-A202", run, record)
                probed.add(op.addr)
            elif isinstance(op, ops.SpinThrough):
                if self.style is SyncStyle.MESI:
                    self.emit("CB-E103", run, record)
                elif self.cb and not a201:
                    a201 = True
                    self.emit("CB-A201", run, record)
                self.racy_addrs.add(op.addr)
                probed.add(op.addr)
            elif isinstance(op, ops.LoadCB):
                if not self.cb:
                    self.emit("CB-E102", run, record)
                else:
                    self.racy_addrs.add(op.addr)
                    self.spun_cb_addrs.add(op.addr)
                    self._check_guard(run, record, op.addr, probed,
                                      unguarded)
            elif isinstance(op, ops.RACY_STORES):
                if self.style is SyncStyle.MESI:
                    self.emit("CB-E103", run, record)
                elif not self.cb and op.st is not ops.StKind.CBA:
                    self.emit("CB-E102", run, record)
                self.racy_addrs.add(op.addr)
                self.writes.setdefault(op.addr, []).append(
                    (run, record, _store_kind(op)))
            elif isinstance(op, ops.Atomic):
                if not legal_atomic_pair(self.style, op.ld, op.st):
                    self.emit("CB-E102", run, record,
                              "callback halves need a callback directory")
                self.racy_addrs.add(op.addr)
                self.writes.setdefault(op.addr, []).append(
                    (run, record, op.st))
                if op.ld is ops.LdKind.CB:
                    self.spun_cb_addrs.add(op.addr)
                    self._check_guard(run, record, op.addr, probed,
                                      unguarded)
                else:
                    probed.add(op.addr)
            elif isinstance(op, ops.Fence):
                if self.style is SyncStyle.MESI:
                    self.emit("CB-E103", run, record)
            elif isinstance(op, ops.BackoffWait):
                if self.cb and not a201:
                    a201 = True
                    self.emit("CB-A201", run, record)
            elif isinstance(op, ops.Load):
                self.plain.append((run, record, op.addr))
            elif isinstance(op, ops.Store):
                self.plain.append((run, record, op.addr))
            prev_op = op
        self._check_fences(run)
        if run.truncated:
            self.emit("LINT-W001", run, run.records[-1] if run.records
                      else None)
        if run.error:
            self.emit("LINT-W002", run,
                      run.records[-1] if run.records else None, run.error)

    def _check_guard(self, run: SessionRun, record: OpRecord, addr: int,
                     probed: Set[int], unguarded: Set[int]) -> None:
        """CB-E107: a ld_cb must follow a non-blocking probe."""
        if addr not in probed and addr not in unguarded:
            unguarded.add(addr)
            self.emit("CB-E107", run, record)

    def _check_fences(self, run: SessionRun) -> None:
        """CB-E105/CB-E106 over one completed session."""
        if not self.si or run.truncated or run.error:
            return
        kind = SessionKind(run.kind)
        racy = [r for r in run.records if _is_racy(r.op)]
        if not racy:
            return
        if kind in (SessionKind.ENTER, SessionKind.FULL):
            has_invl = any(isinstance(r.op, ops.Fence)
                           and r.op.kind is ops.FenceKind.SELF_INVL
                           for r in run.records)
            if not has_invl:
                self.emit("CB-E105", run, racy[0])
        if kind in (SessionKind.EXIT, SessionKind.FULL):
            for record in run.records:
                if (isinstance(record.op, ops.Fence)
                        and record.op.kind is ops.FenceKind.SELF_DOWN):
                    break
                if _store_kind(record.op) is not None:
                    self.emit("CB-E106", run, record)
                    break

    # ------------------------------------------------------- aggregate

    def finish(self) -> List[Finding]:
        if self.si:
            for run, record, addr in self.plain:
                if addr in self.racy_addrs:
                    self.emit("CB-E104", run, record,
                              f"word {addr:#x} is accessed racily "
                              f"elsewhere in this encoding")
        if self.cb:
            self._check_dead_wakeups()
            self._check_discipline()
        return self.findings

    def _check_dead_wakeups(self) -> None:
        """CB-E110: a spun word whose only writes are st_cb0."""
        for addr in sorted(self.spun_cb_addrs):
            writes = self.writes.get(addr, [])
            kinds = {st for _, _, st in writes}
            if kinds and kinds <= {ops.StKind.CB0}:
                run, record, _ = writes[0]
                self.emit("CB-E110", run, record,
                          f"word {addr:#x} is ld_cb-spun")

    def _check_discipline(self) -> None:
        """CB-E108/CB-E109 over the primitive's wake-up words."""
        if self.spec.wake_addrs is None or self.primitive is None:
            return
        wake_addrs = self.spec.wake_addrs(self.primitive)
        for addr in sorted(wake_addrs):
            for run, record, st in self.writes.get(addr, []):
                if SessionKind(run.kind) not in (SessionKind.EXIT,
                                                 SessionKind.FULL):
                    continue
                if (self.spec.discipline is WakeupDiscipline.ONE
                        and self.style is SyncStyle.CB_ONE
                        and st is not ops.StKind.CB1):
                    self.emit("CB-E108", run, record)
                elif (self.spec.discipline is WakeupDiscipline.BROADCAST
                        and st is not ops.StKind.CBA):
                    self.emit("CB-E109", run, record)


# -------------------------------------------------------------- driving


def _dedup(findings: Iterable[Finding]) -> List[Finding]:
    seen: Dict[Tuple, Finding] = {}
    for finding in findings:
        key = (finding.rule, finding.file, finding.line, finding.session)
        seen.setdefault(key, finding)
    return list(seen.values())


def lint_primitive(spec: PrimitiveSpec, style: SyncStyle,
                   policy_rounds: Sequence[Tuple[int, int]] = POLICY_ROUNDS,
                   budget: int = 600) -> Report:
    """Lint one synchronization algorithm under one style."""
    collected: List[Finding] = []
    for load_rounds, atomic_rounds in policy_rounds:
        primitive = spec.factory(style, spec.num_threads)
        layout = LintLayout()
        primitive.setup(layout, spec.num_threads)
        policy = StubPolicy(spec.num_threads, load_rounds,
                            memory=dict(primitive.initial_values()),
                            atomic_rounds=atomic_rounds)
        checker = _Checker(spec, style, primitive)
        for _episode in range(spec.episodes):
            for tid in range(spec.num_threads):
                ctx = LintContext(tid, spec.num_threads)
                for method, kind in spec.sessions:
                    gen = getattr(primitive, method)(ctx)
                    policy.begin_session()
                    records, truncated, error = drive_session(gen, policy,
                                                              budget)
                    checker.check_run(SessionRun(
                        primitive=spec.name, style=style.value,
                        session=method, kind=kind.value, tid=tid,
                        policy=policy.name, records=records,
                        truncated=truncated, error=error))
        collected.extend(checker.finish())
    return Report(findings=_dedup(collected))


def lint_workload(name: str, params: Mapping[str, Any],
                  style: SyncStyle, budget: int = 4000) -> Report:
    """Lint one workload spec's thread bodies under one style.

    The workload builds against a real (never-run) 4-core machine so its
    primitives and regions get genuine layout addresses; the bodies are
    then driven symbolically like sync sessions, as ``BODY`` runs
    (op-level rules only).
    """
    from repro.orchestrate.registry import build_workload

    config = config_for(STYLE_LABELS[style], num_cores=4)
    machine = Machine(config)
    workload = build_workload(name, dict(params))
    bodies = workload.build(machine)
    memory = {index * config.word_bytes: value
              for index, value in machine.store.snapshot().items()}
    policy = StubPolicy(len(bodies), 0, memory=memory)
    label = workload.name
    spec = PrimitiveSpec(label, lambda s, n: None, (),
                         WakeupDiscipline.SINGLE_WAITER)
    checker = _Checker(spec, style, None)
    for tid, body in enumerate(bodies):
        ctx = ThreadContext(tid, config, machine.engine, machine.stats)
        policy.begin_session()
        records, truncated, error = drive_session(body(ctx), policy, budget)
        checker.check_run(SessionRun(
            primitive=label, style=style.value, session=f"body[{tid}]",
            kind=SessionKind.BODY.value, tid=tid, policy=policy.name,
            records=records, truncated=truncated, error=error))
    return Report(findings=_dedup(checker.finish()))


def lint_all(primitives: Optional[Sequence[str]] = None,
             styles: Sequence[SyncStyle] = ALL_STYLES,
             workloads: Optional[Sequence[Tuple[str, Mapping[str, Any]]]]
             = DEFAULT_WORKLOADS) -> Report:
    """Lint every registered encoding (and workload) under ``styles``."""
    report = Report()
    names = list(primitives) if primitives is not None \
        else list(PRIMITIVE_SPECS)
    for name in names:
        spec = PRIMITIVE_SPECS[name]
        for style in styles:
            report.merge(lint_primitive(spec, style))
    for name, params in (workloads or ()):
        for style in styles:
            report.merge(lint_workload(name, params, style))
    # Imported here, not at module top: coverage imports PRIMITIVE_SPECS
    # from this module.
    from repro.analyze.coverage import lint_spec_coverage
    report.merge(lint_spec_coverage())
    return report
