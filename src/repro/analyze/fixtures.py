"""Deliberately broken encodings: the linter's negative test corpus.

Every class here contains exactly one seeded Table-1 violation, with the
rest of the encoding written correctly, so each fixture pins down one
rule: the linter must report *exactly* the expected rule IDs for each
style, anchored to an op inside this file. :func:`check_fixtures` runs
that assertion (the ``repro-analyze lint --fixtures`` mode and the test
suite both use it).

These classes must never be registered in ``repro.sync.registry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping

from repro.protocols.ops import (Atomic, AtomicKind, BackoffWait, Fence,
                                 FenceKind, LdKind, Load, LoadCB,
                                 LoadThrough, SpinThrough, SpinUntil, StKind,
                                 Store, StoreCB1, StoreThrough)
from repro.sync.base import SyncPrimitive, SyncStyle

from repro.analyze.linter import (ALL_STYLES, PrimitiveSpec, _LOCK,
                                  lint_primitive)
from repro.analyze.rules import SessionKind, WakeupDiscipline

#: An encoding session body: yields memory ops, receives their results.
OpGen = Generator[Any, Any, None]


class PlainSpinLock(SyncPrimitive):
    """BUG: spins on a *plain* load of the lock word (CB-E104).

    Under VIPS/callback there is no invalidation: the plain load hits
    the stale L1 copy forever. Only the MESI column may spin plainly.
    """

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.addr = -1

    def setup(self, layout: Any, num_threads: int) -> None:
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx: Any) -> OpGen:
        self._require_ready()
        st = StKind.CB0 if self.style is SyncStyle.CB_ONE else StKind.CBA
        while True:
            value = yield Load(self.addr)     # BUG: plain load spin
            if value != 0:
                continue
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                  ld=LdKind.PLAIN, st=st)
            if result.success:
                break
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_INVL)

    def release(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            yield Store(self.addr, 0)
        else:
            yield Fence(FenceKind.SELF_DOWN)
            if self.style is SyncStyle.CB_ONE:
                yield StoreCB1(self.addr, 0)
            else:
                yield StoreThrough(self.addr, 0)


class NoFenceLock(SyncPrimitive):
    """BUG: a T&S lock without self_invl/self_down (CB-E105, CB-E106).

    Without ``self_invl`` after the acquire the critical section reads
    stale L1 data; without ``self_down`` before the releasing write the
    protected writes may still sit dirty in the L1.
    """

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.addr = -1

    def setup(self, layout: Any, num_threads: int) -> None:
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                pass
        elif self.style is SyncStyle.VIPS:
            attempt = 0
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                yield BackoffWait(attempt)
                attempt += 1
            # BUG: missing Fence(SELF_INVL)
        else:
            st = StKind.CB0 if self.style is SyncStyle.CB_ONE else StKind.CBA
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                  ld=LdKind.PLAIN, st=st)
            while not result.success:
                result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                      ld=LdKind.CB, st=st)
            # BUG: missing Fence(SELF_INVL)

    def release(self, ctx: Any) -> OpGen:
        self._require_ready()
        # BUG: no Fence(SELF_DOWN) before the releasing write.
        if self.style is SyncStyle.MESI:
            yield Store(self.addr, 0)
        elif self.style is SyncStyle.CB_ONE:
            yield StoreCB1(self.addr, 0)
        else:
            yield StoreThrough(self.addr, 0)


class BroadcastSignal(SyncPrimitive):
    """BUG: a one-waiter wake-up written with st_through (CB-E108).

    Each post wakes exactly one waiter, so under callback-one the figure
    specifies ``write_CB1``; broadcasting with st_cbA re-runs every
    parked waiter for nothing.
    """

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.flag_addr = -1

    def setup(self, layout: Any, num_threads: int) -> None:
        self.flag_addr = layout.alloc_sync_word()
        self._ready = True

    def initial_values(self) -> dict:
        return {self.flag_addr: 0}

    def signal(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            yield Atomic(self.flag_addr, AtomicKind.FETCH_ADD, (1,))
            return
        yield Fence(FenceKind.SELF_DOWN)
        # BUG (callback-one): should be a {ld}&{st_cb1} increment.
        yield Atomic(self.flag_addr, AtomicKind.FETCH_ADD, (1,),
                     ld=LdKind.PLAIN, st=StKind.CBA)

    def wait(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            while True:
                yield SpinUntil(self.flag_addr, lambda v: v != 0)
                result = yield Atomic(self.flag_addr, AtomicKind.TDEC)
                if result.success:
                    return
        if self.style is SyncStyle.VIPS:
            while True:
                yield SpinThrough(self.flag_addr, lambda v: v != 0)
                result = yield Atomic(self.flag_addr, AtomicKind.TDEC)
                if result.success:
                    break
            yield Fence(FenceKind.SELF_INVL)
            return
        value = yield LoadThrough(self.flag_addr)
        while True:
            if value != 0:
                result = yield Atomic(self.flag_addr, AtomicKind.TDEC,
                                      ld=LdKind.PLAIN, st=StKind.CB0)
                if result.success:
                    break
            value = yield LoadCB(self.flag_addr)
        yield Fence(FenceKind.SELF_INVL)


class UnguardedCBLock(SyncPrimitive):
    """BUG: the callback spin has no non-blocking guard probe (CB-E107).

    Figures 9/10 always open with a through-op or plain-load atomic:
    going straight to ``ld_cb`` parks the core even when the word is
    already in the wanted state, costing a pointless directory entry
    (and, for atomics, the Section 3.3 forward-progress guard).
    """

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.addr = -1

    def setup(self, layout: Any, num_threads: int) -> None:
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                yield SpinUntil(self.addr, lambda v: v == 0)
            return
        if self.style is SyncStyle.VIPS:
            attempt = 0
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                yield BackoffWait(attempt)
                attempt += 1
            yield Fence(FenceKind.SELF_INVL)
            return
        st = StKind.CB0 if self.style is SyncStyle.CB_ONE else StKind.CBA
        while True:
            value = yield LoadCB(self.addr)   # BUG: no guard probe first
            if value != 0:
                continue
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                  ld=LdKind.PLAIN, st=st)
            if result.success:
                break
        yield Fence(FenceKind.SELF_INVL)

    def release(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            yield Store(self.addr, 0)
            return
        yield Fence(FenceKind.SELF_DOWN)
        if self.style is SyncStyle.CB_ONE:
            yield StoreCB1(self.addr, 0)
        else:
            yield StoreThrough(self.addr, 0)


class DroppedWakeupLock(SyncPrimitive):
    """BUG: the releasing store is built but never yielded (AST-E301).

    The op object is constructed and dropped, so the simulated release
    writes nothing: the spun word's only remaining write is the claiming
    ``st_cb0``, which services no callbacks — every waiter parks forever
    (the drive surfaces that as CB-E110).
    """

    def __init__(self, style: SyncStyle) -> None:
        super().__init__(style)
        self.addr = -1

    def setup(self, layout: Any, num_threads: int) -> None:
        self.addr = layout.alloc_sync_word()
        self._ready = True

    def acquire(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is SyncStyle.MESI:
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                yield SpinUntil(self.addr, lambda v: v == 0)
            return
        if self.style is SyncStyle.VIPS:
            attempt = 0
            while not (yield Atomic(self.addr, AtomicKind.TAS,
                                    (0, 1))).success:
                yield BackoffWait(attempt)
                attempt += 1
            yield Fence(FenceKind.SELF_INVL)
            return
        result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                              ld=LdKind.PLAIN, st=StKind.CB0)
        while not result.success:
            result = yield Atomic(self.addr, AtomicKind.TAS, (0, 1),
                                  ld=LdKind.CB, st=StKind.CB0)
        yield Fence(FenceKind.SELF_INVL)

    def release(self, ctx: Any) -> OpGen:
        self._require_ready()
        if self.style is not SyncStyle.MESI:
            yield Fence(FenceKind.SELF_DOWN)
        # BUG: constructed but never yielded — the wake-up write vanishes.
        StoreThrough(self.addr, 0)


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class FixtureCase:
    """One broken encoding plus exactly what the linter must say."""

    spec: PrimitiveSpec
    #: Rule IDs the static drive must report, per style (exact match).
    expected: Mapping[SyncStyle, frozenset] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.spec.name


def _case(spec: PrimitiveSpec, **by_style: frozenset) -> FixtureCase:
    expected = {style: by_style.get(style.name.lower(), frozenset())
                for style in ALL_STYLES}
    return FixtureCase(spec=spec, expected=expected)


_SIGNAL_SESSIONS = (("signal", SessionKind.EXIT),
                    ("wait", SessionKind.ENTER))

FIXTURES: Dict[str, FixtureCase] = {case.name: case for case in (
    _case(PrimitiveSpec("plain_spin", lambda s, n: PlainSpinLock(s),
                        _LOCK, WakeupDiscipline.SINGLE_WAITER),
          vips=frozenset({"CB-E104"}),
          cb_all=frozenset({"CB-E104"}),
          cb_one=frozenset({"CB-E104"})),
    _case(PrimitiveSpec("no_fence", lambda s, n: NoFenceLock(s),
                        _LOCK, WakeupDiscipline.SINGLE_WAITER),
          vips=frozenset({"CB-E105", "CB-E106"}),
          cb_all=frozenset({"CB-E105", "CB-E106"}),
          cb_one=frozenset({"CB-E105", "CB-E106"})),
    _case(PrimitiveSpec("broadcast_signal",
                        lambda s, n: BroadcastSignal(s), _SIGNAL_SESSIONS,
                        WakeupDiscipline.ONE, lambda p: {p.flag_addr}),
          cb_one=frozenset({"CB-E108"})),
    _case(PrimitiveSpec("unguarded_cb", lambda s, n: UnguardedCBLock(s),
                        _LOCK, WakeupDiscipline.SINGLE_WAITER),
          cb_all=frozenset({"CB-E107"}),
          cb_one=frozenset({"CB-E107"})),
    _case(PrimitiveSpec("dropped_wakeup",
                        lambda s, n: DroppedWakeupLock(s), _LOCK,
                        WakeupDiscipline.SINGLE_WAITER),
          cb_all=frozenset({"CB-E110"}),
          cb_one=frozenset({"CB-E110"})),
)}

#: What the AST pass must find in this module: the one dropped op.
AST_EXPECTED = ("AST-E301",)


def check_fixtures() -> List[str]:
    """Lint every fixture; return a list of mismatch descriptions.

    Empty list == the linter caught every seeded bug (with the right
    rule ID, style, and an op location inside this file) and reported
    nothing else. Used by ``repro-analyze lint --fixtures`` and the test
    suite.
    """
    problems: List[str] = []
    for case in FIXTURES.values():
        for style in ALL_STYLES:
            report = lint_primitive(case.spec, style)
            got = {finding.rule for finding in report}
            want = set(case.expected.get(style, frozenset()))
            if got != want:
                problems.append(
                    f"{case.name}/{style.value}: expected rules "
                    f"{sorted(want)}, linter reported {sorted(got)}")
                continue
            for finding in report:
                if not (finding.file or "").endswith("fixtures.py") \
                        or not finding.line:
                    problems.append(
                        f"{case.name}/{style.value}: {finding.rule} not "
                        f"anchored to an op in fixtures.py "
                        f"({finding.location()})")
    from repro.analyze.astlint import check_file
    ast_got = tuple(finding.rule for finding in check_file(__file__))
    if ast_got != AST_EXPECTED:
        problems.append(f"AST pass: expected {AST_EXPECTED}, "
                        f"got {ast_got}")
    return problems
