"""Declarative rule catalog: the paper's Table-1 discipline as data.

The callback design (Ros & Kaxiras, ISCA'15) is correct only when every
access used for spin-waiting is annotated (``ld_cb`` / ``st_cb0`` /
``st_cb1`` / ``st_cbA`` / ``ld_through``) and everything else is
data-race-free.  The rules below make the figures' conventions
checkable:

* each :class:`~repro.sync.base.SyncStyle` has a legal op vocabulary
  (``STYLE_LEGAL_OPS``) and legal atomic ``(LdKind, StKind)`` pairs
  (``legal_atomic_pair``);
* critical sections are fence-bracketed (``self_invl`` on entry,
  ``self_down`` before the releasing write);
* a ``ld_cb`` spin is guarded by a non-blocking probe (Section 3.3);
* the wake-up write matches the waiter structure: ``write_CB1`` where
  one arbitrary waiter may proceed (Figures 9/11/19 right),
  ``write_CBA`` where waiters are value-matched or many (ticket lock,
  sense-reversing barrier), either where each word has exactly one
  spinner (CLH/MCS/TreeSR/dissemination, Sections 3.4.3-3.4.5).

Every rule has an ID so findings are machine-checkable; the catalog
doubles as documentation (``docs/analysis.md`` renders it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.protocols.ops import LdKind, StKind
from repro.sync.base import SyncStyle

from repro.analyze.findings import Severity


@dataclass(frozen=True)
class Rule:
    """One checkable discipline rule."""

    id: str
    severity: Severity
    title: str
    description: str


def _rule(id: str, severity: Severity, title: str, description: str) -> Rule:
    return Rule(id=id, severity=severity, title=title,
                description=description)


#: The catalog. E1xx = static encoding errors, E3xx = AST errors,
#: A2xx = static perf advisories, W0xx = analysis warnings,
#: RACE-* = dynamic sanitizer findings.
RULES: Dict[str, Rule] = {r.id: r for r in (
    _rule("CB-E101", Severity.ERROR, "local spin under self-invalidation",
          "SpinUntil (MESI local spinning on an L1 copy) yielded in a "
          "VIPS or callback encoding; without invalidations the spin "
          "never observes the release."),
    _rule("CB-E102", Severity.ERROR, "callback op outside a callback "
          "encoding",
          "ld_cb / st_cb0 / st_cb1 (or an atomic with a callback half) "
          "yielded under MESI or VIPS, where no callback directory "
          "exists to honour it."),
    _rule("CB-E103", Severity.ERROR, "through-op or fence under MESI",
          "ld_through / SpinThrough / st_through / self_invl / "
          "self_down yielded in the MESI encoding; the figures' "
          "left-hand columns use plain unfenced SC code."),
    _rule("CB-E104", Severity.ERROR, "plain access to a sync word",
          "A plain (DRF) load or store touches a word that the same "
          "encoding accesses racily; under self-invalidation an "
          "unannotated conflicting access silently breaks SC-for-DRF."),
    _rule("CB-E105", Severity.ERROR, "missing self_invl",
          "An acquire-side session in a self-invalidation encoding "
          "completed without a self_invl fence, so stale L1 data can "
          "be read inside the critical section."),
    _rule("CB-E106", Severity.ERROR, "missing self_down",
          "A release-side racy write is not preceded by a self_down "
          "fence in its session, so the releasing core's dirty data "
          "may not be visible to the woken waiter."),
    _rule("CB-E107", Severity.ERROR, "unguarded ld_cb spin",
          "The first callback read of a word is not preceded by a "
          "non-blocking probe (ld_through or a plain-read atomic) of "
          "the same word in the same session (Section 3.3 forward "
          "progress)."),
    _rule("CB-E108", Severity.ERROR, "broadcast wake-up where the figure "
          "specifies write_CB1",
          "A callback-one encoding whose waiters are interchangeable "
          "(any one may proceed) releases with st_cbA/st_cb0 instead "
          "of the figure's write_CB1."),
    _rule("CB-E109", Severity.ERROR, "narrow wake-up where a broadcast "
          "is required",
          "An encoding whose waiters are value-matched or class-matched "
          "(ticket lock, sense-reversing barrier, rwlock) wakes with "
          "st_cb1/st_cb0; waking one arbitrary waiter can strand the "
          "others and deadlock."),
    _rule("CB-E110", Severity.ERROR, "wake-up write services no callbacks",
          "The only releasing write to a spun-on word is st_cb0, which "
          "by definition wakes nobody: parked waiters sleep forever."),
    _rule("CB-A201", Severity.ADVICE, "back-off under callbacks",
          "BackoffWait or SpinThrough yielded in a callback encoding; "
          "parked callbacks make the exponential back-off probe storm "
          "pure overhead."),
    _rule("CB-A202", Severity.ADVICE, "unthrottled LLC spin",
          "Consecutive ld_through probes of the same word without "
          "BackoffWait between them under VIPS; the LLC sees a probe "
          "per cycle."),
    _rule("LINT-W001", Severity.WARNING, "symbolic exploration truncated",
          "The symbolic driver hit its step budget before the encoding "
          "finished; rules were checked on the explored prefix only."),
    _rule("LINT-W002", Severity.WARNING, "symbolic drive failed",
          "The encoding raised while being symbolically driven; rules "
          "were checked on the ops collected before the exception."),
    _rule("AST-E301", Severity.ERROR, "op constructed but never yielded",
          "A memory-operation object (Load/Store/Atomic/...) is built "
          "as a bare expression statement; it was never yielded to the "
          "core, so the simulated program silently skips it."),
    _rule("RACE-E001", Severity.ERROR, "unannotated race",
          "Two conflicting accesses, at least one plain (unannotated), "
          "are not ordered by happens-before; under self-invalidation "
          "this breaks SC-for-DRF silently."),
    _rule("RACE-A001", Severity.ADVICE, "annotated but never racing",
          "A word carries callback/through annotations but only one "
          "core ever touches it; the annotations cost LLC round-trips "
          "for no synchronization."),
    # Spec-coverage rules: numbered in the A2xx (advisory) namespace for
    # historical reasons but promoted to ERROR — a registered artifact
    # without its analysis counterpart silently escapes every checker.
    _rule("CB-A210", Severity.ERROR, "registered primitive has no lint "
          "spec",
          "A synchronization primitive is registered in "
          "repro.sync.registry but has no PrimitiveSpec, so the static "
          "Table-1 linter never drives it."),
    _rule("CB-A211", Severity.ERROR, "registered protocol has no "
          "transition table",
          "A protocol backend is registered in PROTOCOL_REGISTRY but "
          "registered no TransitionTable, so the model checker cannot "
          "explore it and the live FSM has no declarative source."),
    # Model-checker findings (repro-analyze mc).
    _rule("MC-E401", Severity.ERROR, "protocol invariant violated",
          "Exhaustive exploration of a scenario reached a state that "
          "violates a declared invariant (SWMR, data-value coherence, "
          "callback consistency, mutual exclusion, fence hygiene, or "
          "no-lost-wakeup); a minimal counterexample trace is attached."),
    _rule("MC-E402", Severity.ERROR, "seeded mutant not flagged",
          "A seeded-bad mutant table was not detected by the checker, "
          "or was detected for the wrong invariant, or its clean "
          "baseline scenario failed — the checker itself regressed."),
    _rule("MC-E403", Severity.ERROR, "counterexample replay diverged",
          "Re-executing a counterexample through the real protocol "
          "data structures did not reproduce the recorded states "
          "bit-for-bit: the abstract model and the simulator drifted."),
    _rule("MC-W401", Severity.WARNING, "model-checker exploration "
          "truncated",
          "The state-space sweep hit its --max-states budget; "
          "invariants were checked on the explored prefix only."),
)}


class SessionKind(enum.Enum):
    """Fence obligations of one encoding session (method call).

    ``ENTER`` sessions (lock acquire, wait) must self_invl before
    returning; ``EXIT`` sessions (release, signal) must self_down before
    their first racy write; ``FULL`` sessions (barrier episodes) carry
    both obligations; ``BODY`` sessions (whole workload thread bodies)
    are checked op-by-op only.
    """

    ENTER = "enter"
    EXIT = "exit"
    FULL = "full"
    BODY = "body"


class WakeupDiscipline(enum.Enum):
    """What the releasing write of a spun-on word must look like under
    callback-one, per the structure of the waiters."""

    #: One arbitrary waiter may proceed: the figure uses write_CB1.
    ONE = "one"
    #: Waiters are value- or class-matched: must broadcast (st_cbA).
    BROADCAST = "broadcast"
    #: Exactly one spinner per word: CBA and CB1 are equivalent.
    SINGLE_WAITER = "single_waiter"


#: Styles that self-invalidate (fences + annotated racy accesses).
SI_STYLES = (SyncStyle.VIPS, SyncStyle.CB_ALL, SyncStyle.CB_ONE)
#: Styles with a callback directory.
CB_STYLES = (SyncStyle.CB_ALL, SyncStyle.CB_ONE)


def legal_atomic_pair(style: SyncStyle, ld: LdKind, st: StKind) -> bool:
    """Is an atomic's ``{ld|ld_cb}&{st_cb0|st_cb1|st_cbA}`` pair legal
    under ``style``?  MESI and VIPS have no callback directory, so only
    the plain pair (``ld``, ``st_cbA`` == st_through) is meaningful;
    the callback styles accept every Table-1 combination."""
    if style in CB_STYLES:
        return True
    return ld is LdKind.PLAIN and st is StKind.CBA
