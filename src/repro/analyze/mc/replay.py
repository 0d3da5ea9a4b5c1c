"""Counterexample replay through the real protocol data structures.

A counterexample is a list of steps, each carrying the concrete
*actions* the abstract machine performed (directory installs, consume
attempts, wake deliveries, invalidation fan-outs, ...) plus the
projected post-state and its fingerprint. This module re-executes those
actions against the structures the live simulator uses —
:class:`~repro.protocols.callback.directory.CallbackDirectory` and
:class:`~repro.protocols.callback.entry.CBEntry` (with the mutant table
injected), :class:`~repro.protocols.mesi.states.DirEntry` via its
``view()``/``adopt()`` table glue and :class:`L1Line.transition` (with a
per-(core, word) value mirror beside it: a live L1 line keeps no values),
:class:`~repro.protocols.vips.protocol.VIPSLine` driven by the VIPS
table — and asserts **bit parity** after every step: the fingerprint of
the replayed state must equal the recorded one. A divergence raises
:class:`ReplayError` naming the step; reaching the end means the real
simulator's data structures land in exactly the violating state the
checker found.

Program-control state (pc / run / spin / parked) is the scenario
interpreter's, not the protocol's; replay adopts it from the recording
and verifies everything the protocol owns: the word store, L1 arrays,
the MESI directory, and the callback directory including LRU order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, cast

from repro.config import SystemConfig, WakePolicy
from repro.protocols.base import tables_for
from repro.protocols.callback.directory import CallbackDirectory
from repro.protocols.callback.entry import Waiter
from repro.protocols.mesi.states import DirEntry, L1Line, MESIState
from repro.protocols.ops import StKind
from repro.protocols.table import Event, TransitionTable, fingerprint
from repro.protocols.vips.protocol import VIPSLine
from repro.sim.stats import Stats

from repro.analyze.mc.checker import Counterexample

__all__ = ["ReplayError", "ReplayReport", "replay_counterexample"]


class ReplayError(AssertionError):
    """The replayed state diverged from the recorded counterexample."""


@dataclass
class ReplayReport:
    protocol: str
    scenario: str
    invariant: str
    steps: int
    final_fingerprint: str
    mutant: Optional[str] = None

    def summary(self) -> str:
        tag = f" [mutant {self.mutant}]" if self.mutant else ""
        return (f"replayed {self.protocol}/{self.scenario}{tag}: "
                f"{self.steps} steps to {self.invariant} "
                f"({self.final_fingerprint})")


class _ReplayConfig:
    """Duck-typed stand-in for :class:`SystemConfig` — the real class
    requires a perfect-square core count, while counterexamples use 2-4
    cores. Only the fields the callback directory reads are provided."""

    def __init__(self, num_threads: int, cb_entries: int,
                 wake_policy: WakePolicy) -> None:
        self.num_threads = num_threads
        self.cb_sets_per_bank = 1
        self.cb_entries_per_bank = cb_entries
        self.cb_wake_policy = wake_policy
        self.seed = 0


def _noop_wake(value: int) -> None:
    return None


def _mutant_tables(cex: Counterexample) -> Dict[str, TransitionTable]:
    """The FSMs the counterexample was found against: registered tables
    with the named mutant's substitution applied."""
    tables = dict(tables_for(cex.protocol))
    if cex.protocol == "callback":
        tables.setdefault("l1_line", tables_for("vips")["l1_line"])
    if cex.mutant:
        from repro.analyze.mc.mutants import MUTANTS
        matches = [m for m in MUTANTS if m.name == cex.mutant]
        if not matches:
            raise ReplayError(f"unknown mutant {cex.mutant!r} in "
                              f"counterexample")
        tables.update(matches[0].tables())
    return tables


def _fail(step_index: int, what: str, expected: Any, got: Any) -> None:
    raise ReplayError(
        f"step {step_index}: {what} diverged — expected {expected!r}, "
        f"replayed {got!r}")


class _VipsL1Mirror:
    """Per-(core, word) VIPS lines backed by real :class:`VIPSLine`
    payloads, stepped through the (possibly mutant) l1_line table with
    the same events the abstract machine used."""

    def __init__(self, cores: int, words: int,
                 table: TransitionTable) -> None:
        self.table = table
        self.words = words
        self.lines: Dict[Tuple[int, int], VIPSLine] = {}

    def _event(self, kind: str, word: int) -> Event:
        if kind == "fill":
            return Event("fill", payload={"shared": True})
        if kind == "store":
            return Event("store", payload={"word": word})
        return Event(kind)

    def step(self, step_index: int, core: int, word: int, kind: str,
             expected_transition: str) -> None:
        line = self.lines.get((core, word))
        state = {
            "present": line is not None,
            "shared": bool(line.shared) if line else False,
            "dirty": frozenset(
                {word} if line and line.dirty_words else set()),
        }
        result = self.table.try_step(state, self._event(kind, word))
        if result is None:
            # The abstract machine records a vips_l1 action only when an
            # edge fired; a stuck step here is a divergence.
            _fail(step_index, f"vips_l1 {kind} on core {core} word {word}",
                  expected_transition, "no enabled transition")
            return
        if result.transition.name != expected_transition:
            _fail(step_index, f"vips_l1 {kind} on core {core} word {word}",
                  expected_transition, result.transition.name)
        if not result.state["present"]:
            self.lines.pop((core, word), None)
        else:
            replayed = self.lines.get((core, word))
            if replayed is None:
                replayed = VIPSLine(shared=bool(result.state["shared"]))
                self.lines[(core, word)] = replayed
            replayed.shared = bool(result.state["shared"])
            if result.state["dirty"]:
                replayed.dirty_words.add(word)
            else:
                replayed.dirty_words.clear()

    def project(self, cores: int) -> List[List[List[Any]]]:
        out: List[List[List[Any]]] = []
        for core in range(cores):
            row: List[List[Any]] = []
            for word in range(self.words):
                line = self.lines.get((core, word))
                row.append([line is not None,
                            bool(line.shared) if line else False,
                            bool(line.dirty_words) if line else False])
            out.append(row)
        return out


class _Replayer:
    """Action interpreter over the real protocol structures."""

    def __init__(self, cex: Counterexample) -> None:
        self.cex = cex
        self.n = cex.num_cores
        self.tables = _mutant_tables(cex)
        self.store: List[int] = []
        if cex.protocol == "mesi":
            self.dir = [DirEntry() for _ in range(cex.words)]
            self.l1: Dict[Tuple[int, int], L1Line] = {
                (core, word): L1Line(MESIState.INVALID)
                for core in range(self.n) for word in range(cex.words)
            }
            # (core, word) -> the value the abstract L1 copy holds.
            self.l1_values: Dict[Tuple[int, int], int] = {}
        else:
            self.vips = _VipsL1Mirror(self.n, cex.words,
                                      self.tables["l1_line"])
        if cex.protocol == "callback":
            config = _ReplayConfig(self.n, cex.cb_entries,
                                   WakePolicy(cex.wake_policy))
            self.banks = [
                CallbackDirectory(cast(SystemConfig, config), Stats(),
                                  bank, entry_table=self.tables["entry"])
                for bank in range(cex.num_banks)
            ]
        self._pending_evict: Optional[Tuple[int, int, Tuple[int, ...]]] = None
        self._pending_free: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------- actions

    def apply(self, step_index: int, action: List[Any]) -> None:
        kind = action[0]
        handler = getattr(self, f"_act_{kind}", None)
        if handler is not None:
            handler(step_index, action)
        # Control-flow actions (ld, tas, acquired, released, wake,
        # spin_park, spin_unblock, await_done, fence, l1_evict marker,
        # cb_write_* summaries already enacted) need no structure work.
        if (self._pending_free is not None and kind != "cb_free"
                and kind.startswith("cb_")):
            # The abstract machine logs cb_free from inside the table
            # step, before the caller's summary action; the real write
            # has now been enacted, so the free can be mirrored.
            bank, word = self._pending_free
            self._pending_free = None
            self._enact_free(step_index, bank, word)

    def flush(self, step_index: int) -> None:
        """Settle any deferred free before the step's parity check."""
        if self._pending_free is not None:
            bank, word = self._pending_free
            self._pending_free = None
            self._enact_free(step_index, bank, word)

    def _act_store_write(self, step_index: int, action: List[Any]) -> None:
        _tag, word, value = action
        self.store[word] = value

    # ----------------------------------------------------------------- mesi

    def _act_dir_step(self, step_index: int, action: List[Any]) -> None:
        _tag, word, event, core, expected = action
        table = self.tables["directory"]
        entry = self.dir[word]
        result = table.step(entry.view(), Event(event, core=core))
        if result.transition.name != expected:
            _fail(step_index, f"directory {event} on word {word}",
                  expected, result.transition.name)
        entry.adopt(result.state)

    def _act_l1_set(self, step_index: int, action: List[Any]) -> None:
        _tag, core, word, mesi, snap = action
        line = self.l1[(core, word)]
        current = line.state.value
        target = mesi
        # Use the declarative L1 table for the edges it owns; fills and
        # sharer-upgrade grants are directory-driven assignments, exactly
        # as in the live protocol.
        if target == "M" and current in ("E", "M"):
            line.transition("store")
        elif target == "S" and current in ("E", "M"):
            line.transition("fwd_gets")
        elif target == "I" and current != "I":
            line.transition("inv")
        else:
            line.state = MESIState(target)
        self.l1_values[(core, word)] = snap

    # ------------------------------------------------------------- vips l1

    def _act_vips_l1(self, step_index: int, action: List[Any]) -> None:
        _tag, core, word, event_kind, transition = action
        self.vips.step(step_index, core, word, event_kind, transition)

    # ------------------------------------------------------------- callback

    def _entry(self, step_index: int, bank: int, word: int) -> Any:
        entry = self.banks[bank].lookup(word)
        if entry is None:
            _fail(step_index, f"entry for word {word} in bank {bank}",
                  "resident", "missing")
        return entry

    def _act_cb_install(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, victim_word = action
        entry, evicted = self.banks[bank].get_or_install(word)
        expected_woken: Tuple[int, ...] = ()
        if self._pending_evict is not None:
            pending_bank, pending_word, expected_woken = self._pending_evict
            self._pending_evict = None
            if (pending_bank, pending_word) != (bank, victim_word):
                _fail(step_index, "capacity eviction victim",
                      (pending_bank, pending_word), (bank, victim_word))
        elif victim_word is not None:
            _fail(step_index, "capacity eviction", victim_word, None)
        got_woken = tuple(waiter.core for waiter in evicted)
        if got_woken != tuple(expected_woken):
            _fail(step_index, f"eviction wakeups for word {victim_word}",
                  tuple(expected_woken), got_woken)

    def _act_cb_evict(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, cause, woken = action
        if cause == "capacity":
            # Enacted inside the next cb_install's get_or_install.
            self._pending_evict = (bank, word, tuple(woken))
            return
        evicted = self.banks[bank].force_evict(word)
        got = tuple(waiter.core for waiter in evicted)
        if got != tuple(woken):
            _fail(step_index, f"forced-eviction wakeups for word {word}",
                  tuple(woken), got)

    def _act_cb_consume(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, core, expected_hit = action
        entry = self._entry(step_index, bank, word)
        hit = entry.try_consume(core)
        if hit != expected_hit:
            _fail(step_index, f"consume by core {core} on word {word}",
                  expected_hit, hit)

    def _act_cb_park(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, core = action
        entry = self._entry(step_index, bank, word)
        entry.park(Waiter(core, _noop_wake, since=0))

    def _act_cb_write_all(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, woken = action
        waiters = self.banks[bank].on_write(word, StKind.CBA)
        got = tuple(waiter.core for waiter in waiters)
        if got != tuple(woken):
            _fail(step_index, f"st_cbA wakeups on word {word}",
                  tuple(woken), got)

    def _act_cb_write_one(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, policy, pick, woken = action
        entry = self._entry(step_index, bank, word)
        waiter = entry.write_one(WakePolicy(policy), lambda _bound: pick)
        got = () if waiter is None else (waiter.core,)
        if got != tuple(woken):
            _fail(step_index, f"st_cb1 wakeup on word {word}",
                  tuple(woken), got)

    def _act_cb_write_zero(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word = action
        entry = self._entry(step_index, bank, word)
        entry.write_zero()

    def _act_cb_write_miss(self, step_index: int, action: List[Any]) -> None:
        _tag, bank, word, _mode = action
        if self.banks[bank].lookup(word) is not None:
            _fail(step_index, f"write miss on word {word}",
                  "no entry", "resident entry")

    def _act_cb_free(self, step_index: int, action: List[Any]) -> None:
        # A (mutant) write emitted ``free``: the abstract machine
        # deallocated the entry. The producing write's summary action
        # follows this record, so defer until it has been enacted.
        _tag, bank, word = action
        self._pending_free = (bank, word)

    def _enact_free(self, step_index: int, bank: int, word: int) -> None:
        entry = self.banks[bank].lookup(word)
        if entry is None or entry.last_step is None or not any(
                emit.kind == "free" for emit in entry.last_step.emits):
            _fail(step_index, f"free emit on word {word}",
                  "emitted by last table step", "absent")
        self.banks[bank].discard(word)

    # ----------------------------------------------------------- projection

    def project(self, recorded_cores: List[Any]) -> Dict[str, Any]:
        projected: Dict[str, Any] = {
            "store": list(self.store),
            "cores": recorded_cores,
        }
        if self.cex.protocol == "mesi":
            projected["l1"] = [
                [[self.l1[(core, word)].state.value,
                  self.l1_values.get((core, word), 0)]
                 for word in range(self.cex.words)]
                for core in range(self.n)
            ]
            projected["dir"] = [[entry.owner, sorted(entry.sharers)]
                                for entry in self.dir]
        else:
            projected["l1"] = self.vips.project(self.n)
        if self.cex.protocol == "callback":
            projected["cbdir"] = [
                [[entry.word, entry.fe, entry.cb, entry.mode_all,
                  entry.rr_ptr, list(entry.arrival)]
                 for entry in bank.resident_entries()]
                for bank in self.banks
            ]
        return projected


def replay_counterexample(
    payload: "Counterexample | Mapping[str, Any]",
) -> ReplayReport:
    """Re-execute a counterexample through the real protocol structures,
    asserting per-step fingerprint parity. Raises :class:`ReplayError`
    on the first divergence."""
    cex = (payload if isinstance(payload, Counterexample)
           else Counterexample.load(payload))
    if not cex.steps:
        raise ReplayError("counterexample has no steps")
    replayer = _Replayer(cex)
    replayer.store = list(cex.steps[0]["state"]["store"])
    last_fingerprint = ""
    for index, step in enumerate(cex.steps):
        for action in step["actions"]:
            replayer.apply(index, list(action))
        if cex.protocol == "callback":
            replayer.flush(index)
        projected = replayer.project(step["state"]["cores"])
        got = fingerprint(projected)
        expected = step["fingerprint"]
        if got != expected:
            recorded = fingerprint(dict(step["state"]))
            raise ReplayError(
                f"step {index}: state fingerprint diverged — recorded "
                f"{expected} (recomputed {recorded}), replayed {got}; "
                f"move {step['move']!r}")
        last_fingerprint = got
    return ReplayReport(
        protocol=cex.protocol, scenario=cex.scenario,
        invariant=cex.invariant, steps=len(cex.steps),
        final_fingerprint=last_fingerprint, mutant=cex.mutant,
    )
