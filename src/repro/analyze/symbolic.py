"""Symbolic driving of sync/workload generators for the static linter.

An encoding is a Python generator that yields ops and receives results.
To lint it without a machine we *drive* it with a :class:`StubPolicy`
that fabricates results:

* atomics succeed after a configurable number of failures
  (``spin_rounds``), which steers execution down both the fast path and
  the spin-loop path of conditional spins;
* loads answer from a small symbolic word memory (seeded from the
  primitive's ``initial_values`` and updated by the driven stores),
  rotated through nearby candidate values so every value-matched spin
  loop terminates;
* ``SpinUntil`` predicates are evaluated directly against the
  candidates, so the MESI paths are exact;
* a ``SpinThrough`` answers with the first of the load answers above
  that satisfies its predicate, as the ``ld_through`` probes it stands
  for would have received.

The driver records every yielded op together with the **source location
of the yield** (followed through ``yield from`` chains via
``gi_yieldfrom``), which is what lets lint findings point at
``file:line`` of the offending op.  Exploration is the union over a few
policies; each path is bounded by a step budget, so a non-terminating
encoding degrades into a truncation warning instead of hanging the
linter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.protocols import ops

#: A sync/workload generator mid-drive.
OpGenerator = Generator[ops.Op, Any, Any]


@dataclass
class OpRecord:
    """One yielded op plus where it was yielded from."""

    op: ops.Op
    file: str
    line: int
    index: int


@dataclass
class SessionRun:
    """The op trace of driving one session (method call) once."""

    primitive: str
    style: str
    session: str
    kind: str
    tid: int
    policy: str
    records: List[OpRecord] = field(default_factory=list)
    truncated: bool = False
    error: Optional[str] = None


class LintLayoutConfig:
    """The slice of SystemConfig that primitives read via the layout."""

    def __init__(self, word_bytes: int = 8) -> None:
        self.word_bytes = word_bytes


class LintLayout:
    """Stand-in memory layout: hands out line-spaced sync words."""

    def __init__(self, word_bytes: int = 8, line_bytes: int = 64,
                 base: int = 0x1000_0000) -> None:
        self.config = LintLayoutConfig(word_bytes)
        self._line_bytes = line_bytes
        self._next = base

    def alloc_sync_word(self) -> int:
        addr = self._next
        self._next += self._line_bytes
        return addr

    def alloc_sync_words(self, count: int) -> List[int]:
        return [self.alloc_sync_word() for _ in range(count)]


class LintContext:
    """ThreadContext stand-in: enough surface for encodings/workloads."""

    def __init__(self, tid: int, num_threads: int,
                 config: Optional[Any] = None) -> None:
        self.tid = tid
        self.num_threads = num_threads
        self.config = config
        self.rng = random.Random(0x5EED + tid)
        self.now = 0
        self.obs = None

    def record_episode(self, category: str, start_cycle: int) -> None:
        pass

    def span_begin(self, name: str, **args: Any) -> None:
        pass

    def span_end(self, name: str, **args: Any) -> None:
        pass

    def mark(self, name: str, **args: Any) -> None:
        pass


class StubPolicy:
    """Fabricates op results; shared word memory persists across the
    sessions of one primitive so handoffs (CLH tail, barrier counters)
    stay coherent."""

    def __init__(self, num_threads: int, spin_rounds: int,
                 memory: Optional[Dict[int, int]] = None,
                 atomic_rounds: Optional[int] = None) -> None:
        self.num_threads = num_threads
        self.spin_rounds = spin_rounds
        self.atomic_rounds = (spin_rounds if atomic_rounds is None
                              else atomic_rounds)
        self.memory: Dict[int, int] = {} if memory is None else memory
        self._load_attempts: Dict[int, int] = {}
        self._atomic_fails: Dict[int, int] = {}

    @property
    def name(self) -> str:
        if self.atomic_rounds != self.spin_rounds:
            return f"spin{self.spin_rounds}a{self.atomic_rounds}"
        return f"spin{self.spin_rounds}"

    def begin_session(self) -> None:
        """Reset per-session probe counters (memory persists)."""
        self._load_attempts.clear()
        self._atomic_fails.clear()

    # ------------------------------------------------------------ loads

    def _candidates(self, addr: int) -> List[int]:
        mem = self.memory.get(addr, 0)
        # 2n+2 small values: covers tickets/counters across two episodes.
        return [mem, mem ^ 1, *range(2 * self.num_threads + 2)]

    def _load_value(self, addr: int) -> int:
        attempt = self._load_attempts.get(addr, 0)
        self._load_attempts[addr] = attempt + 1
        mem = self.memory.get(addr, 0)
        if attempt < self.spin_rounds:
            # Deliberately stale-looking probe: steer into the spin loop.
            return mem ^ 1
        seq = self._candidates(addr)
        return seq[(attempt - self.spin_rounds) % len(seq)]

    def _spin_value(self, op: ops.SpinUntil) -> int:
        """Exact for SpinUntil: evaluate the predicate on candidates."""
        satisfying: Optional[int] = None
        failing: Optional[int] = None
        for value in self._candidates(op.addr):
            try:
                ok = bool(op.pred(value))
            except Exception:
                continue
            if ok and satisfying is None:
                satisfying = value
            if not ok and failing is None:
                failing = value
        if satisfying is None:
            return self.memory.get(op.addr, 0)
        return satisfying

    def _spin_through_value(self, op: ops.SpinThrough) -> int:
        """Probe as the back-off loop would: load answers until one
        satisfies the predicate (every candidate is tried once)."""
        for _ in range(self.spin_rounds + len(self._candidates(op.addr))):
            value = self._load_value(op.addr)
            try:
                if op.pred(value):
                    return value
            except Exception:
                continue
        return self.memory.get(op.addr, 0)

    # ---------------------------------------------------------- atomics

    def _atomic_result(self, op: ops.Atomic) -> ops.AtomicResult:
        addr, kind = op.addr, op.kind
        mem = self.memory.get(addr, 0)
        if kind in (ops.AtomicKind.TAS, ops.AtomicKind.CAS,
                    ops.AtomicKind.TDEC):
            fails = self._atomic_fails.get(addr, 0)
            succeed = fails >= self.atomic_rounds
            if not succeed:
                self._atomic_fails[addr] = fails + 1
        else:
            succeed = True
        if kind is ops.AtomicKind.TAS:
            test, new = op.operands
            if succeed:
                self.memory[addr] = new
                return ops.AtomicResult(old=test, success=True)
            return ops.AtomicResult(old=new, success=False)
        if kind is ops.AtomicKind.CAS:
            expect, new = op.operands
            if succeed:
                self.memory[addr] = new
                return ops.AtomicResult(old=expect, success=True)
            return ops.AtomicResult(old=expect + 1, success=False)
        if kind is ops.AtomicKind.TDEC:
            if succeed:
                old = mem if mem != 0 else 1
                self.memory[addr] = old - 1
                return ops.AtomicResult(old=old, success=True)
            return ops.AtomicResult(old=0, success=False)
        if kind is ops.AtomicKind.FETCH_ADD:
            (delta,) = op.operands
            self.memory[addr] = mem + delta
            return ops.AtomicResult(old=mem, success=True)
        # SWAP
        (new,) = op.operands
        self.memory[addr] = new
        return ops.AtomicResult(old=mem, success=True)

    # ---------------------------------------------------------- dispatch

    def respond(self, op: ops.Op) -> Any:
        if isinstance(op, ops.Atomic):
            return self._atomic_result(op)
        if isinstance(op, ops.SpinUntil):
            return self._spin_value(op)
        if isinstance(op, ops.SpinThrough):
            return self._spin_through_value(op)
        if isinstance(op, (ops.Load, ops.LoadThrough, ops.LoadCB)):
            return self._load_value(op.addr)
        if isinstance(op, (ops.Store, *ops.RACY_STORES)):
            if op.value is not None:
                self.memory[op.addr] = op.value
            return None
        # Compute / Fence / BackoffWait / DataBurst carry no result.
        return None


def _yield_site(gen: OpGenerator) -> Tuple[str, int]:
    """The (file, line) of the innermost suspended yield, following the
    ``yield from`` delegation chain."""
    g: Any = gen
    while getattr(g, "gi_yieldfrom", None) is not None:
        inner = g.gi_yieldfrom
        if getattr(inner, "gi_frame", None) is None:
            break
        g = inner
    frame = getattr(g, "gi_frame", None)
    if frame is None:
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def drive_session(gen: OpGenerator, policy: StubPolicy,
                  budget: int = 600) -> Tuple[List[OpRecord], bool,
                                              Optional[str]]:
    """Drive ``gen`` to completion (or ``budget`` ops).

    Returns ``(records, truncated, error)`` where ``error`` carries the
    repr of an exception the generator raised, if any.
    """
    records: List[OpRecord] = []
    truncated = False
    error: Optional[str] = None
    try:
        op = next(gen)
        while True:
            site = _yield_site(gen)
            records.append(OpRecord(op=op, file=site[0], line=site[1],
                                    index=len(records)))
            if len(records) >= budget:
                truncated = True
                gen.close()
                break
            result = policy.respond(op)
            op = gen.send(result)
    except StopIteration:
        pass
    except Exception as exc:  # surfaced as a LINT-W002 finding
        error = f"{type(exc).__name__}: {exc}"
    return records, truncated, error
