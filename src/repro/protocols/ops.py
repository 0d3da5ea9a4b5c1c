"""The memory-operation vocabulary threads yield to their core.

This is the paper's Table 1 plus the ordinary (DRF) access path:

* plain ``Load``/``Store`` — data-race-free accesses through the L1;
* ``LoadThrough`` (``ld_through``) — general conflicting load, bypasses the
  L1, serviced by the LLC, never blocks;
* ``LoadCB`` (``ld_cb``) — callback read: blocks in the callback directory
  until its F/E bit is full;
* ``StoreThrough`` (``st_through`` / ``st_cbA``) — general conflicting
  write-through; under the callback protocol it services *all* callbacks;
* ``StoreCB1`` (``st_cb1``) — write-through servicing exactly one callback;
* ``StoreCB0`` (``st_cb0``) — write-through servicing no callbacks;
* ``Atomic`` — an RMW composed of a {ld | ld_cb} and a
  {st_cb0 | st_cb1 | st_cbA} performed atomically at the LLC
  (or via M-state ownership under MESI);
* ``Fence`` — ``self_invl`` / ``self_down``;
* ``SpinUntil`` — MESI local spinning on an L1 copy (modelled as blocking
  until invalidation, with the iteration count accounted analytically);
* ``SpinThrough`` — self-invalidation spinning: ``ld_through`` probes of
  the LLC with exponential back-off between them, run by the core;
* ``BackoffWait`` — one exponential back-off pause between LLC probes;
* ``Compute`` — non-memory work;
* ``DataBurst`` — a batch of DRF data accesses described at line
  granularity (the trace-driven data side of the simulation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Tuple


class LdKind(enum.Enum):
    """The load half of an atomic (Table 1 naming)."""

    PLAIN = "ld"
    CB = "ld_cb"


class StKind(enum.Enum):
    """The store half of an atomic / a racy store variant."""

    CB0 = "st_cb0"
    CB1 = "st_cb1"
    CBA = "st_cbA"  # == st_through


class AtomicKind(enum.Enum):
    """RMW flavours used by the paper's synchronization algorithms."""

    TAS = "test&set"          # operands: (test, set) — writes iff value == test
    FETCH_ADD = "fetch&add"   # operands: (delta,) — always writes
    SWAP = "fetch&store"      # operands: (new,) — always writes
    TDEC = "test&dec"         # operands: () — decrements iff value != 0
    CAS = "compare&swap"      # operands: (expect, new) — writes iff equal


@dataclass
class AtomicResult:
    """Result handed back for an :class:`Atomic`: old value + whether the
    write happened (e.g. T&S success)."""

    old: int
    success: bool


class FenceKind(enum.Enum):
    SELF_INVL = "self_invl"
    SELF_DOWN = "self_down"


class Op:
    """Base class for everything a thread can yield."""

    __slots__ = ()


@dataclass
class Compute(Op):
    cycles: int


@dataclass
class Load(Op):
    """DRF load through the L1. Returns the word value."""

    addr: int


@dataclass
class Store(Op):
    """DRF store through the L1. ``value`` updates the word store (None for
    data whose value is irrelevant to control flow)."""

    addr: int
    value: Optional[int] = None


@dataclass
class LoadThrough(Op):
    """Racy load: bypass L1, read at the LLC. Never blocks. Consumes the
    issuer's F/E bit if a callback-directory entry exists (Table 1)."""

    addr: int


@dataclass
class LoadCB(Op):
    """Callback read: blocks in the callback directory until full."""

    addr: int


@dataclass
class StoreThrough(Op):
    """Racy write-through (st_cbA): wakes all callbacks."""

    st: ClassVar[StKind] = StKind.CBA

    addr: int
    value: int


@dataclass
class StoreCB1(Op):
    """Write-through waking exactly one callback (lock release)."""

    st: ClassVar[StKind] = StKind.CB1

    addr: int
    value: int


@dataclass
class StoreCB0(Op):
    """Write-through waking no callbacks (successful lock-acquiring RMW)."""

    st: ClassVar[StKind] = StKind.CB0

    addr: int
    value: int


#: The three racy write-throughs (st_cbA / st_cb1 / st_cb0).
RACY_STORES = (StoreThrough, StoreCB1, StoreCB0)


@dataclass
class Atomic(Op):
    """Read-modify-write at the LLC (VIPS/callback) or via M state (MESI).

    Returns an :class:`AtomicResult`. The ``ld``/``st`` kinds select the
    callback behaviour of the two halves, written
    ``{ld|ld_cb}&{st_cb0|st_cb1|st_cbA}`` in the paper.
    """

    addr: int
    kind: AtomicKind
    operands: Tuple[int, ...] = ()
    ld: LdKind = LdKind.PLAIN
    st: StKind = StKind.CBA


@dataclass
class Fence(Op):
    kind: FenceKind


@dataclass
class SpinUntil(Op):
    """MESI local spin: block until ``pred(value)`` holds for the L1 copy,
    re-fetching after each invalidation. Returns the satisfying value."""

    addr: int
    pred: Callable[[int], bool]


@dataclass
class SpinThrough(Op):
    """Self-invalidation spin (the BackOff-N loop): probe the word with
    ``ld_through`` and, while ``pred(value)`` fails, pause for
    ``SystemConfig.backoff_delay(attempt)`` before the next probe.
    Returns the first probed value satisfying ``pred``. The counterpart
    of :class:`SpinUntil` under MESI."""

    addr: int
    pred: Callable[[int], bool]


@dataclass
class BackoffWait(Op):
    """One exponential back-off pause; ``attempt`` is the 0-based retry
    number. The core consults ``SystemConfig.backoff_delay``."""

    attempt: int


@dataclass
class LineAccess:
    """One line-granular data access inside a :class:`DataBurst`."""

    addr: int
    write: bool = False


@dataclass
class DataBurst(Op):
    """A batch of DRF data accesses.

    ``accesses`` lists the distinct line touches in order; ``extra_hits``
    is the number of additional same-line accesses, charged as L1 hits in
    bulk (1 cycle + 1 L1 access each). This keeps the event count
    proportional to the number of *lines*, not accesses.
    """

    accesses: List[LineAccess] = field(default_factory=list)
    extra_hits: int = 0
