"""System configuration.

Defaults reproduce Table 2 of the paper:

=======================  ==================================
Block and page size      64 bytes and 4 KB
Private L1 cache         32 KB, 4-way
L1 cache access time     1 cycle
Shared L2 cache          256 KB per bank, 16-way
L2 cache access time     tag: 6 cycles; tag+data: 12 cycles
Callback directory       4 entries per bank (1 cycle)
Memory access time       160 cycles
Network topology         8x8 2-dimensional mesh
Routing technique        deterministic X-Y
Flit size                16 bytes
Switch-to-switch time    6 cycles
===================================================

The configuration also selects the coherence protocol and, for the
self-invalidation variants, the exponential back-off limit or the callback
mode, mirroring the configurations evaluated in Section 5.2:
``Invalidation``, ``BackOff-{0,5,10,15}``, ``CB-All``, ``CB-One``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional


class Protocol(enum.Enum):
    """Coherence protocol families evaluated in the paper."""

    MESI = "mesi"              # Invalidation: directory-based MESI
    VIPS_BACKOFF = "backoff"   # self-invalidation, LLC spin + exp. back-off
    VIPS_CALLBACK = "callback"  # self-invalidation + callback directory


class CallbackMode(enum.Enum):
    """Which callback encoding the synchronization library uses."""

    ALL = "cb_all"
    ONE = "cb_one"


class WakePolicy(enum.Enum):
    """CB-One wakeup victim selection (Section 2.4; paper uses round-robin)."""

    ROUND_ROBIN = "round_robin"
    RANDOM = "random"
    FIFO = "fifo"


@dataclass
class SystemConfig:
    """Full machine description; defaults reproduce Table 2 at 64 cores."""

    num_cores: int = 64
    # Hardware threads per core (SMT). Footnote 5 of the paper: the
    # callback directory's per-core F/E + CB bits "can optionally be
    # extended to the number of threads for multi-threaded cores" — with
    # threads_per_core > 1 that is exactly what happens: bits are per
    # hardware thread, threads of one core share its L1 and tile.
    threads_per_core: int = 1

    # Memory geometry
    line_bytes: int = 64
    page_bytes: int = 4096
    word_bytes: int = 8

    # L1
    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 4
    l1_latency: int = 1
    l1_replacement: str = "lru"  # lru | fifo | random

    # LLC (one bank per core tile)
    llc_bank_size_bytes: int = 256 * 1024
    llc_ways: int = 16
    llc_tag_latency: int = 6
    llc_data_latency: int = 12

    # Callback directory
    cb_entries_per_bank: int = 4
    cb_latency: int = 1
    cb_wake_policy: WakePolicy = WakePolicy.ROUND_ROBIN
    # Directory organization: 1 set = fully associative (the paper's
    # design). More sets trade CAM width for conflict evictions — an
    # ablation, see benchmarks/bench_ablation_dirorg.py.
    cb_sets_per_bank: int = 1

    # Main memory
    mem_latency: int = 160

    # Network
    topology: str = "mesh"  # "mesh" (Table 2) or "torus" (extension)
    flit_bytes: int = 16
    switch_latency: int = 6
    control_msg_bytes: int = 8
    # data message = header + payload; payload is a line or a word
    header_bytes: int = 8
    # Model per-link occupancy (wormhole serialization + queuing). Off by
    # default: the paper's effects are hop/flit-count effects; turning
    # this on makes hot-spot storms (e.g. BackOff-0 on a contended bank)
    # additionally pay queuing delay. See benchmarks/bench_ext_contention.
    model_link_contention: bool = False

    # Protocol selection
    protocol: Protocol = Protocol.VIPS_CALLBACK
    callback_mode: CallbackMode = CallbackMode.ONE
    # Exponential back-off: delay_i = backoff_base * 2**min(i, limit).
    # limit == 0 reproduces "BackOff-0" (constant, no exponentiation).
    # The base is tuned (Section 5.2 does the same against VIPS-M's
    # published numbers) so that BackOff-10 is time-competitive with
    # Invalidation while BackOff-15 overshoots on latency.
    backoff_limit: int = 10
    backoff_base: int = 2

    # Core model
    spin_iteration_cycles: int = 4  # cycles per local spin-loop iteration
    rmw_compute_cycles: int = 1     # ALU cost of the modify step of an RMW

    # Determinism
    seed: int = 1

    # Watchdog: abort runs that exceed this many engine events.
    max_events: int = 50_000_000
    # Deadline on the simulated clock (cycles); None = unbounded. Distinct
    # from max_events: a hung workload fails at a predictable *simulated*
    # time with a structured SimulationTimeout instead of whenever its
    # event churn happens to trip the event budget.
    max_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("num_cores", "word_bytes", "line_bytes", "flit_bytes",
                     "l1_ways", "llc_ways", "l1_size_bytes",
                     "llc_bank_size_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("l1_latency", "llc_tag_latency", "llc_data_latency",
                     "cb_latency", "mem_latency", "switch_latency",
                     "header_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        side = int(math.isqrt(self.num_cores))
        if side * side != self.num_cores:
            raise ValueError(
                f"num_cores must be a perfect square for a 2-D mesh, got {self.num_cores}"
            )
        if self.line_bytes % self.word_bytes:
            raise ValueError("line size must be a multiple of the word size")
        if self.page_bytes < self.line_bytes:
            raise ValueError("page_bytes must be >= line_bytes")
        if self.page_bytes % self.line_bytes:
            raise ValueError("page size must be a multiple of the line size")
        if self.l1_size_bytes % (self.line_bytes * self.l1_ways):
            raise ValueError("L1 geometry does not divide evenly into sets")
        if self.llc_bank_size_bytes % (self.line_bytes * self.llc_ways):
            raise ValueError("LLC geometry does not divide evenly into sets")
        for name in ("backoff_limit", "backoff_base", "rmw_compute_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.spin_iteration_cycles < 1:
            raise ValueError("spin_iteration_cycles must be >= 1")
        if self.cb_entries_per_bank < 1:
            raise ValueError("callback directory needs at least one entry")
        if self.cb_sets_per_bank < 1:
            raise ValueError("callback directory needs at least one set")
        if self.cb_entries_per_bank % self.cb_sets_per_bank:
            raise ValueError(
                "cb_entries_per_bank must divide evenly into sets")
        if self.threads_per_core < 1:
            raise ValueError("threads_per_core must be >= 1")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1 (or None)")
        if self.topology not in ("mesh", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.l1_replacement not in ("lru", "fifo", "random"):
            raise ValueError(
                f"unknown L1 replacement {self.l1_replacement!r}")

    # Derived geometry ----------------------------------------------------

    @property
    def mesh_side(self) -> int:
        return int(math.isqrt(self.num_cores))

    @property
    def num_banks(self) -> int:
        """One LLC bank (and callback directory bank) per tile."""
        return self.num_cores

    @property
    def num_threads(self) -> int:
        """Hardware threads in the machine (= cores x SMT ways)."""
        return self.num_cores * self.threads_per_core

    def core_of(self, tid: int) -> int:
        """The physical core (tile/L1) a hardware thread lives on."""
        return tid // self.threads_per_core

    @property
    def l1_sets(self) -> int:
        return self.l1_size_bytes // (self.line_bytes * self.l1_ways)

    @property
    def llc_sets(self) -> int:
        return self.llc_bank_size_bytes // (self.line_bytes * self.llc_ways)

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    # Message sizing -------------------------------------------------------

    def flits_for(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // self.flit_bytes))

    @property
    def control_msg_flits(self) -> int:
        return self.flits_for(self.control_msg_bytes)

    @property
    def line_msg_bytes(self) -> int:
        return self.header_bytes + self.line_bytes

    @property
    def word_msg_bytes(self) -> int:
        return self.header_bytes + self.word_bytes

    def backoff_delay(self, attempt: int) -> int:
        """Back-off delay before retry number ``attempt`` (0-based).

        Exponentiation is capped at ``backoff_limit`` (the paper's
        "number of exponentiations before the ceiling").
        """
        exponent = min(attempt, self.backoff_limit)
        return self.backoff_base * (2 ** exponent)

    def label(self) -> str:
        """The configuration name used in the paper's figures."""
        if self.protocol is Protocol.MESI:
            return "Invalidation"
        if self.protocol is Protocol.VIPS_BACKOFF:
            return f"BackOff-{self.backoff_limit}"
        mode = "All" if self.callback_mode is CallbackMode.ALL else "One"
        return f"CB-{mode}"


def config_for(name: str, **overrides) -> SystemConfig:
    """Build a :class:`SystemConfig` from a paper configuration label.

    Accepted names: ``Invalidation``, ``BackOff-N``, ``CB-All``, ``CB-One``.
    """
    kwargs = dict(overrides)
    if name == "Invalidation":
        kwargs["protocol"] = Protocol.MESI
    elif name.startswith("BackOff-"):
        kwargs["protocol"] = Protocol.VIPS_BACKOFF
        kwargs["backoff_limit"] = int(name.split("-", 1)[1])
    elif name == "CB-All":
        kwargs["protocol"] = Protocol.VIPS_CALLBACK
        kwargs["callback_mode"] = CallbackMode.ALL
    elif name == "CB-One":
        kwargs["protocol"] = Protocol.VIPS_CALLBACK
        kwargs["callback_mode"] = CallbackMode.ONE
    else:
        raise ValueError(f"unknown configuration label: {name!r}")
    return SystemConfig(**kwargs)


#: The seven configurations evaluated throughout Section 5.
PAPER_CONFIGS = (
    "Invalidation",
    "BackOff-0",
    "BackOff-5",
    "BackOff-10",
    "BackOff-15",
    "CB-All",
    "CB-One",
)
