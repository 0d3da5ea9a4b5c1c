"""Address arithmetic and memory layout allocation.

All simulated addresses are plain byte addresses. Helpers convert between
byte, word, line, and page granularities, and map lines to LLC home banks
by line-interleaving (as in the paper's banked shared L2).

:class:`MemoryLayout` is a bump allocator used by workloads to place
synchronization variables and data regions. Synchronization variables are
padded to a full cache line to avoid false sharing — matching how the
original Splash-2/PARSEC runs pad their locks and barrier structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config import SystemConfig


class AddressMap:
    """Granularity conversions + home-bank mapping for one configuration."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._line = config.line_bytes
        self._page = config.page_bytes
        self._word = config.word_bytes
        self._banks = config.num_banks

    def line_of(self, addr: int) -> int:
        return addr // self._line

    def line_base(self, addr: int) -> int:
        return (addr // self._line) * self._line

    def page_of(self, addr: int) -> int:
        return addr // self._page

    def word_of(self, addr: int) -> int:
        return addr // self._word

    def word_base(self, addr: int) -> int:
        return (addr // self._word) * self._word

    def word_in_line(self, addr: int) -> int:
        return (addr % self._line) // self._word

    def bank_of(self, addr: int) -> int:
        """Home LLC bank for an address (line-interleaved)."""
        return self.line_of(addr) % self._banks

    def lines_in_range(self, base: int, size: int) -> List[int]:
        """All line numbers touched by ``[base, base+size)``."""
        first = self.line_of(base)
        last = self.line_of(base + size - 1) if size > 0 else first - 1
        return list(range(first, last + 1))


@dataclass
class Region:
    """A contiguous allocated address range."""

    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def word(self, index: int, word_bytes: int = 8) -> int:
        """Address of the ``index``-th word in the region."""
        addr = self.base + index * word_bytes
        if addr >= self.end:
            raise IndexError(f"word {index} outside region of {self.size} bytes")
        return addr


class MemoryLayout:
    """Bump allocator for workload address spaces.

    Keeps sync variables line-padded and lets workloads carve out private
    (per-thread) and shared data regions. Never frees: simulated runs are
    short-lived and layouts are rebuilt per run.
    """

    def __init__(self, config: SystemConfig, base: int = 0x1000_0000) -> None:
        self.config = config
        self.addr_map = AddressMap(config)
        self._next = base
        #: Line base of every sync-word allocation, in order. Analysis
        #: tools (repro.analyze.hb) use this to tell sync words from
        #: data without guessing from access patterns.
        self.sync_lines: List[int] = []

    def _align(self, alignment: int) -> None:
        rem = self._next % alignment
        if rem:
            self._next += alignment - rem

    def alloc(self, size: int, align: int = 8) -> Region:
        """Allocate ``size`` bytes at ``align``-byte alignment."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        self._align(align)
        region = Region(self._next, size)
        self._next += size
        return region

    def alloc_sync_word(self) -> int:
        """One synchronization word, alone in its own cache line."""
        region = self.alloc(self.config.line_bytes, align=self.config.line_bytes)
        self.sync_lines.append(region.base)
        return region.base

    def alloc_sync_words(self, count: int) -> List[int]:
        """``count`` sync words, each padded to its own line."""
        return [self.alloc_sync_word() for _ in range(count)]

    def alloc_array(self, size: int) -> Region:
        """A data array aligned to a line boundary."""
        return self.alloc(size, align=self.config.line_bytes)

    def alloc_page_aligned(self, size: int) -> Region:
        """A data region starting on a page boundary.

        Used for per-thread private data so that first-touch page
        classification sees it as private.
        """
        return self.alloc(size, align=self.config.page_bytes)
