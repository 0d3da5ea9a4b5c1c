"""Workload abstraction.

A :class:`Workload` knows how to install itself on a fresh
:class:`~repro.core.machine.Machine`: allocate its synchronization
primitives and data regions, seed initial word values, and produce one
thread-body generator per hardware thread. The harness then runs the
machine and harvests stats.

Workloads are deterministic given the machine's config seed: all
randomness flows through per-thread RNGs derived from it.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Sequence

from repro.core.machine import Machine, ThreadBody
from repro.core.thread import ThreadContext
from repro.mem.layout import Region
from repro.protocols.ops import DataBurst, LineAccess


class Workload:
    """Base class: subclasses implement :meth:`build`."""

    name: str = "workload"

    def build(self, machine: Machine) -> List[ThreadBody]:
        """Allocate state on ``machine`` and return the thread bodies."""
        raise NotImplementedError

    def install(self, machine: Machine) -> None:
        """Build and spawn on the machine."""
        machine.workload_name = self.name
        machine.spawn(self.build(machine))

    @staticmethod
    def seed_values(machine: Machine, values: dict) -> None:
        for addr, value in values.items():
            machine.store.write(addr, value)


def make_burst(
    rng: random.Random,
    region: Region,
    lines: int,
    write_frac: float,
    line_bytes: int,
    extra_hits_per_line: int = 3,
) -> DataBurst:
    """A deterministic batch of line-granular accesses within ``region``.

    Chooses ``lines`` lines (without replacement when possible) from the
    region, marking each a write with probability ``write_frac``; adds
    ``extra_hits_per_line`` bulk L1 hits per line to model intra-line
    spatial locality.
    """
    total_lines = max(1, region.size // line_bytes)
    count = min(lines, total_lines)
    if count <= 0:
        return DataBurst(accesses=[], extra_hits=0)
    chosen = rng.sample(range(total_lines), count)
    accesses = [
        LineAccess(region.base + index * line_bytes,
                   write=rng.random() < write_frac)
        for index in chosen
    ]
    return DataBurst(accesses=accesses,
                     extra_hits=count * extra_hits_per_line)
