"""Host-speed calibration for the simulator workloads.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes, with CPU time tracking wall
time: the vCPU itself is slower, the process is not descheduled. Raw
seconds of the same points and the same code then differ between runs
by more than any bound worth setting.

:class:`Kernel` is a fixed pure-Python workload that shares no code with
the simulator but does the same kind of work as its hot loop: an event
heap popping into method calls on slotted objects held in a dict.
:func:`calibrated_run` runs a machine in slices of about
:data:`SLICE_S` host seconds with a kernel pass between slices, and
scales each slice by the passes right before and after it to seconds on
a host where one pass takes :data:`REFERENCE_S`. A change to the
simulator moves that figure; a change of host speed slows both sides
and cancels. Timed only before and after a whole run of a second or
more, the kernel tracked the drift too loosely; between slices of a
tenth of a second the ratio of run to kernel seconds stayed within a
few percent while raw seconds moved by a third.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List, Tuple

#: Seconds one kernel pass takes on the host the bounds were set on
#: (a 2-vCPU VM). It only scales the reported figures.
REFERENCE_S = 0.02
#: Events per kernel pass, and lines in the kernel's dict.
STEPS = 20_000
LINES = 65_536
#: Host seconds of simulation between kernel passes.
SLICE_S = 0.1
#: Simulated cycles between looks at the clock during a run. Slicing a
#: run never changes its results (see ``Machine.run``).
CHECK_CYCLES = 10_000


class _Line:
    __slots__ = ("state", "data")

    def __init__(self) -> None:
        self.state = 0
        self.data = 0


class Kernel:
    """The calibration kernel. Every pass of :meth:`seconds` does the
    same work; the constructor runs one untimed pass to warm the heap.
    Every timed pass is kept in :attr:`samples`."""

    def __init__(self) -> None:
        self.lines = {addr: _Line() for addr in range(LINES)}
        self.heap: List[Tuple[int, int, int]] = []
        self.now = 0
        self.samples: List[float] = []
        self._run()

    def _access(self, addr: int, write: int) -> int:
        line = self.lines[addr]
        if write:
            line.state = 2
            line.data += 1
        elif line.state == 0:
            line.state = 1
        return line.data

    def _run(self) -> None:
        heap, value = self.heap, 7
        for seq in range(STEPS):
            value = (value * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (self.now + (value & 63), seq, value))
            if len(heap) > 64:
                self.now, _, popped = heapq.heappop(heap)
                self._access(popped % LINES, popped & 1)

    def seconds(self) -> float:
        """Wall seconds of one pass. The collector is paused for the
        pass: the kernel makes no cycles, and a full collection would
        time the caller's heap, not the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._run()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work, scaled by the kernel passes timed right
    before and after it to the reference host speed."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def calibrated_run(machine, kernel: Kernel):
    """Run ``machine`` to completion in slices with a kernel pass before
    the first slice, between slices and after the last. Returns (stats,
    seconds of simulation, the same at the reference host speed); kernel
    passes are in neither figure."""
    passes = [kernel.seconds()]
    slices: List[float] = []
    start = time.perf_counter()

    def check(_boundary: int) -> None:
        nonlocal start
        now = time.perf_counter()
        if now - start >= SLICE_S:
            slices.append(now - start)
            passes.append(kernel.seconds())
            start = time.perf_counter()

    stats = machine.run(checkpoint_every=CHECK_CYCLES, on_checkpoint=check)
    slices.append(time.perf_counter() - start)
    passes.append(kernel.seconds())
    scaled = sum(to_reference(seconds, before, after) for seconds, before,
                 after in zip(slices, passes, passes[1:]))
    return stats, sum(slices), scaled
