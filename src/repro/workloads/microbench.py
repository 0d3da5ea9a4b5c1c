"""Synchronization microbenchmarks (Figures 1 and 20).

These isolate one synchronization construct at a time:

* :class:`LockMicrobench` — every thread repeatedly acquires/releases one
  highly-contended lock around a short critical section (the paper's
  T&T&S- and CLH-acquire columns);
* :class:`BarrierMicrobench` — repeated barrier episodes with a small
  randomized compute skew between them (SR and TreeSR columns);
* :class:`SignalWaitMicrobench` — producer threads post signals consumed
  by spin-waiting consumer threads (the "wait" column).

Episode latencies land in ``stats.episode_latencies`` under
``lock_acquire`` / ``barrier_wait`` / ``wait``; LLC synchronization
accesses land in ``stats.llc_sync_accesses``.
"""

from __future__ import annotations

from typing import List

from repro.core.machine import Machine, ThreadBody
from repro.protocols.ops import Compute
from repro.sync import make_lock, make_signal_wait, style_for
from repro.sync.registry import make_barrier
from repro.workloads.base import Workload


class LockMicrobench(Workload):
    """All threads hammer one lock: acquire, short CS, release, pause."""

    def __init__(self, lock_name: str, iterations: int = 10,
                 cs_cycles: int = 20, outside_cycles: int = 60) -> None:
        self.name = f"ubench_lock_{lock_name}"
        self.lock_name = lock_name
        self.iterations = iterations
        self.cs_cycles = cs_cycles
        self.outside_cycles = outside_cycles

    def build(self, machine: Machine) -> List[ThreadBody]:
        style = style_for(machine.config)
        lock = make_lock(self.lock_name, style)
        lock.setup(machine.layout, machine.config.num_threads)
        self.seed_values(machine, lock.initial_values())
        counter = machine.layout.alloc_sync_word()
        self.counter_addr = counter

        def body(ctx):
            for _ in range(self.iterations):
                yield Compute(1 + ctx.rng.randrange(self.outside_cycles))
                yield from lock.acquire(ctx)
                # Critical section: bump a plain shared counter (checked by
                # the integration tests for mutual exclusion).
                value = machine.store.read(counter)
                yield Compute(self.cs_cycles)
                machine.store.write(counter, value + 1)
                yield from lock.release(ctx)

        return [body] * machine.config.num_threads


class BarrierMicrobench(Workload):
    """Repeated barrier episodes with randomized arrival skew."""

    def __init__(self, barrier_name: str, episodes: int = 8,
                 skew_cycles: int = 100, lock_name: str = "ttas") -> None:
        self.name = f"ubench_barrier_{barrier_name}"
        self.barrier_name = barrier_name
        self.lock_name = lock_name
        self.episodes = episodes
        self.skew_cycles = skew_cycles

    def build(self, machine: Machine) -> List[ThreadBody]:
        style = style_for(machine.config)
        n = machine.config.num_threads
        if self.barrier_name == "sr":
            barrier = make_barrier("sr", style, n,
                                   lock=make_lock(self.lock_name, style))
        else:
            barrier = make_barrier(self.barrier_name, style, n)
        barrier.setup(machine.layout, n)
        self.seed_values(machine, barrier.initial_values())

        def body(ctx):
            for _ in range(self.episodes):
                yield Compute(1 + ctx.rng.randrange(self.skew_cycles))
                yield from barrier.wait(ctx)

        return [body] * n


class SignalWaitMicrobench(Workload):
    """One bursty producer, N-1 spin-waiting consumers.

    Each round the producer pauses for ``gap_cycles`` and then posts one
    signal per consumer; every consumer waits once per round. The pause
    guarantees the waits genuinely block — Figure 20 measures the *spin*
    side of signal/wait, so an always-satisfied wait would show nothing.
    """

    def __init__(self, rounds: int = 8, gap_cycles: int = 600) -> None:
        self.name = "ubench_signal_wait"
        self.rounds = rounds
        self.gap_cycles = gap_cycles

    def build(self, machine: Machine) -> List[ThreadBody]:
        style = style_for(machine.config)
        n = machine.config.num_threads
        if n < 2:
            raise ValueError("signal/wait needs at least two threads")
        sw = make_signal_wait(style)
        sw.setup(machine.layout, n)
        self.seed_values(machine, sw.initial_values())
        consumers = n - 1

        def producer(ctx):
            for _round in range(self.rounds):
                yield Compute(self.gap_cycles
                              + ctx.rng.randrange(self.gap_cycles // 4))
                for _ in range(consumers):
                    yield from sw.signal(ctx)

        def consumer(ctx):
            for _round in range(self.rounds):
                yield from sw.wait(ctx)
                yield Compute(1 + ctx.rng.randrange(20))

        return [producer] + [consumer] * consumers
