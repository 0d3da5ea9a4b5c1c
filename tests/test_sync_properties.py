"""Property-based synchronization tests: randomized schedules must never
break mutual exclusion, barrier epochs, or forward progress."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.hb import RaceMonitor
from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols.ops import Compute
from repro.sync import make_barrier, make_lock, style_for

LABELS = ("Invalidation", "BackOff-0", "CB-All", "CB-One")


def _assert_race_free(report):
    """The encoding's issued ops must be race-free modulo annotation;
    failures print the happens-before witness."""
    assert not report.errors(), "\n".join(
        f"{finding.brief()}\n  witness: {finding.witness}"
        for finding in report.errors())


@settings(max_examples=20, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    lock_name=st.sampled_from(["tas", "ttas", "clh"]),
    threads=st.sampled_from([1, 4]),
    iterations=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_lock_counter_never_loses_updates(label, lock_name, threads,
                                          iterations, seed):
    cfg = config_for(label, num_cores=max(threads, 4), seed=seed)
    machine = Machine(cfg)
    lock = make_lock(lock_name, style_for(cfg))
    lock.setup(machine.layout, threads)
    for addr, value in lock.initial_values().items():
        machine.store.write(addr, value)
    counter = machine.layout.alloc_sync_word()

    def body(ctx):
        for _ in range(iterations):
            yield Compute(1 + ctx.rng.randrange(30))
            yield from lock.acquire(ctx)
            value = machine.store.read(counter)
            yield Compute(1 + ctx.rng.randrange(8))
            machine.store.write(counter, value + 1)
            yield from lock.release(ctx)

    monitor = RaceMonitor(machine)
    machine.spawn([body] * threads)
    machine.run()
    assert machine.store.read(counter) == threads * iterations
    _assert_race_free(monitor.finish())


@settings(max_examples=15, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    barrier_name=st.sampled_from(["sr", "treesr"]),
    episodes=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_barrier_epochs_never_violated(label, barrier_name, episodes, seed):
    threads = 4
    cfg = config_for(label, num_cores=threads, seed=seed)
    machine = Machine(cfg)
    style = style_for(cfg)
    if barrier_name == "sr":
        barrier = make_barrier("sr", style, threads,
                               lock=make_lock("ttas", style))
    else:
        barrier = make_barrier(barrier_name, style, threads)
    barrier.setup(machine.layout, threads)
    for addr, value in barrier.initial_values().items():
        machine.store.write(addr, value)
    arrived = [0] * episodes
    ok = []

    def body(ctx):
        for k in range(episodes):
            yield Compute(1 + ctx.rng.randrange(100))
            arrived[k] += 1
            yield from barrier.wait(ctx)
            ok.append(arrived[k] == threads)

    monitor = RaceMonitor(machine)
    machine.spawn([body] * threads)
    machine.run()
    assert all(ok)
    _assert_race_free(monitor.finish())


@settings(max_examples=15, deadline=None)
@given(
    entries=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_tiny_callback_directory_never_deadlocks(entries, seed):
    """Directory pressure (more hot words than entries) must degrade
    gracefully via eviction wakeups, never deadlock."""
    threads = 4
    cfg = config_for("CB-One", num_cores=threads, seed=seed,
                     cb_entries_per_bank=entries)
    machine = Machine(cfg)
    style = style_for(cfg)
    locks = [make_lock("ttas", style) for _ in range(6)]
    for lock in locks:
        lock.setup(machine.layout, threads)
        for addr, value in lock.initial_values().items():
            machine.store.write(addr, value)
    counter = machine.layout.alloc_sync_word()

    def body(ctx):
        for _ in range(3):
            lock = locks[ctx.rng.randrange(len(locks))]
            yield from lock.acquire(ctx)
            machine.store.write(counter, machine.store.read(counter) + 1)
            yield Compute(5)
            yield from lock.release(ctx)

    monitor = RaceMonitor(machine)
    machine.spawn([body] * threads)
    machine.run()  # raises DeadlockError on a lost wakeup
    assert machine.store.read(counter) == threads * 3
    _assert_race_free(monitor.finish())
