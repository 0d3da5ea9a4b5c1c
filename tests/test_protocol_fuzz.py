"""Protocol fuzzing: random racy-op soups must never corrupt or deadlock.

Strategy: generate a random sequence of racy operations per thread with
the single structural rule of the paper's Section 3.3 (a ld_cb spin is
always guarded and always bounded by a wake source) replaced by a
stronger harness guarantee — a dedicated "flusher" thread periodically
issues st_cbA writes to every word, so every parked callback is
eventually answered no matter what the fuzz did. Invariants are audited
afterwards, and value sanity is asserted throughout.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze.hb import RaceMonitor
from repro.config import config_for
from repro.core.machine import Machine
from repro.protocols import ops
from repro.validation import audit_machine
from tests.protocol_utils import start

LABELS = ("CB-All", "CB-One")


def _assert_race_free(report):
    """Every conflicting access in the run must be annotated (Table 1)."""
    assert not report.errors(), "\n".join(
        f"{finding.brief()}\n  witness: {finding.witness}"
        for finding in report.errors())

op_kind = st.sampled_from(
    ["ld_through", "st_through", "st_cb1", "st_cb0", "tas", "faa", "swap",
     "ld_cb"]
)


def _op_for(kind: str, addr: int, value: int) -> ops.Op:
    if kind == "ld_through":
        return ops.LoadThrough(addr)
    if kind == "ld_cb":
        return ops.LoadCB(addr)
    if kind == "st_through":
        return ops.StoreThrough(addr, value)
    if kind == "st_cb1":
        return ops.StoreCB1(addr, value)
    if kind == "st_cb0":
        return ops.StoreCB0(addr, value)
    if kind == "tas":
        return ops.Atomic(addr, ops.AtomicKind.TAS, (0, 1))
    if kind == "faa":
        return ops.Atomic(addr, ops.AtomicKind.FETCH_ADD, (1,))
    if kind == "swap":
        return ops.Atomic(addr, ops.AtomicKind.SWAP, (value,))
    raise AssertionError(kind)


@settings(max_examples=25, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    script=st.lists(
        st.tuples(st.integers(0, 3), op_kind, st.integers(0, 2),
                  st.integers(1, 7)),
        min_size=1, max_size=60,
    ),
    entries=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_random_racy_soup_never_deadlocks(label, script, entries, seed):
    """Each tuple is (thread, op kind, word index, value)."""
    cfg = config_for(label, num_cores=4, seed=seed,
                     cb_entries_per_bank=entries)
    machine = Machine(cfg)
    words = [machine.layout.alloc_sync_word() for _ in range(3)]
    per_thread = {t: [] for t in range(4)}
    for thread, kind, word_index, value in script:
        per_thread[thread].append((kind, words[word_index], value))

    done = {"fuzzers": 0}

    def body(steps):
        def gen(ctx):
            for kind, addr, value in steps:
                yield _op_for(kind, addr, value)
                yield ops.Compute(1 + ctx.rng.randrange(10))
            done["fuzzers"] += 1
        return gen

    def flusher(ctx):
        # Guarantees forward progress: every word gets periodic st_cbA
        # writes (answering every parked callback) until all fuzz
        # threads have run to completion.
        while done["fuzzers"] < 3:
            yield ops.Compute(50)
            for addr in words:
                yield ops.StoreThrough(addr, 0)

    bodies = [body(per_thread[t]) for t in range(3)] + [flusher]
    monitor = RaceMonitor(machine)
    machine.spawn(bodies)
    machine.run()  # DeadlockError would propagate
    audit_machine(machine)
    # Purely annotated traffic: the happens-before sanitizer must not
    # report a single unannotated race, whatever the fuzz interleaved.
    _assert_race_free(monitor.finish())
    # After the final flush rounds, every word holds the flusher's 0 or a
    # later fuzz write that landed after it — always a value someone wrote.
    for addr in words:
        assert machine.store.read(addr) >= 0


@settings(max_examples=15, deadline=None)
@given(
    script=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_mesi_random_load_store_soup_keeps_swmr(script, seed):
    """Random plain load/store interleavings: SWMR audited after every
    quiescent point."""
    from repro.validation import check_mesi_swmr
    cfg = config_for("Invalidation", num_cores=4, seed=seed)
    machine = Machine(cfg)
    words = [0x4000, 0x4040, 0x8000]
    counter = {"writes": 0}

    results = []
    for i, (thread, word_index) in enumerate(script):
        addr = words[word_index]
        if i % 2:
            counter["writes"] += 1
            results.append(start(machine, thread, ops.Store(addr, i)))
        else:
            results.append(start(machine, thread, ops.Load(addr)))
    machine.engine.run()
    assert all(r.done for r in results)
    check_mesi_swmr(machine.protocol)
