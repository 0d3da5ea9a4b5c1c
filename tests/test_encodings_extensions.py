"""Encoding fidelity for the extension algorithms (MCS, ticket, RW lock,
dissemination barrier), in the style of tests/test_encodings.py."""

from repro.config import SystemConfig
from repro.mem.layout import MemoryLayout
from repro.protocols import ops
from repro.sync import DisseminationBarrier, MCSLock, TicketLock
from repro.sync.base import SyncStyle
from repro.sync.mcs import NIL
from repro.sync.rwlock import RWLock

from tests.test_encodings import FakeCtx, ScriptedRun


def setup(primitive, threads=4):
    layout = MemoryLayout(SystemConfig(num_cores=4))
    primitive.setup(layout, threads)
    return primitive


class TestMCSEncodings:
    def test_uncontended_acquire_has_no_spin(self):
        lock = setup(MCSLock(SyncStyle.CB_ONE))

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.SWAP
                return ops.AtomicResult(NIL, True)  # no predecessor
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        kinds = run.kinds()
        # st next=nil, swap tail, fence — and crucially no Load(CB) spin.
        assert kinds == ["StoreThrough", "Atomic", "Fence"]

    def test_contended_acquire_arms_before_linking(self):
        """locked=1 must be stored before pred.next is linked."""
        lock = setup(MCSLock(SyncStyle.CB_ONE))
        stores = []

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(0xAAA000, True)  # predecessor
            if isinstance(op, ops.StoreThrough):
                stores.append((op.addr, op.value))
                return None
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return 0  # released immediately
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        # stores: next=nil, locked=1, pred.next=node.
        assert len(stores) == 3
        assert stores[1][1] == 1           # arm own locked flag...
        assert stores[2][0] == 0xAAA000    # ...before linking pred.next

    def test_release_cas_fast_path(self):
        """No successor: release is one load + one CAS, no stores."""
        lock = setup(MCSLock(SyncStyle.CB_ONE))

        def responder(op, _i):
            if isinstance(op, ops.LoadThrough):
                return NIL  # next == nil
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.CAS
                return ops.AtomicResult(0, True)
            return None

        run = ScriptedRun(responder)
        run.drive(lock.release(FakeCtx()))
        assert run.kinds() == ["Fence", "LoadThrough", "Atomic"]

    def test_release_waits_for_late_linker(self):
        """CAS fails (successor mid-enqueue): spin on next, then signal."""
        lock = setup(MCSLock(SyncStyle.CB_ONE))
        values = iter([NIL,        # first next read
                       NIL, 0xBBB000])  # guard then ld_cb sees the link
        signals = []

        def responder(op, _i):
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(0xCCC000, False)  # CAS failed
            if isinstance(op, ops.StoreThrough):
                signals.append((op.addr, op.value))
                return None
            return None

        run = ScriptedRun(responder)
        run.drive(lock.release(FakeCtx()))
        # The successor's locked flag is cleared at the end.
        assert signals[-1][1] == 0


class TestTicketEncodings:
    def test_acquire_takes_ticket_then_spins(self):
        lock = setup(TicketLock(SyncStyle.CB_ONE))
        values = iter([0, 1])  # serving=0 != ticket 1; ld_cb sees 1

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.FETCH_ADD
                return ops.AtomicResult(1, True)  # my ticket = 1
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["Atomic", "LoadThrough", "LoadCB", "Fence"]

    def test_release_broadcasts_by_default(self):
        lock = setup(TicketLock(SyncStyle.CB_ONE))

        def responder(op, _i):
            if isinstance(op, ops.LoadThrough):
                return 3
            return None

        run = ScriptedRun(responder)
        run.drive(lock.release(FakeCtx()))
        kinds = run.kinds()
        assert kinds[-1] == "StoreThrough"  # st_cbA, not st_cb1
        assert run.ops[-1].value == 4

    def test_mesi_uses_local_spin(self):
        lock = setup(TicketLock(SyncStyle.MESI))

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(0, True)
            if isinstance(op, ops.SpinUntil):
                return 0
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["Atomic", "SpinUntil"]


class TestRWLockEncodings:
    def test_reader_defers_to_writers(self):
        lock = setup(RWLock(SyncStyle.CB_ONE))
        reads = []

        def responder(op, _i):
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                reads.append(op.addr)
                return 0  # no writers waiting, lock free
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.CAS
                return ops.AtomicResult(0, True)
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire_read(FakeCtx()))
        # First probe is the writers_waiting word, then the state word.
        assert reads[0] == lock.writers_waiting_addr
        assert reads[1] == lock.state_addr

    def test_writer_announces_itself_first(self):
        lock = setup(RWLock(SyncStyle.CB_ONE))
        atomics = []

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                atomics.append((op.addr, op.kind))
                return ops.AtomicResult(0, True)
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return 0
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire_write(FakeCtx()))
        assert atomics[0] == (lock.writers_waiting_addr,
                              ops.AtomicKind.FETCH_ADD)
        assert atomics[1][1] is ops.AtomicKind.CAS


class TestDisseminationEncodings:
    def test_round_structure(self):
        """4 threads -> 2 rounds: signal partner then wait, twice."""
        barrier = setup(DisseminationBarrier(SyncStyle.CB_ALL, 4))
        ctx = FakeCtx()
        ctx.tid = 0
        signalled = []

        def responder(op, _i):
            if isinstance(op, ops.StoreThrough):
                signalled.append(op.addr)
                return None
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return 1  # my sense arrives immediately
            return None

        run = ScriptedRun(responder)
        run.drive(barrier.wait(ctx))
        # Partners of thread 0: thread 1 (round 0), thread 2 (round 1).
        assert signalled == [barrier._flags[1][0], barrier._flags[2][1]]
        kinds = [k for k in run.kinds() if k != "Fence"]
        assert kinds == ["StoreThrough", "LoadThrough",
                         "StoreThrough", "LoadThrough"]

    def test_sense_alternates_across_episodes(self):
        barrier = setup(DisseminationBarrier(SyncStyle.CB_ALL, 2),
                        threads=2)
        ctx = FakeCtx()
        senses = []

        def responder(op, _i):
            if isinstance(op, ops.StoreThrough):
                senses.append(op.value)
                return None
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return senses[-1]
            return None

        ScriptedRun(responder).drive(barrier.wait(ctx))
        ScriptedRun(responder).drive(barrier.wait(ctx))
        assert senses == [1, 0]  # sense reverses per episode
