"""Encoding fidelity: each algorithm emits the op sequence of its figure.

The paper gives exact instruction sequences (Figures 8-19). These tests
drive each algorithm's generator with a scripted responder and assert
the op stream — kinds, addresses, callback variants, fence placement —
matches the listing. This pins the *encodings*, independently of the
protocols executing them.
"""

from repro.config import SystemConfig
from repro.mem.layout import MemoryLayout
from repro.protocols import ops
from repro.sync import (CLHLock, SRBarrier, SignalWait, TASLock,
                        TreeSRBarrier, TTASLock)
from repro.sync.base import SyncStyle
from tests.spin_loop import expand_spins


class ScriptedRun:
    """Drives a sync generator, feeding scripted results and logging ops."""

    def __init__(self, responder):
        self.responder = responder
        self.ops = []

    def drive(self, gen, limit=200):
        try:
            result = None
            for _ in range(limit):
                op = gen.send(result)
                self.ops.append(op)
                result = self.responder(op, len(self.ops))
            raise AssertionError("generator did not finish")
        except StopIteration:
            pass
        return self.ops

    def kinds(self):
        return [type(op).__name__ for op in self.ops]


class FakeCtx:
    tid = 0
    now = 0

    def record_episode(self, category, start):
        pass

    def span_begin(self, name, **args):
        pass

    def span_end(self, name, **args):
        pass

    def mark(self, name, **args):
        pass


def make_lock(cls, style, threads=4):
    layout = MemoryLayout(SystemConfig(num_cores=4))
    lock = cls(style)
    lock.setup(layout, threads)
    return lock


class TestTASEncodings:
    def test_mesi_is_bare_tas_loop(self):
        """Figure 8 left: acq: t&s; bnez acq — nothing else."""
        lock = make_lock(TASLock, SyncStyle.MESI)
        fails = {"n": 2}

        def responder(op, _i):
            assert isinstance(op, ops.Atomic)
            assert op.kind is ops.AtomicKind.TAS
            fails["n"] -= 1
            return ops.AtomicResult(1, False) if fails["n"] >= 0 \
                else ops.AtomicResult(0, True)

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["Atomic", "Atomic", "Atomic"]

    def test_mesi_release_is_plain_store(self):
        lock = make_lock(TASLock, SyncStyle.MESI)
        run = ScriptedRun(lambda op, i: None)
        run.drive(lock.release(FakeCtx()))
        assert run.kinds() == ["Store"]
        assert run.ops[0].value == 0

    def test_vips_has_fences_and_backoff(self):
        """Figure 8 right: t&s with back-off between retries, self_invl
        before the CS, self_down before the releasing st_through."""
        lock = make_lock(TASLock, SyncStyle.VIPS)
        attempts = {"n": 2}

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                attempts["n"] -= 1
                return (ops.AtomicResult(0, True) if attempts["n"] < 0
                        else ops.AtomicResult(1, False))
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["Atomic", "BackoffWait", "Atomic",
                               "BackoffWait", "Atomic", "Fence"]
        assert run.ops[-1].kind is ops.FenceKind.SELF_INVL
        # Back-off attempt numbers increase.
        assert run.ops[1].attempt == 0 and run.ops[3].attempt == 1

        run = ScriptedRun(lambda op, i: None)
        run.drive(lock.release(FakeCtx()))
        assert run.kinds() == ["Fence", "StoreThrough"]
        assert run.ops[0].kind is ops.FenceKind.SELF_DOWN

    def test_cb_one_guard_then_callback_tas(self):
        """Figure 9 right: ld&st0 guard; spn: ld_cb&st0 until success."""
        lock = make_lock(TASLock, SyncStyle.CB_ONE)
        seen = []

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                seen.append((op.ld, op.st))
                return (ops.AtomicResult(0, True) if len(seen) == 3
                        else ops.AtomicResult(1, False))
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert seen[0] == (ops.LdKind.PLAIN, ops.StKind.CB0)  # guard
        assert seen[1] == (ops.LdKind.CB, ops.StKind.CB0)     # spin
        assert seen[2] == (ops.LdKind.CB, ops.StKind.CB0)

    def test_cb_one_release_is_st_cb1(self):
        """Figure 9 right: rel: st_cb1 L, 0."""
        lock = make_lock(TASLock, SyncStyle.CB_ONE)
        run = ScriptedRun(lambda op, i: None)
        run.drive(lock.release(FakeCtx()))
        assert run.kinds() == ["Fence", "StoreCB1"]

    def test_cb_all_uses_st_through(self):
        """Figure 9 left: plain st halves; release st_through."""
        lock = make_lock(TASLock, SyncStyle.CB_ALL)
        run = ScriptedRun(lambda op, i: None)
        run.drive(lock.release(FakeCtx()))
        assert run.kinds() == ["Fence", "StoreThrough"]


class TestTTASEncodings:
    def test_mesi_spins_locally_then_tas(self):
        """Figure 10 left: ld spin (local), then t&s; fail -> spin."""
        lock = make_lock(TTASLock, SyncStyle.MESI)
        state = {"tas": 0}

        def responder(op, _i):
            if isinstance(op, ops.SpinUntil):
                return 0
            state["tas"] += 1
            return (ops.AtomicResult(0, True) if state["tas"] == 2
                    else ops.AtomicResult(1, False))

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["SpinUntil", "Atomic", "SpinUntil", "Atomic"]

    def test_cb_failed_tas_returns_to_cb_spin_not_guard(self):
        """Figure 11: bnez spn — a failed T&S re-enters the ld_cb loop,
        not the ld_through guard."""
        lock = make_lock(TTASLock, SyncStyle.CB_ONE)
        state = {"tas": 0}

        def responder(op, _i):
            if isinstance(op, ops.LoadThrough):
                return 0  # guard sees the lock free
            if isinstance(op, ops.LoadCB):
                return 0  # spin sees it free again
            state["tas"] += 1
            return (ops.AtomicResult(0, True) if state["tas"] == 2
                    else ops.AtomicResult(1, False))

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        kinds = run.kinds()
        # guard LdThru, TAS(fail), LdCB (spn!), TAS(success), Fence
        assert kinds == ["LoadThrough", "Atomic", "LoadCB", "Atomic",
                         "Fence"]

    def test_spin_uses_ld_cb_after_nonzero_guard(self):
        lock = make_lock(TTASLock, SyncStyle.CB_ALL)
        values = iter([1, 1, 0])  # guard sees taken; ld_cb x2

        def responder(op, _i):
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return ops.AtomicResult(0, True)

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["LoadThrough", "LoadCB", "LoadCB", "Atomic",
                               "Fence"]


class TestCLHEncodings:
    def test_vips_sequence(self):
        """Figure 12 right: st_through succ_wait; f&s; ld_through spin
        with back-off; self_invl. The spin ships as one SpinThrough;
        expanded, it is the figure's probe / back-off loop."""
        lock = make_lock(CLHLock, SyncStyle.VIPS)

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.SWAP
                return ops.AtomicResult(0x999000, True)
            if isinstance(op, ops.SpinThrough):
                assert op.pred(0) and not op.pred(1)
                return 0
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["StoreThrough", "Atomic", "Store",
                               "SpinThrough", "Fence"]

        values = iter([1, 0])  # one busy probe, then free

        def loop_responder(op, i):
            if isinstance(op, ops.LoadThrough):
                return next(values)
            return responder(op, i)

        run = ScriptedRun(loop_responder)
        run.drive(expand_spins(make_lock(CLHLock, SyncStyle.VIPS)
                               .acquire(FakeCtx())))
        assert run.kinds() == ["StoreThrough", "Atomic", "Store",
                               "LoadThrough", "BackoffWait", "LoadThrough",
                               "Fence"]

    def test_cb_guard_then_ld_cb(self):
        """Figure 13: try: ld_through; beqz si; spn: ld_cb."""
        lock = make_lock(CLHLock, SyncStyle.CB_ONE)
        values = iter([1, 1, 0])

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(0x999000, True)
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return None

        run = ScriptedRun(responder)
        run.drive(lock.acquire(FakeCtx()))
        assert run.kinds() == ["StoreThrough", "Atomic", "Store",
                               "LoadThrough", "LoadCB", "LoadCB", "Fence"]

    def test_release_recycles_predecessor_node(self):
        """st I, $p: the thread's node becomes its predecessor's."""
        lock = make_lock(CLHLock, SyncStyle.CB_ONE)
        ctx = FakeCtx()
        node_before = lock._node(0)

        def acquire_responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(0xABC000, True)
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return 0
            return None

        ScriptedRun(acquire_responder).drive(lock.acquire(ctx))

        def release_responder(op, _i):
            if isinstance(op, ops.Load):
                return 0xABC000  # prev pointer read back
            return None

        ScriptedRun(release_responder).drive(lock.release(ctx))
        assert lock._node(0) == 0xABC000
        assert lock._node(0) != node_before


class TestBarrierEncodings:
    def test_sr_last_arrival_releases_with_broadcast(self):
        """Figure 15: the last thread's sense flip is st_through/cbA."""
        barrier = SRBarrier(SyncStyle.CB_ALL, num_threads=2)
        layout = MemoryLayout(SystemConfig(num_cores=4))
        barrier.setup(layout, 2)

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(1, True)  # old == 1: last arrival
            if isinstance(op, ops.LoadThrough):
                return 1  # the new sense
            return None

        run = ScriptedRun(responder)
        run.drive(barrier.wait(FakeCtx()))
        kinds = run.kinds()
        assert kinds[0] == "Fence"               # self_down
        assert "Atomic" in kinds                  # f&d
        store_kinds = [k for k in kinds if k.startswith("Store")]
        assert store_kinds == ["StoreThrough", "StoreThrough"]
        assert kinds[-1] == "Fence"               # self_invl

    def test_sr_waiter_guard_then_ld_cb(self):
        barrier = SRBarrier(SyncStyle.CB_ALL, num_threads=2)
        layout = MemoryLayout(SystemConfig(num_cores=4))
        barrier.setup(layout, 2)
        values = iter([0, 0, 1])  # guard stale, ld_cb stale, ld_cb done

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                return ops.AtomicResult(2, True)  # not last
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return None

        run = ScriptedRun(responder)
        run.drive(barrier.wait(FakeCtx()))
        kinds = run.kinds()
        assert kinds.count("LoadThrough") == 1
        assert kinds.count("LoadCB") == 2

    def test_treesr_leaf_signals_parent_then_spins(self):
        """Figure 17, leaf thread: no arrival spin (no children), signal
        parent slot, guard+ld_cb on the wakeup sense."""
        barrier = TreeSRBarrier(SyncStyle.CB_ALL, num_threads=4)
        layout = MemoryLayout(SystemConfig(num_cores=4))
        barrier.setup(layout, 4)
        ctx = FakeCtx()
        ctx.tid = 3  # leaf (children 7,8 do not exist)
        values = iter([0, 1])  # guard stale, ld_cb satisfied

        def responder(op, _i):
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return None

        run = ScriptedRun(responder)
        run.drive(barrier.wait(ctx))
        kinds = run.kinds()
        # self_down, signal parent (StoreThrough), guard, ld_cb, self_invl
        assert kinds == ["Fence", "StoreThrough", "LoadThrough", "LoadCB",
                         "Fence"]


class TestSignalWaitEncodings:
    def _make(self, style):
        sw = SignalWait(style)
        layout = MemoryLayout(SystemConfig(num_cores=4))
        sw.setup(layout, 4)
        return sw

    def test_cb_one_signal_is_faa_st_cb1(self):
        """Figure 19 right: sig: ld&st1 (fetch&increment)."""
        sw = self._make(SyncStyle.CB_ONE)

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.FETCH_ADD
                assert op.st is ops.StKind.CB1
                return ops.AtomicResult(0, True)
            return None

        run = ScriptedRun(responder)
        run.drive(sw.signal(FakeCtx()))
        assert run.kinds() == ["Fence", "Atomic"]

    def test_cb_all_signal_is_faa_st_cba(self):
        """Figure 19 left: sig: ld&stA."""
        sw = self._make(SyncStyle.CB_ALL)

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.st is ops.StKind.CBA
                return ops.AtomicResult(0, True)
            return None

        ScriptedRun(responder).drive(sw.signal(FakeCtx()))

    def test_wait_claims_with_st_cb0(self):
        """Figure 19: tad: ld&st0 t&d — a successful claim wakes nobody."""
        sw = self._make(SyncStyle.CB_ONE)

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                assert op.kind is ops.AtomicKind.TDEC
                assert op.st is ops.StKind.CB0
                return ops.AtomicResult(1, True)
            if isinstance(op, ops.LoadThrough):
                return 1
            return None

        run = ScriptedRun(responder)
        run.drive(sw.wait(FakeCtx()))
        assert run.kinds() == ["LoadThrough", "Atomic", "Fence"]

    def test_failed_claim_reenters_cb_spin(self):
        """tad fails (another waiter raced): beqz spn — back to ld_cb."""
        sw = self._make(SyncStyle.CB_ALL)
        state = {"tad": 0}
        values = iter([1, 1])  # guard nonzero; ld_cb nonzero

        def responder(op, _i):
            if isinstance(op, ops.Atomic):
                state["tad"] += 1
                return (ops.AtomicResult(1, True) if state["tad"] == 2
                        else ops.AtomicResult(0, False))
            if isinstance(op, (ops.LoadThrough, ops.LoadCB)):
                return next(values)
            return None

        run = ScriptedRun(responder)
        run.drive(sw.wait(FakeCtx()))
        assert run.kinds() == ["LoadThrough", "Atomic", "LoadCB", "Atomic",
                               "Fence"]
