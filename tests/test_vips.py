"""VIPS-M protocol: fences, classification effects, racy ops, atomics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import config_for
from repro.core.machine import Machine
from repro.noc.messages import MsgKind
from repro.protocols import ops

from tests.protocol_utils import issue, start

ADDR = 0x4000
PAGE = 4096


def machine(cores=4):
    return Machine(config_for("BackOff-10", num_cores=cores))


class TestDataPath:
    def test_load_fills_and_hits(self):
        m = machine()
        issue(m, 0, ops.Load(ADDR))
        assert m.stats.l1_misses == 1
        before = m.stats.l1_hits
        issue(m, 0, ops.Load(ADDR))
        assert m.stats.l1_hits == before + 1

    def test_store_marks_dirty_word(self):
        m = machine()
        issue(m, 0, ops.Store(ADDR, 5))
        line = m.protocol.addr_map.line_of(ADDR)
        payload = m.protocol.l1[0].lookup(line).payload
        assert m.protocol.addr_map.word_base(ADDR) in payload.dirty_words
        assert m.store.read(ADDR) == 5

    def test_first_touch_private_classification(self):
        m = machine()
        issue(m, 0, ops.Load(ADDR))
        line = m.protocol.addr_map.line_of(ADDR)
        assert m.protocol.l1[0].lookup(line).payload.shared is False

    def test_second_core_touch_classifies_shared(self):
        m = machine()
        issue(m, 0, ops.Load(ADDR))
        issue(m, 1, ops.Load(ADDR + PAGE // 2))  # same page
        line = m.protocol.addr_map.line_of(ADDR + PAGE // 2)
        assert m.protocol.l1[1].lookup(line).payload.shared is True


class TestFences:
    def test_self_invl_discards_only_shared_lines(self):
        m = machine()
        private_addr = 0x10000
        shared_addr = 0x20000
        issue(m, 1, ops.Load(shared_addr))  # touch from another core first
        issue(m, 0, ops.Load(private_addr))
        issue(m, 0, ops.Load(shared_addr))  # now shared for core 0
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_INVL))
        priv_line = m.protocol.addr_map.line_of(private_addr)
        shared_line = m.protocol.addr_map.line_of(shared_addr)
        assert m.protocol.l1[0].lookup(priv_line) is not None
        assert m.protocol.l1[0].lookup(shared_line) is None
        assert m.stats.lines_self_invalidated == 1

    def test_self_down_writes_through_dirty_shared_words(self):
        m = machine()
        shared_addr = 0x20000
        issue(m, 1, ops.Load(shared_addr))
        issue(m, 0, ops.Store(shared_addr, 3))
        before = m.stats.words_written_through
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_DOWN))
        assert m.stats.words_written_through == before + 1
        # A second self_down has nothing left to flush.
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_DOWN))
        assert m.stats.words_written_through == before + 1

    def test_self_down_skips_private_dirty(self):
        """VIPS-M excludes private data from coherence actions."""
        m = machine()
        issue(m, 0, ops.Store(0x30000, 3))  # private first touch
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_DOWN))
        assert m.stats.words_written_through == 0

    def test_self_invl_flushes_transient_dirty_first(self):
        """Footnote 7: self_invl also downgrades dirty shared words."""
        m = machine()
        shared_addr = 0x20000
        issue(m, 1, ops.Load(shared_addr))
        issue(m, 0, ops.Store(shared_addr, 3))
        issue(m, 0, ops.Fence(ops.FenceKind.SELF_INVL))
        assert m.stats.words_written_through == 1
        line = m.protocol.addr_map.line_of(shared_addr)
        assert m.protocol.l1[0].lookup(line) is None


class TestRacyOps:
    def test_load_through_bypasses_l1(self):
        m = machine()
        issue(m, 0, ops.Load(ADDR))  # cached
        misses = m.stats.l1_misses
        m.store.write(ADDR, 9)  # value changes behind the L1's back
        assert issue(m, 0, ops.LoadThrough(ADDR)) == 9
        assert m.stats.l1_misses == misses  # L1 untouched

    def test_load_through_counts_sync_access(self):
        m = machine()
        before = m.stats.llc_sync_accesses
        issue(m, 0, ops.LoadThrough(ADDR))
        assert m.stats.llc_sync_accesses == before + 1

    def test_store_through_updates_llc(self):
        m = machine()
        issue(m, 0, ops.StoreThrough(ADDR, 4))
        assert m.store.read(ADDR) == 4

    def test_st_cb_variants_behave_as_store_through(self):
        m = machine()
        issue(m, 0, ops.StoreCB1(ADDR, 1))
        assert m.store.read(ADDR) == 1
        issue(m, 0, ops.StoreCB0(ADDR, 2))
        assert m.store.read(ADDR) == 2

    def test_ld_cb_degenerates_to_ld_through(self):
        m = machine()
        m.store.write(ADDR, 6)
        assert issue(m, 0, ops.LoadCB(ADDR)) == 6

    def test_spin_until_rejected(self):
        m = machine()
        with pytest.raises(TypeError, match="SpinUntil"):
            start(m, 0, ops.SpinUntil(ADDR, lambda v: True))


class TestAtomics:
    def test_tas_at_llc(self):
        m = machine()
        r = issue(m, 0, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1)))
        assert (r.old, r.success) == (0, True)
        r = issue(m, 1, ops.Atomic(ADDR, ops.AtomicKind.TAS, (0, 1)))
        assert (r.old, r.success) == (1, False)

    def test_concurrent_fetch_adds_all_distinct(self):
        m = machine()
        results = [
            start(m, c, ops.Atomic(ADDR, ops.AtomicKind.FETCH_ADD, (1,)))
            for c in range(4)
        ]
        m.engine.run()
        assert m.store.read(ADDR) == 4
        assert sorted(r.value.old for r in results) == [0, 1, 2, 3]

    def test_swap_returns_old(self):
        m = machine()
        m.store.write(ADDR, 11)
        r = issue(m, 0, ops.Atomic(ADDR, ops.AtomicKind.SWAP, (22,)))
        assert r.old == 11 and m.store.read(ADDR) == 22

    def test_tdec_fails_at_zero(self):
        m = machine()
        r = issue(m, 0, ops.Atomic(ADDR, ops.AtomicKind.TDEC))
        assert (r.old, r.success) == (0, False)
        m.store.write(ADDR, 2)
        r = issue(m, 0, ops.Atomic(ADDR, ops.AtomicKind.TDEC))
        assert (r.old, r.success) == (2, True)
        assert m.store.read(ADDR) == 1


class TestEvictionWriteThrough:
    def test_dirty_shared_victim_writes_through(self):
        cfg = config_for("BackOff-10", num_cores=4, l1_size_bytes=512,
                         l1_ways=1)
        m = Machine(cfg)
        a = 0x10000
        b = a + cfg.l1_sets * cfg.line_bytes  # same set as a
        issue(m, 1, ops.Load(a))             # make a's page shared
        issue(m, 0, ops.Store(a, 5))         # dirty shared line at core 0
        wb = m.stats.writebacks
        issue(m, 0, ops.Load(b))             # evicts it
        assert m.stats.writebacks == wb + 1


# ----------------------------------------------- fence indexes vs full scan

TINY_L1 = {"l1_size_bytes": 256, "l1_ways": 2}  # 2 sets x 2 ways
SHARED_PAGE = 0x40000


def _own_page(core):
    return 0x80000 + core * PAGE


def _scan_indexes(protocol, node):
    """The fence indexes of L1 ``node`` derived from its contents."""
    entries = list(protocol.l1[node])
    shared = {e.line for e in entries if e.payload.shared}
    dirty = {e.line for e in entries
             if e.payload.shared and e.payload.dirty_words}
    return shared, dirty


def _scan_fence(protocol, node, kind):
    """What a fence does under a full scan of the L1: the lines
    ``self_invl`` removes and the ordered (src, dst, kind) sends."""
    banks = protocol.config.num_banks
    removed, sends = [], []
    for entry in protocol.l1[node]:
        if entry.payload.shared and entry.payload.dirty_words:
            bank = entry.line % banks
            sends += ([(node, bank, MsgKind.WRITE_THROUGH)]
                      * len(entry.payload.dirty_words))
            sends.append((bank, node, MsgKind.ACK))
        if entry.payload.shared and kind is ops.FenceKind.SELF_INVL:
            removed.append(entry.line)
    return removed, sends


def _record_fence(m, core, kind):
    """Issue a fence; return the lines it removed and its sends."""
    protocol = m.protocol
    l1 = protocol.l1[protocol.l1_of(core)]
    sends, removed = [], []
    send, evict = protocol.network.send, l1.evict_matching

    def recording_send(src, dst, msg_kind, handler, sync=False):
        sends.append((src, dst, msg_kind))
        return send(src, dst, msg_kind, handler, sync)

    def recording_evict(*args, **kwargs):
        lines = evict(*args, **kwargs)
        removed.extend(entry.line for entry in lines)
        return lines

    protocol.network.send = recording_send
    l1.evict_matching = recording_evict
    try:
        issue(m, core, ops.Fence(kind))
    finally:
        del protocol.network.send, l1.evict_matching
    return removed, sends


fence_step = st.tuples(
    st.sampled_from(["load", "store", "refill", "self_invl", "self_down",
                     "drop"]),
    st.integers(0, 1),      # core
    st.booleans(),          # shared page (else the core's own page)
    st.integers(0, 3),      # line within the page
    st.integers(0, 7),      # word within the line / drop selector
)


class TestFenceIndexes:
    @settings(max_examples=60, deadline=None)
    @given(label=st.sampled_from(["BackOff-10", "CB-One"]),
           policy=st.sampled_from(["lru", "fifo", "random"]),
           script=st.lists(fence_step, min_size=10, max_size=60))
    def test_indexes_track_l1_and_fences_match_full_scan(
            self, label, policy, script):
        m = Machine(config_for(label, num_cores=4, l1_replacement=policy,
                               **TINY_L1))
        protocol = m.protocol
        assert protocol.config.l1_sets == 2
        # Touched by a third core first: its lines fill as shared.
        protocol.classifier.touch(SHARED_PAGE, 2)
        for kind, core, shared, line, word in script:
            node = protocol.l1_of(core)
            page = SHARED_PAGE if shared else _own_page(core)
            addr = page + line * protocol.config.line_bytes + word * 8
            if kind == "load":
                issue(m, core, ops.Load(addr))
            elif kind == "store":
                issue(m, core, ops.Store(addr, word))
            elif kind == "refill":
                # On a miss, two fetches of one line are in flight: the
                # load's fill replaces the payload the store dirtied.
                store = start(m, core, ops.Store(addr, word))
                load = start(m, core, ops.Load(addr))
                m.engine.run()
                assert store.done and load.done
            elif kind == "drop":
                protocol.drop_clean_line(core, word)
            else:
                fence = (ops.FenceKind.SELF_INVL if kind == "self_invl"
                         else ops.FenceKind.SELF_DOWN)
                expected = _scan_fence(protocol, node, fence)
                assert _record_fence(m, core, fence) == expected
            for l1 in range(len(protocol.l1)):
                assert (protocol._shared_lines[l1],
                        protocol._dirty_shared_lines[l1]) == \
                    _scan_indexes(protocol, l1)
