"""Set-associative cache with LRU replacement."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import config_for
from repro.core.machine import Machine
from repro.mem import cache as cache_module
from repro.mem.cache import SetAssociativeCache
from repro.workloads.suite import get_workload


class TestBasics:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(sets=4, ways=2)
        assert cache.lookup(10) is None
        cache.insert(10, "payload")
        entry = cache.lookup(10)
        assert entry is not None and entry.payload == "payload"

    def test_insert_same_line_replaces_payload(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        _e, victim = cache.insert(1, "b")
        assert victim is None
        assert cache.lookup(1).payload == "b"
        assert len(cache) == 1

    def test_eviction_returns_victim(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        _e, victim = cache.insert(3, "c")
        assert victim is not None and victim.line == 1
        assert cache.lookup(1) is None

    def test_lru_touch_protects_line(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.lookup(1)  # 1 becomes MRU
        _e, victim = cache.insert(3, "c")
        assert victim.line == 2

    def test_lookup_without_touch(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.lookup(1, touch=False)
        _e, victim = cache.insert(3, "c")
        assert victim.line == 1  # 1 stayed LRU

    def test_sets_isolate_lines(self):
        cache = SetAssociativeCache(sets=2, ways=1)
        cache.insert(0, "even")
        cache.insert(1, "odd")
        assert len(cache) == 2  # different sets, no eviction

    def test_remove(self):
        cache = SetAssociativeCache(sets=2, ways=2)
        cache.insert(4, "x")
        removed = cache.remove(4)
        assert removed.payload == "x"
        assert cache.remove(4) is None

    def test_choose_victim_predicts_insert(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        predicted = cache.choose_victim(3)
        _e, actual = cache.insert(3, "c")
        assert predicted.line == actual.line

    def test_choose_victim_none_when_space(self):
        cache = SetAssociativeCache(sets=1, ways=2)
        cache.insert(1, "a")
        assert cache.choose_victim(2) is None
        assert cache.choose_victim(1) is None  # resident: no eviction

    def test_evict_matching(self):
        cache = SetAssociativeCache(sets=2, ways=4)
        for line in range(6):
            cache.insert(line, "shared" if line % 3 == 0 else "private")
        removed = cache.evict_matching(lambda e: e.payload == "shared")
        assert sorted(e.line for e in removed) == [0, 3]
        assert len(cache) == 4

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(sets=0, ways=1)
        with pytest.raises(ValueError):
            SetAssociativeCache(sets=1, ways=0)


class TestLazySets:
    def test_a_set_gets_its_own_dict_on_its_first_fill(self):
        cache = SetAssociativeCache(sets=4, ways=2)
        shared = cache_module._NO_LINES
        assert all(bucket is shared for bucket in cache._sets)
        assert cache.ckpt_state(str) == {"sets": 4, "lines": {}}
        # Misses, removals and scans of untouched sets mutate nothing.
        assert cache.lookup(6) is None and cache.remove(6) is None
        assert cache.choose_victim(6) is None
        assert cache.evict_matching(lambda entry: True) == []
        cache.insert(5, "a")
        assert cache._sets[1] is not shared
        assert [bucket is shared for bucket in cache._sets] == [
            True, False, True, True]
        assert cache.ckpt_state(str) == {"sets": 4, "lines": {1: [[5, "a"]]}}
        assert list(cache.entries_in_sets_of([6, 5, 4])) == [
            cache.lookup(5)]
        assert not shared

    @pytest.mark.parametrize("label", ["Invalidation", "CB-One"])
    def test_the_shared_empty_set_is_still_empty_after_a_run(self, label):
        machine = Machine(config_for(label, num_cores=16, seed=1))
        get_workload("barnes", "clh", "treesr", 0.05).install(machine)
        machine.run()
        shared = cache_module._NO_LINES
        assert not shared
        sets = [bucket for l1 in machine.protocol.l1 for bucket in l1._sets]
        assert any(bucket is shared for bucket in sets)
        assert any(bucket is not shared for bucket in sets)


class TestLRUProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)),
                    min_size=1, max_size=200),
           st.integers(1, 4), st.integers(1, 4))
    def test_matches_reference_lru(self, ops, sets, ways):
        """The cache must agree with a straightforward LRU model."""
        cache = SetAssociativeCache(sets=sets, ways=ways)
        model = [OrderedDict() for _ in range(sets)]
        for is_insert, line in ops:
            bucket = model[line % sets]
            if is_insert:
                cache.insert(line, line)
                if line in bucket:
                    bucket.move_to_end(line)
                else:
                    if len(bucket) >= ways:
                        bucket.popitem(last=False)
                    bucket[line] = line
            else:
                entry = cache.lookup(line)
                if line in bucket:
                    assert entry is not None
                    bucket.move_to_end(line)
                else:
                    assert entry is None
        assert sorted(cache.lines()) == sorted(
            line for bucket in model for line in bucket
        )
