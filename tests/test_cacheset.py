"""Way-partitioned cache set behaviour."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.cacheset import CacheSet, Eviction


class TestBasics:
    def test_miss_then_hit(self):
        s = CacheSet(2)
        assert s.lookup(10) is None
        s.insert(10, 0, (0, 1))
        assert s.lookup(10) is not None
        assert s.probe(10) is not None

    def test_probe_does_not_touch(self):
        s = CacheSet(2)
        s.insert(1, 0, (0, 1))
        s.insert(2, 0, (0, 1))
        s.probe(1)  # must NOT refresh recency
        ev = s.insert(3, 0, (0, 1))
        assert ev.tag == 1

    def test_lru_eviction_order(self):
        s = CacheSet(2)
        s.insert(1, 0, (0, 1))
        s.insert(2, 0, (0, 1))
        s.lookup(1)
        ev = s.insert(3, 0, (0, 1))
        assert ev == Eviction(2, False, 0)

    def test_duplicate_insert_rejected(self):
        s = CacheSet(2)
        s.insert(1, 0, (0, 1))
        with pytest.raises(ValueError):
            s.insert(1, 0, (0, 1))

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CacheSet(2).insert(1, 0, ())

    def test_occupancy(self):
        s = CacheSet(4)
        for t in range(3):
            s.insert(t, 0, (0, 1, 2, 3))
        assert s.occupancy() == 3
        assert sorted(s.resident_tags()) == [0, 1, 2]


class TestDirty:
    def test_write_insert_marks_dirty(self):
        s = CacheSet(1)
        s.insert(1, 0, (0,), dirty=True)
        ev = s.insert(2, 0, (0,))
        assert ev.dirty

    def test_write_hit_marks_dirty(self):
        s = CacheSet(1)
        s.insert(1, 0, (0,))
        s.lookup(1, is_write=True)
        assert s.insert(2, 0, (0,)).dirty

    def test_set_dirty_explicit(self):
        s = CacheSet(1)
        s.insert(1, 0, (0,))
        s.set_dirty(1)
        assert s.invalidate(1).dirty
        with pytest.raises(KeyError):
            s.set_dirty(99)


class TestInvalidate:
    def test_invalidate_removes(self):
        s = CacheSet(2)
        s.insert(1, 0, (0, 1))
        ev = s.invalidate(1)
        assert ev.tag == 1
        assert s.lookup(1) is None
        assert s.occupancy() == 0

    def test_invalidate_absent_is_none(self):
        assert CacheSet(2).invalidate(5) is None

    def test_invalidated_way_reused_first(self):
        s = CacheSet(2)
        s.insert(1, 0, (0, 1))
        s.insert(2, 0, (0, 1))
        s.invalidate(1)
        assert s.insert(3, 0, (0, 1)) is None  # reuses the freed way


class TestPartitioning:
    def test_victim_only_from_candidates(self):
        """The paper's modified LRU: core B's fill may not evict core A's
        line when B's candidate ways exclude it."""
        s = CacheSet(4)
        s.insert(100, 0, (0, 1))  # core 0 owns ways 0-1
        s.insert(101, 0, (0, 1))
        s.insert(200, 1, (2, 3))  # core 1 owns ways 2-3
        s.insert(201, 1, (2, 3))
        ev = s.insert(202, 1, (2, 3))
        assert ev.owner == 1
        assert ev.tag in (200, 201)
        assert s.probe(100) is not None and s.probe(101) is not None

    def test_owner_tracking(self):
        s = CacheSet(2)
        s.insert(1, 7, (0, 1))
        assert s.owner_of(1) == 7
        assert s.ways_of_core(7) == [s.probe(1)]
        with pytest.raises(KeyError):
            s.owner_of(123)

    def test_hit_allowed_on_any_way(self):
        """Lookups may hit outside the requester's ways (paper: only
        replacement is restricted)."""
        s = CacheSet(2)
        s.insert(1, 0, (0,))
        assert s.lookup(1) is not None  # any core may read it


class TestAgainstReferenceModel:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.booleans()),
            min_size=1,
            max_size=120,
        )
    )
    def test_full_set_matches_lru_reference(self, ops):
        """Un-partitioned CacheSet == textbook LRU list, access by access."""
        ways = 4
        s = CacheSet(ways)
        ref: list[int] = []  # MRU..LRU
        for tag, _w in ops:
            hit_model = tag in ref
            hit_real = s.lookup(tag) is not None
            assert hit_real == hit_model
            if hit_model:
                ref.remove(tag)
            else:
                ev = s.insert(tag, 0, tuple(range(ways)))
                if len(ref) == ways:
                    assert ev is not None and ev.tag == ref[-1]
                    ref.pop()
                else:
                    assert ev is None
            ref.insert(0, tag)
