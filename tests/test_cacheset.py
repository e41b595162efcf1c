"""One cache set's way-partitioned LRU behaviour, on one-set banks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.bank import CacheBank, Eviction


def one_set(ways):
    """A bank of a single set: every line maps to it."""
    return CacheBank(0, 1, ways)


class TestBasics:
    def test_miss_then_hit(self):
        s = one_set(2)
        assert not s.access(0, 10)
        s.fill(0, 10)
        assert s.access(0, 10)
        assert s.probe(10)

    def test_probe_does_not_touch(self):
        s = one_set(2)
        s.fill(0, 1)
        s.fill(0, 2)
        s.probe(1)  # must NOT refresh recency
        ev = s.fill(0, 3)
        assert ev.tag == 1

    def test_lru_eviction_order(self):
        s = one_set(2)
        s.fill(0, 1)
        s.fill(0, 2)
        s.access(0, 1)
        ev = s.fill(0, 3)
        assert ev == Eviction(2, False, 0)

    def test_duplicate_insert_rejected(self):
        s = one_set(2)
        s.fill(0, 1)
        with pytest.raises(ValueError):
            s.fill(0, 1)

    def test_empty_candidates_rejected(self):
        s = one_set(2)
        s.assign_ways({0: 2, 1: 0})
        with pytest.raises(PermissionError):
            s.fill(1, 1)

    def test_occupancy(self):
        s = one_set(4)
        for t in range(3):
            s.fill(0, t)
        assert s.occupancy() == 3
        assert sorted(s.resident_lines()) == [0, 1, 2]


class TestDirty:
    def test_write_insert_marks_dirty(self):
        s = one_set(1)
        s.fill(0, 1, dirty=True)
        ev = s.fill(0, 2)
        assert ev.dirty

    def test_write_hit_marks_dirty(self):
        s = one_set(1)
        s.fill(0, 1)
        s.access(0, 1, is_write=True)
        assert s.fill(0, 2).dirty

    def test_set_dirty_explicit(self):
        """The bank reports the image's dirty bit, however it was set."""
        s = one_set(1)
        s.fill(0, 1)
        s.image.dirty[s.slot_of(1)] = True
        assert s.invalidate(1).dirty
        assert s.slot_of(99) is None


class TestInvalidate:
    def test_invalidate_removes(self):
        s = one_set(2)
        s.fill(0, 1)
        ev = s.invalidate(1)
        assert ev.tag == 1
        assert not s.access(0, 1)
        assert s.occupancy() == 0

    def test_invalidate_absent_is_none(self):
        assert one_set(2).invalidate(5) is None

    def test_invalidated_way_reused_first(self):
        s = one_set(2)
        s.fill(0, 1)
        s.fill(0, 2)
        s.invalidate(1)
        assert s.fill(0, 3) is None  # reuses the freed way


class TestPartitioning:
    def test_victim_only_from_candidates(self):
        """The paper's modified LRU: core B's fill may not evict core A's
        line when B's candidate ways exclude it."""
        s = one_set(4)
        s.assign_ways({0: 2, 1: 2})  # core 0 owns ways 0-1, core 1 ways 2-3
        s.fill(0, 100)
        s.fill(0, 101)
        s.fill(1, 200)
        s.fill(1, 201)
        ev = s.fill(1, 202)
        assert ev.owner == 1
        assert ev.tag in (200, 201)
        assert s.probe(100) and s.probe(101)

    def test_owner_tracking(self):
        s = one_set(2)
        s.fill(7, 1)
        assert s.image.owner[s.slot_of(1)] == 7
        assert s.invalidate(1).owner == 7
        assert s.image.owner[0] == s.image.owner[1] == -1

    def test_hit_allowed_on_any_way(self):
        """Lookups may hit outside the requester's ways (paper: only
        replacement is restricted)."""
        s = one_set(2)
        s.assign_ways({0: 1, 1: 1})
        s.fill(0, 1)
        assert s.access(1, 1)  # any core may read it


class TestAgainstReferenceModel:
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.booleans()),
            min_size=1,
            max_size=120,
        )
    )
    def test_full_set_matches_lru_reference(self, ops):
        """An un-partitioned set == textbook LRU list, access by access."""
        ways = 4
        s = one_set(ways)
        ref: list[int] = []  # MRU..LRU
        for tag, _w in ops:
            hit_model = tag in ref
            hit_real = s.access(0, tag)
            assert hit_real == hit_model
            if hit_model:
                ref.remove(tag)
            else:
                ev = s.fill(0, tag)
                if len(ref) == ways:
                    assert ev is not None and ev.tag == ref[-1]
                    ref.pop()
                else:
                    assert ev is None
            ref.insert(0, tag)
