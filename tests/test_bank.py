"""Bank-level vertical way partitioning and statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import CacheBank, Eviction


def make_bank(sets=8, ways=4):
    return CacheBank(0, sets, ways)


class TestPartitionState:
    def test_share_all_allows_everyone(self):
        b = make_bank()
        assert b.candidates_for(3) == (0, 1, 2, 3)

    def test_assign_ways_by_count(self):
        b = make_bank()
        b.assign_ways({0: 3, 1: 1})
        assert b.candidates_for(0) == (0, 1, 2)
        assert b.candidates_for(1) == (3,)
        assert b.ways_owned_by(0) == 3

    def test_assign_ways_must_sum_to_associativity(self):
        b = make_bank()
        with pytest.raises(ValueError):
            b.assign_ways({0: 2, 1: 1})
        with pytest.raises(ValueError):
            b.assign_ways({0: 5, 1: -1})

    def test_set_way_owners_shared_way(self):
        b = make_bank()
        b.set_way_owners(
            [frozenset((0,)), frozenset((0, 1)), frozenset((1,)), frozenset()]
        )
        assert b.candidates_for(0) == (0, 1)
        assert b.candidates_for(1) == (1, 2)
        assert b.candidates_for(9) == ()

    def test_owner_list_length_checked(self):
        with pytest.raises(ValueError):
            make_bank().set_way_owners([None])

    def test_candidates_cache_invalidated_on_repartition(self):
        b = make_bank()
        assert b.candidates_for(0) == (0, 1, 2, 3)
        b.assign_ways({0: 1, 1: 3})
        assert b.candidates_for(0) == (0,)


class TestAccessPath:
    def test_fill_requires_owned_ways(self):
        b = make_bank()
        b.assign_ways({0: 4, 1: 0})
        with pytest.raises(PermissionError):
            b.fill(1, 123)

    def test_set_index_low_bits(self):
        b = make_bank(sets=8)
        assert b.set_index(0b10101) == 0b101

    def test_access_records_stats(self):
        b = make_bank()
        assert not b.access(0, 42)
        b.fill(0, 42)
        assert b.access(0, 42)
        assert b.stats.hits[0] == 1
        assert b.stats.misses[0] == 1
        assert b.stats.total_hits() == 1

    def test_isolation_between_cores(self):
        """A core thrashing its own ways never evicts the other core's."""
        b = make_bank(sets=1, ways=4)
        b.assign_ways({0: 2, 1: 2})
        b.fill(0, 8 * 1)
        b.fill(0, 8 * 2)
        for i in range(3, 30):
            b.fill(1, 8 * i)  # line numbers with same set index 0
        assert b.probe(8 * 1) and b.probe(8 * 2)

    def test_eviction_and_writeback_counters(self):
        b = make_bank(sets=1, ways=1)
        b.fill(0, 0, dirty=True)
        ev = b.fill(0, 8)
        assert ev is not None and ev.dirty
        assert b.stats.evictions == 1
        assert b.stats.writebacks == 1

    def test_occupancy_and_residents(self):
        b = make_bank(sets=4, ways=2)
        for line in (0, 1, 2):
            b.fill(0, line)
        assert b.occupancy() == 3
        assert sorted(b.resident_lines()) == [0, 1, 2]

    def test_invalidate(self):
        b = make_bank()
        b.fill(0, 5)
        assert b.invalidate(5) is not None
        assert b.invalidate(5) is None
        assert b.occupancy() == 0

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheBank(0, 6, 4)


class RecencyModel:
    """An independent statement of the modified LRU on one bank: per set,
    its ways' lines and a recency list of the resident lines (MRU first).
    A fill takes the first free candidate way, else the candidate holding
    the line deepest in the recency list."""

    def __init__(self, sets, ways):
        self.sets, self.ways = sets, ways
        self.lines = [[None] * ways for _ in range(sets)]
        self.dirty = [[False] * ways for _ in range(sets)]
        self.owner = [[-1] * ways for _ in range(sets)]
        self.recency = [[] for _ in range(sets)]
        self.owners = [None] * ways

    def way_of(self, line):
        row = self.lines[line % self.sets]
        return row.index(line) if line in row else None

    def access(self, line, write):
        way = self.way_of(line)
        if way is None:
            return False
        s = line % self.sets
        self.recency[s].remove(line)
        self.recency[s].insert(0, line)
        self.dirty[s][way] |= write
        return True

    def candidates(self, core):
        return [
            w for w, who in enumerate(self.owners) if who is None or core in who
        ]

    def fill(self, core, line, dirty):
        s = line % self.sets
        row = self.lines[s]
        cands = self.candidates(core)
        free = [w for w in cands if row[w] is None]
        if free:
            way, evicted = free[0], None
        else:
            way = max(cands, key=lambda w: self.recency[s].index(row[w]))
            evicted = Eviction(row[way], self.dirty[s][way], self.owner[s][way])
            self.recency[s].remove(row[way])
        row[way] = line
        self.dirty[s][way] = dirty
        self.owner[s][way] = core
        self.recency[s].insert(0, line)
        return evicted

    def invalidate(self, line):
        way = self.way_of(line)
        if way is None:
            return None
        s = line % self.sets
        ev = Eviction(line, self.dirty[s][way], self.owner[s][way])
        self.lines[s][way] = None
        self.dirty[s][way] = False
        self.owner[s][way] = -1
        self.recency[s].remove(line)
        return ev


way_mask = st.lists(
    st.sampled_from(
        [None, frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    ),
    min_size=4,
    max_size=4,
)
bank_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["fill", "access", "invalidate"]),
            st.integers(0, 1),  # core
            st.integers(0, 9),  # line (set = line % 2)
            st.booleans(),  # dirty fill / write access
        ),
        st.tuples(st.just("mask"), way_mask),
    ),
    min_size=20,
    max_size=80,
)


class TestAgainstRecencyModel:
    @given(mask=way_mask, ops=bank_ops)
    @settings(max_examples=60, deadline=None)
    def test_image_matches_recency_lists(self, mask, ops):
        """Fills, accesses and invalidates on a 2-set x 4-way bank under
        random contiguous and gapped way masks: after every step the image
        (tags, dirty bits, owners, directory, the recency order its stamps
        encode) and every eviction match the recency-list model."""
        bank = CacheBank(0, 2, 4)
        model = RecencyModel(2, 4)
        ops = [("mask", mask)] + ops
        for op in ops:
            if op[0] == "mask":
                bank.set_way_owners(op[1])
                model.owners = list(op[1])
                continue
            kind, core, line, flag = op
            if kind == "access":
                assert bank.access(core, line, is_write=flag) == model.access(
                    line, flag
                )
            elif kind == "invalidate":
                assert bank.invalidate(line) == model.invalidate(line)
            elif not model.candidates(core):
                with pytest.raises(PermissionError):
                    bank.fill(core, line, dirty=flag)
            elif model.way_of(line) is not None:
                with pytest.raises(ValueError):
                    bank.fill(core, line, dirty=flag)
            else:
                assert bank.fill(core, line, dirty=flag) == model.fill(
                    core, line, flag
                )
            image = bank.image
            directory = {}
            for s in range(2):
                for w in range(4):
                    slot = s * 4 + w
                    held = model.lines[s][w]
                    assert image.tags[slot] == (-1 if held is None else held)
                    assert image.dirty[slot] == model.dirty[s][w]
                    assert image.owner[slot] == model.owner[s][w]
                    if held is None:
                        assert image.stamps[slot] == 0
                    else:
                        directory[held] = slot
                by_stamp = sorted(
                    (slot for slot in range(s * 4, s * 4 + 4)
                     if image.tags[slot] != -1),
                    key=image.stamps.__getitem__, reverse=True,
                )
                assert [image.tags[slot] for slot in by_stamp] == model.recency[s]
            assert image.where == directory
