"""Property-based stress tests of the NUCA L2 across all its modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import equal_partition_map
from repro.config import L2Config

SMALL = L2Config(num_banks=4, bank_ways=2, sets_per_bank=8)


def total_resident(l2: NucaL2) -> int:
    return sum(b.occupancy() for b in l2.banks)


access_ops = st.lists(
    st.tuples(
        st.integers(0, 3),  # core
        st.integers(0, 200),  # line
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=300,
)


class TestDirectoryIntegrity:
    @pytest.mark.parametrize("placement", ["parallel", "dnuca"])
    @given(ops=access_ops)
    @settings(max_examples=40, deadline=None)
    def test_shared_directory_matches_banks(self, placement, ops):
        l2 = NucaL2(SMALL, 4, placement=placement)
        l2.share_all()
        for core, line, write in ops:
            l2.access(core, line, is_write=write)
        resident = {
            line: bank.bank_id
            for bank in l2.banks
            for line in bank.resident_lines()
        }
        assert resident == {ln: l2.bank_of(ln) for ln in l2.image.where}
        assert total_resident(l2) <= SMALL.num_banks * SMALL.bank_ways * SMALL.sets_per_bank

    @pytest.mark.parametrize("placement", ["parallel", "dnuca"])
    @given(ops=access_ops)
    @settings(max_examples=40, deadline=None)
    def test_partitioned_directory_matches_banks(self, placement, ops):
        l2 = NucaL2(SMALL, 4, placement=placement)
        l2.apply_partition(equal_partition_map(4, SMALL.num_banks, SMALL.bank_ways))
        for core, line, write in ops:
            # keep cores in disjoint regions like multiprogrammed workloads
            l2.access(core, (core << 20) | line, is_write=write)
        resident = {
            line: bank.bank_id
            for bank in l2.banks
            for line in bank.resident_lines()
        }
        assert resident == {ln: l2.bank_of(ln) for ln in l2.image.where}

    @given(ops=access_ops)
    @settings(max_examples=30, deadline=None)
    def test_second_access_always_hits(self, ops):
        """Accessing the same line twice in a row must hit — no mode or
        migration may lose the just-touched line."""
        l2 = NucaL2(SMALL, 4, placement="dnuca")
        l2.share_all()
        for core, line, write in ops:
            l2.access(core, line, is_write=write)
            assert l2.access(core, line).hit

    @given(ops=access_ops)
    @settings(max_examples=30, deadline=None)
    def test_miss_plus_hit_counts_conserved(self, ops):
        l2 = NucaL2(SMALL, 4, placement="dnuca")
        l2.share_all()
        for core, line, write in ops:
            l2.access(core, line, is_write=write)
        assert l2.stats.total_accesses() == len(ops)


class TestEvictionAccounting:
    @given(ops=access_ops)
    @settings(max_examples=30, deadline=None)
    def test_line_conservation(self, ops):
        """Every miss fills exactly one line; every line leaves the cache
        only through a reported eviction: misses - evictions == resident."""
        l2 = NucaL2(SMALL, 4, placement="dnuca")
        l2.share_all()
        evictions = 0
        for core, line, write in ops:
            r = l2.access(core, line, is_write=write)
            evictions += len(r.evictions)
        assert l2.stats.total_misses() - evictions == total_resident(l2)
        assert total_resident(l2) == len(l2.image.where)
