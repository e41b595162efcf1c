"""The banked NUCA L2: shared organisations, partitioning, migration."""

import pytest

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import (
    BankAllocation,
    CorePartition,
    PartitionMap,
    equal_partition_map,
)
from repro.config import L2Config

CFG = L2Config(num_banks=16, bank_ways=8, sets_per_bank=32)


def make_l2(placement="parallel", num_cores=8, config=CFG):
    return NucaL2(config, num_cores, placement=placement)


def directory_consistent(l2: NucaL2) -> bool:
    """Every directory entry points at a bank that really holds the line,
    and every resident line is in the directory."""
    resident = {}
    for bank in l2.banks:
        for line in bank.resident_lines():
            resident[line] = bank.bank_id
    return resident == {line: l2.bank_of(line) for line in l2.image.where}


class TestSharedModes:
    @pytest.mark.parametrize("placement", ["parallel", "hash", "dnuca"])
    def test_miss_then_hit(self, placement):
        l2 = make_l2(placement)
        l2.share_all()
        assert not l2.access(0, 1234).hit
        assert l2.access(0, 1234).hit
        assert l2.contains(1234)

    @pytest.mark.parametrize("placement", ["parallel", "dnuca"])
    def test_directory_consistency(self, placement):
        l2 = make_l2(placement)
        l2.share_all()
        for core in range(4):
            for i in range(300):
                l2.access(core, (core << 40) + i * 7)
        assert directory_consistent(l2)

    def test_hash_mode_uses_home_bank(self):
        l2 = make_l2("hash")
        l2.share_all()
        r = l2.access(0, 555)
        assert r.bank == l2.shared_home(555)
        assert l2.bank_of(555) == r.bank

    def test_dnuca_fills_local_bank(self):
        l2 = make_l2("dnuca")
        l2.share_all()
        for core in (0, 3, 7):
            r = l2.access(core, (core + 1) << 30)
            assert r.bank == core  # gravity placement at the Local bank

    def test_dnuca_promotion_moves_toward_requester(self):
        l2 = make_l2("dnuca")
        l2.share_all()
        line = 42
        l2.access(7, line)  # lands in bank 7
        assert l2.bank_of(line) == 7
        r = l2.access(0, line)  # core 0 hit: promote 1 step toward core 0
        assert r.hit and r.migrations >= 1
        new_bank = l2.bank_of(line)
        order = l2.bank_orders[0]
        assert order.index(new_bank) < order.index(7)

    def test_dnuca_demotion_chain(self):
        """Filling the same set repeatedly pushes victims outward along the
        owner's bank order instead of dropping them immediately."""
        l2 = make_l2("dnuca")
        l2.share_all()
        sets = CFG.sets_per_bank
        # 9 lines of set 0 > 8 local ways: the 9th fill demotes the LRU
        for i in range(9):
            l2.access(0, i * sets)
        assert all(l2.contains(i * sets) for i in range(9))
        second_bank = l2.bank_orders[0][1]
        assert l2.bank_of(0) == second_bank  # line 0 was LRU, demoted
        assert directory_consistent(l2)

    def test_shared_interference_exists(self):
        """In shared mode one core's stream can evict another's data."""
        l2 = make_l2("dnuca", num_cores=2, config=L2Config(num_banks=2, bank_ways=2, sets_per_bank=16))
        l2.share_all()
        sets = 16
        l2.access(0, 0)
        for i in range(1, 40):  # core 1 streams through set 0 of both banks
            l2.access(1, i * sets)
        assert not l2.contains(0)


class TestPartitionedMode:
    def make_partitioned(self, placement="parallel"):
        l2 = make_l2(placement)
        l2.apply_partition(equal_partition_map(8, 16, 8))
        return l2

    @pytest.mark.parametrize("placement", ["parallel", "hash", "dnuca"])
    def test_miss_then_hit(self, placement):
        l2 = self.make_partitioned(placement)
        assert not l2.access(2, 999).hit
        assert l2.access(2, 999).hit

    @pytest.mark.parametrize("placement", ["parallel", "dnuca"])
    def test_fills_stay_in_partition(self, placement):
        l2 = self.make_partitioned(placement)
        part_banks = set(l2.partition_map[3].banks)
        for i in range(500):
            l2.access(3, (3 << 40) + i)
        for bank in l2.banks:
            if bank.bank_id not in part_banks:
                assert bank.occupancy() == 0

    @pytest.mark.parametrize("placement", ["parallel", "dnuca"])
    def test_partition_isolation(self, placement):
        """The defining property: a neighbour's stream cannot evict a
        partitioned core's lines."""
        l2 = self.make_partitioned(placement)
        victim_lines = [(1 << 40) + i for i in range(64)]
        for line in victim_lines:
            l2.access(1, line)
        for i in range(20_000):
            l2.access(2, (2 << 40) + i)  # core 2 streams furiously
        assert all(l2.contains(line) for line in victim_lines)

    def test_level2_victim_cascade(self):
        """A paired partition demotes level-1 victims into the level-2 ways
        (paper Fig. 4c) instead of dropping them."""
        cfg = L2Config(num_banks=16, bank_ways=8, sets_per_bank=16)
        l2 = NucaL2(cfg, 8, placement="parallel")
        pmap = PartitionMap()
        pmap.add(
            CorePartition(
                0,
                (BankAllocation(0, tuple(range(8))),),
                level2=BankAllocation(1, (4, 5, 6, 7)),
            )
        )
        pmap.add(CorePartition(1, (BankAllocation(1, (0, 1, 2, 3)),)))
        for c in range(2, 8):
            pmap.add(CorePartition(c, (BankAllocation(c, tuple(range(8))),)))
        # centers to core 7 to make the map total the full capacity
        for b in range(8, 16):
            pmap.partitions[7] = CorePartition(
                7,
                tuple(
                    [BankAllocation(7, tuple(range(8)))]
                    + [BankAllocation(bb, tuple(range(8))) for bb in range(8, 16)]
                ),
            )
        l2.apply_partition(pmap)
        sets = cfg.sets_per_bank
        lines = [i * sets for i in range(9)]  # 9 lines, 8 level-1 ways
        for line in lines:
            l2.access(0, line)
        assert all(l2.contains(line) for line in lines)
        assert l2.bank_of(lines[0]) == 1  # the LRU line went to level 2
        assert l2.stats.migrations >= 1

    def test_level2_hit_promotes_back(self):
        cfg = L2Config(num_banks=16, bank_ways=8, sets_per_bank=16)
        l2 = NucaL2(cfg, 8, placement="parallel")
        pmap = equal_partition_map(8, 16, 8)
        pmap.partitions[0] = CorePartition(
            0,
            (BankAllocation(0, tuple(range(8))),),
            level2=BankAllocation(8, tuple(range(8))),
        )
        pmap.partitions[1] = CorePartition(1, (BankAllocation(1, tuple(range(8))),))
        l2.apply_partition(pmap)
        sets = cfg.sets_per_bank
        for i in range(9):
            l2.access(0, i * sets)
        assert l2.bank_of(0) == 8
        r = l2.access(0, 0)  # hit in level 2
        assert r.hit and r.migrations >= 1
        assert l2.bank_of(0) == 0  # promoted back to level 1

    def test_stats_per_core(self):
        l2 = self.make_partitioned()
        l2.access(4, 1)
        l2.access(4, 1)
        l2.access(5, (5 << 40) + 1)
        assert l2.stats.misses[4] == 1
        assert l2.stats.hits[4] == 1
        assert l2.stats.core_accesses(5) == 1
        assert l2.stats.core_miss_rate(4) == 0.5


class TestModeSwitches:
    def test_shared_to_partitioned_keeps_lines(self):
        l2 = make_l2("parallel")
        l2.share_all()
        for i in range(100):
            l2.access(0, i)
        occ = l2.occupancy()
        l2.apply_partition(equal_partition_map(8, 16, 8))
        assert l2.occupancy() == occ
        assert directory_consistent(l2)
        assert l2.access(0, 0).hit  # still findable

    def test_partitioned_to_shared_flushes(self):
        l2 = make_l2("parallel")
        l2.apply_partition(equal_partition_map(8, 16, 8))
        for i in range(100):
            l2.access(0, i)
        l2.share_all()
        assert l2.occupancy() == 0

    def test_repartition_keeps_lines(self):
        l2 = make_l2("parallel")
        l2.apply_partition(equal_partition_map(8, 16, 8))
        for i in range(50):
            l2.access(0, i)
        occ = l2.occupancy()
        l2.apply_partition(equal_partition_map(8, 16, 8))
        assert l2.occupancy() == occ

    def test_flush(self):
        l2 = make_l2()
        l2.share_all()
        for i in range(10):
            l2.access(0, i)
        assert l2.flush() == 10
        assert l2.occupancy() == 0

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            NucaL2(CFG, 8, placement="teleport")


class TestWritebacks:
    def test_dirty_eviction_counted(self):
        cfg = L2Config(num_banks=2, bank_ways=1, sets_per_bank=4)
        l2 = NucaL2(cfg, 2, placement="hash")
        l2.share_all()
        # fill one set of one bank with a dirty line, then evict it
        line = 0
        home = l2.shared_home(line)
        l2.access(0, line, is_write=True)
        # find another line with same set and same home bank
        other = next(
            l for l in range(4, 400, 4) if l2.shared_home(l) == home
        )
        l2.access(0, other)
        assert l2.stats.writebacks == 1
