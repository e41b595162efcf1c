"""Partition assignment algorithms: Unrestricted (UCP) and Bank-aware."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.partitioning.bank_aware import BankAwareDecision, bank_aware_partition
from repro.partitioning.static import equal_partition
from repro.partitioning.unrestricted import predicted_misses, unrestricted_partition
from repro.profiling.miss_curve import MissCurve


def knee_curve(knee: int, total=1000.0, floor_frac=0.05, max_ways=128) -> MissCurve:
    """Misses fall linearly to a floor at ``knee`` ways, flat after."""
    ways = np.arange(max_ways + 1, dtype=np.float64)
    frac = np.clip(ways / knee, 0, 1)
    misses = total * (1 - frac * (1 - floor_frac))
    return MissCurve(f"knee{knee}", misses, total)


def flat_curve(level=500.0, max_ways=128) -> MissCurve:
    return MissCurve("flat", np.full(max_ways + 1, level), level)


@st.composite
def curve_sets(draw, n=8):
    curves = []
    for i in range(n):
        knee = draw(st.integers(1, 80))
        total = draw(st.floats(10.0, 10_000.0))
        floor = draw(st.floats(0.0, 0.9))
        curves.append(knee_curve(knee, total, floor))
    return curves


class TestEqual:
    def test_even_share(self):
        assert equal_partition(8, 128) == [16] * 8

    def test_uneven_remainder_goes_to_lowest_cores(self):
        assert equal_partition(3, 128) == [43, 43, 42]
        assert equal_partition(5, 17) == [4, 4, 3, 3, 3]

    def test_rejects_fewer_ways_than_cores(self):
        with pytest.raises(ValueError):
            equal_partition(3, 2)

    def test_rejects_no_cores(self):
        with pytest.raises(ValueError):
            equal_partition(0, 128)


class TestUnrestricted:
    def test_sums_to_capacity(self):
        curves = [knee_curve(k) for k in (4, 8, 16, 32, 45, 6, 10, 60)]
        alloc = unrestricted_partition(curves, 128)
        assert sum(alloc) == 128
        assert all(a >= 1 for a in alloc)

    def test_greedy_feeds_the_hungry(self):
        """A core with a big steep curve gets more than one with a small
        flat one."""
        hungry = knee_curve(60, total=10_000)
        modest = knee_curve(4, total=100)
        alloc = unrestricted_partition([hungry] + [modest] * 7, 128)
        assert alloc[0] > 40

    def test_lookahead_crosses_plateaus(self):
        """A cliff curve (no gain until +20 ways) must still win capacity
        over tiny-gain curves — the lookahead property."""
        misses = np.full(129, 1000.0)
        misses[20:] = 10.0
        cliff = MissCurve("cliff", misses, 1000.0)
        dribble = knee_curve(128, total=50)
        alloc = unrestricted_partition([cliff] + [dribble] * 7, 128)
        assert alloc[0] >= 20

    def test_respects_cap(self):
        hungry = knee_curve(120, total=100_000)
        others = [flat_curve(1.0)] * 7
        alloc = unrestricted_partition([hungry] + others, 128, max_ways_per_core=72)
        assert alloc[0] <= 72
        assert sum(alloc) == 128

    def test_all_flat_distributes_everything(self):
        alloc = unrestricted_partition([flat_curve()] * 8, 128)
        assert sum(alloc) == 128

    def test_flat_leftover_spreads_round_robin(self):
        """Zero-utility leftovers spread one way at a time (round-robin),
        not greedily into the first unfilled core."""
        assert unrestricted_partition([flat_curve()] * 8, 128) == [16] * 8
        three = [flat_curve(max_ways=16)] * 3
        assert unrestricted_partition(
            three, 10, max_ways_per_core=4
        ) == [4, 3, 3]
        four = [flat_curve(max_ways=16)] * 4
        assert unrestricted_partition(four, 10) == [3, 3, 2, 2]

    def test_min_ways_respected(self):
        curves = [knee_curve(100, total=10_000)] + [flat_curve()] * 7
        alloc = unrestricted_partition(curves, 128, min_ways=4)
        assert all(a >= 4 for a in alloc)

    def test_infeasible_settings_rejected(self):
        with pytest.raises(ValueError):
            unrestricted_partition([flat_curve()] * 8, 128, min_ways=20)
        with pytest.raises(ValueError):
            unrestricted_partition([flat_curve()] * 8, 128, max_ways_per_core=10)
        with pytest.raises(ValueError):
            unrestricted_partition([], 128)

    @given(curve_sets())
    @settings(max_examples=25, deadline=None)
    def test_never_worse_than_equal(self, curves):
        """Greedy marginal-utility allocation can always at least match the
        even split on these monotone curves."""
        alloc = unrestricted_partition(curves, 128)
        assert sum(alloc) == 128
        assert predicted_misses(curves, alloc) <= predicted_misses(
            curves, equal_partition(8, 128)
        ) * (1 + 1e-9)

    def test_predicted_misses_len_check(self):
        with pytest.raises(ValueError):
            predicted_misses([flat_curve()], [1, 2])


class TestBankAwareInvariants:
    def run(self, curves, **kw) -> BankAwareDecision:
        return bank_aware_partition(curves, **kw)

    def test_capacity_exact(self):
        d = self.run([knee_curve(k) for k in (4, 8, 16, 32, 45, 6, 10, 60)])
        assert d.total_ways == 128

    def test_center_banks_all_assigned(self):
        d = self.run([knee_curve(k) for k in (4, 8, 16, 32, 45, 6, 10, 60)])
        assert sum(d.center_banks) == 8

    def test_rule1_rule2_center_cores_whole_banks(self):
        """Cores with Center banks own 8 + 8k ways (whole banks only)."""
        d = self.run([knee_curve(k) for k in (4, 8, 16, 32, 45, 6, 10, 60)])
        for core in range(8):
            if d.center_banks[core]:
                assert d.ways[core] == 8 * (1 + d.center_banks[core])

    def test_rule3_pairs_adjacent_and_disjoint(self):
        d = self.run([knee_curve(k) for k in (14, 2, 14, 2, 14, 2, 60, 60)])
        seen = set()
        for a, b in d.pairs:
            assert b == a + 1
            assert not {a, b} & seen
            seen.update((a, b))

    def test_pair_sums_to_two_banks(self):
        d = self.run([knee_curve(k) for k in (14, 2, 14, 2, 14, 2, 60, 60)])
        for a, b in d.pairs:
            assert d.ways[a] + d.ways[b] == 16

    def test_cap_is_9_16(self):
        monster = knee_curve(128, total=1_000_000)
        d = self.run([monster] + [flat_curve(1.0)] * 7)
        assert max(d.ways) <= 72

    def test_sharing_benefits_needy_neighbour(self):
        """When Center banks are contested away, a 12-way core next to a
        4-way core pairs with it and takes part of its Local bank."""
        curves = [knee_curve(12, total=1000), knee_curve(4, total=1000)]
        # six center-hungry cores soak up all eight Center banks
        curves += [knee_curve(72, total=1_000_000)] * 6
        d = self.run(curves)
        assert sum(d.center_banks[2:]) == 8
        assert (0, 1) in d.pairs
        assert d.ways[0] > 8 > d.ways[1]

    def test_unpaired_cores_keep_local_bank(self):
        d = self.run([flat_curve()] * 8)
        for core in range(8):
            if d.center_banks[core] == 0 and d.pair_of(core) is None:
                assert d.ways[core] == 8

    @given(curve_sets())
    @settings(max_examples=25, deadline=None)
    def test_structural_invariants_hold_for_any_curves(self, curves):
        d = bank_aware_partition(curves)
        # BankAwareDecision.__post_init__ enforces rules 1-3; reaching here
        # without exception is the assertion.  Check capacity explicitly:
        assert d.total_ways == 128
        assert sum(d.center_banks) == 8

    @given(curve_sets())
    @settings(max_examples=25, deadline=None)
    def test_close_to_unrestricted(self, curves):
        """The paper's key claim: restrictions cost little — Bank-aware
        predicted misses stay within 25 % of Unrestricted's."""
        d = bank_aware_partition(curves)
        ur = unrestricted_partition(curves, 128, min_ways=1)
        ba_miss = predicted_misses(curves, list(d.ways))
        ur_miss = predicted_misses(curves, ur)
        total = sum(c.total_accesses for c in curves)
        assert ba_miss <= ur_miss + 0.25 * total

    def test_min_ways_above_local_bank_rejected(self):
        """A floor above the Local bank cannot hold for unpaired cores."""
        with pytest.raises(ConfigError, match="min_ways"):
            bank_aware_partition([flat_curve()] * 8, min_ways=9)

    def test_min_ways_below_one_rejected(self):
        with pytest.raises(ConfigError, match="min_ways"):
            bank_aware_partition([flat_curve()] * 8, min_ways=0)

    def test_decision_validation_catches_bad_pair(self):
        with pytest.raises(ValueError):
            BankAwareDecision(
                ways=(8,) * 8, center_banks=(1, 0, 0, 0, 0, 0, 0, 0), pairs=()
            )
        with pytest.raises(ValueError):
            BankAwareDecision(
                ways=(10, 6) + (8,) * 6,
                center_banks=(0,) * 8,
                pairs=((0, 2),),  # not adjacent
            )
