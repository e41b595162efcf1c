"""The table-driven partitioners against the NumPy code they replaced.

``MissCurve.best_marginal_utility`` answers from a cached per-curve table
of Python floats, and the partitioners read those tables and plain tuples.
This module keeps the NumPy lookahead as the oracle, plus copies of the
partitioners as they were before the table (driven by that oracle), and
checks that the fast code returns the same floats, the same tie-breaks
and the same Python types.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PartitionInvariantError
from repro.partitioning.bank_aware import BankAwareDecision, bank_aware_partition
from repro.partitioning.joint import JointAssignment, best_assignment
from repro.partitioning.unrestricted import unrestricted_partition
from repro.profiling.miss_curve import MissCurve
from tests.test_partitioning import curve_sets, knee_curve

# -- the oracle: the NumPy lookahead -----------------------------------------


def marginal_utilities_oracle(curve: MissCurve, current: int, max_extra: int) -> np.ndarray:
    """``out[n-1]`` = marginal utility of ``n`` extra ways, vectorised
    for n = 1..max_extra (the lookahead scan of the UCP algorithm)."""
    if max_extra < 1:
        raise ConfigError("max_extra must be positive")
    base = misses_at_oracle(curve, current)
    sizes = np.minimum(current + np.arange(1, max_extra + 1), curve.max_ways)
    return (base - curve.misses[sizes]) / np.arange(1.0, max_extra + 1)


def best_marginal_utility_oracle(curve: MissCurve, current: int, max_extra: int) -> tuple[float, int]:
    mu = marginal_utilities_oracle(curve, current, max_extra)
    best = int(np.argmax(mu))
    return float(mu[best]), best + 1


def misses_at_oracle(curve: MissCurve, ways: int) -> float:
    if ways < 0:
        raise ConfigError("ways must be non-negative")
    return float(curve.misses[min(ways, curve.max_ways)])


def marginal_utility_oracle(curve: MissCurve, current: int, extra: int) -> float:
    if extra < 1:
        raise ConfigError("extra ways must be positive")
    return (misses_at_oracle(curve, current) - misses_at_oracle(curve, current + extra)) / extra


# -- copies of the partitioners before the lookahead table -------------------


def reference_unrestricted(curves, total_ways, *, min_ways=1, max_ways_per_core=None):
    n = len(curves)
    cap = total_ways if max_ways_per_core is None else max_ways_per_core
    alloc = [min_ways] * n
    remaining = total_ways - sum(alloc)
    while remaining > 0:
        best_mu = -1.0
        best_core = -1
        best_extra = 0
        for core, curve in enumerate(curves):
            room = min(remaining, cap - alloc[core])
            if room <= 0:
                continue
            mu, extra = best_marginal_utility_oracle(curve, alloc[core], room)
            if mu > best_mu:
                best_mu, best_core, best_extra = mu, core, extra
        if best_core < 0:
            raise PartitionInvariantError("no core can accept more ways")
        if best_mu <= 0.0:
            while remaining > 0:
                for core in range(n):
                    if remaining == 0:
                        break
                    if alloc[core] < cap:
                        alloc[core] += 1
                        remaining -= 1
            break
        alloc[best_core] += best_extra
        remaining -= best_extra
    return alloc


def reference_pair_split(curve_a, curve_b, pair_capacity, min_ways):
    best = None
    for wa in range(min_ways, pair_capacity - min_ways + 1):
        misses = misses_at_oracle(curve_a, wa) + misses_at_oracle(curve_b, pair_capacity - wa)
        if best is None or misses < best[2]:
            best = (wa, pair_capacity - wa, misses)
    if best is None:
        raise PartitionInvariantError("no feasible split")
    return best


def reference_bank_aware(curves, *, num_banks=16, bank_ways=8, max_ways_per_core=None, min_ways=1):
    n = len(curves)
    num_centers = num_banks - n
    total_ways = num_banks * bank_ways
    cap = (total_ways * 9) // 16 if max_ways_per_core is None else max_ways_per_core
    alloc = [bank_ways] * n
    centers = [0] * n
    for _ in range(num_centers):
        best_core = -1
        best_key = None
        for core, curve in enumerate(curves):
            if alloc[core] + bank_ways > cap:
                continue
            mu = marginal_utility_oracle(curve, alloc[core], bank_ways)
            key = (mu, misses_at_oracle(curve, alloc[core]))
            if best_key is None or key > best_key:
                best_key, best_core = key, core
        if best_core < 0:
            raise PartitionInvariantError("capacity cap leaves a Center bank unassignable")
        alloc[best_core] += bank_ways
        centers[best_core] += 1
    complete = [centers[c] > 0 for c in range(n)]
    pairs = []
    while True:
        best_core = -1
        best_mu = 0.0
        for core, curve in enumerate(curves):
            if complete[core]:
                continue
            mu = marginal_utility_oracle(curve, alloc[core], 1)
            if mu > best_mu:
                best_mu, best_core = mu, core
        if best_core < 0:
            break
        candidates = [p for p in (best_core - 1, best_core + 1) if 0 <= p < n and not complete[p]]
        if not candidates:
            complete[best_core] = True
            continue
        best_partner = -1
        best_split = None
        for p in candidates:
            a, b = min(best_core, p), max(best_core, p)
            wa, wb, misses = reference_pair_split(curves[a], curves[b], 2 * bank_ways, min_ways)
            if best_split is None or misses < best_split[2]:
                best_split = (wa, wb, misses)
                best_partner = p
        a, b = min(best_core, best_partner), max(best_core, best_partner)
        alloc[a], alloc[b] = best_split[0], best_split[1]
        complete[a] = complete[b] = True
        pairs.append((a, b))
    return BankAwareDecision(
        ways=tuple(alloc), center_banks=tuple(centers), pairs=tuple(sorted(pairs)), bank_ways=bank_ways
    )


def reference_best_assignment(curves, *, max_ways_per_core=None, min_ways=1):
    n = len(curves)

    def score(placement):
        placed = [curves[w] for w in placement]
        decision = reference_bank_aware(placed, max_ways_per_core=max_ways_per_core, min_ways=min_ways)
        return sum(misses_at_oracle(c, w) for c, w in zip(placed, decision.ways)), decision

    placement = list(range(n))
    best, decision = score(placement)
    for _ in range(n):
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                candidate = placement.copy()
                candidate[i], candidate[j] = candidate[j], candidate[i]
                misses, cand_decision = score(candidate)
                if misses < best:
                    best, decision, placement = misses, cand_decision, candidate
                    improved = True
        if not improved:
            break
    return JointAssignment(tuple(placement), decision, best)


# -- strategies --------------------------------------------------------------


@st.composite
def tie_heavy_curves(draw, min_k=1, max_k=127):
    """Miss curves with plateaus, repeated drops (tied marginal
    utilities), flat tails and occasional rises within the 1e-9
    tolerance that ``MissCurve`` accepts."""
    k = draw(st.integers(min_k, max_k))
    step = st.one_of(
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 4.0, -4e-10]),
        st.floats(0.0, 50.0),
    )
    drops = draw(st.lists(step, min_size=k, max_size=k))
    flat_tail = draw(st.integers(0, k))
    if flat_tail:
        drops[-flat_tail:] = [0.0] * flat_tail
    floor = draw(st.sampled_from([0.0, 3.0, 1e6 + 0.1]))
    misses = floor + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    total = float(misses[0]) + draw(st.sampled_from([0.0, 10.0]))
    return MissCurve("tie", misses, total)


@st.composite
def tie_heavy_sets(draw, n=8):
    """Eight cores drawn from a pool of at most three curves, so equal
    bids across cores are common."""
    pool = draw(st.lists(tie_heavy_curves(min_k=8, max_k=128), min_size=1, max_size=3))
    return [draw(st.sampled_from(pool)) for _ in range(n)]


partition_inputs = st.one_of(curve_sets(), tie_heavy_sets())


def same_float(a: float, b: float) -> bool:
    """Equal bit patterns (tells 0.0 from -0.0)."""
    return a.hex() == b.hex()


# -- the table against the oracle ---------------------------------------------


class TestLookaheadTable:
    @given(tie_heavy_curves())
    @settings(max_examples=12, deadline=None)
    def test_matches_numpy_oracle_everywhere(self, curve):
        k = curve.max_ways
        for current in range(k + 3):
            for max_extra in range(1, k + 5):
                got = curve.best_marginal_utility(current, max_extra)
                want = best_marginal_utility_oracle(curve, current, max_extra)
                assert type(got[0]) is float and type(got[1]) is int
                assert same_float(got[0], want[0]) and got[1] == want[1], (current, max_extra)

    def test_rows_are_cached_and_shared_past_k(self):
        curve = knee_curve(16, max_ways=32)
        assert curve.lookahead_row(5) is curve.lookahead_row(5)
        assert curve.lookahead_row(40) is curve.lookahead_row(32)

    def test_errors_unchanged(self):
        curve = knee_curve(16, max_ways=32)
        with pytest.raises(ConfigError, match="max_extra must be positive"):
            curve.best_marginal_utility(3, 0)
        with pytest.raises(ConfigError, match="ways must be non-negative"):
            curve.best_marginal_utility(-1, 4)


class TestReadOnlyMisses:
    def test_misses_cannot_be_written(self):
        curve = knee_curve(16, max_ways=32)
        with pytest.raises(ValueError):
            curve.misses[3] = 0.0
        assert curve.misses_at(3) == curve.values[3]

    def test_caller_array_is_copied_not_frozen(self):
        misses = np.linspace(10.0, 1.0, 9)
        curve = MissCurve("c", misses, 10.0)
        misses[2] = 0.0  # the caller's array stays theirs and writable
        assert curve.misses_at(2) == pytest.approx(7.75)

    def test_pickle_round_trip_rebuilds_the_curve(self):
        curve = knee_curve(16, max_ways=32)
        curve.best_marginal_utility(0, 8)
        clone = pickle.loads(pickle.dumps(curve))
        assert clone.values == curve.values
        assert not clone.misses.flags.writeable
        assert clone.best_marginal_utility(0, 8) == curve.best_marginal_utility(0, 8)


# -- the partitioners against their copies -------------------------------------


class TestPartitionersMatchReference:
    @given(partition_inputs, st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_unrestricted(self, curves, min_ways):
        for cap in (None, 72):
            got = unrestricted_partition(curves, 128, min_ways=min_ways, max_ways_per_core=cap)
            want = reference_unrestricted(curves, 128, min_ways=min_ways, max_ways_per_core=cap)
            assert got == want, cap

    @given(partition_inputs, st.integers(1, 8), st.sampled_from([None, 16, 32, 128]))
    @settings(max_examples=25, deadline=None)
    def test_bank_aware(self, curves, min_ways, cap):
        got = bank_aware_partition(curves, min_ways=min_ways, max_ways_per_core=cap)
        assert got == reference_bank_aware(curves, min_ways=min_ways, max_ways_per_core=cap)

    @given(partition_inputs)
    @settings(max_examples=8, deadline=None)
    def test_best_assignment(self, curves):
        got = best_assignment(curves)
        want = reference_best_assignment(curves)
        assert got.placement == want.placement
        assert got.decision == want.decision
        assert same_float(got.predicted, want.predicted)
