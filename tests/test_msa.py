"""Exact MSA stack-distance profiler (paper Section III.A, Fig. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import CacheBank
from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler


class TestBasics:
    def test_first_touch_is_miss(self):
        p = MSAProfiler(1, 4)
        assert p.observe(0) == 5  # positions+1 = miss bin

    def test_immediate_reuse_is_mru(self):
        p = MSAProfiler(1, 4)
        p.observe(0)
        assert p.observe(0) == 1

    def test_stack_depth_counts_distinct_lines(self):
        p = MSAProfiler(1, 8)
        for line in (0, 1, 2):
            p.observe(line)
        assert p.observe(0) == 3  # two distinct lines touched since

    def test_per_set_stacks_independent(self):
        p = MSAProfiler(2, 4)
        p.observe(0)  # set 0
        p.observe(1)  # set 1
        assert p.observe(0) == 1  # set-1 access did not disturb set 0

    def test_histogram_total(self):
        p = MSAProfiler(4, 8)
        for i in range(100):
            p.observe(i % 13)
        assert p.total_accesses == 100

    def test_beyond_positions_is_miss(self):
        p = MSAProfiler(1, 2)
        for line in (0, 1, 2):
            p.observe(line)
        assert p.observe(0) == 3  # pushed out of the 2-deep stack

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MSAProfiler(3, 4)
        with pytest.raises(ValueError):
            MSAProfiler(4, 0)


class TestProjection:
    def test_miss_counts_projection(self):
        """The inclusion-property projection: misses(w) = total - hits at
        depths <= w."""
        p = MSAProfiler(1, 4)
        seq = [0, 1, 0, 1, 2, 0]
        for line in seq:
            p.observe(line)
        mc = p.miss_counts()
        assert mc[0] == 6  # no cache: everything misses
        # depth-1 hits: none (no immediate reuse); depth-2 hits: 0,1 at i=2,3
        assert mc[2] == 6 - 2
        assert p.misses_at(4) == 3  # three cold misses

    def test_miss_counts_non_increasing(self):
        p = MSAProfiler(4, 16)
        for i in range(500):
            p.observe((i * 7) % 50)
        mc = p.miss_counts()
        assert np.all(np.diff(mc) <= 1e-9)

    def test_miss_ratio_curve_bounds(self):
        p = MSAProfiler(4, 16)
        for i in range(100):
            p.observe(i % 30)
        curve = p.miss_ratio_curve()
        assert curve[0] == pytest.approx(1.0)
        assert np.all((curve >= 0) & (curve <= 1))

    @given(st.lists(st.integers(0, 25), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_projection_matches_simulated_caches(self, lines):
        """The MSA headline property: one profiling pass predicts the exact
        miss count of EVERY cache size (same set count, true LRU)."""
        positions = 6
        p = MSAProfiler(2, positions)
        for line in lines:
            p.observe(line)
        for ways in range(1, positions + 1):
            bank = CacheBank(0, 2, ways)
            misses = 0
            for line in lines:
                if not bank.access(0, line):
                    misses += 1
                    bank.fill(0, line)
            assert p.misses_at(ways) == misses, f"ways={ways}"


class TestEpochManagement:
    def test_reset_keeps_stack_state(self):
        p = MSAProfiler(1, 4)
        p.observe(0)
        p.reset()
        assert p.total_accesses == 0
        assert p.observe(0) == 1  # stack remembered the line: a depth-1 hit

    def test_decay(self):
        p = MSAProfiler(1, 4)
        for _ in range(8):
            p.observe(0)
        p.decay(0.5)
        assert p.total_accesses == pytest.approx(4.0)
        with pytest.raises(ValueError):
            p.decay(1.5)

    def test_stack_of_set(self):
        p = MSAProfiler(1, 4)
        for line in (0, 1, 2):
            p.observe(line)
        assert p.stack_of_set(0) == [2, 1, 0]


class TestMissCurveBridge:
    def test_from_profiler(self):
        p = MSAProfiler(2, 8)
        for i in range(200):
            p.observe(i % 20)
        curve = MissCurve.from_profiler(p, "x")
        assert curve.misses_at(0) == p.total_accesses
        for w in range(9):
            assert curve.misses_at(w) == pytest.approx(p.misses_at(w))
