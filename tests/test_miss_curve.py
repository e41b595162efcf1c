"""Miss curves and marginal utility (paper Section III.C)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.profiling.miss_curve import MissCurve, load_curves
from tests.test_lookahead_equivalence import marginal_utilities_oracle


def linear_curve(total=100.0, max_ways=10, floor=20.0) -> MissCurve:
    """Misses fall linearly from total to floor over max_ways."""
    misses = np.linspace(total, floor, max_ways + 1)
    return MissCurve("lin", misses, total)


class TestConstruction:
    def test_basic(self):
        c = linear_curve()
        assert c.max_ways == 10
        assert c.misses_at(0) == 100.0
        assert c.misses_at(10) == 20.0

    def test_clamps_beyond_max(self):
        c = linear_curve()
        assert c.misses_at(999) == 20.0

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            MissCurve("bad", np.array([5.0, 6.0]), 10.0)

    def test_rejects_total_below_size0(self):
        with pytest.raises(ValueError):
            MissCurve("bad", np.array([10.0, 5.0]), 3.0)

    @pytest.mark.parametrize(
        "misses, total",
        [
            ([10.0, float("nan")], 10.0),
            ([float("nan"), 5.0], 10.0),
            ([float("inf"), float("inf")], float("inf")),
            ([10.0, float("-inf")], 10.0),
            ([10.0, 5.0], float("nan")),
            ([10.0, 5.0], float("inf")),
        ],
    )
    def test_rejects_non_finite(self, misses, total):
        with pytest.raises(ConfigError, match="finite"):
            MissCurve("bad", np.array(misses), total)

    def test_load_rejects_non_finite(self, tmp_path):
        path = tmp_path / "nan.npz"
        np.savez(
            path,
            **{"misses:bad": np.array([10.0, np.nan]), "total:bad": np.array([10.0])},
        )
        with pytest.raises(ConfigError, match="finite"):
            load_curves(path)

    def test_rejects_negative_ways(self):
        with pytest.raises(ValueError):
            linear_curve().misses_at(-1)

    def test_from_histogram(self):
        hist = np.array([50.0, 30.0, 20.0])  # depth1, depth2, miss
        c = MissCurve.from_histogram("h", hist)
        assert c.total_accesses == 100.0
        assert c.misses_at(0) == 100.0
        assert c.misses_at(1) == 50.0
        assert c.misses_at(2) == 20.0


class TestMarginalUtility:
    def test_definition(self):
        """MU(n) = (Miss(c) - Miss(c+n)) / n (the paper's equation)."""
        c = linear_curve()  # 8 misses saved per way
        assert c.marginal_utility(0, 1) == pytest.approx(8.0)
        assert c.marginal_utility(2, 4) == pytest.approx(8.0)

    def test_zero_beyond_saturation(self):
        c = linear_curve()
        assert c.marginal_utility(10, 5) == 0.0

    def test_vectorised_matches_scalar(self):
        c = linear_curve()
        mus = marginal_utilities_oracle(c, 3, 7)
        for n in range(1, 8):
            assert mus[n - 1] == pytest.approx(c.marginal_utility(3, n))

    def test_rejects_nonpositive_extra(self):
        with pytest.raises(ValueError):
            linear_curve().marginal_utility(0, 0)


class TestLookahead:
    def test_best_mu_sees_past_plateau(self):
        """A curve flat for 4 ways then cliff: single-way MU is 0 but the
        lookahead must find the cliff (the UCP insight)."""
        misses = np.array([100.0, 100, 100, 100, 100, 10, 10, 10])
        c = MissCurve("cliff", misses, 100.0)
        mu1 = c.marginal_utility(0, 1)
        assert mu1 == 0.0
        best_mu, best_n = c.best_marginal_utility(0, 7)
        assert best_n == 5
        assert best_mu == pytest.approx(90.0 / 5)

    def test_prefers_smallest_allocation_at_ties(self):
        misses = np.array([100.0, 50.0, 0.0])
        c = MissCurve("t", misses, 100.0)
        _, n = c.best_marginal_utility(0, 2)
        assert n == 1  # 50/way either way; smaller grant wins


class TestRatios:
    def test_miss_ratio(self):
        c = linear_curve()
        assert c.miss_ratio_at(0) == pytest.approx(1.0)
        assert c.miss_ratio_at(10) == pytest.approx(0.2)

    def test_zero_access_curve(self):
        c = MissCurve("z", np.zeros(4), 0.0)
        assert c.miss_ratio_at(2) == 0.0
        assert np.all(c.miss_ratio_curve() == 0.0)

    @given(st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=40))
    def test_histogram_round_trip_monotonic(self, hist):
        c = MissCurve.from_histogram("h", np.array(hist))
        curve = c.miss_ratio_curve()
        assert np.all(np.diff(curve) <= 1e-9)
        assert curve[0] == pytest.approx(1.0) or c.total_accesses == 0


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        from repro.profiling.miss_curve import load_curves, save_curves

        a = linear_curve()
        b = MissCurve("b", np.array([10.0, 4.0, 1.0]), 12.0)
        path = tmp_path / "curves.npz"
        save_curves(path, {"lin": a, "b": b})
        loaded = load_curves(path)
        assert set(loaded) == {"lin", "b"}
        assert np.allclose(loaded["lin"].misses, a.misses)
        assert loaded["b"].total_accesses == 12.0
        assert loaded["b"].name == "b"

    def test_empty_set(self, tmp_path):
        from repro.profiling.miss_curve import load_curves, save_curves

        path = tmp_path / "none.npz"
        save_curves(path, {})
        assert load_curves(path) == {}
