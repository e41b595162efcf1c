"""Analysis layer: Monte Carlo harness, experiment drivers, reporting."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    fig2_histogram,
    fig3_curves,
    fig4_aggregation,
    profiler_accuracy,
    table1_rows,
    table2_rows,
    table3_assignments,
)
from repro.analysis import montecarlo
from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.analysis.report import format_series, format_table, miss_curve_rows
from repro.config import scaled_config
from repro.partitioning.registry import analytic_policies
from repro.partitioning.static import equal_partition
from repro.workloads.mixes import random_mixes

CFG = scaled_config(16)  # 128-set banks: fast but representative


@pytest.fixture(scope="module")
def curves():
    return collect_profiles(config=CFG, accesses=30_000)


class TestMonteCarlo:
    def test_points_and_means(self, curves):
        mc = run_monte_carlo(40, CFG, curves=curves, seed=1)
        assert len(mc.points) == 40
        assert 0.0 < mc.mean_unrestricted_ratio <= 1.05
        assert 0.0 < mc.mean_bank_aware_ratio <= 1.1

    def test_unrestricted_is_envelope(self, curves):
        """Bank-aware can at best match the Unrestricted scheme on average
        (it optimises under strictly more constraints)."""
        mc = run_monte_carlo(40, CFG, curves=curves, seed=1)
        assert mc.restriction_penalty() >= -1e-9

    def test_sorted_series(self, curves):
        mc = run_monte_carlo(25, CFG, curves=curves, seed=2)
        u, b = mc.series()
        assert len(u) == len(b) == 25
        assert np.all(np.diff(u) >= 0)  # sorted by unrestricted reduction

    def test_deterministic(self, curves):
        a = run_monte_carlo(10, CFG, curves=curves, seed=3)
        b = run_monte_carlo(10, CFG, curves=curves, seed=3)
        assert [p.bank_aware_ways for p in a.points] == [
            p.bank_aware_ways for p in b.points
        ]

    def test_bank_aware_decisions_cover_capacity(self, curves):
        mc = run_monte_carlo(10, CFG, curves=curves, seed=4)
        for p in mc.points:
            assert sum(p.bank_aware_ways) == CFG.l2.total_ways

    def test_ranked_point_projects_each_way_vector_once(
        self, curves, monkeypatch
    ):
        """The even split is the Equal field and both the
        equal-partitions and bank-bw verdicts: one projection serves all."""
        projected = []
        project = montecarlo.predicted_misses

        def spy(mix_curves, ways):
            projected.append(tuple(ways))
            return project(mix_curves, ways)

        monkeypatch.setattr(montecarlo, "_WORKER", {})
        monkeypatch.setattr(montecarlo, "predicted_misses", spy)
        montecarlo._montecarlo_init(curves, CFG, 1, analytic_policies())
        mix = random_mixes(1, CFG.num_cores, seed=7)[0]
        point = montecarlo._montecarlo_point(mix)
        even = tuple(equal_partition(CFG.num_cores, CFG.l2.total_ways))
        assert projected.count(even) == 1
        assert len(projected) == len(set(projected))
        assert point.policy_misses["bank-bw"] == point.equal_misses

    def test_reduction_exists_on_average(self, curves):
        """Partitioning by marginal utility must beat even shares overall
        (the direction of the paper's 30 %/27 % claim)."""
        mc = run_monte_carlo(60, CFG, curves=curves, seed=5)
        assert mc.mean_unrestricted_ratio < 0.95
        assert mc.mean_bank_aware_ratio < 0.97


class TestProfiles:
    def test_profiles_cover_suite(self, curves):
        assert len(curves) == 26
        for name, c in curves.items():
            assert c.name == name
            assert c.max_ways == CFG.l2.total_ways
            assert c.total_accesses > 0

    def test_warmup_removes_cold_misses(self):
        cold = collect_profiles(
            ("bzip2",), CFG, accesses=30_000, warmup_fraction=0.0
        )["bzip2"]
        warm = collect_profiles(
            ("bzip2",), CFG, accesses=30_000, warmup_fraction=0.4
        )["bzip2"]
        assert warm.miss_ratio_at(128) < cold.miss_ratio_at(128)


class TestExperimentDrivers:
    def test_table1_mentions_key_parameters(self):
        rows = dict(table1_rows())
        assert "16 MB" in rows["L2 Cache"]
        assert rows["Memory Latency"] == "260 cycles"

    def test_table2_totals(self):
        rows = dict(table2_rows())
        assert rows["Partial Tags"] == pytest.approx(54.0)
        assert rows["Total per profiler"] == pytest.approx(83.25)

    def test_fig2_histogram_shape(self):
        h = fig2_histogram("crafty", CFG, accesses=20_000, positions=16)
        assert len(h) == 17
        assert h.sum() == 20_000
        # temporal locality: the MRU half collects more hits than the LRU half
        assert h[:8].sum() > h[8:16].sum()

    def test_fig3_shapes(self):
        curves = fig3_curves(config=CFG, accesses=30_000)
        six, bz, ap = (curves[n] for n in ("sixtrack", "bzip2", "applu"))
        assert six.miss_ratio_at(8) < 0.15
        assert ap.miss_ratio_at(16) - ap.miss_ratio_at(64) < 0.06
        assert bz.miss_ratio_at(8) - bz.miss_ratio_at(48) > 0.3

    def test_fig4_orderings(self):
        rows = {o.scheme: o for o in fig4_aggregation(accesses=15_000)}
        assert rows["cascade"].miss_rate == pytest.approx(rows["ideal"].miss_rate)
        assert rows["cascade"].migrations_per_access > 10 * max(
            rows["hash"].migrations_per_access, 1e-9
        )
        assert rows["parallel"].directory_probes_per_access > rows[
            "hash"
        ].directory_probes_per_access

    def test_table3_assignments(self, curves):
        out = table3_assignments(CFG, curves=curves)
        assert len(out) == 8
        for mix, decision in out:
            assert len(mix) == 8
            assert decision.total_ways == CFG.l2.total_ways

    def test_profiler_accuracy_paper_point(self):
        rows = profiler_accuracy("twolf", CFG, accesses=30_000)
        err_12_32 = next(e for b, s, e in rows if b == 12 and s == 32)
        assert err_12_32 < 0.05


class TestReport:
    def test_format_table_alignment(self):
        txt = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3.25]])
        lines = txt.splitlines()
        assert len({len(l) for l in lines}) == 1  # aligned block
        assert "xyz" in txt and "3.250" in txt

    def test_format_table_width_check(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("u", [0.1, 0.2, 0.3, 0.4], samples=3)
        assert "mean=0.250" in out
        assert format_series("e", []) == "e: (empty)"

    def test_miss_curve_rows(self, curves):
        rows = miss_curve_rows({"gzip": curves["gzip"]}, (0, 8))
        assert rows[0][0] == "gzip"
        assert rows[0][1] == pytest.approx(1.0)


class TestCsvExport:
    def test_write_csv_round_trip(self, tmp_path):
        import csv

        from repro.analysis import write_csv

        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], ["x", 0.1]])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2.5"], ["x", "0.1"]]

    def test_write_csv_width_checked(self, tmp_path):
        import pytest as _pytest

        from repro.analysis import write_csv

        with _pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a"], [[1, 2]])


class TestFairness:
    def test_standalone_and_report(self):
        from repro.analysis.fairness import fairness_report, standalone_cpi
        from repro.config import scaled_config
        from repro.sim import RunSettings
        from repro.workloads import Mix

        cfg = scaled_config(32, epoch_cycles=150_000)
        st = RunSettings(duration_cycles=400_000, seed=3)
        alone = standalone_cpi("gzip", cfg, st)
        assert alone > 0
        mix = Mix(("gzip", "eon", "swim", "galgel",
                   "perlbmk", "crafty", "gap", "mcf"))
        rep = fairness_report(mix, "equal-partitions", cfg, st)
        assert len(rep.slowdowns) == 8
        assert rep.worst_slowdown >= 1.0 - 0.25  # contention rarely speeds up
        assert 0.0 < rep.fairness_index <= 1.0
        assert rep.weighted_speedup > 0
