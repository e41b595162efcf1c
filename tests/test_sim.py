"""Full-system discrete-event simulation: construction, determinism,
co-scheduling, measurement windows, end-to-end partitioning behaviour."""

import pytest

from repro.config import scaled_config
from repro.errors import ConfigError
from repro.sim.runner import (
    RunSettings,
    build_system,
    compare_schemes,
    estimate_access_rate,
    run_mix,
)
from repro.sim.system import CMPSystem
from repro.workloads import Mix, generate_trace, get

CFG = scaled_config(32, epoch_cycles=150_000)  # tiny 64-set banks for speed
FAST = RunSettings(duration_cycles=500_000.0, seed=3)
MIX = Mix(("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim"))
NAN, INF = float("nan"), float("inf")


def small_system(scheme="equal-partitions", mix=MIX, settings=FAST):
    return build_system(mix, scheme, CFG, settings)


class TestConstruction:
    def test_scheme_validated(self):
        with pytest.raises(ValueError):
            CMPSystem(CFG, [get("gzip")] * 8, [None] * 8, scheme="magic")

    def test_core_count_must_match(self):
        t = generate_trace(get("gzip"), 10, CFG.l2.sets_per_bank)
        with pytest.raises(ValueError):
            CMPSystem(CFG, [get("gzip")] * 3, [t] * 3, scheme="no-partitions")

    def test_mix_size_checked(self):
        with pytest.raises(ValueError):
            build_system(Mix(("gzip",)), "no-partitions", CFG, FAST)

    def test_bank_aware_needs_profilers(self):
        traces = [
            generate_trace(get("gzip"), 10, CFG.l2.sets_per_bank)
            for _ in range(8)
        ]
        with pytest.raises(ValueError):
            CMPSystem(
                CFG, [get("gzip")] * 8, traces,
                scheme="bank-aware", profiler_kind="none",
            )

    def test_shared_scheme_uses_dnuca_by_default(self):
        sys_ = small_system("no-partitions")
        assert sys_.l2.placement == "dnuca"
        assert sys_.l2.mode == "shared"

    def test_partitioned_scheme_starts_equal(self):
        sys_ = small_system("equal-partitions")
        assert sys_.l2.mode == "partitioned"
        assert sys_.l2.partition_map.way_vector() == {c: 16 for c in range(8)}


class TestEventLoop:
    def test_deterministic(self):
        a = small_system().run()
        b = small_system().run()
        assert [c.l2_misses for c in a.cores] == [c.l2_misses for c in b.cores]
        assert [c.cycles for c in a.cores] == [c.cycles for c in b.cores]

    def test_all_cores_progress(self):
        r = small_system().run()
        assert all(c.l2_accesses > 0 for c in r.cores)
        assert all(c.instructions > 0 for c in r.cores)

    def test_cores_coscheduled_to_the_end(self):
        """No core may run ahead of the stop time by more than one access's
        worth of work — the co-scheduling guarantee."""
        sys_ = small_system()
        sys_.run()
        stop = sys_.stop_time
        assert stop is not None
        for timer in sys_.timers:
            assert timer.time >= 0.5 * stop

    def test_duration_respected(self):
        sys_ = small_system()
        sys_.run()
        assert sys_.stop_time <= FAST.duration_cycles

    def test_hits_plus_misses_equals_accesses(self):
        sys_ = small_system()
        r = sys_.run()
        for core in range(8):
            total = sys_.l2.stats.hits.get(core, 0) + sys_.l2.stats.misses.get(core, 0)
            assert total == sys_.l2.stats.core_accesses(core)

    def test_measurement_window_excludes_warmup(self):
        full = build_system(MIX, "no-partitions", CFG, RunSettings(
            duration_cycles=500_000.0, warmup_fraction=0.0, seed=3))
        warm = build_system(MIX, "no-partitions", CFG, RunSettings(
            duration_cycles=500_000.0, warmup_fraction=0.5, seed=3))
        rf, rw = full.run(), warm.run()
        assert rw.total_accesses < rf.total_accesses
        # cold misses concentrated in the warmup: measured rate is lower
        assert rw.miss_rate <= rf.miss_rate + 0.02

    def test_bad_window_rejected(self):
        sys_ = small_system()
        with pytest.raises(ValueError):
            sys_.set_measurement_window(-1.0)
        with pytest.raises(ValueError):
            sys_.set_measurement_window(100.0, 50.0)

    @pytest.mark.parametrize("warmup,max_cycles", [
        (NAN, None),
        (NAN, 100.0),
        (0.0, INF),
        (0.0, NAN),
    ], ids=["nan-warmup", "nan-warmup-with-max", "inf-max", "nan-max"])
    def test_non_finite_window_rejected(self, warmup, max_cycles):
        with pytest.raises(ConfigError):
            small_system().set_measurement_window(warmup, max_cycles)


class TestRunSettingsValidation:
    """A malformed window used to run to a result of zeros (NaN warmup,
    zero trace margin) or escape build_system as a bare ValueError or
    OverflowError (NaN or infinite duration)."""

    @pytest.mark.parametrize("field,value", [
        ("duration_cycles", NAN),
        ("duration_cycles", INF),
        ("duration_cycles", 0.0),
        ("duration_cycles", -1.0),
        ("warmup_fraction", NAN),
        ("warmup_fraction", INF),
        ("warmup_fraction", 1.0),
        ("warmup_fraction", -0.1),
        ("trace_margin", 0.0),
        ("trace_margin", -1.0),
        ("trace_margin", NAN),
        ("trace_margin", INF),
    ])
    def test_rejected_with_a_typed_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunSettings(**{field: value})

    def test_edges_accepted(self):
        RunSettings(duration_cycles=1.0, warmup_fraction=0.0, trace_margin=1e-9)
        RunSettings(warmup_fraction=0.999)


class TestDynamicController:
    def test_epochs_fire(self):
        sys_ = small_system("bank-aware")
        r = sys_.run()
        assert len(r.epochs) >= 2
        for rec in r.epochs:
            assert sum(rec.ways) == CFG.l2.total_ways

    def test_partition_applied_on_l2(self):
        sys_ = small_system("bank-aware")
        sys_.run()
        assert sys_.l2.partition_map.way_vector() == {
            c: w for c, w in enumerate(sys_.controller.history[-1].ways)
        }

    def test_reuse_cores_protected(self):
        """Whatever the controller hands the streamers (spare capacity may
        legitimately flow to them), the small reuse workloads must end up
        satisfied: dedicated ways at least their Local bank's worth and low
        steady-state miss rates."""
        sys_ = small_system("bank-aware")
        r = sys_.run()
        ways = r.epochs[-1].ways
        for core in (0, 1, 3, 5):  # gzip, eon, galgel, crafty
            assert ways[core] >= 4
            assert r.cores[core].miss_rate < 0.35


class TestEndToEnd:
    def test_partitioning_beats_sharing_on_adversarial_mix(self):
        """The paper's headline, in miniature: confining streamers cuts the
        misses-per-instruction of the whole system."""
        mix = Mix(("crafty", "swim", "vpr", "mcf", "gzip", "swim", "vortex", "art"))
        st = RunSettings(duration_cycles=1_200_000.0, seed=5)
        comp = compare_schemes(mix, CFG, st, schemes=("no-partitions", "equal-partitions"))
        assert comp.relative_miss_rate("equal-partitions") < 0.9

    def test_victim_core_protected_by_partitioning(self):
        mix = Mix(("crafty", "swim", "swim", "mcf", "art", "swim", "mcf", "swim"))
        st = RunSettings(duration_cycles=1_000_000.0, seed=6)
        shared = run_mix(mix, "no-partitions", CFG, st)
        equal = run_mix(mix, "equal-partitions", CFG, st)
        assert equal.cores[0].miss_rate < shared.cores[0].miss_rate

    def test_results_have_epoch_history_only_for_dynamic(self):
        assert run_mix(MIX, "equal-partitions", CFG, FAST).epochs == []


class TestRunnerHelpers:
    def test_estimate_access_rate_ordering(self):
        """Memory-hungry workloads are estimated faster issuers of L2
        accesses than compute-bound ones."""
        assert estimate_access_rate(get("mcf"), CFG) > estimate_access_rate(
            get("eon"), CFG
        )

    def test_relative_metrics_identity(self):
        comp = compare_schemes(MIX, CFG, FAST, schemes=("no-partitions",))
        assert comp.relative_miss_rate("no-partitions") == pytest.approx(1.0)
        assert comp.relative_cpi("no-partitions") == pytest.approx(1.0)


class TestUnrestrictedScheme:
    def test_runs_and_repartitions(self):
        sys_ = small_system("unrestricted", settings=RunSettings(
            duration_cycles=600_000.0, seed=3))
        r = sys_.run()
        assert len(r.epochs) >= 1
        for rec in r.epochs:
            assert sum(rec.ways) == CFG.l2.total_ways
            assert rec.center_banks is None  # no bank structure to report

    def test_tracks_bank_aware_closely(self):
        """The paper's claim, checked in the detailed simulator: the
        restricted Bank-aware scheme achieves roughly the miss rate of the
        idealised Unrestricted one."""
        st = RunSettings(duration_cycles=1_000_000.0, seed=5)
        mix = Mix(("crafty", "swim", "vpr", "mcf",
                   "gzip", "swim", "vortex", "art"))
        ba = run_mix(mix, "bank-aware", CFG, st)
        ur = run_mix(mix, "unrestricted", CFG, st)
        ba_mpi = ba.total_misses / max(ba.total_instructions, 1)
        ur_mpi = ur.total_misses / max(ur.total_instructions, 1)
        assert ba_mpi <= ur_mpi * 1.25
