"""Resilience subsystem: faults, guard invariants, ladder, checkpoints."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.cache.nuca import NucaL2
from repro.config import L2Config, ResilienceConfig, scaled_config
from repro.partitioning.bank_aware import bank_aware_partition
from repro.profiling.msa import MSAProfiler
from repro.resilience import (
    CheckpointCorrupt,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
    DecisionGuard,
    DegradedMode,
    FaultPlan,
    FaultSpec,
    PartitionInvariantError,
    ProfilerFault,
    ReproError,
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import backup_path
from repro.sim.controller import EpochController
from repro.sim.runner import RunSettings, run_mix, run_sweep
from repro.util.rng import rng_stream
from repro.workloads import TABLE_III_SETS, generate_trace, get, random_mixes

CFG = scaled_config(32, epoch_cycles=150_000)  # tiny 64-set banks for speed


# --------------------------------------------------------------------------
# error taxonomy


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for exc in (ProfilerFault, PartitionInvariantError, CheckpointCorrupt,
                    ConfigError):
            assert issubclass(exc, ReproError)

    def test_replaced_valueerrors_stay_catchable(self):
        # callers that caught ValueError on these paths must keep working
        assert issubclass(PartitionInvariantError, ValueError)
        assert issubclass(ConfigError, ValueError)

    def test_bank_aware_invariants_are_typed(self):
        from repro.partitioning.bank_aware import BankAwareDecision

        with pytest.raises(PartitionInvariantError):
            BankAwareDecision(ways=(8, 8), center_banks=(1,), pairs=())


# --------------------------------------------------------------------------
# fault plans


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("0:zero@2,3:corrupt@1-4,*:drop-epoch@5", seed=9)
        assert plan.faults == (
            FaultSpec(0, "zero", 2, None),
            FaultSpec(3, "corrupt", 1, 4),
            FaultSpec(-1, "drop-epoch", 5, None),
        )
        assert FaultPlan.parse(str(plan), seed=9) == plan

    @pytest.mark.parametrize("bad", [
        "0:typo", "zero", "x:zero", "*:zero", "0:zero@9-3", "0:zero@a",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_windows(self):
        spec = FaultSpec(0, "zero", 2, 5)
        assert [spec.active(e) for e in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_zero_and_freeze(self):
        plan = FaultPlan((FaultSpec(0, "zero"), FaultSpec(1, "freeze", 1)))
        inj = plan.injector()
        h = np.arange(5, dtype=float)
        assert not inj.filter_histogram(0, h, 0).any()
        # epoch 0: freeze not yet active; epoch 1 snapshots; epoch 2 stale
        assert (inj.filter_histogram(1, h, 0) == h).all()
        assert (inj.filter_histogram(1, h, 1) == h).all()
        assert (inj.filter_histogram(1, h * 10, 2) == h).all()
        # untouched core passes through
        assert (inj.filter_histogram(2, h, 0) == h).all()

    def test_corruption_is_seed_deterministic(self):
        h = np.linspace(10, 500, 32)
        plans = [FaultPlan((FaultSpec(0, "corrupt"),), seed=s) for s in (4, 4, 5)]
        a, b, c = (
            p.injector().filter_histogram(0, h, 3) for p in plans
        )
        assert (a == b).all()
        assert not (a == c).all()

    def test_degenerate_breaks_monotonicity(self):
        h = np.full(16, 100.0)
        out = FaultPlan((FaultSpec(0, "degenerate"),)).injector(
        ).filter_histogram(0, h, 0)
        assert (out < 0).any()

    def test_drop_epoch(self):
        inj = FaultPlan((FaultSpec(-1, "drop-epoch", 1, 3),)).injector()
        assert [inj.drops_epoch(e) for e in range(4)] == [
            False, True, True, False,
        ]
        assert any("dropped" in e for e in inj.events)


# --------------------------------------------------------------------------
# guard invariants (property-style over random mixes)


def make_guard(**kw):
    kw.setdefault("num_banks", 16)
    kw.setdefault("bank_ways", 8)
    kw.setdefault("max_ways_per_core", 72)
    return DecisionGuard(8, **kw)


@pytest.fixture(scope="module")
def curves_by_name():
    return collect_profiles(config=CFG, accesses=6_000)


class TestGuardInvariants:
    def test_accepts_every_bank_aware_decision(self, curves_by_name):
        guard = make_guard()
        for mix in random_mixes(25, 8, seed=41):
            d = bank_aware_partition(
                [curves_by_name[n] for n in mix.names],
                num_banks=16, bank_ways=8, max_ways_per_core=72,
            )
            guard.validate_decision(d.ways, d.center_banks, d.pairs)
            guard.validate_vector(d.ways)

    def test_rejects_conservation_violations(self, curves_by_name):
        guard = make_guard()
        rng = rng_stream(7, "perturb")
        for mix in random_mixes(15, 8, seed=42):
            d = bank_aware_partition(
                [curves_by_name[n] for n in mix.names],
                num_banks=16, bank_ways=8, max_ways_per_core=72,
            )
            ways = list(d.ways)
            ways[int(rng.integers(0, 8))] += int(rng.integers(1, 9))
            with pytest.raises(PartitionInvariantError):
                guard.validate_vector(ways)

    def test_rejects_transfers_outside_a_pair(self, curves_by_name):
        """Moving ways between cores keeps conservation but must break a
        structural rule — unless both cores share one Local-bank pair."""
        guard = make_guard()
        rng = rng_stream(8, "transfer")
        checked = 0
        for mix in random_mixes(40, 8, seed=43):
            d = bank_aware_partition(
                [curves_by_name[n] for n in mix.names],
                num_banks=16, bank_ways=8, max_ways_per_core=72,
            )
            src, dst = (int(x) for x in rng.choice(8, size=2, replace=False))
            if (src, dst) in d.pairs or (dst, src) in d.pairs:
                continue  # intra-pair transfers can be legitimately valid
            ways = list(d.ways)
            if ways[src] <= 1 or ways[dst] + 1 > 72:
                continue
            ways[src] -= 1
            ways[dst] += 1
            with pytest.raises(PartitionInvariantError):
                guard.validate_decision(ways, d.center_banks, d.pairs)
            checked += 1
        assert checked >= 20  # the property was actually exercised

    def test_accepts_intra_pair_transfers(self):
        # pair (0,1) splitting two Local banks 6/10 vs 5/11: both valid
        base = dict(center_banks=(0, 0, 1, 1, 1, 1, 2, 2), pairs=((0, 1),))
        guard = make_guard()
        for split in ((6, 10), (5, 11), (1, 15)):
            ways = split + (16, 16, 16, 16, 24, 24)
            guard.validate_decision(ways, **base)

    def test_rejects_cap_violation(self):
        guard = make_guard()
        with pytest.raises(PartitionInvariantError, match="capacity cap"):
            guard.validate_vector([73, 1, 1, 1, 1, 1, 25, 25])

    def test_rejects_starved_core(self):
        guard = make_guard()
        with pytest.raises(PartitionInvariantError, match="minimum"):
            guard.validate_vector([0, 32, 16, 16, 16, 16, 16, 16])

    def test_rejects_fractional_ways(self):
        guard = make_guard()
        with pytest.raises(PartitionInvariantError, match="fractional"):
            guard.validate_vector([16.5, 15.5, 16, 16, 16, 16, 16, 16])

    def test_rejects_non_adjacent_pair(self):
        guard = make_guard()
        ways = (6, 16, 10, 16, 16, 16, 24, 24)
        centers = (0, 1, 0, 1, 1, 1, 2, 2)
        with pytest.raises(PartitionInvariantError, match="Rule 3"):
            guard.validate_decision(ways, centers, ((0, 2),))

    def test_rejects_center_core_in_pair(self):
        guard = make_guard()
        ways = (24, 8, 16, 16, 16, 16, 16, 16)
        centers = (1, 0, 1, 1, 1, 1, 1, 2)
        with pytest.raises(PartitionInvariantError, match="Rule 2"):
            guard.validate_decision(ways, centers, ((0, 1),))

    def test_rejects_wrong_center_way_count(self):
        guard = make_guard()
        # core 0 claims 1 Center bank but owns 12 ways (not 16)
        ways = (12, 20, 16, 16, 16, 16, 16, 16)
        centers = (1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(PartitionInvariantError, match="Rule 1/2"):
            guard.validate_decision(ways, centers, ())

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            DecisionGuard(0, num_banks=16, bank_ways=8, max_ways_per_core=72)
        with pytest.raises(ConfigError):
            make_guard(min_ways=0)
        with pytest.raises(ConfigError):
            make_guard(hysteresis=0)
        with pytest.raises(ConfigError):
            make_guard(degrade_after=0)


class TestGuardHealthChecks:
    def test_accepts_healthy_histogram(self):
        guard = make_guard()
        curve = guard.checked_curve("w", 0, np.full(9, 50.0),
                                    min_observations=10)
        assert curve.total_accesses == pytest.approx(450.0)

    def test_too_few_observations(self):
        guard = make_guard()
        with pytest.raises(ProfilerFault, match="observations"):
            guard.checked_curve("w", 2, np.full(9, 1.0), min_observations=100)

    def test_negative_counters(self):
        guard = make_guard()
        h = np.full(9, 50.0)
        h[3] = -10.0
        with pytest.raises(ProfilerFault, match="negative"):
            guard.checked_curve("w", 1, h)

    def test_non_finite_counters(self):
        guard = make_guard()
        h = np.full(9, 50.0)
        h[0] = np.nan
        with pytest.raises(ProfilerFault, match="non-finite"):
            guard.checked_curve("w", 1, h)

    def test_fault_carries_core(self):
        guard = make_guard()
        with pytest.raises(ProfilerFault) as info:
            guard.checked_curve("w", 5, np.zeros(9), min_observations=1)
        assert info.value.core == 5


class TestGuardLadder:
    def test_descends_and_recovers(self):
        guard = make_guard(degrade_after=2, hysteresis=2)
        err = ProfilerFault("boom")
        assert guard.note_failure(1.0, err) is DegradedMode.NORMAL
        assert guard.note_failure(2.0, err) is DegradedMode.EQUAL_SHARE
        assert guard.note_failure(3.0, err) is DegradedMode.EQUAL_SHARE
        assert guard.note_failure(4.0, err) is DegradedMode.FROZEN
        # recovery: one rung per `hysteresis` consecutive healthy epochs
        assert guard.note_healthy(5.0) is DegradedMode.FROZEN
        assert guard.note_healthy(6.0) is DegradedMode.EQUAL_SHARE
        assert guard.note_healthy(7.0) is DegradedMode.EQUAL_SHARE
        assert guard.note_healthy(8.0) is DegradedMode.NORMAL

    def test_intermittent_faults_do_not_degrade(self):
        guard = make_guard(degrade_after=3)
        err = ProfilerFault("flaky")
        for t in range(20):
            if t % 2:
                mode = guard.note_failure(float(t), err)
            else:
                mode = guard.note_healthy(float(t))
            assert mode is DegradedMode.NORMAL

    def test_events_logged(self):
        guard = make_guard(degrade_after=1, hysteresis=1)
        guard.note_failure(1.0, ProfilerFault("x"))
        guard.note_healthy(2.0)
        kinds = [e.kind for e in guard.events]
        assert kinds == ["fault", "degrade", "recover"]
        assert guard.fallback_count == 1


# --------------------------------------------------------------------------
# controller integration


def make_controller(*, guard=None, injector=None, min_obs=10, **kw):
    l2cfg = L2Config(num_banks=16, bank_ways=8, sets_per_bank=64)
    l2 = NucaL2(l2cfg, 8)
    profilers = [MSAProfiler(l2cfg.sets_per_bank, 72) for _ in range(8)]
    names = ["w%d" % i for i in range(8)]
    ctrl = EpochController(
        l2, profilers, names,
        epoch_cycles=kw.pop("epoch", 1000.0),
        max_ways_per_core=72,
        min_observations=min_obs,
        guard=guard,
        fault_injector=injector,
        **kw,
    )
    return ctrl, l2, profilers


def feed(profilers, accesses=400):
    for i, prof in enumerate(profilers):
        trace = generate_trace(
            get("vpr" if i % 2 else "gzip"), accesses, 64, seed=i
        )
        prof.observe_many(trace.lines)


class TestControllerValidation:
    def test_negative_min_observations_rejected(self):
        with pytest.raises(ConfigError):
            make_controller(min_obs=-1)

    def test_max_ways_rejected(self):
        l2 = NucaL2(L2Config(num_banks=16, bank_ways=8, sets_per_bank=64), 8)
        profs = [MSAProfiler(64, 72) for _ in range(8)]
        with pytest.raises(ConfigError):
            EpochController(l2, profs, ["w"] * 8, epoch_cycles=1000.0,
                            max_ways_per_core=0)

    def test_typed_errors_are_valueerrors(self):
        with pytest.raises(ValueError):  # backwards compatibility
            make_controller(min_obs=-1)


class TestGuardedController:
    def test_fault_free_guarded_run_matches_unguarded(self):
        results = []
        for use_guard in (False, True):
            guard = make_guard() if use_guard else None
            ctrl, _, profs = make_controller(guard=guard)
            feed(profs)
            assert ctrl.tick(1000.0)
            results.append(ctrl.last_decision.ways)
        assert results[0] == results[1]

    def test_zero_fault_holds_last_known_good(self):
        plan = FaultPlan((FaultSpec(0, "zero", 1), FaultSpec(1, "zero", 1)))
        guard = make_guard(degrade_after=3)
        ctrl, l2, profs = make_controller(guard=guard, injector=plan.injector())
        feed(profs)
        assert ctrl.tick(1000.0)  # epoch 0: healthy, decision installed
        good = ctrl.last_decision.ways
        before = l2.partition_map
        feed(profs)
        assert not ctrl.tick(2000.0)  # epoch 1: faulted, contained
        assert ctrl.last_decision.ways == good  # history unchanged
        assert l2.partition_map is before  # nothing reinstalled
        assert guard.events and guard.events[-1].kind == "fallback"

    def test_sustained_fault_descends_to_equal_then_frozen(self):
        plan = FaultPlan((FaultSpec(0, "zero", 0),))
        guard = make_guard(degrade_after=2, hysteresis=1)
        ctrl, l2, profs = make_controller(guard=guard, injector=plan.injector())
        now = 1000.0
        for _ in range(2):  # two strikes -> EQUAL_SHARE
            feed(profs)
            assert not ctrl.tick(now)
            now += 1000.0
        assert guard.mode is DegradedMode.EQUAL_SHARE
        assert l2.partition_map is not None
        assert set(l2.partition_map.way_vector().values()) == {16}
        for _ in range(2):  # two more -> FROZEN
            feed(profs)
            ctrl.tick(now)
            now += 1000.0
        assert guard.mode is DegradedMode.FROZEN
        assert ctrl.history == []  # never trusted a faulty decision

    def test_recovery_after_fault_clears(self):
        plan = FaultPlan((FaultSpec(0, "zero", 0, 2),))  # epochs 0-1 only
        guard = make_guard(degrade_after=1, hysteresis=1)
        ctrl, _, profs = make_controller(guard=guard, injector=plan.injector())
        now = 1000.0
        for _ in range(2):
            feed(profs)
            assert not ctrl.tick(now)
            now += 1000.0
        assert guard.mode is not DegradedMode.NORMAL
        installed = 0
        for _ in range(4):
            feed(profs)
            installed += ctrl.tick(now)
            now += 1000.0
        assert guard.mode is DegradedMode.NORMAL
        assert installed >= 1  # fresh decisions resumed
        assert any(e.kind == "recover" for e in guard.events)

    def test_drop_epoch_fault_skips_boundary(self):
        plan = FaultPlan((FaultSpec(-1, "drop-epoch", 0, 1),))
        ctrl, _, profs = make_controller(guard=make_guard(),
                                         injector=plan.injector())
        feed(profs)
        assert not ctrl.tick(1000.0)  # dropped
        assert ctrl.history == []
        feed(profs)
        assert ctrl.tick(2000.0)  # next boundary fires normally

    def test_degenerate_fault_detected(self):
        plan = FaultPlan((FaultSpec(3, "degenerate", 0),))
        guard = make_guard()
        ctrl, _, profs = make_controller(guard=guard, injector=plan.injector())
        feed(profs)
        assert not ctrl.tick(1000.0)
        assert any("core 3" in e.detail for e in guard.events)


class TestFaultedSimulation:
    """Acceptance: corrupted profilers on 2 of 8 cores are contained."""

    SETTINGS = RunSettings(duration_cycles=500_000.0, seed=3)

    def test_faulted_run_completes_and_healthy_cores_unharmed(self):
        mix = TABLE_III_SETS[1]
        clean = run_mix(mix, "bank-aware", CFG, self.SETTINGS)
        plan = FaultPlan.parse("0:zero@1,4:degenerate@1", seed=5)
        faulted = run_mix(
            mix, "bank-aware", CFG,
            RunSettings(duration_cycles=500_000.0, seed=3, fault_plan=plan),
        )
        assert faulted.guard_events, "guard must log the fallbacks"
        kinds = {e[1] for e in faulted.guard_events}
        assert "fault" in kinds and "fallback" in kinds
        for core in range(2, 4):  # healthy cores far from the faulted pair
            a, b = clean.cores[core], faulted.cores[core]
            assert b.miss_rate == pytest.approx(a.miss_rate, abs=0.05)


# --------------------------------------------------------------------------
# checkpoints


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {"seed": 1}, [{"x": 1.5}])
        meta, completed = load_checkpoint(path, "k")
        assert meta == {"seed": 1}
        assert completed == [{"x": 1.5}]

    def test_atomic_no_temp_left(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {}, [])
        assert os.listdir(tmp_path) == ["c.json"]

    def test_truncated_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(str(path), "k", {}, [{"x": 1}])
        path.write_text(path.read_text()[:-20])
        with pytest.raises(CheckpointCorrupt, match="JSON"):
            load_checkpoint(str(path), "k")

    def test_tampered_payload_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(str(path), "k", {}, [{"x": 1}])
        data = json.loads(path.read_text())
        data["completed"][0]["x"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            load_checkpoint(str(path), "k")

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "monte-carlo", {}, [])
        with pytest.raises(CheckpointCorrupt, match="monte-carlo"):
            load_checkpoint(path, "detailed-sweep")

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(str(path), "k")

    def test_meta_mismatch_refused_on_resume(self, tmp_path):
        path = str(tmp_path / "c.json")
        SweepCheckpoint(path, "k", {"seed": 1}).save()
        with pytest.raises(CheckpointCorrupt, match="refusing"):
            SweepCheckpoint(path, "k", {"seed": 2}, resume=True)

    def test_resume_without_file_starts_fresh(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "no.json"), "k", {}, resume=True)
        assert len(ckpt) == 0

    def test_periodic_snapshots(self, tmp_path):
        path = str(tmp_path / "c.json")
        ckpt = SweepCheckpoint(path, "k", {}, every=2)
        ckpt.record({"i": 0})
        assert not os.path.exists(path)
        ckpt.record({"i": 1})
        assert load_checkpoint(path, "k")[1] == [{"i": 0}, {"i": 1}]

    def test_save_preserves_previous_generation_as_bak(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {}, [{"i": 0}])
        assert not os.path.exists(backup_path(path))  # nothing to preserve
        save_checkpoint(path, "k", {}, [{"i": 0}, {"i": 1}])
        assert load_checkpoint(backup_path(path), "k")[1] == [{"i": 0}]

    def test_damaged_primary_falls_back_to_bak(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {"seed": 7}, [{"i": 0}])
        save_checkpoint(path, "k", {"seed": 7}, [{"i": 0}, {"i": 1}])
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)  # torn by other tools
        meta, completed = load_checkpoint(path, "k")
        assert meta == {"seed": 7}
        assert completed == [{"i": 0}]  # the previous generation

    def test_non_utf8_snapshot_is_checkpoint_corrupt(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {}, [])  # single save: no .bak yet
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff")  # one byte that is not UTF-8
        with pytest.raises(CheckpointCorrupt, match="not valid JSON"):
            load_checkpoint(path, "k")

    def test_non_utf8_primary_falls_back_to_bak(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {"seed": 7}, [{"i": 0}])
        save_checkpoint(path, "k", {"seed": 7}, [{"i": 0}, {"i": 1}])
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff")
        meta, completed = load_checkpoint(path, "k")
        assert meta == {"seed": 7}
        assert completed == [{"i": 0}]  # the previous generation

    def test_both_generations_damaged_raises(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {}, [{"i": 0}])
        save_checkpoint(path, "k", {}, [{"i": 0}, {"i": 1}])
        for victim in (path, backup_path(path)):
            with open(victim, "r+b") as fh:
                fh.truncate(10)
        with pytest.raises(CheckpointCorrupt, match="both unreadable"):
            load_checkpoint(path, "k")

    def test_damaged_primary_without_bak_raises_original(self, tmp_path):
        path = str(tmp_path / "c.json")
        save_checkpoint(path, "k", {}, [])  # single save: no .bak yet
        with open(path, "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(CheckpointCorrupt, match="JSON"):
            load_checkpoint(path, "k")

    def test_corrupt_error_alias_is_the_same_class(self):
        assert CheckpointCorruptError is CheckpointCorrupt


class TestMonteCarloResume:
    def test_killed_and_resumed_sweep_is_bit_identical(
        self, tmp_path, curves_by_name
    ):
        path = str(tmp_path / "mc.json")
        baseline = run_monte_carlo(20, CFG, curves=curves_by_name, seed=77)

        class Killer(dict):
            """Curve store that dies mid-sweep, like a kill -9 would."""

            def __init__(self, inner, fuse):
                super().__init__(inner)
                self.fuse = fuse

            def __getitem__(self, key):
                self.fuse -= 1
                if self.fuse <= 0:
                    raise KeyboardInterrupt
                return super().__getitem__(key)

        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(
                20, CFG, curves=Killer(curves_by_name, 60), seed=77,
                checkpoint_path=path,
            )
        _, completed = load_checkpoint(path, "monte-carlo")
        assert 0 < len(completed) < 20  # progress survived the kill
        resumed = run_monte_carlo(
            20, CFG, curves=curves_by_name, seed=77,
            checkpoint_path=path, resume=True,
        )
        assert len(resumed.points) == 20
        for a, b in zip(baseline.points, resumed.points):
            assert a.mix.names == b.mix.names
            assert a.equal_misses == b.equal_misses  # exact, not approx
            assert a.unrestricted_misses == b.unrestricted_misses
            assert a.bank_aware_misses == b.bank_aware_misses
            assert a.bank_aware_ways == b.bank_aware_ways

    def test_resume_into_longer_sweep(self, tmp_path, curves_by_name):
        path = str(tmp_path / "mc.json")
        run_monte_carlo(6, CFG, curves=curves_by_name, seed=5,
                        checkpoint_path=path)
        longer = run_monte_carlo(10, CFG, curves=curves_by_name, seed=5,
                                 checkpoint_path=path, resume=True)
        fresh = run_monte_carlo(10, CFG, curves=curves_by_name, seed=5)
        assert [p.bank_aware_misses for p in longer.points] == [
            p.bank_aware_misses for p in fresh.points
        ]

    def test_resume_with_different_seed_refused(self, tmp_path, curves_by_name):
        path = str(tmp_path / "mc.json")
        run_monte_carlo(4, CFG, curves=curves_by_name, seed=5,
                        checkpoint_path=path)
        with pytest.raises(CheckpointCorrupt):
            run_monte_carlo(4, CFG, curves=curves_by_name, seed=6,
                            checkpoint_path=path, resume=True)


class TestDetailedSweepResume:
    SETTINGS = RunSettings(duration_cycles=300_000.0, seed=3)

    def test_sweep_resumes_identically(self, tmp_path, monkeypatch):
        import repro.sim.runner as runner_mod

        mixes = TABLE_III_SETS[:2]
        path = str(tmp_path / "sweep.json")
        schemes = ("equal-partitions", "bank-aware")
        full = run_sweep(mixes, CFG, self.SETTINGS, schemes=schemes)

        real = runner_mod._sweep_run
        calls = {"n": 0}

        def dying(item):  # killed after the first mix's schemes complete
            calls["n"] += 1
            if calls["n"] > len(schemes):
                raise KeyboardInterrupt
            return real(item)

        monkeypatch.setattr(runner_mod, "_sweep_run", dying)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(mixes, CFG, self.SETTINGS, schemes=schemes,
                      checkpoint_path=path)
        monkeypatch.setattr(runner_mod, "_sweep_run", real)
        assert len(load_checkpoint(path, "detailed-sweep")[1]) == 1
        resumed = run_sweep(mixes, CFG, self.SETTINGS, schemes=schemes,
                            checkpoint_path=path, resume=True)
        for a, b in zip(full, resumed):
            for scheme in a.results:
                ra, rb = a.results[scheme], b.results[scheme]
                assert [c.cycles for c in ra.cores] == [
                    c.cycles for c in rb.cores
                ]
                assert ra.total_misses == rb.total_misses
                assert ra.epochs == rb.epochs

    def _sweep(self, path, cfg=CFG, resume=False, **change):
        settings = replace(
            RunSettings(duration_cycles=100_000.0, seed=3), **change
        )
        return run_sweep(TABLE_III_SETS[:1], cfg, settings,
                         schemes=("equal-partitions",),
                         checkpoint_path=path, resume=resume)

    @pytest.mark.parametrize("cfg,change,keys", [
        (scaled_config(16, epoch_cycles=CFG.epoch_cycles), {},
         ("l2.sets_per_bank", "profiler.set_sampling")),
        (replace(CFG, l2=replace(CFG.l2, num_banks=32)), {},
         ("l2.num_banks",)),
        (replace(CFG, memory=replace(CFG.memory, latency_cycles=300)), {},
         ("memory.latency_cycles",)),
        (CFG, {"warmup_fraction": 0.25}, ("warmup_fraction",)),
        (CFG, {"placement": "parallel"}, ("placement",)),
        (CFG, {"fault_plan": FaultPlan.parse("0:zero@0")}, ("fault_plan",)),
    ], ids=["scale", "num_banks", "memory_latency", "warmup_fraction",
            "placement", "fault_plan"])
    def test_resume_with_other_parameters_is_refused(
        self, tmp_path, cfg, change, keys
    ):
        path = str(tmp_path / "sweep.json")
        self._sweep(path)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            self._sweep(path, cfg, resume=True, **change)
        assert exc_info.value.mismatched == keys

    def test_resume_ignores_what_cannot_change_a_result(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        first = self._sweep(path)
        cfg = replace(CFG, resilience=replace(
            CFG.resilience, checkpoint_every=1, sanitize=True
        ))
        again = self._sweep(path, cfg, resume=True, sim_backend="batched",
                            sanitize=True, trace=True)
        assert [c.results["equal-partitions"].to_dict() for c in again] == [
            c.results["equal-partitions"].to_dict() for c in first
        ]


# --------------------------------------------------------------------------
# resilience config


class TestResilienceConfig:
    def test_defaults_validate(self):
        ResilienceConfig().validate()
        assert CFG.resilience.guard_enabled

    @pytest.mark.parametrize("kw", [
        {"hysteresis_epochs": 0}, {"degrade_after": 0},
        {"min_ways": 0}, {"checkpoint_every": 0},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ResilienceConfig(**kw).validate()
