"""Resilience subsystem: decision invariants, the guard's health checks
and ladder, and checkpoints."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.cache.nuca import NucaL2
from repro.config import L2Config, ResilienceConfig, scaled_config
from repro.partitioning.allocation import check_way_vector
from repro.partitioning.bank_aware import BankAwareDecision, bank_aware_partition
from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler
from repro.resilience import (
    CheckpointCorrupt,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
    DecisionGuard,
    DegradedMode,
    PartitionInvariantError,
    ProfilerFault,
    ReproError,
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import backup_path
from repro.resilience.guard import DEGRADE_AFTER, HYSTERESIS_EPOCHS
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
# decision invariants (property-style over random mixes)


@pytest.fixture(scope="module")
def curves_by_name():
    return collect_profiles(config=CFG, accesses=6_000)


def decision(ways, center_banks, pairs):
    """Rebuild a Bank-aware decision, re-running its Rules 1-3 checks."""
    return BankAwareDecision(tuple(ways), tuple(center_banks), tuple(pairs))


class TestGuardInvariants:
    """The invariants every verdict passes once, inside ``decide``:
    Rules 1-3 in ``BankAwareDecision`` and conservation, the one-way floor
    and the 9/16 cap in ``check_way_vector``."""

    def test_accepts_every_bank_aware_decision(self, curves_by_name):
        for mix in random_mixes(25, 8, seed=41):
            d = bank_aware_partition(
                [curves_by_name[n] for n in mix.names],
                num_banks=16, bank_ways=8, max_ways_per_core=72,
            )
            decision(d.ways, d.center_banks, d.pairs)
            check_way_vector(d.ways, 128, 72)

    def test_rejects_conservation_violations(self, curves_by_name):
        rng = rng_stream(7, "perturb")
        for mix in random_mixes(15, 8, seed=42):
            d = bank_aware_partition(
                [curves_by_name[n] for n in mix.names],
                num_banks=16, bank_ways=8, max_ways_per_core=72,
            )
            ways = list(d.ways)
            ways[int(rng.integers(0, 8))] += int(rng.integers(1, 9))
            with pytest.raises(PartitionInvariantError, match="sums to"):
                check_way_vector(ways, 128, 72)

    def test_rejects_transfers_outside_a_pair(self, curves_by_name):
        """Moving ways between cores keeps conservation but must break a
        structural rule — unless both cores share one Local-bank pair."""
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
            check_way_vector(ways, 128, 72)  # the vector alone looks sound
            with pytest.raises(PartitionInvariantError):
                decision(ways, d.center_banks, d.pairs)
            checked += 1
        assert checked >= 20  # the property was actually exercised

    def test_accepts_intra_pair_transfers(self):
        # pair (0,1) splitting two Local banks 6/10 vs 5/11: both valid
        centers, pairs = (0, 0, 1, 1, 1, 1, 2, 2), ((0, 1),)
        for split in ((6, 10), (5, 11), (1, 15)):
            ways = split + (16, 16, 16, 16, 24, 24)
            decision(ways, centers, pairs)
            check_way_vector(ways, 128, 72)

    def test_rejects_cap_violation(self):
        with pytest.raises(PartitionInvariantError, match="capacity cap"):
            check_way_vector([73, 1, 1, 1, 1, 1, 25, 25], 128, 72)

    def test_rejects_starved_core(self):
        with pytest.raises(PartitionInvariantError, match="at least one way"):
            check_way_vector([0, 32, 16, 16, 16, 16, 16, 16], 128, 72)

    def test_rejects_non_adjacent_pair(self):
        ways = (6, 16, 10, 16, 16, 16, 24, 24)
        centers = (0, 1, 0, 1, 1, 1, 2, 2)
        with pytest.raises(PartitionInvariantError, match="not adjacent"):
            decision(ways, centers, ((0, 2),))

    @pytest.mark.parametrize("pair", [(7, 8), (-1, 0)])
    def test_rejects_pair_outside_the_machine(self, pair):
        with pytest.raises(PartitionInvariantError, match="outside 0..7"):
            decision((8,) * 8, (0,) * 8, (pair,))

    def test_rejects_center_core_in_pair(self):
        ways = (24, 8, 16, 16, 16, 16, 16, 16)
        centers = (1, 0, 1, 1, 1, 1, 1, 2)
        with pytest.raises(PartitionInvariantError, match="may not share"):
            decision(ways, centers, ((0, 1),))

    def test_rejects_wrong_center_way_count(self):
        # core 0 claims 1 Center bank but owns 12 ways (not 16)
        ways = (12, 20, 16, 16, 16, 16, 16, 16)
        centers = (1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(PartitionInvariantError, match="expected 16"):
            decision(ways, centers, ())


class TestGuardHealthChecks:
    def test_accepts_healthy_histogram(self):
        guard = DecisionGuard()
        curve = guard.checked_curve("w", 0, np.full(9, 50.0),
                                    min_observations=10)
        assert curve.total_accesses == pytest.approx(450.0)

    def test_too_few_observations(self):
        guard = DecisionGuard()
        with pytest.raises(ProfilerFault, match="observations"):
            guard.checked_curve("w", 2, np.full(9, 1.0), min_observations=100)

    def test_negative_counters(self):
        guard = DecisionGuard()
        h = np.full(9, 50.0)
        h[3] = -10.0
        with pytest.raises(ProfilerFault, match="negative"):
            guard.checked_curve("w", 1, h)

    def test_non_finite_counters(self):
        guard = DecisionGuard()
        h = np.full(9, 50.0)
        h[0] = np.nan
        with pytest.raises(ProfilerFault, match="non-finite"):
            guard.checked_curve("w", 1, h)

    def test_fault_carries_core(self):
        guard = DecisionGuard()
        with pytest.raises(ProfilerFault) as info:
            guard.checked_curve("w", 5, np.zeros(9), min_observations=1)
        assert info.value.core == 5


class TestGuardLadder:
    def test_descends_and_recovers(self):
        guard = DecisionGuard()
        err = ProfilerFault("boom")
        modes = [guard.note_failure(float(t), err)
                 for t in range(2 * DEGRADE_AFTER)]
        # one rung per DEGRADE_AFTER consecutive failures
        assert modes == (
            [DegradedMode.NORMAL] * (DEGRADE_AFTER - 1)
            + [DegradedMode.EQUAL_SHARE] * DEGRADE_AFTER
            + [DegradedMode.FROZEN]
        )
        # recovery: one rung per HYSTERESIS_EPOCHS consecutive healthy epochs
        modes = [guard.note_healthy(float(t))
                 for t in range(2 * HYSTERESIS_EPOCHS)]
        assert modes == (
            [DegradedMode.FROZEN] * (HYSTERESIS_EPOCHS - 1)
            + [DegradedMode.EQUAL_SHARE] * HYSTERESIS_EPOCHS
            + [DegradedMode.NORMAL]
        )

    def test_intermittent_faults_do_not_degrade(self):
        guard = DecisionGuard()
        err = ProfilerFault("flaky")
        for t in range(20):
            if t % 2:
                mode = guard.note_failure(float(t), err)
            else:
                mode = guard.note_healthy(float(t))
            assert mode is DegradedMode.NORMAL

    def test_events_logged(self):
        guard = DecisionGuard()
        for t in range(DEGRADE_AFTER):
            guard.note_failure(float(t), ProfilerFault("x"))
        for t in range(HYSTERESIS_EPOCHS):
            guard.note_healthy(float(DEGRADE_AFTER + t))
        kinds = [e.kind for e in guard.events]
        assert kinds == (
            ["fault", "fallback"] * (DEGRADE_AFTER - 1)
            + ["fault", "degrade", "recover"]
        )
        assert guard.events[1].detail.startswith("holding initial partition")


# --------------------------------------------------------------------------
# controller integration


def make_controller(*, min_obs=10, **kw):
    l2cfg = L2Config(num_banks=16, bank_ways=8, sets_per_bank=64)
    l2 = NucaL2(l2cfg, 8)
    profilers = [MSAProfiler(l2cfg.sets_per_bank, 72) for _ in range(8)]
    names = ["w%d" % i for i in range(8)]
    ctrl = EpochController(
        l2, profilers, names,
        epoch_cycles=kw.pop("epoch", 1000.0),
        max_ways_per_core=72,
        min_observations=min_obs,
        **kw,
    )
    return ctrl, l2, profilers


def feed(profilers, accesses=400, *, sparse=(), sparse_accesses=40):
    """One epoch of profiler input; the ``sparse`` cores see only
    ``sparse_accesses`` accesses."""
    for i, prof in enumerate(profilers):
        trace = generate_trace(
            get("vpr" if i % 2 else "gzip"),
            sparse_accesses if i in sparse else accesses, 64, seed=i,
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
    """The ladder driven by real profilers: core 0's stays below the
    per-core observation floor (800 / 8 cores = 100; it sees 40 accesses
    an epoch, and ``decay=0`` forgets each epoch's counts), which is how
    fault-free runs reach the ladder."""

    @staticmethod
    def sparse_controller():
        return make_controller(min_obs=800, decay=0.0)

    def test_healthy_epoch_installs_the_policy_verdict(self):
        ctrl, l2, profs = self.sparse_controller()
        feed(profs)
        curves = [MissCurve.from_histogram(n, p.histogram)
                  for n, p in zip(ctrl.names, profs)]
        want = bank_aware_partition(curves, max_ways_per_core=72)
        assert ctrl.tick(1000.0)
        assert ctrl.last_decision.ways == want.ways
        assert ctrl.guard.events == []
        assert ctrl.guard.last_good is l2.partition_map

    def test_sparse_core_holds_last_known_good(self):
        ctrl, l2, profs = self.sparse_controller()
        feed(profs)
        assert ctrl.tick(1000.0)  # epoch 0: healthy, decision installed
        good = ctrl.last_decision.ways
        before = l2.partition_map
        feed(profs, sparse=(0,))
        assert not ctrl.tick(2000.0)  # epoch 1: below the floor, contained
        assert ctrl.last_decision.ways == good  # history unchanged
        assert l2.partition_map is before  # nothing reinstalled
        fault, fallback = ctrl.guard.events
        assert fault.kind == "fault"
        assert fault.detail == "core 0 (w0): 40 observations, need 100"
        assert fallback.kind == "fallback"
        assert fallback.detail == "holding last-known-good partition"

    def test_sparse_core_descends_to_equal_share(self):
        ctrl, l2, profs = self.sparse_controller()
        now = 1000.0
        for _ in range(DEGRADE_AFTER):
            feed(profs, sparse=(0,))
            assert not ctrl.tick(now)
            now += 1000.0
        assert ctrl.guard.mode is DegradedMode.EQUAL_SHARE
        assert ctrl.guard.events[-1].kind == "degrade"
        assert l2.partition_map is not None
        assert set(l2.partition_map.way_vector().values()) == {16}

    def test_sparse_core_descends_to_frozen(self):
        ctrl, l2, profs = self.sparse_controller()
        now = 1000.0
        for _ in range(DEGRADE_AFTER):
            feed(profs, sparse=(0,))
            ctrl.tick(now)
            now += 1000.0
        equal = l2.partition_map
        for _ in range(DEGRADE_AFTER):
            feed(profs, sparse=(0,))
            assert not ctrl.tick(now)
            now += 1000.0
        assert ctrl.guard.mode is DegradedMode.FROZEN
        assert l2.partition_map is equal  # frozen touches nothing
        assert ctrl.history == []  # never trusted a sparse epoch
        assert [e.detail for e in ctrl.guard.events
                if e.kind == "degrade"] == [
            f"{DEGRADE_AFTER} consecutive failures: degraded to equal-share",
            f"{2 * DEGRADE_AFTER} consecutive failures: degraded to frozen",
        ]

    def test_recovery_climbs_one_rung_per_two_healthy_epochs(self):
        ctrl, _, profs = self.sparse_controller()
        now = 1000.0
        for _ in range(2 * DEGRADE_AFTER):  # down to FROZEN
            feed(profs, sparse=(0,))
            ctrl.tick(now)
            now += 1000.0
        installed, modes = [], []
        for _ in range(2 * HYSTERESIS_EPOCHS):
            feed(profs)
            installed.append(ctrl.tick(now))
            modes.append(ctrl.guard.mode)
            now += 1000.0
        assert modes == [
            DegradedMode.FROZEN, DegradedMode.EQUAL_SHARE,
            DegradedMode.EQUAL_SHARE, DegradedMode.NORMAL,
        ]
        # only the epoch back on the top rung installs a fresh decision
        assert installed == [False, False, False, True]
        assert [e.kind for e in ctrl.guard.events[-2:]] == [
            "recover", "recover",
        ]


class TestLadderInFaultFreeRuns:
    """Set 8 under ``bank-bw`` with 25 k-cycle epochs: eon on core 1, then
    ammp on core 0, keep failing the per-core observation floor, so a run
    with no fault injected reaches both lower rungs — identically on both
    engines."""

    CFG = scaled_config(8, epoch_cycles=25_000)

    def test_set8_bank_bw_reaches_frozen_on_both_engines(self):
        results = [
            run_mix(
                TABLE_III_SETS[7], "bank-bw", self.CFG,
                RunSettings(duration_cycles=1_500_000.0, seed=7,
                            sim_backend=backend),
            )
            for backend in ("reference", "batched")
        ]
        ref, batched = results
        assert ref.to_dict() == batched.to_dict()
        assert len(ref.epochs) == 2
        assert len(ref.guard_events) == 114
        assert [(round(t), mode) for t, kind, _, mode in ref.guard_events
                if kind == "degrade"] == [
            (150_111, "equal-share"), (225_085, "frozen"),
        ]
        faults = [d for _, kind, d, _ in ref.guard_events if kind == "fault"]
        assert len(faults) == 57
        assert all(d.endswith("observations, need 125") for d in faults)


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

    def test_refused_resume_does_not_profile_first(
        self, tmp_path, curves_by_name, monkeypatch
    ):
        """A snapshot taken at another scale is refused before the
        profiling pass: the checkpoint metadata does not depend on the
        curves."""
        import repro.analysis.montecarlo as montecarlo

        path = str(tmp_path / "mc.json")
        run_monte_carlo(4, CFG, curves=curves_by_name, seed=5,
                        checkpoint_path=path)
        calls = []
        monkeypatch.setattr(
            montecarlo, "collect_profiles", lambda **kw: calls.append(kw)
        )
        with pytest.raises(CheckpointMismatchError, match="sets_per_bank"):
            run_monte_carlo(4, scaled_config(16), seed=5,
                            checkpoint_path=path, resume=True)
        assert calls == []


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
    ], ids=["scale", "num_banks", "memory_latency", "warmup_fraction",
            "placement"])
    def test_resume_with_other_parameters_is_refused(
        self, tmp_path, cfg, change, keys
    ):
        path = str(tmp_path / "sweep.json")
        self._sweep(path)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            self._sweep(path, cfg, resume=True, **change)
        assert exc_info.value.mismatched == keys

    def test_snapshot_naming_retired_keys_is_refused(self, tmp_path):
        """A snapshot whose metadata holds keys the sweep no longer
        records (two of the retired guard settings) is refused, naming
        them."""
        path = str(tmp_path / "sweep.json")
        self._sweep(path)
        meta, completed = load_checkpoint(path, "detailed-sweep")
        retired = {"resilience.degrade_after": 3, "resilience.min_ways": 1}
        save_checkpoint(path, "detailed-sweep", {**meta, **retired}, completed)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            self._sweep(path, resume=True)
        assert exc_info.value.mismatched == tuple(sorted(retired))

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
        assert CFG.resilience == ResilienceConfig()

    # kw0-kw2 were the ladder knobs, now constants in repro.resilience.guard
    @pytest.mark.parametrize("kw", [
        pytest.param({"checkpoint_every": 0}, id="kw3"),
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ResilienceConfig(**kw).validate()
