"""Bit-identity gate between the reference and batched sim backends.

The batched struct-of-arrays engine (``repro.sim.batched``) must leave
the system in *exactly* the state the reference object-model event loop
produces — same ``SystemResult`` (down to float bit patterns via
``to_dict``), same canonical telemetry stream, same post-run object
state.  These tests sweep the configuration space the engine special-
cases: scheme (shared vs partitioned), data placement, profiler kind,
measurement-window boundaries and hard cycle cutoffs, plus a
seed-randomized chaos sweep.  Satellite coverage for the
``results()`` idempotency fix and the flat ``NucaStats`` counters
lives here too.
"""

import random

import pytest

from repro.cache.nuca import NucaStats
from repro.config import scaled_config
from repro.errors import ConfigError
from repro.profiling.batched import MIN_BATCH
from repro.profiling.sampled import SampledMSAProfiler
from repro.sim.runner import RunSettings, build_system, run_mix
from repro.sim.system import SIM_BACKENDS
from repro.workloads import TABLE_III_SETS, Mix

CFG = scaled_config(32, epoch_cycles=100_000)  # tiny 64-set banks for speed
MIX = Mix(("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim"))


def run_pair(scheme, mix=MIX, cfg=CFG, **kwargs):
    """The same simulation on both backends; returns the two results."""
    out = []
    for backend in SIM_BACKENDS:
        st = RunSettings(sim_backend=backend, **kwargs)
        out.append(run_mix(mix, scheme, cfg, st))
    return out


def assert_identical(ref, batched):
    assert ref.to_dict() == batched.to_dict()
    assert [dict(e) for e in ref.events] == [dict(e) for e in batched.events]


class TestBackendSelection:
    def test_backend_validated(self):
        with pytest.raises(ConfigError):
            build_system(
                MIX, "no-partitions", CFG,
                RunSettings(duration_cycles=100_000.0, sim_backend="turbo"),
            )

    def test_backends_exported(self):
        assert SIM_BACKENDS == ("reference", "batched")

    def test_static_schemes_keep_no_profilers(self):
        for scheme in ("no-partitions", "equal-partitions"):
            for backend in SIM_BACKENDS:
                st = RunSettings(duration_cycles=100_000.0, sim_backend=backend)
                assert build_system(MIX, scheme, CFG, st).profilers is None
        with pytest.raises(ConfigError, match="profiler_kind"):
            build_system(
                MIX, "no-partitions", CFG,
                RunSettings(duration_cycles=100_000.0, profiler_kind="bogus"),
            )


class TestSchemeMatrix:
    """scheme x placement x profiler_kind, traced so the canonical event
    streams are compared alongside the results."""

    @pytest.mark.parametrize("scheme,placement,shared_placement", [
        ("no-partitions", "dnuca", "dnuca"),
        ("no-partitions", "dnuca", "parallel"),
        ("no-partitions", "dnuca", "hash"),
        ("equal-partitions", "dnuca", "dnuca"),
        ("equal-partitions", "parallel", "dnuca"),
        ("equal-partitions", "hash", "dnuca"),
        ("bank-aware", "dnuca", "dnuca"),
        ("bank-aware", "parallel", "dnuca"),
        ("bank-aware", "hash", "dnuca"),
    ])
    def test_placements_identical(self, scheme, placement, shared_placement):
        ref, batched = run_pair(
            scheme, duration_cycles=150_000.0, seed=11,
            placement=placement, shared_placement=shared_placement,
            trace=True,
        )
        assert_identical(ref, batched)

    @pytest.mark.parametrize("profiler_kind", ["sampled", "exact"])
    def test_profilers_identical(self, profiler_kind):
        ref, batched = run_pair(
            "bank-aware", duration_cycles=150_000.0, seed=5,
            profiler_kind=profiler_kind, trace=True,
        )
        assert_identical(ref, batched)

    def test_sanitized_run_identical(self):
        # sanitize forces a full cache check-in before every controller
        # tick, exercising the flat-image write-back mid-run
        ref, batched = run_pair(
            "bank-aware", duration_cycles=150_000.0, seed=9,
            sanitize=True, trace=True,
        )
        assert_identical(ref, batched)


class TestSampledFlushes:
    """At scale 8 the profilers sample 1 set in 4 (at scale 32, every
    set), so a batched flush carries unsampled lines and its sampled count
    picks the per-reference step or the kernel."""

    @pytest.mark.parametrize("scheme", ["bank-aware", "bank-bw"])
    @pytest.mark.parametrize("epoch_cycles,duration,warmup,kernel", [
        (25_000, 150_000.0, 0.5, False),  # every flush under MIN_BATCH
        (250_000, 300_000.0, 0.0, True),  # the first tick's flush is not
    ], ids=["short-epochs", "long-first-epoch"])
    def test_identical_on_the_targeted_path(
        self, scheme, epoch_cycles, duration, warmup, kernel, monkeypatch
    ):
        flushes, batches = [], []
        observe_many = SampledMSAProfiler.observe_many
        observe_batch = SampledMSAProfiler._observe_batch

        def many_spy(self, lines):
            flushes.append(len(lines))
            return observe_many(self, lines)

        def batch_spy(self, groups, tags):
            batches.append(len(groups))
            return observe_batch(self, groups, tags)

        monkeypatch.setattr(SampledMSAProfiler, "observe_many", many_spy)
        monkeypatch.setattr(SampledMSAProfiler, "_observe_batch", batch_spy)
        cfg = scaled_config(8, epoch_cycles=epoch_cycles)
        assert cfg.profiler.set_sampling == 4
        ref, batched = run_pair(
            scheme, mix=TABLE_III_SETS[6], cfg=cfg, duration_cycles=duration,
            seed=7, warmup_fraction=warmup, trace=True,
        )
        assert_identical(ref, batched)
        assert flushes  # only the batched engine flushes
        if kernel:
            assert batches and min(batches) >= MIN_BATCH
        else:
            assert batches == []


class TestWindowBoundaries:
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.5, 0.9])
    def test_warmup_crossings_identical(self, warmup_fraction):
        ref, batched = run_pair(
            "bank-aware", duration_cycles=150_000.0, seed=4,
            warmup_fraction=warmup_fraction, trace=True,
        )
        assert_identical(ref, batched)

    @pytest.mark.parametrize("max_cycles", [
        90_000.0,    # mid-epoch cutoff
        100_000.0,   # exactly on a controller tick
        150_000.0,   # run to the window end
    ])
    def test_max_cycles_cutoffs_identical(self, max_cycles):
        results = []
        for backend in SIM_BACKENDS:
            system = build_system(
                MIX, "bank-aware", CFG,
                RunSettings(
                    duration_cycles=150_000.0, seed=6, sim_backend=backend
                ),
            )
            system.set_measurement_window(50_000.0, max_cycles)
            results.append(system.run())
        assert results[0].to_dict() == results[1].to_dict()


class TestChaosSweep:
    def test_randomized_traces_identical(self):
        """Seed-randomized sweep: random mixes, schemes, seeds and
        windows must stay bit-identical pair by pair."""
        rng = random.Random(20090814)
        schemes = ("no-partitions", "equal-partitions", "bank-aware")
        for _ in range(6):
            mix = rng.choice(TABLE_III_SETS)
            scheme = rng.choice(schemes)
            ref, batched = run_pair(
                scheme, mix=mix,
                duration_cycles=float(rng.randrange(80_000, 200_000)),
                seed=rng.randrange(1, 10_000),
                warmup_fraction=rng.choice((0.0, 0.3, 0.5)),
                trace=True,
            )
            assert_identical(ref, batched)


class TestResultsIdempotency:
    def test_results_stable_across_calls(self):
        system = build_system(
            MIX, "bank-aware", CFG,
            RunSettings(duration_cycles=150_000.0, seed=3),
        )
        first = system.run().to_dict()
        again = system.results().to_dict()
        third = system.results().to_dict()
        assert first == again == third

    def test_results_leave_metrics_registry_alone(self):
        system = build_system(
            MIX, "bank-aware", CFG,
            RunSettings(duration_cycles=150_000.0, seed=3, trace=True),
        )
        system.run()
        registry = system.metrics
        before = system.metrics.snapshot()
        system.results()
        assert system.metrics is registry
        assert system.metrics.snapshot() == before


class TestNucaStatsCounters:
    def test_record_and_views(self):
        stats = NucaStats(num_cores=4)
        stats.record(0, hit=True)
        stats.record(0, hit=True)
        stats.record(2, hit=False)
        assert stats.hits == {0: 2}
        assert stats.misses == {2: 1}
        assert stats.core_hits(0) == 2
        assert stats.core_hits(1) == 0
        assert stats.core_misses(2) == 1
        assert stats.total_accesses() == 3

    def test_record_grows_past_construction_size(self):
        stats = NucaStats(num_cores=1)
        stats.record(5, hit=False)
        assert stats.core_misses(5) == 1
        assert stats.misses == {5: 1}

    def test_dict_seed_round_trip(self):
        stats = NucaStats({1: 3}, {0: 2, 1: 1}, migrations=7, writebacks=2)
        assert stats.hits == {1: 3}
        assert stats.misses == {0: 2, 1: 1}
        assert stats.snapshot() == stats
