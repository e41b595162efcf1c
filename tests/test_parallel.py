"""The parallel sweep layer: ordered fan-out and the profile cache.

The load-bearing property throughout is *determinism*: every ``jobs``
value, every kill/resume split and every cache hit must reproduce the
serial seed results bit for bit.  These tests pin that down with exact
(``==``) comparisons, never approximate ones.
"""

import json
import os
import time

import numpy as np
import pytest

import repro.analysis.montecarlo as montecarlo_mod
from repro.analysis.montecarlo import (
    MonteCarloPoint,
    MonteCarloResult,
    collect_profiles,
    run_monte_carlo,
)
from repro.config import scaled_config
from repro.errors import (
    CheckpointCorrupt,
    CheckpointMismatchError,
    ConfigError,
    PoisonItemError,
)
from repro.fabric.supervisor import Supervisor, resolve_jobs
from repro.parallel.profile_cache import ProfileCache, default_cache_dir
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.runner import RunSettings, run_sweep
from repro.workloads.mixes import TABLE_III_SETS, Mix, random_mixes

CFG = scaled_config(32, epoch_cycles=150_000)  # tiny 64-set banks for speed


@pytest.fixture(scope="module")
def curves_by_name():
    return collect_profiles(config=CFG, accesses=6_000)


# ---------------------------------------------------------------------------
# resolve_jobs / Supervisor.map_ordered (fail-fast, like the sweeps)
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _plain(jobs, **kw):
    """The fan-out the sweeps use."""
    return Supervisor(jobs, **kw)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_value_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(2) == 2  # explicit beats environment

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_refused(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_garbage_env_refused(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs(None)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        out = list(_plain(1).map_ordered(_square, range(10)))
        assert out == [x * x for x in range(10)]

    def test_pool_matches_serial_order(self):
        serial = list(_plain(1).map_ordered(_square, range(40)))
        pooled = list(_plain(2).map_ordered(_square, range(40)))
        assert pooled == serial

    def test_single_item_stays_in_process(self):
        """One item never pays pool startup (also: fn needs no pickling)."""
        out = list(_plain(4).map_ordered(lambda x: x + 1, [41]))
        assert out == [42]

    def test_serial_runs_initializer(self):
        state = {}
        sup = _plain(1, initializer=state.update, initargs=({"ready": True},))
        assert list(sup.map_ordered(_square, [3])) == [9]
        assert state == {"ready": True}

    def test_worker_exception_propagates(self):
        def boom(x):
            raise RuntimeError("worker died")

        # serial and pool failures surface alike: typed, item-naming, with
        # the worker's exception chained
        with pytest.raises(PoisonItemError, match="worker died") as info:
            list(_plain(1).map_ordered(boom, [1]))
        assert isinstance(info.value.__cause__, RuntimeError)


class _MarkSleepWorker:
    """Picklable worker: sleep, then leave a marker file per item.

    The optional poison item raises immediately instead, so the marker
    count afterwards reveals how many *queued* items the pool ran anyway.
    """

    def __init__(self, marker_dir, poison=None, sleep_s=0.2):
        self.marker_dir = str(marker_dir)
        self.poison = poison
        self.sleep_s = sleep_s

    def __call__(self, item):
        if item == self.poison:
            raise RuntimeError("poison item")
        time.sleep(self.sleep_s)
        with open(os.path.join(self.marker_dir, f"done-{item}"), "w"):
            pass
        return item


class TestPromptCancellation:
    """A dead sweep must not run its whole submission window first.

    With jobs=2 the window is 8, so all 8 items are submitted up front;
    the regression being pinned is the fan-out letting every queued item
    run to completion (7 markers) before the failure surfaced.
    """

    def test_worker_exception_cancels_queued_items(self, tmp_path):
        worker = _MarkSleepWorker(tmp_path, poison=0)
        with pytest.raises(PoisonItemError, match="poison item") as info:
            list(_plain(2).map_ordered(worker, range(8)))
        # the typed wrapper names the failing item and keeps the original
        # exception chained for debugging
        assert info.value.index == 0
        assert info.value.label == "0"
        assert isinstance(info.value.__cause__, RuntimeError)
        assert len(os.listdir(tmp_path)) < 7

    def test_abandoned_generator_cancels_queued_items(self, tmp_path):
        worker = _MarkSleepWorker(tmp_path)
        gen = _plain(2).map_ordered(worker, range(8))
        assert next(gen) == 0
        gen.close()  # GeneratorExit must reach the cancellation path
        assert len(os.listdir(tmp_path)) < 7


# ---------------------------------------------------------------------------
# ProfileCache
# ---------------------------------------------------------------------------


class TestProfileCache:
    def test_fingerprint_tracks_every_parameter(self):
        base = dict(accesses=1000, warmup_fraction=0.4, seed=1)
        fp = ProfileCache.fingerprint(CFG, **base)
        assert fp == ProfileCache.fingerprint(CFG, **base)  # stable
        for key, value in (("accesses", 1001), ("warmup_fraction", 0.5),
                           ("seed", 2)):
            assert fp != ProfileCache.fingerprint(CFG, **{**base, key: value})
        assert fp != ProfileCache.fingerprint(
            scaled_config(8), **base  # geometry changes the key too
        )

    def test_miss_then_hit_round_trip(self, tmp_path, curves_by_name):
        cache = ProfileCache(tmp_path)
        curve = curves_by_name["bzip2"]
        assert cache.get("bzip2", "abc") is None
        cache.put("bzip2", "abc", curve)
        got = cache.get("bzip2", "abc")
        np.testing.assert_array_equal(got.misses, curve.misses)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path, curves_by_name):
        cache = ProfileCache(tmp_path)
        cache.put("bzip2", "abc", curves_by_name["bzip2"])
        next(tmp_path.glob("*.npz")).write_bytes(b"not an npz")
        assert cache.get("bzip2", "abc") is None

    def test_no_temp_litter(self, tmp_path, curves_by_name):
        cache = ProfileCache(tmp_path)
        cache.put("bzip2", "abc", curves_by_name["bzip2"])
        assert [p.name for p in tmp_path.iterdir()] == ["bzip2-abc.npz"]

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "pc"))
        assert default_cache_dir() == tmp_path / "pc"

    def test_collect_profiles_reuses_cache(self, tmp_path, curves_by_name):
        cache = ProfileCache(tmp_path)
        names = ("bzip2", "swim")
        first = collect_profiles(names, CFG, accesses=6_000, cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        second = collect_profiles(names, CFG, accesses=6_000, cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)
        for name in names:
            np.testing.assert_array_equal(
                second[name].misses, first[name].misses
            )
            np.testing.assert_array_equal(
                first[name].misses, curves_by_name[name].misses
            )

    def test_different_params_never_alias(self, tmp_path):
        cache = ProfileCache(tmp_path)
        collect_profiles(("bzip2",), CFG, accesses=6_000, cache=cache)
        collect_profiles(("bzip2",), CFG, accesses=6_000, seed=12, cache=cache)
        assert cache.hits == 0  # the seed change must miss, not lie


# ---------------------------------------------------------------------------
# Monte Carlo: jobs-invariance, kill/resume, serialisation
# ---------------------------------------------------------------------------


# bound at import time so the poison wrapper below still reaches the real
# worker once the module attribute has been monkeypatched over
_REAL_POINT = montecarlo_mod._montecarlo_point


class _PoisonPoint:
    """Picklable worker that dies on one specific mix (simulated crash)."""

    def __init__(self, poison_names):
        self.poison_names = poison_names

    def __call__(self, mix):
        if mix.names == self.poison_names:
            raise KeyboardInterrupt
        return _REAL_POINT(mix)


def assert_points_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.mix.names == b.mix.names
        assert a.equal_misses == b.equal_misses  # exact, not approx
        assert a.unrestricted_misses == b.unrestricted_misses
        assert a.bank_aware_misses == b.bank_aware_misses
        assert a.bank_aware_ways == b.bank_aware_ways


class TestMonteCarloJobs:
    def test_pool_is_bit_identical_to_serial(self, curves_by_name):
        serial = run_monte_carlo(16, CFG, curves=curves_by_name, seed=77)
        pooled = run_monte_carlo(16, CFG, curves=curves_by_name, seed=77,
                                 jobs=2)
        assert_points_equal(pooled.points, serial.points)

    def test_killed_pool_sweep_resumes_bit_identically(
        self, tmp_path, curves_by_name, monkeypatch
    ):
        path = str(tmp_path / "mc.json")
        baseline = run_monte_carlo(16, CFG, curves=curves_by_name, seed=77)
        poison = random_mixes(16, CFG.num_cores, seed=77)[12]
        monkeypatch.setattr(
            montecarlo_mod, "_montecarlo_point", _PoisonPoint(poison.names)
        )
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(16, CFG, curves=curves_by_name, seed=77,
                            jobs=2, checkpoint_path=path)
        monkeypatch.undo()
        _, completed = load_checkpoint(path, "monte-carlo")
        # the submission window guarantees a contiguous prefix survived
        assert 0 < len(completed) < 16
        resumed = run_monte_carlo(16, CFG, curves=curves_by_name, seed=77,
                                  jobs=2, checkpoint_path=path, resume=True)
        assert_points_equal(resumed.points, baseline.points)

    def test_mismatched_resume_names_the_keys(self, tmp_path, curves_by_name):
        path = str(tmp_path / "mc.json")
        run_monte_carlo(4, CFG, curves=curves_by_name, seed=5,
                        checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            run_monte_carlo(4, CFG, curves=curves_by_name, seed=6,
                            min_ways=2, checkpoint_path=path, resume=True)
        assert exc_info.value.mismatched == ("min_ways", "seed")
        # still a CheckpointCorrupt, so pre-existing handlers keep working
        assert isinstance(exc_info.value, CheckpointCorrupt)

    def test_resume_at_another_scale_is_refused(self, tmp_path, curves_by_name):
        # scale changes only the sets per bank; its points must not be
        # spliced into a sweep of the other machine
        path = str(tmp_path / "mc.json")
        run_monte_carlo(4, CFG, curves=curves_by_name, seed=5,
                        checkpoint_path=path)
        other = scaled_config(16, epoch_cycles=CFG.epoch_cycles)
        with pytest.raises(CheckpointMismatchError) as exc_info:
            run_monte_carlo(6, other, curves=curves_by_name, seed=5,
                            checkpoint_path=path, resume=True)
        assert exc_info.value.mismatched == ("sets_per_bank",)


class TestMonteCarloResultViews:
    def _result(self):
        points = [
            MonteCarloPoint(Mix(("bzip2",)), 100.0, 50.0 + i, 60.0 + i, (8,))
            for i in (3, 1, 2)
        ]
        return MonteCarloResult(points=points)

    def test_sorted_views_share_one_cache(self):
        res = self._result()
        first = res.sorted_by_unrestricted()
        assert [p.unrestricted_misses for p in first] == [51.0, 52.0, 53.0]
        assert res._cache is not None
        cached = res._cache
        res.sorted_by_unrestricted()
        res.series()
        assert res._cache is cached  # rebuilt zero times

    def test_cache_invalidated_by_new_points(self):
        res = self._result()
        res.series()
        res.points.append(
            MonteCarloPoint(Mix(("swim",)), 100.0, 10.0, 20.0, (8,))
        )
        u, _ = res.series()
        assert u[0] == pytest.approx(0.10)
        assert res._cache[0] == tuple(map(id, res.points))

    def test_cache_invalidated_by_replaced_point(self):
        # regression: a same-length edit must not serve stale ratios
        res = self._result()
        res.series()
        res.points[0] = MonteCarloPoint(
            Mix(("swim",)), 100.0, 10.0, 20.0, (8,)
        )
        u, _ = res.series()
        assert u[0] == pytest.approx(0.10)
        assert res.mean_bank_aware_ratio == pytest.approx(
            (0.20 + 0.61 + 0.62) / 3
        )

    def test_json_round_trip_is_exact(self, tmp_path, curves_by_name):
        result = run_monte_carlo(6, CFG, curves=curves_by_name, seed=9)
        path = tmp_path / "points.json"
        result.to_json(path)
        reread = MonteCarloResult.from_json(path)
        assert_points_equal(reread.points, result.points)
        assert [p.name for p in tmp_path.iterdir()] == ["points.json"]

    def test_from_json_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointCorrupt):
            MonteCarloResult.from_json(bad)
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointCorrupt):
            MonteCarloResult.from_json(bad)

    def test_from_json_non_utf8_is_checkpoint_corrupt(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(CheckpointCorrupt, match="not valid JSON"):
            MonteCarloResult.from_json(bad)

    @pytest.mark.parametrize(
        "point",
        [
            7,
            {"mix": ["nope"], "equal": 1.0, "unrestricted": 1.0,
             "bank_aware": 1.0, "ways": [128]},
            {"mix": ["swim"], "equal": "100", "unrestricted": 1.0,
             "bank_aware": 1.0, "ways": [128]},
            {"mix": ["swim"], "equal": 1.0, "unrestricted": 1.0,
             "bank_aware": 1.0, "ways": [128.5]},
            {"mix": ["swim"], "equal": 1.0, "unrestricted": 1.0,
             "bank_aware": 1.0, "ways": [128], "policies": {"joint": True}},
        ],
        ids=["not-an-object", "unknown-workload", "string-field",
             "non-integer-ways", "non-numeric-policy"],
    )
    def test_malformed_point_is_checkpoint_corrupt(self, tmp_path, point):
        good = MonteCarloPoint(Mix(("swim",)), 100.0, 10.0, 20.0, (128,)).to_dict()
        path = tmp_path / "points.json"
        path.write_text(json.dumps({
            "format": MonteCarloResult.JSON_FORMAT,
            "version": MonteCarloResult.JSON_VERSION,
            "points": [good, point],
        }))
        with pytest.raises(CheckpointCorrupt, match="point #1 is malformed"):
            MonteCarloResult.from_json(path)
        ckpt = tmp_path / "mc.json"
        meta = {
            "seed": 5, "num_cores": CFG.num_cores, "num_banks": CFG.l2.num_banks,
            "sets_per_bank": CFG.l2.sets_per_bank,
            "bank_ways": CFG.l2.bank_ways, "min_ways": 1,
            "profile_accesses": 60_000,
        }
        save_checkpoint(str(ckpt), "monte-carlo", meta, [good, point])
        with pytest.raises(CheckpointCorrupt, match="point #1 is malformed"):
            run_monte_carlo(4, CFG, curves={}, seed=5,
                            checkpoint_path=str(ckpt), resume=True)


# ---------------------------------------------------------------------------
# detailed sweep: jobs-invariance
# ---------------------------------------------------------------------------


class TestSweepJobs:
    def test_run_sweep_pool_matches_serial(self):
        settings = RunSettings(duration_cycles=200_000.0, seed=3)
        mixes = [TABLE_III_SETS[0]]
        schemes = ("equal-partitions", "bank-aware")
        serial = run_sweep(mixes, CFG, settings, schemes=schemes)
        pooled = run_sweep(mixes, CFG, settings, schemes=schemes, jobs=2)
        for a, b in zip(serial, pooled):
            for scheme in schemes:
                assert a.results[scheme].total_misses \
                    == b.results[scheme].total_misses
                assert a.results[scheme].total_instructions \
                    == b.results[scheme].total_instructions
                assert a.results[scheme].epochs == b.results[scheme].epochs
