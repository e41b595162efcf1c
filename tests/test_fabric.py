"""The sweep fabric: fail-fast fan-out, recovered by checkpoint + resume.

A failing item aborts the sweep with a typed ``PoisonItemError`` (the
pool killed, the checkpoint flushed); ``resume=True`` then recomputes
only the lost tail, bit-identically.  The test workers are picklable
module-level classes, so the same faults fire in-process and on a pool.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.analysis.montecarlo as montecarlo_mod
from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.config import scaled_config
from repro.errors import PoisonItemError
from repro.fabric import Supervisor
from repro.resilience.checkpoint import backup_path, load_checkpoint
from repro.obs.events import canonical_events
from repro.obs.tracer import Tracer
from repro.workloads import random_mixes

CFG = scaled_config(32, epoch_cycles=150_000)
N, SEED = 8, 11


@pytest.fixture(scope="module")
def curves():
    return collect_profiles(config=CFG, accesses=2000)


def _square(x):
    return x * x


class _ExitOn:
    """Picklable worker whose process dies hard (``os._exit``) on one item."""

    def __init__(self, victim):
        self.victim = victim

    def __call__(self, x):
        if x == self.victim:
            os._exit(13)
        return x * x


# bound at import time so the wrapper below still reaches the real worker
# once the module attribute has been monkeypatched over
_REAL_POINT = montecarlo_mod._montecarlo_point


class _FailOn:
    """Picklable Monte Carlo worker that fails on one mix.

    It sleeps first, so the other worker finishes the mixes before it and
    the checkpoint holds a non-empty prefix when the sweep dies.
    """

    def __init__(self, names):
        self.names = names

    def __call__(self, mix):
        if mix.names == self.names:
            time.sleep(0.2)
            raise RuntimeError(f"injected failure on {mix}")
        return _REAL_POINT(mix)


def _die_mid_sweep(monkeypatch, curves, ckpt, **kw):
    """Run a checkpointed ``jobs=2`` sweep that dies on mix #5."""
    victim = random_mixes(N, CFG.num_cores, seed=SEED)[5]
    monkeypatch.setattr(
        montecarlo_mod, "_montecarlo_point", _FailOn(victim.names)
    )
    with pytest.raises(PoisonItemError, match="injected failure") as info:
        run_monte_carlo(
            N, CFG, curves=curves, seed=SEED, jobs=2,
            checkpoint_path=ckpt, checkpoint_every=2, **kw,
        )
    monkeypatch.undo()
    assert info.value.index == 5
    assert info.value.label == str(victim)
    assert isinstance(info.value.__cause__, RuntimeError)
    _, completed = load_checkpoint(ckpt, "monte-carlo")
    assert 0 < len(completed) < N  # the flushed contiguous prefix


# ---------------------------------------------------------------------------
# the supervisor


class TestSupervisorSerial:
    def test_plain_map_in_order(self):
        sup = Supervisor(1)
        assert list(sup.map_ordered(lambda x: x * 2, [1, 2, 3])) \
            == [2, 4, 6]

    def test_failure_raises_item_naming_error(self):
        ran = []

        def poison(x):
            ran.append(x)
            raise ValueError("always")

        with pytest.raises(PoisonItemError, match="always") as info:
            list(Supervisor(1).map_ordered(
                poison, ["a", "b"], labels=["la", "lb"]
            ))
        assert (info.value.index, info.value.label) == (0, "la")
        assert isinstance(info.value.__cause__, ValueError)
        assert ran == ["a"]  # fail-fast: nothing runs after the failure

    def test_sweep_item_events_flow_into_tracer(self):
        tracer = Tracer()
        sup = Supervisor(1, tracer=tracer)
        list(sup.map_ordered(_square, [5, 6], labels=["five", "six"]))
        events = tracer.select("sweep_item")
        assert [(e["index"], e["label"]) for e in events] \
            == [(0, "five"), (1, "six")]
        assert all(e["wall_s"] >= 0.0 for e in events)


class TestSupervisorPool:
    def test_matches_serial(self):
        serial = list(Supervisor(1).map_ordered(_square, range(9)))
        pooled = list(Supervisor(2).map_ordered(_square, range(9)))
        assert pooled == serial

    def test_hard_kill_raises_poison_item_error(self):
        with pytest.raises(
            PoisonItemError, match="worker process died"
        ) as info:
            list(Supervisor(2).map_ordered(_ExitOn(0), range(6)))
        assert info.value.index == 0
        assert isinstance(info.value.__cause__, BrokenProcessPool)


# ---------------------------------------------------------------------------
# checkpoint + resume: the one recovery path


class TestFabricSweep:
    def test_killed_sweep_resumes_to_clean_serial_trace(
        self, curves, tmp_path, monkeypatch
    ):
        """A traced pool sweep that dies mid-run resumes to the canonical
        trace of a clean serial run."""
        t_clean = Tracer()
        clean = run_monte_carlo(
            N, CFG, curves=curves, seed=SEED, jobs=1, tracer=t_clean
        )
        ckpt = str(tmp_path / "ck.json")
        _die_mid_sweep(monkeypatch, curves, ckpt, tracer=Tracer())
        t_resume = Tracer()
        resumed = run_monte_carlo(
            N, CFG, curves=curves, seed=SEED, jobs=2,
            checkpoint_path=ckpt, resume=True, tracer=t_resume,
        )
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]
        # the resumed run yielded only its tail: its sweep_item events are
        # advisory, so they cannot make the canonical streams differ
        assert len(t_resume.select("sweep_item")) < N
        assert canonical_events(t_resume.events) \
            == canonical_events(t_clean.events)

    def test_truncated_checkpoint_falls_back_to_bak(
        self, curves, tmp_path, monkeypatch
    ):
        ckpt = str(tmp_path / "ck.json")
        _die_mid_sweep(monkeypatch, curves, ckpt)
        assert os.path.isfile(backup_path(ckpt))
        # tear the newest generation mid-byte
        os.truncate(ckpt, os.path.getsize(ckpt) // 2)
        assert load_checkpoint(ckpt, "monte-carlo") \
            == load_checkpoint(backup_path(ckpt), "monte-carlo")
        clean = run_monte_carlo(N, CFG, curves=curves, seed=SEED)
        resumed = run_monte_carlo(
            N, CFG, curves=curves, seed=SEED,
            checkpoint_path=ckpt, resume=True,
        )
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]

    def test_pool_checkpoint_resumes_serially(
        self, curves, tmp_path, monkeypatch
    ):
        """A snapshot left by a dead pool sweep resumes under a plain
        serial run: ``jobs`` is not checkpoint meta."""
        ckpt = str(tmp_path / "ck.json")
        _die_mid_sweep(monkeypatch, curves, ckpt)
        resumed = run_monte_carlo(
            N, CFG, curves=curves, seed=SEED, jobs=1,
            checkpoint_path=ckpt, resume=True,
        )
        clean = run_monte_carlo(N, CFG, curves=curves, seed=SEED)
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]
