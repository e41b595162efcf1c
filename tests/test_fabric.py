"""The sweep fabric: supervisor, dead letters, chaos, supervised resume."""

import dataclasses
import json
import os

import pytest

import repro.fabric.supervisor as supervisor_mod
from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.config import scaled_config
from repro.errors import ConfigError, PoisonItemError
from repro.fabric import (
    QUARANTINED,
    ChaosAbort,
    ChaosPlan,
    DeadLetterError,
    DeadLetterLedger,
    Supervisor,
    SupervisorPolicy,
    pick_labels,
    truncate_file,
)
from repro.fabric.chaos import InjectedWorkerCrash
from repro.resilience.checkpoint import backup_path, load_checkpoint
from repro.telemetry.events import canonical_events
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.workloads import random_mixes

CFG = scaled_config(32, epoch_cycles=150_000)


@pytest.fixture(scope="module")
def curves():
    return collect_profiles(config=CFG, accesses=2000)


@pytest.fixture(autouse=True)
def _no_backoff_sleep(monkeypatch):
    """Retry backoff must not slow the suite down."""
    monkeypatch.setattr(supervisor_mod, "_sleep", lambda _s: None)


# ---------------------------------------------------------------------------
# policy


class TestSupervisorPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_attempts == 3
        assert policy.on_poison == "raise"

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_attempts": 0},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"backoff_base_s": -0.1},
            {"on_poison": "explode"},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            SupervisorPolicy(**kw)

    def test_backoff_is_seed_deterministic(self):
        a = SupervisorPolicy(seed=5)
        b = SupervisorPolicy(seed=5)
        assert a.backoff_s(3, 2) == b.backoff_s(3, 2)
        assert a.backoff_s(3, 2) != SupervisorPolicy(seed=6).backoff_s(3, 2)

    def test_backoff_grows_then_caps(self):
        policy = SupervisorPolicy(backoff_base_s=0.1, backoff_max_s=0.3)
        # jitter is in [0.5x, 1.5x), so compare against the scale bounds
        assert policy.backoff_s(0, 1) <= 0.1 * 1.5
        assert policy.backoff_s(0, 9) <= 0.3 * 1.5


# ---------------------------------------------------------------------------
# supervisor, serial rung (jobs=1 runs in-process: closures are fine)


class TestSupervisorSerial:
    def test_plain_map_in_order(self):
        sup = Supervisor(1)
        assert list(sup.map_ordered(lambda x: x * 2, [1, 2, 3])) \
            == [2, 4, 6]
        assert sup.rung == "serial"
        assert sup.events == []
        assert sup.summary()["total_attempts"] == 3

    def test_retry_until_success(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError(f"boom {calls['n']}")
            return x

        sup = Supervisor(1, policy=SupervisorPolicy(max_attempts=3))
        assert list(sup.map_ordered(flaky, ["ok"])) == ["ok"]
        retries = [e for e in sup.events if e["kind"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert sup.summary()["total_attempts"] == 3

    def test_quarantine_raises_and_records(self, tmp_path):
        ledger = DeadLetterLedger(tmp_path / "dead.jsonl")
        sup = Supervisor(
            1, policy=SupervisorPolicy(max_attempts=2),
            deadletter=ledger, sweep="unit",
        )

        def poison(_x):
            raise ValueError("always")

        with pytest.raises(PoisonItemError) as info:
            list(sup.map_ordered(poison, ["a", "b"], labels=["la", "lb"]))
        assert info.value.index == 0
        assert info.value.label == "la"
        assert info.value.attempts == 2
        entries = ledger.entries()
        assert len(entries) == 1
        assert entries[0]["label"] == "la"
        assert entries[0]["sweep"] == "unit"
        assert sup.summary()["quarantined"] == [0]

    def test_on_poison_skip_yields_sentinel_in_slot(self):
        def poison_b(x):
            if x == "b":
                raise ValueError("no b")
            return x.upper()

        sup = Supervisor(
            1, policy=SupervisorPolicy(max_attempts=2, on_poison="skip")
        )
        out = list(sup.map_ordered(poison_b, ["a", "b", "c"]))
        assert out == ["A", QUARANTINED, "C"]
        assert sup.summary()["quarantined"] == [1]

    def test_events_flow_into_tracer_and_metrics(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        calls = {"n": 0}

        def once(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first")
            return x

        sup = Supervisor(1, tracer=tracer, metrics=metrics)
        list(sup.map_ordered(once, [5]))
        sup_events = tracer.select("supervisor")
        assert [e["kind"] for e in sup_events] == ["retry"]
        assert sup_events[0]["rung"] == "serial"
        assert metrics.snapshot()["counters"]["supervisor.retry"] == 1


# ---------------------------------------------------------------------------
# supervisor, pool rungs (workers are real processes; faults come from
# the chaos wrapper, whose one-shot markers work across processes)


def _square(x):
    return x * x


class TestSupervisorPool:
    def test_matches_serial(self):
        serial = list(Supervisor(1).map_ordered(_square, range(9)))
        pooled = list(Supervisor(2).map_ordered(_square, range(9)))
        assert pooled == serial

    def test_injected_crash_is_retried(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), crash_labels=("3",))
        sup = Supervisor(2, policy=SupervisorPolicy(max_attempts=3))
        out = list(sup.map_ordered(plan.wrap(_square), range(6)))
        assert out == [x * x for x in range(6)]
        retries = [e for e in sup.events if e["kind"] == "retry"]
        assert len(retries) == 1
        assert retries[0]["label"] == "3"
        assert "InjectedWorkerCrash" in retries[0]["detail"]

    def test_hard_kill_degrades_one_rung(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), kill_labels=("2",))
        sup = Supervisor(2)
        out = list(sup.map_ordered(plan.wrap(_square), range(6)))
        assert out == [x * x for x in range(6)]
        kinds = [e["kind"] for e in sup.events]
        assert "degrade" in kinds
        assert sup.rung in ("fresh-pool", "serial")

    def test_two_kills_still_finish(self, tmp_path):
        # both faults may land inside the same pool generation, so the
        # ladder drops one or two rungs — never none, and never past serial
        plan = ChaosPlan(state_dir=str(tmp_path), kill_labels=("1", "4"))
        sup = Supervisor(2)
        out = list(sup.map_ordered(plan.wrap(_square), range(6)))
        assert out == [x * x for x in range(6)]
        assert 1 <= [e["kind"] for e in sup.events].count("degrade") <= 2
        assert sup.rung in ("fresh-pool", "serial")

    def test_hang_trips_the_deadline(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path), hang_labels=("2",), hang_s=30.0
        )
        sup = Supervisor(
            2, policy=SupervisorPolicy(timeout_s=0.6, max_attempts=3)
        )
        out = list(sup.map_ordered(plan.wrap(_square), range(5)))
        assert out == [x * x for x in range(5)]
        kinds = [e["kind"] for e in sup.events]
        assert "timeout" in kinds
        assert "degrade" in kinds


# ---------------------------------------------------------------------------
# dead-letter ledger


class TestDeadLetterLedger:
    def test_round_trip_and_len(self, tmp_path):
        ledger = DeadLetterLedger(tmp_path / "d.jsonl")
        entry = ledger.record(
            index=4, label="mix", attempts=3, error="boom", sweep="s"
        )
        assert entry["index"] == 4
        assert len(ledger) == 1
        assert ledger.entries()[0] == entry

    def test_missing_file_is_empty(self, tmp_path):
        assert DeadLetterLedger(tmp_path / "nope.jsonl").entries() == []

    def test_torn_tail_is_dropped(self, tmp_path):
        ledger = DeadLetterLedger(tmp_path / "d.jsonl")
        ledger.record(index=0, label="a", attempts=1, error="x")
        ledger.record(index=1, label="b", attempts=1, error="y")
        # tear the final append mid-line, as a crash would
        raw = ledger.path.read_bytes()
        ledger.path.write_bytes(raw[:-9])
        entries = ledger.entries()
        assert [e["label"] for e in entries] == ["a"]

    def test_mid_file_damage_raises(self, tmp_path):
        path = tmp_path / "d.jsonl"
        ledger = DeadLetterLedger(path)
        ledger.record(index=0, label="a", attempts=1, error="x")
        path.write_bytes(b"garbage\n" + path.read_bytes())
        with pytest.raises(DeadLetterError, match="damaged"):
            ledger.entries()


# ---------------------------------------------------------------------------
# chaos plan


class TestChaosPlan:
    def test_pick_labels_is_deterministic_and_sorted(self):
        labels = [f"m{i}" for i in range(10)]
        a = pick_labels(labels, 3, 42, "kill")
        assert a == pick_labels(labels, 3, 42, "kill")
        assert a != pick_labels(labels, 3, 42, "hang")
        assert list(a) == [m for m in labels if m in a]

    def test_pick_too_many_rejected(self):
        with pytest.raises(ConfigError, match="cannot pick"):
            pick_labels(["a"], 2, 0, "crash")

    def test_crash_fires_exactly_once_across_instances(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), crash_labels=("7",))
        wrapped = plan.wrap(_square)
        with pytest.raises(InjectedWorkerCrash):
            wrapped(7)
        # a *new* wrapper sees the marker: resume does not re-crash
        assert plan.wrap(_square)(7) == 49

    def test_poison_fires_every_time(self, tmp_path):
        plan = ChaosPlan(state_dir=str(tmp_path), poison_labels=("3",))
        wrapped = plan.wrap(_square)
        for _ in range(3):
            with pytest.raises(InjectedWorkerCrash, match="poison"):
                wrapped(3)

    def test_truncate_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        assert truncate_file(path, keep_fraction=0.3) == 30
        assert path.stat().st_size == 30

    def test_describe_is_manifest_ready(self, tmp_path):
        plan = ChaosPlan(
            state_dir=str(tmp_path), kill_labels=("a",), abort_after=4
        )
        desc = plan.describe()
        assert desc["kill"] == ["a"]
        assert desc["abort_after"] == 4
        json.dumps(desc)  # must be JSON-serialisable


# ---------------------------------------------------------------------------
# the supervised Monte Carlo sweep: the fabric's acceptance gate


class TestFabricSweep:
    def test_pool_matches_inproc(self, curves):
        inproc = run_monte_carlo(5, CFG, curves=curves, seed=11, jobs=1)
        pooled = run_monte_carlo(5, CFG, curves=curves, seed=11, jobs=2)
        assert [p.to_dict() for p in pooled.points] \
            == [p.to_dict() for p in inproc.points]

    def test_checkpoint_with_skip_mode_refused(self, curves, tmp_path):
        with pytest.raises(ConfigError, match="contiguous-prefix"):
            run_monte_carlo(
                3, CFG, curves=curves,
                policy=SupervisorPolicy(on_poison="skip"),
                checkpoint_path=str(tmp_path / "c.json"),
            )

    def test_chaos_kill_resume_is_bit_identical(self, curves, tmp_path):
        """The tentpole guarantee: crash + hard kill + driver abort +
        resume produces the same canonical trace as a clean serial run."""
        n, seed = 8, 11
        t_clean = Tracer()
        clean = run_monte_carlo(
            n, CFG, curves=curves, seed=seed, jobs=1, tracer=t_clean,
        )
        mixes = random_mixes(n, CFG.num_cores, seed=seed)
        labels = [str(m) for m in mixes]
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos"),
            crash_labels=pick_labels(labels, 1, 3, "crash"),
            kill_labels=pick_labels(labels, 1, 3, "kill"),
            abort_after=4,
        )
        policy = SupervisorPolicy(max_attempts=3)
        ckpt = str(tmp_path / "ck.json")
        ledger = DeadLetterLedger(tmp_path / "dead.jsonl")
        t_chaos = Tracer()
        with pytest.raises(ChaosAbort):
            run_monte_carlo(
                n, CFG, curves=curves, seed=seed, jobs=2,
                policy=policy, chaos=plan, checkpoint_path=ckpt,
                checkpoint_every=2, tracer=t_chaos, deadletter=ledger,
            )
        assert load_checkpoint(ckpt, "monte-carlo")[1]  # progress persisted
        t_resume = Tracer()
        resumed = run_monte_carlo(
            n, CFG, curves=curves, seed=seed, jobs=2,
            policy=policy, chaos=dataclasses.replace(plan, abort_after=None),
            checkpoint_path=ckpt, resume=True, tracer=t_resume,
            deadletter=ledger,
        )
        assert len(resumed.points) == n
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]
        # the resumed run yielded only its tail: its sweep_item events are
        # advisory, so they cannot make the canonical streams differ
        assert len(t_resume.select("sweep_item")) < n
        assert canonical_events(t_resume.events) \
            == canonical_events(t_clean.events)
        assert len(ledger) == 0  # every fault was survivable

    def test_truncated_checkpoint_falls_back_to_bak(self, curves, tmp_path):
        n, seed = 6, 11
        ckpt = str(tmp_path / "ck.json")
        plan = ChaosPlan(state_dir=str(tmp_path / "chaos"), abort_after=4)
        with pytest.raises(ChaosAbort):
            run_monte_carlo(
                n, CFG, curves=curves, seed=seed,
                chaos=plan, checkpoint_path=ckpt, checkpoint_every=2,
            )
        assert os.path.isfile(backup_path(ckpt))
        truncate_file(ckpt)  # tear the newest generation mid-byte
        clean = run_monte_carlo(n, CFG, curves=curves, seed=seed)
        resumed = run_monte_carlo(
            n, CFG, curves=curves, seed=seed,
            checkpoint_path=ckpt, resume=True,
        )
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]

    def test_pool_checkpoint_resumes_serially(self, curves, tmp_path):
        """A snapshot left by an aborted supervised pool sweep resumes
        under a plain serial run: jobs and policy are not checkpoint meta."""
        n, seed = 6, 11
        ckpt = str(tmp_path / "ck.json")
        plan = ChaosPlan(state_dir=str(tmp_path / "chaos"), abort_after=3)
        with pytest.raises(ChaosAbort):
            run_monte_carlo(
                n, CFG, curves=curves, seed=seed, jobs=2,
                policy=SupervisorPolicy(max_attempts=3),
                chaos=plan, checkpoint_path=ckpt,
            )
        resumed = run_monte_carlo(
            n, CFG, curves=curves, seed=seed,
            checkpoint_path=ckpt, resume=True,
        )
        clean = run_monte_carlo(n, CFG, curves=curves, seed=seed)
        assert [p.to_dict() for p in resumed.points] \
            == [p.to_dict() for p in clean.points]

    def test_poison_skip_quarantines_into_ledger(self, curves, tmp_path):
        n, seed = 5, 11
        mixes = random_mixes(n, CFG.num_cores, seed=seed)
        labels = [str(m) for m in mixes]
        plan = ChaosPlan(
            state_dir=str(tmp_path / "chaos"),
            poison_labels=pick_labels(labels, 1, 3, "poison"),
        )
        ledger = DeadLetterLedger(tmp_path / "dead.jsonl")
        result = run_monte_carlo(
            n, CFG, curves=curves, seed=seed, jobs=2,
            policy=SupervisorPolicy(max_attempts=2, on_poison="skip"),
            chaos=plan, deadletter=ledger,
        )
        assert len(result.points) == n - 1
        assert len(ledger) == 1
        summary = result.supervision
        assert summary["actions"].get("quarantine") == 1
        assert summary["quarantined"]
