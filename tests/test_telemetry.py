"""The emitting side of ``repro.obs``: tracer, schema, report, exporters.

Two contracts dominate: tracing off means *nothing* (no events, no
tracer, bit-identical numeric results), and tracing on means the same
event stream whether a sweep ran serially or on a pool (up to the
advisory events, which carry every wall-clock field).
"""

import json

import pytest

from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.config import scaled_config
from repro.obs import (
    ADVISORY_EVENTS,
    SCHEMA_VERSION,
    ObsError,
    Tracer,
    canonical_events,
    check_trace,
    read_jsonl,
    validate_event,
    write_jsonl,
)
from repro.obs.analytics import epoch_digest, render_digest_text
from repro.obs.chrome import chrome_trace
from repro.sim.runner import RunSettings, compare_schemes, run_mix
from repro.sim.stats import SystemResult
from repro.workloads.mixes import TABLE_III_SETS

CFG = scaled_config(32, epoch_cycles=150_000)  # tiny 64-set banks for speed

#: a ``span`` event as traces stored by earlier versions carry it
STORED_SPAN = {"type": "span", "seq": 5, "scheme": "bank-aware",
               "name": "install", "path": "run/install", "depth": 1,
               "t0": 12.5, "t1": 12.75}


@pytest.fixture(scope="module")
def curves_by_name():
    return collect_profiles(config=CFG, accesses=6_000)


# ---------------------------------------------------------------------------
# Tracer / event schema
# ---------------------------------------------------------------------------


class TestTracer:
    def test_emit_sequences_and_stores(self):
        t = Tracer()
        t.emit_run_meta("simulate", detail="unit test")
        t.emit("epoch_skip", time=100.0, epoch=0, reason="warmup")
        assert [e["seq"] for e in t.events] == [0, 1]
        assert len(t) == 2
        assert t.events[0]["schema_version"] == SCHEMA_VERSION
        assert t.select("epoch_skip") == [t.events[1]]

    def test_emit_validates_against_the_schema(self):
        t = Tracer()
        with pytest.raises(ObsError, match="unknown event type"):
            t.emit("no_such_event")
        with pytest.raises(ObsError, match="missing required field"):
            t.emit("epoch_skip", time=1.0, epoch=0)  # no reason
        with pytest.raises(ObsError, match="expected"):
            t.emit("epoch_skip", time=1.0, epoch=0, reason=42)
        with pytest.raises(ObsError, match="unknown fields"):
            t.emit("epoch_skip", time=1.0, epoch=0, reason="x", extra=1)
        assert t.events == []  # nothing half-emitted

    def test_emit_jsonifies_tuples(self):
        t = Tracer()
        event = t.emit(
            "epoch_decision", time=1.0, epoch=0, algorithm="bank-aware",
            ways=(4, 4), projected_misses=(10.0, 12.0),
        )
        assert event["ways"] == [4, 4]  # tuple became a JSON list

    def test_extend_resequences_and_tags_scheme(self):
        worker = Tracer()
        worker.emit("epoch_skip", time=1.0, epoch=0, reason="warmup")
        worker.emit("epoch_skip", time=2.0, epoch=1, reason="warmup")
        parent = Tracer()
        parent.emit_run_meta("compare")
        parent.extend(worker.events, scheme="bank-aware")
        assert [e["seq"] for e in parent.events] == [0, 1, 2]
        assert [e.get("scheme") for e in parent.events[1:]] \
            == ["bank-aware", "bank-aware"]
        # the worker's own log is untouched by the merge
        assert [e["seq"] for e in worker.events] == [0, 1]
        assert "scheme" not in worker.events[0]

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        t.emit_run_meta("simulate")
        t.emit("epoch_skip", time=1.0, epoch=0, reason="warmup")
        path = tmp_path / "trace.jsonl"
        t.write_jsonl(path)
        assert read_jsonl(path) == t.events
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_read_jsonl_rejects_damage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "run_meta"\n', encoding="utf-8")
        with pytest.raises(ObsError, match="not valid JSON"):
            read_jsonl(bad)
        bad.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ObsError, match="expected a JSON object"):
            read_jsonl(bad)

    def test_read_jsonl_non_utf8_is_telemetry_error(self, tmp_path):
        t = Tracer()
        t.emit_run_meta("simulate")
        bad = tmp_path / "bad.jsonl"
        t.write_jsonl(bad)
        with open(bad, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(ObsError, match=r"bad\.jsonl:2: not valid"):
            read_jsonl(bad)

    def test_write_jsonl_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(path, [])
        assert read_jsonl(path) == []

    def test_write_jsonl_streams_large_traces(self, tmp_path):
        # more events than one write chunk: the stream path must produce
        # the same file as a whole-buffer write would
        from repro.obs.tracer import WRITE_CHUNK_EVENTS

        t = Tracer()
        for i in range(WRITE_CHUNK_EVENTS + 7):
            t.emit("epoch_skip", time=float(i), epoch=i, reason="warmup")
        path = tmp_path / "big.jsonl"
        t.write_jsonl(path)
        assert read_jsonl(path) == t.events


class TestEventSchema:
    def test_canonical_events_strips_only_wall_clock(self):
        # wall clock lives only in advisory events: a stored progress
        # heartbeat goes whole, the computed event stays as it was
        events = [
            {"type": "progress", "seq": 0, "done": 1, "total": 2,
             "source": "sweep", "wall_s": 0.5},
            {"type": "epoch_skip", "seq": 1, "time": 1.0, "epoch": 0,
             "reason": "warmup", "scheme": "bank-aware"},
        ]
        canon = canonical_events(events)
        assert canon == [dict(events[1], seq=0)]
        assert events[1]["seq"] == 1  # the input is not mutated

    def test_advisory_supervisor_events_dropped_and_seq_renumbered(self):
        # traces stored by earlier versions carry retries only in the run
        # whose worker crashed, and profiler spans only in the run that
        # asked for them, so the canonical projection must erase both
        # without leaving a seq gap
        events = [
            {"type": "epoch_skip", "seq": 0, "time": 1.0, "epoch": 0,
             "reason": "warmup"},
            {"type": "supervisor", "seq": 1, "kind": "retry", "index": 1,
             "attempt": 1, "rung": "pool", "detail": "boom"},
            dict(STORED_SPAN, seq=2),
            {"type": "epoch_skip", "seq": 3, "time": 2.0, "epoch": 1,
             "reason": "warmup"},
        ]
        canon = canonical_events(events)
        assert [e["type"] for e in canon] == ["epoch_skip", "epoch_skip"]
        assert [e["seq"] for e in canon] == [0, 1]
        clean = [events[0], dict(events[3], seq=1)]
        assert canon == canonical_events(clean)  # retried == clean

    def test_supervisor_event_validates(self):
        assert ADVISORY_EVENTS == {
            "supervisor", "span", "sweep_item", "progress"
        }
        assert validate_event(
            {"type": "supervisor", "seq": 4, "kind": "quarantine",
             "index": 7, "attempt": 3, "label": "mix-7", "rung": "serial",
             "detail": "ValueError: poison"}
        ) == []
        assert validate_event(STORED_SPAN) == []
        assert validate_event(
            {"type": "progress", "seq": 2, "done": 1, "total": 4,
             "source": "montecarlo", "wall_s": 0.5}
        ) == []

    def test_validate_event_accepts_common_fields(self):
        assert validate_event(
            {"type": "epoch_skip", "seq": 3, "scheme": "bank-aware",
             "time": 1.0, "epoch": 0, "reason": "warmup"}
        ) == []

    def test_bank_snapshot_lists_must_align(self):
        snapshot = {
            "type": "bank_snapshot", "seq": 0, "time": 1.0, "epoch": 0,
            "hits": [5, 6], "misses": [1, 2], "occupancy": [3, 4],
            "queue_served": [6, 7], "queue_delay": [0.5, 0.5],
            "migrations": 0, "writebacks": 0,
            "core_hits": [4, 4, 3], "core_misses": [1, 1, 1],
        }
        assert validate_event(snapshot) == []
        # banks and cores are counted apart: only each group must agree
        ragged_banks = dict(snapshot, queue_served=[6])
        assert validate_event(ragged_banks) == [
            "bank_snapshot: fields of unequal length hits=2, misses=2, "
            "occupancy=2, queue_served=1, queue_delay=2"
        ]
        ragged_cores = dict(snapshot, core_misses=[1, 1])
        assert validate_event(ragged_cores) == [
            "bank_snapshot: fields of unequal length core_hits=3, "
            "core_misses=2"
        ]


# ---------------------------------------------------------------------------
# report / check / chrome exporter
# ---------------------------------------------------------------------------


def _sample_stream():
    t = Tracer()
    t.emit_run_meta("compare", detail="set 1")
    t.emit("epoch_decision", time=150_000.0, epoch=0,
           algorithm="bank-aware", ways=[6, 10], center_banks=[0, 1],
           pairs=[[0, 1]], projected_misses=[100.0, 200.0],
           scheme="bank-aware")
    t.emit("epoch_skip", time=300_000.0, epoch=1,
           reason="hysteresis hold on rung equal-share", scheme="bank-aware")
    t.emit("guard_action", time=300_000.0, epoch=1, kind="fallback",
           detail="profiler fault", mode="equal-share", scheme="bank-aware")
    t.emit("bank_snapshot", time=150_000.0, epoch=0, hits=[50, 60],
           misses=[5, 6], occupancy=[30, 40], queue_served=[100, 110],
           queue_delay=[1.5, 2.5], migrations=3, writebacks=2,
           scheme="bank-aware")
    t.emit("bank_snapshot", time=300_000.0, epoch=-1, hits=[90, 95],
           misses=[9, 9], occupancy=[31, 41], queue_served=[180, 190],
           queue_delay=[2.0, 3.0], migrations=7, writebacks=2,
           scheme="bank-aware")
    t.emit("sweep_item", index=0, label="set1:bank-aware", wall_s=0.25)
    return t.events


class TestReport:
    def test_digest_groups_by_scheme_and_epoch(self):
        digest = epoch_digest(_sample_stream())
        assert digest["event_counts"]["bank_snapshot"] == 2
        assert digest["run_meta"][0]["source"] == "compare"
        scheme = digest["schemes"]["bank-aware"]
        assert scheme["epochs"][0]["installed"] is True
        assert scheme["epochs"][1]["installed"] is False
        assert scheme["epochs"][1]["reason"].startswith("hysteresis")
        assert [g["kind"] for g in scheme["guard"]] == ["fallback"]
        # snapshot deltas are against the previous snapshot of the scheme
        assert [s["migrations_delta"] for s in scheme["snapshots"]] == [3, 4]
        assert [s["writebacks_delta"] for s in scheme["snapshots"]] == [2, 0]

    def test_render_text_shows_the_decision_tables(self):
        text = render_digest_text(_sample_stream())
        assert "Trace summary" in text
        assert "Epoch decisions [bank-aware]" in text
        assert "Guard ladder [bank-aware]" in text
        assert "Bank snapshots" in text
        assert "ways=[6, 10]" in text
        assert "slowest set1:bank-aware at 0.250s" in text

    def test_check_trace_requires_run_meta_header(self):
        events = _sample_stream()
        assert check_trace(events) == []
        headless = events[1:]
        problems = check_trace(headless)
        assert any("run_meta" in p for p in problems)

    def test_check_trace_reports_schema_violations_with_index(self):
        events = _sample_stream()
        del events[2]["reason"]
        problems = check_trace(events)
        assert problems == ["event #2: epoch_skip: missing required "
                            "field 'reason'"]


class TestChromeTrace:
    def test_tracks_and_events(self):
        payload = chrome_trace(_sample_stream())
        events = payload["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        counters = [e for e in events if e["ph"] == "C"]
        spans = [e for e in events if e["ph"] == "X"]
        # decision + skip + guard on the simulated-time track, kilocycles
        assert len(instants) == 3
        assert all(e["pid"] == 1 for e in instants)
        assert instants[0]["ts"] == pytest.approx(150.0)
        assert "ways=[6, 10]" in instants[0]["name"]
        assert len(counters) == 2
        assert counters[-1]["args"] == {"migrations": 7, "writebacks": 2}
        assert len(spans) == 1
        assert spans[0]["pid"] == 2
        assert spans[0]["dur"] == pytest.approx(0.25e6)

    def test_sweep_items_lie_end_to_end_per_lane(self):
        t = Tracer()
        t.emit("sweep_item", index=0, label="a", wall_s=0.5)
        t.emit("sweep_item", index=1, label="b", wall_s=0.25)
        spans = [e for e in chrome_trace(t.events)["traceEvents"]
                 if e["ph"] == "X"]
        assert spans[0]["ts"] == 0.0
        assert spans[1]["ts"] == pytest.approx(0.5e6)  # after the first


# ---------------------------------------------------------------------------
# the zero-overhead-when-off and serial==parallel contracts, end to end
# ---------------------------------------------------------------------------


class TestDetailedRunTracing:
    SETTINGS = dict(duration_cycles=450_000.0, seed=3)

    def test_untraced_run_allocates_no_telemetry(self):
        result = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                         RunSettings(**self.SETTINGS))
        assert result.events == []
        payload = result.to_dict()
        # untraced checkpoints stay byte-identical to the old format
        assert "events" not in payload
        assert "telemetry" not in payload

    def test_tracing_changes_no_numbers(self):
        plain = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                        RunSettings(**self.SETTINGS))
        traced = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                         RunSettings(**self.SETTINGS, trace=True))
        assert traced.total_misses == plain.total_misses  # exact
        assert traced.total_instructions == plain.total_instructions
        assert [tuple(e.ways) for e in traced.epochs] \
            == [tuple(e.ways) for e in plain.epochs]

    def test_traced_run_emits_a_valid_stream(self):
        result = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                         RunSettings(**self.SETTINGS, trace=True))
        assert check_trace(result.events) == []
        types = {e["type"] for e in result.events}
        assert "run_meta" in types
        assert "bank_snapshot" in types
        assert types & {"epoch_decision", "epoch_skip"}
        # one decision or skip per completed epoch boundary
        boundaries = [e for e in result.events
                      if e["type"] in ("epoch_decision", "epoch_skip")]
        assert [e["epoch"] for e in boundaries] \
            == list(range(len(boundaries)))
        # the end-of-run snapshot uses the epoch=-1 convention
        assert result.events[-1]["type"] == "bank_snapshot"
        assert result.events[-1]["epoch"] == -1
        # bank counters are whole-run (warmup included), so the
        # end-of-run snapshot covers at least the stats window
        assert len(result.events[-1]["misses"]) == CFG.l2.num_banks
        assert sum(result.events[-1]["misses"]) >= result.total_misses

    def test_traced_result_round_trips_through_dict(self):
        result = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                         RunSettings(**self.SETTINGS, trace=True))
        reread = SystemResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert reread.events == result.events
        assert reread.to_dict() == result.to_dict()

    def test_earlier_payload_with_a_telemetry_key_restores(self):
        # traced checkpoints of earlier versions carry a metrics snapshot
        # under "telemetry"; it is ignored on restore and not written back
        payload = {
            "scheme": "bank-aware",
            "cores": [[0, "bzip2", 1000, 2500.0, 120, 30]],
            "migrations": 4,
            "writebacks": 2,
            "epochs": [[150000.0, [8], None, None]],
            "guard_events": [],
            "events": [{"type": "run_meta", "seq": 0, "schema_version": 1,
                        "source": "detailed-sim"}],
            "telemetry": {"counters": {"l2.misses": 30.0}, "gauges": {},
                          "histograms": {}},
        }
        restored = SystemResult.from_dict(json.loads(json.dumps(payload)))
        expected = {k: v for k, v in payload.items() if k != "telemetry"}
        assert restored.to_dict() == expected


class TestSerialParallelStreamEquality:
    SCHEMES = ("equal-partitions", "bank-aware")

    def test_compare_streams_match(self):
        settings = RunSettings(duration_cycles=450_000.0, seed=3, trace=True)

        def run(jobs):
            tracer = Tracer()
            tracer.emit_run_meta("compare", detail="set 1")
            compare_schemes(TABLE_III_SETS[0], CFG, settings,
                            schemes=self.SCHEMES, jobs=jobs, tracer=tracer)
            return tracer.events

        serial, pooled = run(1), run(2)
        assert canonical_events(pooled) == canonical_events(serial)
        assert len(serial) > len(self.SCHEMES)  # real payload, not headers

    def test_montecarlo_streams_match(self, curves_by_name):
        def run(jobs):
            tracer = Tracer()
            run_monte_carlo(6, CFG, curves=curves_by_name, seed=9,
                            jobs=jobs, tracer=tracer)
            return tracer.events

        serial, pooled = run(1), run(2)
        assert canonical_events(pooled) == canonical_events(serial)
        points = [e for e in serial if e["type"] == "mc_point"]
        assert [e["index"] for e in points] == list(range(6))
