"""The telemetry subsystem: tracer, schema, metrics, report, exporters.

Two contracts dominate: tracing off means *nothing* (no events, no
telemetry objects, bit-identical numeric results), and tracing on means
the same event stream whether a sweep ran serially or on a pool (up to
the wall-clock fields the schema marks non-deterministic).
"""

import json
import math

import pytest

from repro.analysis.montecarlo import collect_profiles, run_monte_carlo
from repro.config import scaled_config
from repro.obs import epoch_digest, render_digest_text
from repro.sim.runner import RunSettings, compare_schemes, run_mix
from repro.sim.stats import SystemResult
from repro.telemetry import metrics
from repro.telemetry.metrics import Histogram
from repro.telemetry.events import ADVISORY_EVENTS
from repro.telemetry import (
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryError,
    Tracer,
    canonical_events,
    check_trace,
    chrome_trace,
    read_jsonl,
    schema_rows,
    validate_event,
    write_jsonl,
)
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
        with pytest.raises(TelemetryError, match="unknown event type"):
            t.emit("no_such_event")
        with pytest.raises(TelemetryError, match="missing required field"):
            t.emit("epoch_skip", time=1.0, epoch=0)  # no reason
        with pytest.raises(TelemetryError, match="expected"):
            t.emit("epoch_skip", time=1.0, epoch=0, reason=42)
        with pytest.raises(TelemetryError, match="unknown fields"):
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
        with pytest.raises(TelemetryError, match="not valid JSON"):
            read_jsonl(bad)
        bad.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(TelemetryError, match="expected a JSON object"):
            read_jsonl(bad)

    def test_read_jsonl_non_utf8_is_telemetry_error(self, tmp_path):
        t = Tracer()
        t.emit_run_meta("simulate")
        bad = tmp_path / "bad.jsonl"
        t.write_jsonl(bad)
        with open(bad, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(TelemetryError, match=r"bad\.jsonl:2: not valid"):
            read_jsonl(bad)

    def test_write_jsonl_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(path, [])
        assert read_jsonl(path) == []

    def test_write_jsonl_streams_large_traces(self, tmp_path):
        # more events than one write chunk: the stream path must produce
        # the same file as a whole-buffer write would
        from repro.telemetry.tracer import WRITE_CHUNK_EVENTS

        t = Tracer()
        for i in range(WRITE_CHUNK_EVENTS + 7):
            t.emit("epoch_skip", time=float(i), epoch=i, reason="warmup")
        path = tmp_path / "big.jsonl"
        t.write_jsonl(path)
        assert read_jsonl(path) == t.events

    def test_extend_pre_validated_skips_revalidation(self):
        worker = Tracer()
        worker.emit("epoch_skip", time=1.0, epoch=0, reason="warmup")
        checked, trusted = Tracer(), Tracer()
        checked.extend(worker.events, scheme="s")
        trusted.extend(worker.events, scheme="s", pre_validated=True)
        assert trusted.events == checked.events
        # the fast path trusts the caller: a stream only a validating
        # tracer could reject passes straight through
        bogus = [{"type": "epoch_skip", "seq": 0, "time": 1.0, "epoch": 0}]
        trusted.extend(bogus, pre_validated=True)
        with pytest.raises(TelemetryError, match="missing required field"):
            checked.extend(bogus)

    def test_live_sink_appends_during_the_run(self, tmp_path):
        sink = tmp_path / "live.jsonl"
        t = Tracer(sink=sink, sink_flush_every=1)
        t.emit_run_meta("simulate")
        t.emit("epoch_skip", time=1.0, epoch=0, reason="warmup")
        # both events already on disk while the run is still going
        assert read_jsonl(sink) == t.events
        t.emit("epoch_skip", time=2.0, epoch=1, reason="warmup")
        assert read_jsonl(sink) == t.events
        # finalisation atomically replaces the sink with the full stream
        t.write_jsonl(sink)
        assert read_jsonl(sink) == t.events
        assert [p.name for p in tmp_path.iterdir()] == ["live.jsonl"]


class TestProgressHeartbeats:
    def test_montecarlo_emits_progress(self, curves_by_name):
        tracer = Tracer()
        run_monte_carlo(6, CFG, curves=curves_by_name, seed=9,
                        tracer=tracer)
        beats = tracer.select("progress")
        assert beats, "no progress heartbeats in the stream"
        assert all(b["source"] == "montecarlo" for b in beats)
        assert beats[-1]["done"] == beats[-1]["total"] == 6
        assert [b["done"] for b in beats] \
            == sorted({b["done"] for b in beats})
        assert check_trace(tracer.events) == []

    def test_heartbeats_match_across_jobs(self, curves_by_name):
        def run(jobs):
            tracer = Tracer()
            run_monte_carlo(5, CFG, curves=curves_by_name, seed=9,
                            jobs=jobs, tracer=tracer)
            return [
                e for e in canonical_events(tracer.events)
                if e["type"] == "progress"
            ]

        assert run(1) == run(2)


class TestEventSchema:
    def test_canonical_events_strips_only_wall_clock(self):
        events = [
            {"type": "progress", "seq": 0, "done": 1, "total": 2,
             "source": "sweep", "wall_s": 0.5},
            {"type": "epoch_skip", "seq": 1, "time": 1.0, "epoch": 0,
             "reason": "warmup", "scheme": "bank-aware"},
        ]
        canon = canonical_events(events)
        assert canon[0] == {"type": "progress", "seq": 0, "done": 1,
                            "total": 2, "source": "sweep"}
        assert canon[1] == events[1]  # fully deterministic, untouched

    def test_every_schema_is_documented(self):
        documented = {etype for etype, _, _ in schema_rows()}
        assert documented == set(EVENT_SCHEMAS)

    def test_advisory_supervisor_events_dropped_and_seq_renumbered(self):
        # traces stored by earlier versions carry retries only in the run
        # whose worker crashed, and profiler spans only in the run that
        # asked for them, so the canonical projection must erase both
        # without leaving a seq gap
        events = [
            {"type": "progress", "seq": 0, "done": 1, "total": 2,
             "source": "sweep"},
            {"type": "supervisor", "seq": 1, "kind": "retry", "index": 1,
             "attempt": 1, "rung": "pool", "detail": "boom"},
            dict(STORED_SPAN, seq=2),
            {"type": "progress", "seq": 3, "done": 2, "total": 2,
             "source": "sweep"},
        ]
        canon = canonical_events(events)
        assert [e["type"] for e in canon] == ["progress", "progress"]
        assert [e["seq"] for e in canon] == [0, 1]
        clean = [events[0], dict(events[3], seq=1)]
        assert canon == canonical_events(clean)  # retried == clean

    def test_supervisor_event_validates(self):
        assert ADVISORY_EVENTS == {"supervisor", "span", "sweep_item"}
        assert validate_event(
            {"type": "supervisor", "seq": 4, "kind": "quarantine",
             "index": 7, "attempt": 3, "label": "mix-7", "rung": "serial",
             "detail": "ValueError: poison"}
        ) == []
        assert validate_event(STORED_SPAN) == []

    def test_validate_event_accepts_common_fields(self):
        assert validate_event(
            {"type": "epoch_skip", "seq": 3, "scheme": "bank-aware",
             "time": 1.0, "epoch": 0, "reason": "warmup"}
        ) == []


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("l2.hits").inc(10)
        reg.counter("l2.hits").inc(5)  # get-or-create returns the same one
        reg.gauge("jobs").set(4)
        reg.histogram("wall").observe(1.0)
        reg.histogram("wall").observe(3.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"l2.hits": 15.0}
        assert snap["gauges"] == {"jobs": 4.0}
        wall = snap["histograms"]["wall"]
        # exact moments, bucket-estimated percentiles
        assert wall["count"] == 2
        assert wall["total"] == 4.0
        assert wall["min"] == 1.0
        assert wall["max"] == 3.0
        assert wall["mean"] == 2.0
        # p50 lands in 1.0's bucket (within one growth factor above it);
        # p95/p99 clamp to the exact observed max
        assert 1.0 <= wall["p50"] <= 1.0 * metrics.BUCKET_GROWTH
        assert wall["p95"] == 3.0
        assert wall["p99"] == 3.0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("x").inc(-1)

    def test_empty_histogram_summary_is_finite(self):
        snap = MetricsRegistry().histogram("w").summary()
        assert snap == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert Histogram("e").summary()["count"] == 0

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.histogram("w").observe(2.5)
        assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()

    def test_bucket_geometry_is_deterministic(self):
        # boundaries derive from module constants only: same value, same
        # bucket, on every run and host
        assert metrics.bucket_index(0.0) == 0
        assert metrics.bucket_index(metrics.BUCKET_SCALE) == 0
        assert metrics.bucket_index(1e300) == metrics.MAX_BUCKET
        for value in (1e-6, 0.003, 1.0, 7.5, 1e4):
            index = metrics.bucket_index(value)
            assert metrics.bucket_upper_bound(index) >= value
            assert (
                metrics.bucket_upper_bound(index - 1) < value
                or index == 0
            )

    def test_quantiles_are_order_independent(self):
        values = [0.001 * (i % 17 + 1) for i in range(100)]
        a, b = Histogram("a"), Histogram("b")
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.summary() == b.summary()

    def test_quantile_relative_error_is_bounded(self):
        h = Histogram("w")
        values = [0.0017 * 1.37 ** i for i in range(40)]
        for v in values:
            h.observe(v)
        exact = sorted(values)
        for q in (0.5, 0.95, 0.99):
            # the bucket walk answers with the ceil(q*n)-th smallest value
            true = exact[max(0, math.ceil(q * len(exact)) - 1)]
            # one growth factor of slack each way (bucket width ~19 %)
            assert true / metrics.BUCKET_GROWTH <= h.quantile(q) \
                <= true * metrics.BUCKET_GROWTH

    def test_identical_observations_collapse_every_quantile(self):
        h = Histogram("w")
        for _ in range(10):
            h.observe(42.0)
        summary = h.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 42.0

    def test_quantile_rejects_bad_q(self):
        h = Histogram("w")
        h.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_bucket_index_boundary_values(self):
        # zero and everything at-or-below the scale floor share bucket 0
        assert metrics.bucket_index(0.0) == 0
        assert metrics.bucket_index(5e-324) == 0  # smallest denormal
        assert metrics.bucket_index(1e-300) == 0
        assert metrics.bucket_index(metrics.BUCKET_SCALE) == 0
        # an exact computed edge may round to either adjacent bucket (float
        # log), but containment must hold and the choice is deterministic
        for index in (1, 7, 100, metrics.MAX_BUCKET - 1):
            edge = metrics.bucket_upper_bound(index)
            got = metrics.bucket_index(edge)
            assert got in (index, index + 1)
            assert metrics.bucket_upper_bound(got) >= edge
            assert metrics.bucket_upper_bound(got - 1) <= edge
            # nudged past the edge, the value spills into the next bucket
            assert metrics.bucket_index(edge * 1.0000001) == index + 1
        # the overflow bucket catches everything beyond the table, inf too
        assert metrics.bucket_index(1e300) == metrics.MAX_BUCKET
        assert metrics.bucket_index(float("inf")) == metrics.MAX_BUCKET

    def test_bucket_upper_bounds_grow_geometrically(self):
        bounds = [
            metrics.bucket_upper_bound(i) for i in range(metrics.MAX_BUCKET)
        ]
        assert bounds == sorted(bounds)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == pytest.approx(lo * metrics.BUCKET_GROWTH)

    def test_quantile_clamps_to_observed_envelope(self):
        # bucket upper bounds overestimate; the min/max envelope must win
        h = Histogram("w")
        h.observe(1.0)
        h.observe(1.0000001)  # same bucket, distinct min/max
        assert h.quantile(0.01) >= h.min
        assert h.quantile(1.0) == h.max
        single = Histogram("s")
        single.observe(3.7)
        for q in (0.001, 0.5, 0.999, 1.0):
            assert single.quantile(q) == 3.7


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
        assert result.telemetry is None
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
        tel = result.telemetry
        # bank counters are whole-run (warmup included), so the registry
        # total must equal the end-of-run snapshot, not the stats window
        assert tel["counters"]["l2.misses"] \
            == float(sum(result.events[-1]["misses"]))
        assert tel["counters"]["l2.misses"] >= result.total_misses
        assert tel["histograms"]["l2.bank_hits"]["count"] \
            == CFG.l2.num_banks

    def test_traced_result_round_trips_through_dict(self):
        result = run_mix(TABLE_III_SETS[0], "bank-aware", CFG,
                         RunSettings(**self.SETTINGS, trace=True))
        reread = SystemResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert reread.events == result.events
        assert reread.telemetry == result.telemetry


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
