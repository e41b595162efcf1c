"""The run observatory: store, diff, watch, gate, and their CLI surface.

The load-bearing contracts: a stored run's manifest binds results to
their provenance; ``repro diff`` finds the *first* canonical divergence
and exits non-zero on any (making it the serial-vs-parallel determinism
gate); the tail reader survives both a writer mid-append and the final
atomic replace; the bench gate fails on throughput collapse and on
silently dropped benchmarks.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.config import scaled_config
from repro.obs import (
    ObsError,
    RunStore,
    TailReader,
    WatchView,
    append_history,
    config_fingerprint,
    diff_traces,
    gate_report,
    load_report,
    render_diff_text,
    watch_trace,
)
from repro.telemetry import Tracer, read_jsonl, write_jsonl

CFG = scaled_config(32, epoch_cycles=150_000)


def _decision_stream(n=3, *, way_bump_at=None, extra_events=0):
    """A small valid trace: run_meta + n epoch decisions (+ tail skips)."""
    t = Tracer()
    t.emit_run_meta("simulate", detail="obs test")
    for epoch in range(n):
        ways = [4, 4, 8, 8, 4, 4, 8, 8]
        if way_bump_at == epoch:
            ways = [5, 3] + ways[2:]
        t.emit(
            "epoch_decision", time=float(epoch), epoch=epoch,
            algorithm="bank-aware", ways=ways,
            projected_misses=[100.0 + epoch] * 8,
        )
    for i in range(extra_events):
        t.emit("epoch_skip", time=float(n + i), epoch=n + i, reason="warmup")
    return t.events


# ---------------------------------------------------------------------------
# run store
# ---------------------------------------------------------------------------


class TestRunStore:
    def test_archive_list_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        events = _decision_stream()
        record = store.archive(
            source="simulate", config=CFG, workloads=["bzip2"] * 8,
            settings={"seed": 7}, headline={"miss_rate": 0.25},
            trace_events=events,
        )
        assert record.run_id.startswith("simulate-")
        manifest = record.manifest
        assert manifest["format"] == "repro-run-manifest"
        assert manifest["config_fingerprint"] == config_fingerprint(CFG)
        assert len(manifest["config_fingerprint"]) == 16
        assert manifest["headline"] == {"miss_rate": 0.25}
        assert manifest["trace_events"] == len(events)
        assert read_jsonl(record.trace_path) == events

        listed = store.list()
        assert [r.run_id for r in listed] == [record.run_id]
        fetched = store.get(record.run_id)
        assert fetched.manifest == manifest
        assert store.resolve_trace(record.run_id) == record.trace_path

    def test_untraced_archive_has_no_trace(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = store.archive(source="montecarlo", config=CFG)
        assert record.manifest["trace"] is None
        assert record.trace_path is None
        with pytest.raises(ObsError, match="without a trace"):
            store.resolve_trace(record.run_id)

    def test_colliding_run_ids_get_suffixes(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = store.archive(source="compare", config=CFG)
        second = store.archive(source="compare", config=CFG)
        assert first.run_id != second.run_id
        assert len(store.list()) == 2

    def test_get_unknown_run_raises(self, tmp_path):
        with pytest.raises(ObsError, match="no run"):
            RunStore(tmp_path / "runs").get("nope")

    def test_list_skips_damaged_manifests(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        good = store.archive(source="simulate", config=CFG)
        bad = tmp_path / "runs" / "broken"
        bad.mkdir()
        (bad / "manifest.json").write_text("{nope", encoding="utf-8")
        assert [r.run_id for r in store.list()] == [good.run_id]

    def test_resolve_trace_prefers_paths(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, _decision_stream())
        assert RunStore(tmp_path / "runs").resolve_trace(str(trace)) == trace


# ---------------------------------------------------------------------------
# first-divergence diff
# ---------------------------------------------------------------------------


class TestDiff:
    def test_identical_streams(self):
        a, b = _decision_stream(), _decision_stream()
        report = diff_traces(a, b)
        assert report.divergence is None
        assert report.identical
        assert report.exit_code == 0
        assert "no divergence" in render_diff_text(report)

    def test_wall_clock_jitter_is_not_divergence(self):
        t = Tracer()
        t.emit("sweep_item", index=0, label="a", wall_s=0.25)
        u = Tracer()
        u.emit("sweep_item", index=0, label="a", wall_s=99.0)
        assert diff_traces(t.events, u.events).identical

    def test_first_divergence_names_epoch_and_cores(self):
        a = _decision_stream(3)
        b = _decision_stream(3, way_bump_at=1)
        report = diff_traces(a, b, a_label="serial", b_label="parallel")
        d = report.divergence
        assert d is not None
        assert report.exit_code == 1
        assert d.epoch == 1
        assert d.index == 2  # run_meta, decision 0, then the bumped one
        ways = [f for f in d.fields if f.name == "ways"]
        assert ways and ways[0].positions == (0, 1)
        assert "Rules 1-3" in ways[0].note
        text = render_diff_text(report)
        assert "FIRST DIVERGENCE at event #2" in text
        assert "serial" in text and "parallel" in text

    def test_divergence_stops_at_the_first_difference(self):
        # two perturbed epochs: only the earlier one is reported
        a = _decision_stream(4)
        b = _decision_stream(4, way_bump_at=2)
        b = [dict(e) for e in b]
        b[-1]["epoch"] = 99  # later difference must not win
        report = diff_traces(a, b)
        assert report.divergence.epoch == 2

    def test_length_mismatch_after_common_prefix(self):
        a = _decision_stream(3)
        b = _decision_stream(3, extra_events=2)
        report = diff_traces(a, b)
        assert report.divergence.kind == "length"
        assert report.exit_code == 1

    def test_metric_tolerances(self):
        def mc_stream(misses):
            t = Tracer()
            t.emit_run_meta("monte-carlo")
            t.emit("mc_point", index=0, mix=["bzip2"] * 8,
                   equal_misses=100.0, unrestricted_misses=misses,
                   bank_aware_misses=misses, ways=[8] * 8)
            return t.events

        a, b = mc_stream(100.0), mc_stream(100.0000001)
        strict = diff_traces(a, b)
        assert strict.exit_code == 1
        loose = diff_traces(a, b, rel_tol=1e-6)
        assert loose.exit_code == 0
        assert loose.waived > 0


# ---------------------------------------------------------------------------
# tail reader / watch
# ---------------------------------------------------------------------------


def _line(event: dict) -> bytes:
    return json.dumps(event).encode() + b"\n"


class TestTailReader:
    EV = {"type": "epoch_skip", "seq": 0, "time": 1.0, "epoch": 0,
          "reason": "warmup"}

    def test_partial_trailing_line_waits_for_the_writer(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        full = _line(self.EV)
        path.write_bytes(full + full[:10])  # second event half-written
        reader = TailReader(path)
        assert reader.poll().events == [self.EV]
        # nothing new, partial line still pending
        assert reader.poll().events == []
        with open(path, "ab") as fh:
            fh.write(full[10:])
        assert reader.poll().events == [self.EV]

    def test_offset_is_resumable(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        path.write_bytes(_line(self.EV))
        reader = TailReader(path)
        assert len(reader.poll().events) == 1
        with open(path, "ab") as fh:
            fh.write(_line(dict(self.EV, seq=1)))
            fh.write(_line(dict(self.EV, seq=2)))
        chunk = reader.poll()
        assert [e["seq"] for e in chunk.events] == [1, 2]
        assert not chunk.reset

    def test_atomic_replace_resets_the_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(_line(self.EV) * 3)
        reader = TailReader(path)
        assert len(reader.poll().events) == 3
        # the finalising write_jsonl swaps in a fresh inode
        final = [dict(self.EV, seq=i) for i in range(2)]
        write_jsonl(path, final)
        chunk = reader.poll()
        assert chunk.reset
        assert reader.resets == 1
        assert [e["seq"] for e in chunk.events] == [0, 1]

    def test_missing_file_is_empty_not_an_error(self, tmp_path):
        reader = TailReader(tmp_path / "nope.jsonl")
        assert reader.poll().events == []

    def test_damaged_complete_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"type": broken}\n')
        with pytest.raises(ObsError, match="damaged trace line"):
            TailReader(path).poll()

    def test_truncated_mid_event_resets_and_buffers_the_tear(self, tmp_path):
        # a crash (or torn storage) can leave the trace
        # cut mid-event: the reader must restart, replay the intact
        # prefix, and hold the torn tail until the writer completes it
        path = tmp_path / "torn.jsonl"
        full = _line(self.EV)
        path.write_bytes(full * 3)
        reader = TailReader(path)
        assert len(reader.poll().events) == 3
        os.truncate(path, path.stat().st_size // 2)  # tears event 2 mid-byte
        chunk = reader.poll()
        assert chunk.reset
        assert reader.resets == 1
        assert chunk.events == [self.EV]  # only the intact prefix
        kept = path.stat().st_size
        with open(path, "ab") as fh:  # the writer finishes the line
            fh.write((full * 3)[kept:])
        assert reader.poll().events == [self.EV, self.EV]

    def test_heartbeats_interleaved_with_supervisor_retries(self, tmp_path):
        # the stream a retrying sweep of an earlier version wrote: progress
        # heartbeats with advisory supervisor events woven between them
        path = tmp_path / "retries.jsonl"
        sup = {"type": "supervisor", "seq": 0, "kind": "retry", "index": 3,
               "attempt": 1, "label": "mix-3", "rung": "pool",
               "detail": "InjectedWorkerCrash: boom"}
        beat = {"type": "progress", "seq": 0, "done": 1, "total": 4,
                "source": "montecarlo", "wall_s": 0.5}
        stream = [
            dict(beat, seq=0),
            dict(sup, seq=1),
            dict(beat, seq=2, done=2, wall_s=1.0),
            dict(sup, seq=3, kind="timeout", detail="no result"),
            dict(sup, seq=4, kind="degrade", detail="deadline expired"),
            dict(beat, seq=5, done=4, wall_s=2.0),
        ]
        reader, view = TailReader(path), WatchView()
        path.write_bytes(b"".join(_line(e) for e in stream[:3]))
        view.update(reader.poll())
        assert view.counts == {"progress": 2, "supervisor": 1}
        assert view.last_progress["done"] == 2
        assert not view.complete
        with open(path, "ab") as fh:
            fh.write(b"".join(_line(e) for e in stream[3:]))
        view.update(reader.poll())
        assert view.counts == {"progress": 3, "supervisor": 3}
        assert view.total_events == 6
        assert view.complete  # the final heartbeat reached done == total


class TestWatch:
    def test_view_aggregates_progress_and_guards(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        t.emit_run_meta("montecarlo")
        t.emit("guard_action", time=1.0, epoch=0, kind="fallback",
               detail="x", mode="equal-share")
        t.emit("progress", done=2, total=4, source="montecarlo", wall_s=1.0)
        t.write_jsonl(path)
        reader, view = TailReader(path), WatchView()
        view.update(reader.poll())
        assert view.total_events == 3
        assert view.guard_kinds == {"fallback": 1}
        assert not view.complete
        rendered = view.render()
        assert "2/4 (50.0%)" in rendered
        assert "ETA" in rendered
        assert "fallback=1" in rendered

    def test_watch_trace_completes_on_final_heartbeat(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        t.emit("progress", done=4, total=4, source="sweep", wall_s=2.0)
        t.write_jsonl(path)
        out = []
        assert watch_trace(path, once=True, emit=out.append) == 0
        assert watch_trace(path, interval=0.01, emit=out.append) == 0
        assert any("complete" in line for line in out)

    def test_watch_trace_times_out_on_a_stalled_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer()
        t.emit("progress", done=1, total=4, source="sweep", wall_s=2.0)
        t.write_jsonl(path)
        assert watch_trace(path, interval=0.01, timeout=0.05,
                           emit=lambda _line: None) == 1


# ---------------------------------------------------------------------------
# bench gate
# ---------------------------------------------------------------------------


def _bench_payload(**throughputs):
    return {
        "format": "repro-bench",
        "version": 1,
        "suite": "quick",
        "git_rev": "abc1234",
        "jobs": None,
        "benchmarks": [
            {"name": name, "wall_s": 1.0, "throughput": tp, "unit": "x/s"}
            for name, tp in throughputs.items()
        ],
    }


class TestGate:
    def test_within_gate_passes(self):
        base = _bench_payload(msa=1000.0, mc=50.0)
        cur = _bench_payload(msa=950.0, mc=51.0)
        result = gate_report(cur, base, gate_pct=10.0)
        assert not result.failed
        assert [e.regressed for e in result.entries] == [False, False]

    def test_regression_fails(self):
        base = _bench_payload(msa=1000.0)
        cur = _bench_payload(msa=800.0)
        result = gate_report(cur, base, gate_pct=10.0)
        assert result.failed
        assert result.regressions == ["msa"]
        assert result.entries[0].delta_pct == pytest.approx(-20.0)

    def test_missing_benchmark_fails_added_is_informational(self):
        base = _bench_payload(msa=1000.0, dropped=10.0)
        cur = _bench_payload(msa=1000.0, brand_new=5.0)
        result = gate_report(cur, base, gate_pct=10.0)
        assert result.failed
        assert result.missing == ["dropped"]
        assert result.added == ["brand_new"]

    def test_history_appends(self, tmp_path):
        ledger = tmp_path / "hist.jsonl"
        payload = _bench_payload(msa=1000.0)
        append_history(ledger, payload)
        gate = gate_report(payload, payload, gate_pct=10.0)
        append_history(ledger, payload, gate)
        lines = [json.loads(line) for line in
                 ledger.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["gate"] is None
        assert lines[1]["gate"]["failed"] is False
        assert lines[1]["benchmarks"]["msa"]["throughput"] == 1000.0

    def test_load_report_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(ObsError, match="not a repro-bench report"):
            load_report(path)
        missing = tmp_path / "none.json"
        with pytest.raises(ObsError, match="cannot read"):
            load_report(missing)


# ---------------------------------------------------------------------------
# CLI integration: store + diff as the determinism gate
# ---------------------------------------------------------------------------


class TestCli:
    MC = ["montecarlo", "--mixes", "4", "--accesses", "3000",
          "--scale", "32", "--epoch", "150000"]

    @pytest.fixture(scope="class")
    def traced_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-runs")
        serial = root / "serial.jsonl"
        parallel = root / "parallel.jsonl"
        store = root / "store"
        assert cli_main(self.MC + ["--trace", str(serial),
                                   "--store", str(store)]) == 0
        assert cli_main(self.MC + ["--jobs", "2",
                                   "--trace", str(parallel)]) == 0
        return root

    def test_store_and_runs_queries(self, traced_runs, capsys):
        store = str(traced_runs / "store")
        assert cli_main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "montecarlo-" in out
        run_id = next(
            word for line in out.splitlines() for word in line.split()
            if word.startswith("montecarlo-")
        )
        assert cli_main(["runs", "show", run_id, "--store", store]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["headline"]["mixes"] == 4
        assert manifest["trace"] == "trace.jsonl"

    def test_serial_vs_parallel_diff_gate(self, traced_runs, capsys):
        code = cli_main(["diff", str(traced_runs / "serial.jsonl"),
                         str(traced_runs / "parallel.jsonl")])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_diff_resolves_stored_run_ids(self, traced_runs, capsys):
        store = str(traced_runs / "store")
        cli_main(["runs", "list", "--store", store])
        out = capsys.readouterr().out
        run_id = next(
            word for line in out.splitlines() for word in line.split()
            if word.startswith("montecarlo-")
        )
        assert cli_main(["diff", run_id, str(traced_runs / "parallel.jsonl"),
                         "--store", store]) == 0

    def test_diff_exits_nonzero_on_divergence(self, traced_runs, capsys):
        perturbed = traced_runs / "perturbed.jsonl"
        events = read_jsonl(traced_runs / "serial.jsonl")
        events = [dict(e) for e in events]
        victim = next(e for e in events if e["type"] == "mc_point")
        victim["ways"] = [w + 1 for w in victim["ways"]]
        write_jsonl(perturbed, events)
        code = cli_main(["diff", str(traced_runs / "serial.jsonl"),
                         str(perturbed)])
        assert code == 1
        assert "FIRST DIVERGENCE" in capsys.readouterr().out

    def test_watch_once(self, traced_runs, capsys):
        assert cli_main(["watch", str(traced_runs / "serial.jsonl"),
                         "--once"]) == 0
        out = capsys.readouterr().out
        assert "progress: 4/4" in out

    def test_untraced_store_archives_without_trace(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert cli_main(self.MC + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert cli_main(["runs", "list", "--store", str(store)]) == 0
        assert "-" in capsys.readouterr().out  # trace column shows none


# ---------------------------------------------------------------------------
# per-epoch time series
# ---------------------------------------------------------------------------


def _snapshot_stream():
    """A two-epoch trace with snapshots, decisions, guard/skip activity."""
    t = Tracer()
    t.emit_run_meta("simulate", detail="series test")
    t.emit(
        "epoch_decision", time=100.0, epoch=0, algorithm="bank-aware",
        policy="bank-aware", ways=[4, 12], projected_misses=[10.0, 20.0],
    )
    t.emit("guard_action", time=110.0, epoch=0, kind="fallback",
           detail="x", mode="equal-share")
    t.emit(
        "bank_snapshot", time=120.0, epoch=0, hits=[50, 70], misses=[10, 30],
        occupancy=[32, 32], queue_served=[60, 100], queue_delay=[30.0, 400.0],
        migrations=5, writebacks=2, core_hits=[80, 40], core_misses=[20, 20],
    )
    t.emit("epoch_skip", time=180.0, epoch=1, reason="warmup")
    t.emit(
        "bank_snapshot", time=200.0, epoch=1, hits=[90, 120],
        misses=[20, 40], occupancy=[32, 32], queue_served=[110, 160],
        queue_delay=[55.0, 700.0], migrations=9, writebacks=4,
        core_hits=[150, 90], core_misses=[30, 40],
    )
    return t.events


class TestSeries:
    def test_rows_carry_windowed_deltas(self):
        from repro.obs import build_series

        payload = build_series(_snapshot_stream())
        assert payload["format"] == "repro-timeseries"
        table = payload["schemes"][""]
        assert table["rows"] == 2
        cols = table["columns"]
        # first row is absolute, second the delta since the first snapshot
        assert cols["bank_accesses.b0"] == [60, 50]
        assert cols["bank_accesses.b1"] == [100, 60]
        # mean queue delay = delay delta / served delta
        assert cols["bank_queue_delay.b0"] == [0.5, 0.5]
        assert cols["bank_queue_delay.b1"] == [4.0, 5.0]
        assert cols["migrations"] == [5, 4]
        assert cols["writebacks"] == [2, 2]
        # per-core miss rate from the windowed core counters
        assert cols["core_miss_rate.c0"] == [0.2, 0.125]
        assert cols["core_miss_rate.c1"] == [pytest.approx(1 / 3),
                                             pytest.approx(2 / 7)]
        # the latest installed decision labels both rows
        assert cols["ways.c0"] == [4, 4]
        assert cols["ways.c1"] == [12, 12]
        assert cols["policy"] == ["bank-aware", "bank-aware"]
        # per-row action windows reset after each snapshot
        assert cols["guard_actions"] == [1, 0]
        assert cols["epoch_skips"] == [0, 1]

    def test_series_ignores_streams_without_snapshots(self):
        from repro.obs import build_series

        assert build_series(_decision_stream())["schemes"] == {}

    def test_bytes_are_insertion_order_independent(self):
        from repro.obs import build_series, series_to_bytes

        payload = build_series(_snapshot_stream())
        shuffled = {k: payload[k] for k in reversed(list(payload))}
        assert series_to_bytes(payload) == series_to_bytes(shuffled)
        # and stable across calls (pinned gzip header, canonical JSON)
        assert series_to_bytes(payload) == series_to_bytes(payload)

    def test_write_load_round_trip_and_damage(self, tmp_path):
        from repro.obs import build_series, load_series, write_series

        payload = build_series(_snapshot_stream())
        path = tmp_path / "timeseries.json.gz"
        write_series(path, payload)
        assert load_series(path) == payload
        path.write_bytes(path.read_bytes()[:20])  # torn file
        with pytest.raises(ObsError, match="time series"):
            load_series(path)

    def test_validate_series_catches_misalignment(self):
        from repro.obs import build_series, validate_series

        payload = json.loads(json.dumps(build_series(_snapshot_stream())))
        assert validate_series(payload) == []
        payload["schemes"][""]["columns"]["migrations"].append(0)
        assert any("migrations" in p for p in validate_series(payload))
        assert validate_series({"format": "nope"})
        assert validate_series([1, 2]) == [
            "series payload is not a JSON object"
        ]

    def test_sidecar_identical_across_backends(self):
        from repro.obs import build_series, series_to_bytes
        from repro.sim.runner import RunSettings, run_mix
        from repro.workloads.mixes import TABLE_III_SETS

        def run(backend):
            result = run_mix(
                TABLE_III_SETS[0], "bank-aware", CFG,
                RunSettings(duration_cycles=450_000.0, seed=3, trace=True,
                            sim_backend=backend),
            )
            return series_to_bytes(build_series(result.events))

        assert run("reference") == run("batched")

    def test_sidecar_identical_across_jobs(self):
        from repro.obs import build_series, series_to_bytes
        from repro.sim.runner import RunSettings, compare_schemes
        from repro.workloads.mixes import TABLE_III_SETS

        def run(jobs):
            tracer = Tracer()
            tracer.emit_run_meta("compare", detail="series jobs gate")
            compare_schemes(
                TABLE_III_SETS[0], CFG,
                RunSettings(duration_cycles=450_000.0, seed=3, trace=True),
                schemes=("equal-partitions", "bank-aware"), jobs=jobs,
                tracer=tracer,
            )
            return series_to_bytes(build_series(tracer.events))

        assert run(1) == run(2)

    def test_store_archives_the_sidecar(self, tmp_path):
        from repro.obs import load_series

        store = RunStore(tmp_path / "runs")
        record = store.archive(
            source="simulate", config=CFG, trace_events=_snapshot_stream(),
        )
        assert record.manifest["timeseries"] == "timeseries.json.gz"
        assert record.manifest["timeseries_epochs"] == 2
        assert record.series_path.is_file()
        assert load_series(record.series_path)["schemes"][""]["rows"] == 2
        # a snapshot-free stream archives without a sidecar
        bare = store.archive(
            source="montecarlo", config=CFG, trace_events=_decision_stream(),
        )
        assert bare.manifest["timeseries"] is None
        assert bare.series_path is None


# ---------------------------------------------------------------------------
# cross-run analytics
# ---------------------------------------------------------------------------


class TestAnalytics:
    def test_exact_quantile_is_nearest_rank(self):
        from repro.obs import exact_quantile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert exact_quantile(values, 0.5) == 3.0
        assert exact_quantile(values, 0.95) == 5.0
        assert exact_quantile(values, 1.0) == 5.0
        assert exact_quantile([7.0], 0.5) == 7.0
        with pytest.raises(ObsError, match="quantile"):
            exact_quantile(values, 0.0)
        with pytest.raises(ObsError, match="empty"):
            exact_quantile([], 0.5)

    def test_series_stats_select_and_goldens(self):
        from repro.obs import (
            build_series,
            render_stats_csv,
            render_stats_json,
            series_stats,
        )

        payload = build_series(_snapshot_stream())
        rows = series_stats(payload, select="migrations")
        assert [r["column"] for r in rows] == ["migrations"]
        row = rows[0]
        assert (row["count"], row["min"], row["max"]) == (2, 4.0, 5.0)
        assert row["mean"] == 4.5
        assert row["p50"] == 4.0  # nearest rank of [4, 5]
        assert row["last"] == 4.0
        # glob selection
        globbed = series_stats(payload, select="ways.*")
        assert [r["column"] for r in globbed] == ["ways.c0", "ways.c1"]
        # non-numeric columns (policy) never produce rows
        assert not series_stats(payload, select="policy")
        # deterministic renderers: byte-stable across calls
        assert render_stats_csv(rows) == render_stats_csv(rows)
        assert render_stats_csv(rows).splitlines()[0] == (
            "scheme,column,count,min,max,mean,p50,p95,last"
        )
        assert json.loads(render_stats_json(rows)) == rows

    def test_resolve_series_paths_and_store(self, tmp_path):
        from repro.obs import build_series, resolve_series, write_series

        store = RunStore(tmp_path / "runs")
        payload = build_series(_snapshot_stream())
        gz = tmp_path / "s.json.gz"
        write_series(gz, payload)
        assert resolve_series(str(gz), store) == payload
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, _snapshot_stream())
        assert resolve_series(str(trace), store) == payload
        record = store.archive(
            source="simulate", config=CFG, trace_events=_snapshot_stream(),
        )
        assert resolve_series(record.run_id, store) == payload
        bare = store.archive(source="montecarlo", config=CFG)
        with pytest.raises(ObsError, match="neither"):
            resolve_series(bare.run_id, store)

    @staticmethod
    def _record(run_id, **manifest):
        from pathlib import Path

        from repro.obs import RunRecord

        base = {
            "created": "2026-08-01T00:00:00Z", "source": "simulate",
            "config_fingerprint": "aabbccdd00112233",
            "workloads": ["bzip2"], "headline": {},
        }
        return RunRecord(run_id, Path("/nonexistent") / run_id,
                         {**base, **manifest})

    def test_query_runs_filters(self):
        from repro.obs import query_runs

        records = [
            self._record("r1", source="simulate",
                         created="2026-07-01T00:00:00Z",
                         headline={"miss_rate": 0.25}),
            self._record("r2", source="compare",
                         created="2026-08-01T12:00:00Z",
                         workloads=["mcf", "art"],
                         headline={"schemes": {
                             "bank-aware": {"relative_miss_rate": 0.8},
                             "no-partitions": {"relative_miss_rate": 1.0},
                         }}),
            self._record("r3", source="montecarlo",
                         created="2026-08-05T00:00:00Z",
                         config_fingerprint="ffee000011223344",
                         headline={"mean_bank_aware_ratio": 0.9,
                                   "mixes": 40}),
        ]

        def ids(**kw):
            return [r.run_id for r in query_runs(records, **{
                "source": None, "scheme": None, "workload": None,
                "fingerprint": None, "since": None, "until": None, **kw,
            })]

        assert ids() == ["r1", "r2", "r3"]
        assert ids(source="compare") == ["r2"]
        assert ids(scheme="bank-aware") == ["r2"]
        assert ids(workload="mcf") == ["r2"]
        assert ids(workload="bzip") == ["r1", "r3"]
        assert ids(fingerprint="aabb") == ["r1", "r2"]
        assert ids(since="2026-08") == ["r2", "r3"]
        assert ids(until="2026-07") == ["r1"]
        assert ids(since="2026-08", until="2026-08-04") == ["r2"]

    def test_runs_query_rows_and_renderer(self):
        from repro.obs import render_runs_query_text, runs_query_rows

        rows = runs_query_rows([
            self._record("r2", headline={"schemes": {
                "bank-aware": {"relative_miss_rate": 0.8},
            }}),
            self._record("r3", headline={"mean_bank_aware_ratio": 0.9,
                                         "mixes": 40}),
            self._record("r4", headline={}),
        ])
        assert rows[0]["fingerprint"] == "aabbccdd"
        assert rows[0]["headline"] == "bank-aware=0.800"
        assert rows[1]["headline"] == "bank_aware=0.900 over 40 mixes"
        assert rows[2]["headline"] == "-"
        text = render_runs_query_text(rows)
        assert "Stored runs (3 matched)" in text
        assert render_runs_query_text([]) == "no stored runs matched"

    @staticmethod
    def _bench_report(throughput, span_self):
        return {
            "format": "repro-bench", "version": 1,
            "benchmarks": [
                {"name": "detailed_epoch", "throughput": throughput * 2,
                 "meta": {}},
                {"name": "detailed_epoch_spans", "throughput": throughput,
                 "meta": {"span_self_s": span_self}},
            ],
        }

    def test_attribute_delta_finds_the_mover(self):
        from repro.obs import attribute_delta, render_attribution_text

        old = self._bench_report(100.0, {
            "run": 5.0, "run/install": 3.0, "run/policy.decide": 2.0,
        })
        new = self._bench_report(80.0, {
            "run": 5.0, "run/install": 3.0, "run/policy.decide": 8.0,
        })
        result = attribute_delta(old, new)
        assert result["delta_pct"] == pytest.approx(-20.0)
        assert result["mover"] == "run/policy.decide"
        shifts = {p["path"]: p["share_shift"] for p in result["phases"]}
        assert shifts["run/policy.decide"] == pytest.approx(0.3)
        assert shifts["run"] == pytest.approx(-0.1875)
        assert shifts["run/install"] == pytest.approx(-0.1125)
        text = render_attribution_text(result)
        assert "run/policy.decide" in text
        assert "-20.0%" in text

    def test_attribute_delta_requires_a_span_profile(self):
        from repro.obs import attribute_delta

        bare = {"format": "repro-bench", "version": 1, "benchmarks": []}
        with pytest.raises(ObsError, match="no span profile"):
            attribute_delta(bare, bare)


class TestWatchMetrics:
    def test_view_tracks_latest_series_row(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, _snapshot_stream())
        view = WatchView(metrics=True)
        view.update(TailReader(path).poll())
        lines = view.render_metrics()
        assert len(lines) == 1
        assert "epoch 1" in lines[0]
        assert "miss=0.125/0.286" in lines[0]
        assert "peak bank delay=5.00cyc" in lines[0]
        assert "ways=4/12" in lines[0]
        assert "migr=4" in lines[0]
        assert lines[0] in view.render()

    def test_metrics_off_by_default(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, _snapshot_stream())
        view = WatchView()
        view.update(TailReader(path).poll())
        assert view.series_state == {}
        assert "metrics" not in view.render()

    def test_reset_clears_series_state(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, _snapshot_stream())
        reader, view = TailReader(path), WatchView(metrics=True)
        view.update(reader.poll())
        assert view.series_state
        write_jsonl(path, _decision_stream())  # atomic replace, no snapshots
        chunk = reader.poll()
        assert chunk.reset
        view.update(chunk)
        assert all(st["latest"] is None for st in view.series_state.values())


class TestCliObsV2:
    SIM = ["simulate", "--set", "1", "--duration", "450000",
           "--scale", "32", "--epoch", "150000", "--seed", "3"]

    @pytest.fixture(scope="class")
    def spanned_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs-v2")
        store = root / "store"
        assert cli_main(self.SIM + ["--trace", str(root / "spanned.jsonl"),
                                    "--spans", "--store", str(store)]) == 0
        assert cli_main(self.SIM + ["--trace", str(root / "plain.jsonl")]) == 0
        return root

    def test_spans_require_tracing(self):
        with pytest.raises(SystemExit, match="--trace"):
            cli_main(self.SIM + ["--spans"])

    def test_spanned_trace_is_canonically_identical(self, spanned_runs,
                                                    capsys):
        assert cli_main(["diff", str(spanned_runs / "spanned.jsonl"),
                         str(spanned_runs / "plain.jsonl")]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_report_spans_reconciles(self, spanned_runs, capsys):
        assert cli_main(["report", str(spanned_runs / "spanned.jsonl"),
                         "--spans"]) == 0
        out = capsys.readouterr().out
        assert "reconciles with root-span wall total" in out
        assert "run/policy.decide" in out
        assert "run/install" in out

    def test_stats_trace_and_run_id_agree(self, spanned_runs, capsys):
        store = str(spanned_runs / "store")
        assert cli_main(["runs", "list", "--store", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["run_id"].startswith("simulate-")
        run_id = rows[0]["run_id"]

        assert cli_main(["stats", str(spanned_runs / "spanned.jsonl"),
                         "--format", "csv"]) == 0
        from_trace = capsys.readouterr().out
        assert cli_main(["stats", run_id, "--store", store,
                         "--format", "csv"]) == 0
        assert capsys.readouterr().out == from_trace
        assert from_trace.splitlines()[0] == (
            "scheme,column,count,min,max,mean,p50,p95,last"
        )
        assert any(line.startswith(",core_miss_rate.c0,")
                   for line in from_trace.splitlines())

    def test_stats_select_and_json(self, spanned_runs, capsys):
        assert cli_main(["stats", str(spanned_runs / "spanned.jsonl"),
                         "--select", "ways.*", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(r["column"].startswith("ways.") for r in rows)
        assert cli_main(["stats", str(spanned_runs / "spanned.jsonl"),
                         "--select", "migrations"]) == 0
        out = capsys.readouterr().out
        assert "Per-epoch series stats" in out and "migrations" in out

    def test_runs_query_filters_from_cli(self, spanned_runs, capsys):
        store = str(spanned_runs / "store")
        assert cli_main(["runs", "query", "--store", store,
                         "--source", "simulate", "--workload", "galgel"]) == 0
        out = capsys.readouterr().out
        assert "Stored runs (1 matched)" in out
        assert cli_main(["runs", "query", "--store", store,
                         "--source", "montecarlo"]) == 0
        assert "no stored runs matched" in capsys.readouterr().out
        assert cli_main(["runs", "query", "--store", store, "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_watch_metrics_from_cli(self, spanned_runs, capsys):
        assert cli_main(["watch", str(spanned_runs / "spanned.jsonl"),
                         "--once", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out and "ways=" in out

    def test_bench_attribute_from_cli(self, tmp_path, capsys):
        def report(path, throughput, decide):
            path.write_text(json.dumps({
                "format": "repro-bench", "version": 1, "benchmarks": [
                    {"name": "detailed_epoch_spans",
                     "throughput": throughput,
                     "meta": {"span_self_s": {"run": 4.0,
                                              "run/install": 2.0,
                                              "run/policy.decide": decide}}},
                ],
            }))
            return str(path)

        old = report(tmp_path / "old.json", 100.0, 1.0)
        new = report(tmp_path / "new.json", 90.0, 5.0)
        assert cli_main(["bench", "--attribute", old, new]) == 0
        out = capsys.readouterr().out
        assert "largest phase shift: run/policy.decide" in out
        assert "-10.0%" in out

    def test_bench_attribute_requires_span_profile(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"format": "repro-bench", "version": 1,
                                    "benchmarks": []}))
        assert cli_main(["bench", "--attribute", str(bare), str(bare)]) == 2
        assert "no span profile" in capsys.readouterr().err
