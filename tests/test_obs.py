"""The read side of ``repro.obs``: store, diff, series, analytics, and
their CLI surface.

The load-bearing contracts: a stored run's manifest binds results to
their provenance; ``repro diff`` finds the *first* canonical divergence
and exits non-zero on any (making it the serial-vs-parallel determinism
gate); a damaged trace is a typed error, never a traceback; and the
emitting side a simulation imports loads none of this.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.config import scaled_config
from repro.obs import ObsError, Tracer, read_jsonl, write_jsonl
from repro.obs.diff import diff_traces, render_diff_text
from repro.obs.store import RunStore, config_fingerprint

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
        assert "metrics" not in manifest
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

    def test_non_utf8_manifest_is_skipped_or_obs_error(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        good = store.archive(source="simulate", config=CFG)
        bad = tmp_path / "runs" / "broken"
        bad.mkdir()
        (bad / "manifest.json").write_bytes(b"\xff")
        assert [r.run_id for r in store.list()] == [good.run_id]
        with pytest.raises(ObsError, match="unreadable manifest"):
            store.get("broken")

    def test_manifest_with_a_null_metrics_key_lists_and_shows(
        self, tmp_path, capsys
    ):
        """Manifests archived while ``archive`` took ``metrics=`` carry
        ``"metrics": null``; they still list and show."""
        store = tmp_path / "runs"
        run_id = "simulate-20261019-120000-aabbccdd"
        manifest = {
            "format": "repro-run-manifest", "version": 1, "run_id": run_id,
            "created_unix": 1_792_411_200.0, "created": "2026-10-19T12:00:00Z",
            "source": "simulate", "git_rev": "8267315",
            "schema_version": 1, "config_fingerprint": "aabbccdd00112233",
            "workloads": ["bzip2"] * 8, "settings": {"scheme": "bank-aware"},
            "headline": {"miss_rate": 0.25}, "metrics": None,
            "trace": None, "trace_events": None,
            "timeseries": None, "timeseries_epochs": None,
        }
        (store / run_id).mkdir(parents=True)
        (store / run_id / "manifest.json").write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        assert [r.run_id for r in RunStore(store).list()] == [run_id]
        assert cli_main(["runs", "list", "--store", str(store)]) == 0
        assert run_id in capsys.readouterr().out
        assert cli_main(["runs", "show", run_id, "--store", str(store)]) == 0
        assert json.loads(capsys.readouterr().out) == manifest

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
        for bad in ({"rel_tol": -1.0}, {"abs_tol": float("nan")}):
            with pytest.raises(ObsError, match="non-negative"):
                diff_traces(a, b, **bad)


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

    def test_runs_list_filters_by_source(self, traced_runs, capsys):
        # the store holds one montecarlo run and no compare run
        store = str(traced_runs / "store")
        assert cli_main(["runs", "list", "--store", store,
                         "--source", "compare"]) == 0
        out = capsys.readouterr().out
        assert "montecarlo-" not in out
        assert "no stored runs matched" in out
        assert cli_main(["runs", "list", "--store", store,
                         "--source", "compare", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

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
        from repro.obs.series import build_series

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
        from repro.obs.series import build_series

        assert build_series(_decision_stream())["schemes"] == {}

    def test_bytes_are_insertion_order_independent(self):
        from repro.obs.series import build_series, series_to_bytes

        payload = build_series(_snapshot_stream())
        shuffled = {k: payload[k] for k in reversed(list(payload))}
        assert series_to_bytes(payload) == series_to_bytes(shuffled)
        # and stable across calls (pinned gzip header, canonical JSON)
        assert series_to_bytes(payload) == series_to_bytes(payload)

    def test_write_load_round_trip_and_damage(self, tmp_path):
        from repro.obs.series import build_series, load_series, write_series

        payload = build_series(_snapshot_stream())
        path = tmp_path / "timeseries.json.gz"
        write_series(path, payload)
        assert load_series(path) == payload
        path.write_bytes(path.read_bytes()[:20])  # torn file
        with pytest.raises(ObsError, match="time series"):
            load_series(path)

    def test_validate_series_catches_misalignment(self):
        from repro.obs.series import build_series, validate_series

        payload = json.loads(json.dumps(build_series(_snapshot_stream())))
        assert validate_series(payload) == []
        payload["schemes"][""]["columns"]["migrations"].append(0)
        assert any("migrations" in p for p in validate_series(payload))
        assert validate_series({"format": "nope"})
        assert validate_series([1, 2]) == [
            "series payload is not a JSON object"
        ]

    def test_sidecar_identical_across_backends(self):
        from repro.obs.series import build_series, series_to_bytes
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
        from repro.obs.series import build_series, series_to_bytes
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
        from repro.obs.series import load_series

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
        from repro.obs.analytics import exact_quantile

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
        from repro.obs.analytics import (
            render_stats_csv,
            render_stats_json,
            series_stats,
        )
        from repro.obs.series import build_series

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
        from repro.obs.analytics import resolve_series
        from repro.obs.series import build_series, write_series

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
        from repro.obs.store import RunRecord

        base = {
            "created": "2026-08-01T00:00:00Z", "source": "simulate",
            "config_fingerprint": "aabbccdd00112233",
            "workloads": ["bzip2"], "headline": {},
        }
        return RunRecord(run_id, Path("/nonexistent") / run_id,
                         {**base, **manifest})

    def test_query_runs_filters(self):
        from repro.obs.analytics import query_runs

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
        from repro.obs.analytics import render_runs_query_text, runs_query_rows

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


class TestCliObsV2:
    SIM = ["simulate", "--set", "1", "--duration", "450000",
           "--scale", "32", "--epoch", "150000", "--seed", "3"]

    @pytest.fixture(scope="class")
    def stored_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs-v2")
        assert cli_main(self.SIM + ["--trace", str(root / "run.jsonl"),
                                    "--store", str(root / "store")]) == 0
        return root

    def test_stats_trace_and_run_id_agree(self, stored_run, capsys):
        store = str(stored_run / "store")
        assert cli_main(["runs", "list", "--store", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["run_id"].startswith("simulate-")
        run_id = rows[0]["run_id"]

        assert cli_main(["stats", str(stored_run / "run.jsonl"),
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

    def test_stats_select_and_json(self, stored_run, capsys):
        assert cli_main(["stats", str(stored_run / "run.jsonl"),
                         "--select", "ways.*", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(r["column"].startswith("ways.") for r in rows)
        assert cli_main(["stats", str(stored_run / "run.jsonl"),
                         "--select", "migrations"]) == 0
        out = capsys.readouterr().out
        assert "Per-epoch series stats" in out and "migrations" in out

    def test_runs_query_filters_from_cli(self, stored_run, capsys):
        store = str(stored_run / "store")
        assert cli_main(["runs", "list", "--store", store,
                         "--source", "simulate", "--workload", "galgel"]) == 0
        out = capsys.readouterr().out
        assert "Stored runs (1 matched)" in out
        assert cli_main(["runs", "list", "--store", store,
                         "--source", "montecarlo"]) == 0
        assert "no stored runs matched" in capsys.readouterr().out
        assert cli_main(["runs", "list", "--store", store, "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1


# ---------------------------------------------------------------------------
# damaged traces and the import contract
# ---------------------------------------------------------------------------

#: a trace holding nothing but a bare ``bank_snapshot``
BARE_SNAPSHOT = [{"type": "bank_snapshot", "seq": 0}]

#: a header and a ``bank_snapshot`` whose per-bank lists disagree: two
#: banks of hits, one bank of served port-queue requests
RAGGED_SNAPSHOT = [
    {"type": "run_meta", "seq": 0, "schema_version": 1,
     "source": "simulate"},
    {"type": "bank_snapshot", "seq": 1, "time": 10.0, "epoch": 0,
     "hits": [5, 6], "misses": [1, 2], "occupancy": [3, 4],
     "queue_served": [6], "queue_delay": [0.5, 0.5],
     "migrations": 0, "writebacks": 0},
]


@pytest.mark.parametrize(
    "events, seq, problem",
    [
        (BARE_SNAPSHOT, 0, "missing required field 'time'"),
        (RAGGED_SNAPSHOT, 1, "fields of unequal length"),
    ],
    ids=["bare", "ragged"],
)
def test_damaged_trace_is_a_typed_error(events, seq, problem, tmp_path,
                                        capsys):
    trace = tmp_path / "bad.jsonl"
    write_jsonl(trace, events)
    assert cli_main(["stats", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace event seq {seq}: ")
    assert problem in err
    assert cli_main(["report", str(trace), "--check"]) == 1
    assert problem in capsys.readouterr().err


#: a header and a ``bank_snapshot`` whose per-bank ``hits`` is a string
STRING_HITS = [
    {"type": "run_meta", "seq": 0, "schema_version": 1,
     "source": "simulate"},
    {"type": "bank_snapshot", "seq": 1, "time": 10.0, "epoch": 0,
     "hits": "xy", "misses": [1, 2], "occupancy": [3, 4],
     "queue_served": [6, 7], "queue_delay": [0.5, 0.5],
     "migrations": 0, "writebacks": 0},
]


@pytest.mark.parametrize(
    "argv",
    [["stats", "T"], ["report", "T"], ["report", "T", "--format", "json"],
     ["diff", "T", "T"]],
    ids=["stats", "report", "report-json", "diff"],
)
def test_every_trace_fold_rejects_a_damaged_event(argv, tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    write_jsonl(trace, STRING_HITS)
    rc = cli_main([str(trace) if arg == "T" else arg for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: trace event seq 1: bank_snapshot.hits: "
                          "expected list/tuple, got str")
    assert "Traceback" not in err


def test_emit_side_imports_no_read_side():
    # a fresh interpreter, since this one has imported the read side; it
    # runs the bench's import chain against this process's package
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys\n"
        "import repro.sim.runner, repro.analysis.montecarlo, "
        "repro.analysis.experiments\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro.obs'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    ).stdout
    loaded = set(json.loads(out))
    assert "repro.obs.tracer" in loaded
    read_side = {f"repro.obs.{name}" for name in
                 ("store", "diff", "series", "analytics", "chrome")}
    assert not loaded & read_side
