"""Trace and cross-run analytics: digest traces, query time series and
the run store.

Three read-side tools over artifacts the rest of the stack already
produces:

* :func:`epoch_digest` + renderers — ``repro report <trace>``: which
  epoch installed which way vector, where the guard fell back, how bank
  counters moved between epochs and how sweep items spent their wall
  time;
* :func:`series_stats` + renderers — ``repro stats <run|trace>``:
  aggregate/quantile any column of a per-epoch time series
  (:mod:`repro.obs.series`), as text, JSON or CSV;
* :func:`query_runs` + renderers — ``repro runs query``: filter stored
  runs by source/scheme/workload/config-fingerprint/date and tabulate
  their headline metrics.

Everything here is deterministic given its inputs: quantiles are exact
nearest-rank over the stored values (no histogram estimation), rows sort
on stable keys, and JSON output is ``sort_keys`` canonical — which is
what lets golden tests assert the rendered output verbatim.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter as TallyCounter
from collections.abc import Iterable, Mapping, Sequence
from fnmatch import fnmatchcase
from pathlib import Path

from repro.obs.errors import ObsError
from repro.obs.series import build_series, load_series
from repro.obs.store import RunRecord, RunStore

#: the quantiles ``repro stats`` reports per column.
STAT_QUANTILES = (0.5, 0.95)


# -- trace digests -------------------------------------------------------------


def epoch_digest(events: Sequence[Mapping]) -> dict:
    """Structured per-epoch digest of one trace stream.

    Events are grouped by their ``scheme`` tag (untagged events group under
    ``""``); within each scheme the decisions, skips and guard actions are
    keyed by epoch, and bank snapshots report the *delta* of migrations and
    writebacks since the previous snapshot of that scheme.
    """
    schemes: dict[str, dict] = {}
    counts: TallyCounter = TallyCounter()
    meta: list[dict] = []
    for event in events:
        etype = event.get("type", "?")
        counts[etype] += 1
        if etype == "run_meta":
            meta.append(
                {k: v for k, v in event.items() if k not in ("type", "seq")}
            )
            continue
        scheme = schemes.setdefault(
            str(event.get("scheme", "")),
            {"epochs": {}, "guard": [], "snapshots": [], "sweep": []},
        )
        if etype in ("epoch_decision", "epoch_skip"):
            record = scheme["epochs"].setdefault(
                int(event.get("epoch", -1)), {}
            )
            record.update(
                {k: v for k, v in event.items() if k not in ("type", "seq")}
            )
            record["installed"] = etype == "epoch_decision"
        elif etype == "guard_action":
            scheme["guard"].append(
                {k: v for k, v in event.items() if k not in ("type", "seq")}
            )
        elif etype == "bank_snapshot":
            previous = (
                scheme["snapshots"][-1] if scheme["snapshots"] else None
            )
            snap = {k: v for k, v in event.items() if k not in ("type", "seq")}
            snap["migrations_delta"] = snap.get("migrations", 0) - (
                previous.get("migrations", 0) if previous else 0
            )
            snap["writebacks_delta"] = snap.get("writebacks", 0) - (
                previous.get("writebacks", 0) if previous else 0
            )
            scheme["snapshots"].append(snap)
        elif etype in ("sweep_item", "mc_point"):
            scheme["sweep"].append(
                {k: v for k, v in event.items() if k not in ("type", "seq")}
            )
    return {
        "event_counts": dict(sorted(counts.items())),
        "run_meta": meta,
        "schemes": schemes,
    }


def render_digest_json(events: Sequence[Mapping]) -> str:
    """The digest as pretty-printed JSON."""
    return json.dumps(epoch_digest(events), indent=2, sort_keys=True)


def render_digest_text(events: Sequence[Mapping]) -> str:
    """The digest as aligned monospace tables."""
    from repro.analysis.report import format_table

    digest = epoch_digest(events)
    blocks: list[str] = []
    counts = digest["event_counts"]
    blocks.append(
        format_table(
            ["event type", "count"],
            sorted(counts.items()),
            title="Trace summary",
        )
    )
    for meta in digest["run_meta"]:
        line = f"run: source={meta.get('source')}"
        if meta.get("detail"):
            line += f" ({meta['detail']})"
        if meta.get("scheme"):
            line += f" [scheme {meta['scheme']}]"
        blocks.append(line)
    for scheme, data in digest["schemes"].items():
        label = f" [{scheme}]" if scheme else ""
        if data["epochs"]:
            rows = []
            for epoch in sorted(data["epochs"]):
                rec = data["epochs"][epoch]
                if rec.get("installed"):
                    detail = (
                        f"ways={rec.get('ways')} "
                        f"centers={rec.get('center_banks', '-')} "
                        f"pairs={rec.get('pairs', '-')}"
                    )
                    projected = rec.get("projected_misses") or []
                    misses = f"{sum(projected):,.0f}"
                else:
                    detail = f"skipped: {rec.get('reason')}"
                    misses = "-"
                rows.append(
                    (epoch, f"{rec.get('time', 0):,.0f}",
                     "yes" if rec.get("installed") else "no", misses, detail)
                )
            blocks.append(
                format_table(
                    ["epoch", "time", "installed", "proj. misses",
                     "decision"],
                    rows,
                    title=f"Epoch decisions{label}",
                )
            )
        if data["guard"]:
            rows = [
                (g.get("epoch", "-"), f"{g.get('time', 0):,.0f}",
                 g.get("kind"), g.get("mode"), g.get("detail"))
                for g in data["guard"]
            ]
            blocks.append(
                format_table(
                    ["epoch", "time", "action", "mode", "detail"], rows,
                    title=f"Guard ladder{label}",
                )
            )
        if data["snapshots"]:
            rows = [
                (s.get("epoch"), f"{s.get('time', 0):,.0f}",
                 sum(s.get("hits", [])), sum(s.get("misses", [])),
                 sum(s.get("occupancy", [])), s["migrations_delta"],
                 s["writebacks_delta"])
                for s in data["snapshots"]
            ]
            blocks.append(
                format_table(
                    ["epoch", "time", "hits", "misses", "resident",
                     "migr. delta", "wb delta"],
                    rows,
                    title=f"Bank snapshots{label} (totals across banks)",
                )
            )
        items = [s for s in data["sweep"] if "wall_s" in s]
        if items:
            total_wall = sum(s.get("wall_s", 0.0) for s in items)
            slowest = max(items, key=lambda s: s.get("wall_s", 0.0))
            blocks.append(
                f"sweep{label}: {len(items)} items, "
                f"{total_wall:.3f}s total item-wall, slowest "
                f"{slowest.get('label')} at {slowest.get('wall_s', 0.0):.3f}s"
            )
    return "\n\n".join(blocks)


# -- time-series statistics ---------------------------------------------------


def resolve_series(spec: str, store: RunStore) -> dict:
    """A series payload from a run id, a sidecar path, or a trace path.

    A stored run uses its archived sidecar when present (falling back to
    building from its trace); a filesystem path is loaded as a sidecar
    when it ends in ``.gz``, otherwise parsed as a JSONL trace and built
    on the fly.
    """
    candidate = Path(spec)
    if candidate.is_file():
        if candidate.name.endswith(".gz"):
            return load_series(candidate)
        from repro.telemetry.tracer import read_jsonl

        return build_series(read_jsonl(candidate))
    record = store.get(spec)
    series = record.series_path
    if series is not None and series.is_file():
        return load_series(series)
    trace = record.trace_path
    if trace is None or not trace.is_file():
        raise ObsError(
            f"run {spec!r} has neither a time-series sidecar nor a trace"
        )
    from repro.telemetry.tracer import read_jsonl

    return build_series(read_jsonl(trace))


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 < q <= 1), exact."""
    if not 0.0 < q <= 1.0:
        raise ObsError(f"quantile must be in (0, 1], got {q}")
    if not values:
        raise ObsError("quantile of an empty series")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _numeric(values: Iterable[object]) -> list[float]:
    """The numeric, non-null cells of one column (bool is not numeric)."""
    return [
        float(v) for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]


def series_stats(payload: Mapping, select: str | None = None) -> list[dict]:
    """Aggregate rows — one per (scheme, numeric column) — of a series.

    ``select`` filters column names: a substring match, or a glob when it
    contains wildcard characters (``ways.*``).  Columns with no numeric
    cells (e.g. ``policy``) are skipped.  Rows sort by (scheme, column).
    """
    rows = []
    for scheme in sorted(payload.get("schemes", {})):
        table = payload["schemes"][scheme]
        for name in sorted(table["columns"]):
            if select:
                if any(ch in select for ch in "*?["):
                    if not fnmatchcase(name, select):
                        continue
                elif select not in name:
                    continue
            values = _numeric(table["columns"][name])
            if not values:
                continue
            row = {
                "scheme": scheme,
                "column": name,
                "count": len(values),
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
                "last": values[-1],
            }
            for q in STAT_QUANTILES:
                row[f"p{int(q * 100)}"] = exact_quantile(values, q)
            rows.append(row)
    return rows


_STAT_FIELDS = ("scheme", "column", "count", "min", "max", "mean",
                "p50", "p95", "last")


def render_stats_text(rows: Sequence[Mapping], *, title: str = "") -> str:
    if not rows:
        return "no numeric series matched"
    from repro.analysis.report import format_table

    return format_table(
        list(_STAT_FIELDS),
        [[row[f] for f in _STAT_FIELDS] for row in rows],
        title=title or None,
        float_format="{:.6g}",
    )


def render_stats_json(rows: Sequence[Mapping]) -> str:
    return json.dumps(list(rows), indent=2, sort_keys=True)


def render_stats_csv(rows: Sequence[Mapping]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(_STAT_FIELDS),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({f: row[f] for f in _STAT_FIELDS})
    return buf.getvalue().rstrip("\n")


# -- run-store queries -------------------------------------------------------


def _headline_schemes(manifest: Mapping) -> list[str]:
    headline = manifest.get("headline") or {}
    schemes = headline.get("schemes")
    return sorted(schemes) if isinstance(schemes, Mapping) else []


def query_runs(
    records: Iterable[RunRecord],
    *,
    source: str | None = None,
    scheme: str | None = None,
    workload: str | None = None,
    fingerprint: str | None = None,
    since: str | None = None,
    until: str | None = None,
) -> list[RunRecord]:
    """Filter archived runs on manifest provenance.

    ``scheme`` matches comparison headlines carrying that scheme;
    ``workload`` any archived workload name (substring); ``fingerprint``
    a config-fingerprint prefix; ``since``/``until`` compare against the
    manifest's ISO-8601 ``created`` stamp lexicographically, so any
    prefix (``2026-08``) works.
    """
    out = []
    for record in records:
        manifest = record.manifest
        if source is not None and manifest.get("source") != source:
            continue
        if scheme is not None and scheme not in _headline_schemes(manifest):
            continue
        if workload is not None and not any(
            workload in name for name in (manifest.get("workloads") or [])
        ):
            continue
        if fingerprint is not None and not str(
            manifest.get("config_fingerprint", "")
        ).startswith(fingerprint):
            continue
        created = str(manifest.get("created", ""))
        if since is not None and created < since:
            continue
        if until is not None and created[:len(until)] > until:
            continue
        out.append(record)
    return out


def _headline_cell(manifest: Mapping) -> str:
    """One compact headline string per run, shape-aware."""
    headline = manifest.get("headline") or {}
    if "schemes" in headline:
        cells = []
        for scheme in sorted(headline["schemes"]):
            entry = headline["schemes"][scheme]
            rel = entry.get("relative_miss_rate")
            cells.append(
                f"{scheme}={rel:.3f}" if isinstance(rel, (int, float))
                else scheme
            )
        return " ".join(cells)
    if "miss_rate" in headline:
        return f"miss_rate={headline['miss_rate']:.4f}"
    if "mean_bank_aware_ratio" in headline:
        return (
            f"bank_aware={headline['mean_bank_aware_ratio']:.3f} "
            f"over {headline.get('mixes', '?')} mixes"
        )
    return "-"


def runs_query_rows(records: Iterable[RunRecord]) -> list[dict]:
    """Tabulated headline rows of a query result (JSON-ready)."""
    rows = []
    for record in records:
        manifest = record.manifest
        rows.append({
            "run_id": record.run_id,
            "created": manifest.get("created", "?"),
            "source": manifest.get("source", "?"),
            "fingerprint": str(
                manifest.get("config_fingerprint", "")
            )[:8],
            "workloads": ",".join(manifest.get("workloads") or []) or "-",
            "trace_events": manifest.get("trace_events"),
            "timeseries_epochs": manifest.get("timeseries_epochs"),
            "headline": _headline_cell(manifest),
        })
    return rows


def render_runs_query_text(rows: Sequence[Mapping]) -> str:
    if not rows:
        return "no stored runs matched"
    from repro.analysis.report import format_table

    headers = ("run_id", "created", "source", "config", "epochs",
               "headline")
    return format_table(
        list(headers),
        [
            [row["run_id"], row["created"], row["source"],
             row["fingerprint"],
             row["timeseries_epochs"]
             if row["timeseries_epochs"] is not None else "-",
             row["headline"]]
            for row in rows
        ],
        title=f"Stored runs ({len(rows)} matched)",
    )


__all__ = (
    "STAT_QUANTILES",
    "epoch_digest",
    "exact_quantile",
    "query_runs",
    "render_digest_json",
    "render_digest_text",
    "render_runs_query_text",
    "render_stats_csv",
    "render_stats_json",
    "render_stats_text",
    "resolve_series",
    "runs_query_rows",
    "series_stats",
)
