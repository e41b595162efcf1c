"""repro.obs — the run observatory: consumption side of the telemetry stack.

Where :mod:`repro.telemetry` *emits* (schema-stable JSONL traces, metric
snapshots), this package *consumes* across runs:

* :mod:`repro.obs.store` — archive runs with provenance (config
  fingerprint, git rev, mix, headline results, trace) under a queryable
  run store (``repro runs list|show``, ``--store`` on the run commands);
* :mod:`repro.obs.diff`  — first-divergence trace diffing with Rules 1–3
  annotations and tolerance-gated metric deltas (``repro diff``), which
  doubles as the serial-vs-parallel determinism gate;
* :mod:`repro.obs.watch` — incremental tail reading of a growing trace
  with throughput/ETA from progress heartbeats (``repro watch``);
* :mod:`repro.obs.series` — the per-epoch columnar time-series sidecar
  archived next to each stored trace (``timeseries.json.gz``),
  deterministic down to the byte;
* :mod:`repro.obs.analytics` — trace and cross-run analytics: the
  per-epoch digest behind ``repro report``, ``repro stats`` column
  aggregates and ``repro runs query`` filters.

Everything here is read-side tooling: importing or using it never touches
a simulation's hot path, so the zero-overhead-when-off contract of the
telemetry layer is untouched.
"""

from repro.obs.analytics import (
    STAT_QUANTILES,
    epoch_digest,
    exact_quantile,
    query_runs,
    render_digest_json,
    render_digest_text,
    render_runs_query_text,
    render_stats_csv,
    render_stats_json,
    render_stats_text,
    resolve_series,
    runs_query_rows,
    series_stats,
)
from repro.obs.diff import (
    DiffReport,
    Divergence,
    FieldDiff,
    MetricDelta,
    diff_traces,
    render_diff_json,
    render_diff_text,
)
from repro.obs.errors import ObsError
from repro.obs.series import (
    SERIES_FORMAT,
    SERIES_NAME,
    SERIES_VERSION,
    build_series,
    load_series,
    series_to_bytes,
    validate_series,
    write_series,
)
from repro.obs.store import (
    DEFAULT_STORE,
    RunRecord,
    RunStore,
    config_fingerprint,
    git_rev,
    headline_from_comparison,
    headline_from_montecarlo,
    headline_from_result,
)
from repro.obs.watch import TailChunk, TailReader, WatchView, watch_trace

__all__ = [
    "DEFAULT_STORE",
    "DiffReport",
    "Divergence",
    "FieldDiff",
    "MetricDelta",
    "ObsError",
    "RunRecord",
    "RunStore",
    "SERIES_FORMAT",
    "SERIES_NAME",
    "SERIES_VERSION",
    "STAT_QUANTILES",
    "TailChunk",
    "TailReader",
    "WatchView",
    "build_series",
    "config_fingerprint",
    "diff_traces",
    "epoch_digest",
    "exact_quantile",
    "git_rev",
    "headline_from_comparison",
    "headline_from_montecarlo",
    "headline_from_result",
    "load_series",
    "query_runs",
    "render_diff_json",
    "render_diff_text",
    "render_digest_json",
    "render_digest_text",
    "render_runs_query_text",
    "render_stats_csv",
    "render_stats_json",
    "render_stats_text",
    "resolve_series",
    "runs_query_rows",
    "series_stats",
    "series_to_bytes",
    "validate_series",
    "watch_trace",
    "write_series",
]
