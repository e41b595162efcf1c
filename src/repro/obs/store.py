"""The run store: archive every invocation with its provenance.

``repro simulate/compare/montecarlo --store DIR`` archives one directory
per run under ``DIR`` (default ``.repro-runs/``):

.. code-block:: text

    .repro-runs/
      compare-20260806-142501-1a2b3c4d/
        manifest.json      # provenance + headline results (see below)
        trace.jsonl        # the telemetry stream, when the run was traced

The manifest binds the *what* (workload mix, settings, headline results,
metrics snapshot) to the *under which conditions* (config fingerprint, git
revision, telemetry schema version, creation time), which is what makes
run pairs comparable months later: ``repro runs list|show`` queries the
store, ``repro diff`` resolves run ids through it.

Wall-clock reads here are deliberate (a manifest *is* a timestamped
record) and scoped via ``det002-allow`` like the other measurement
harnesses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import time
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.obs.errors import ObsError
from repro.obs.series import SERIES_NAME, build_series, write_series
from repro.telemetry.events import SCHEMA_VERSION
from repro.telemetry.tracer import read_jsonl, write_jsonl
from repro.util.atomic_write import atomic_write_bytes, atomic_write_text

if TYPE_CHECKING:  # annotation-only; keeps repro.obs a leaf package
    from repro.analysis.montecarlo import MonteCarloResult
    from repro.sim.runner import SchemeComparison
    from repro.sim.stats import SystemResult

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.jsonl"

#: default store root (relative to the invocation's working directory).
DEFAULT_STORE = ".repro-runs"


def git_rev(anchor: str | Path | None = None) -> str:
    """Short git revision of the tree containing ``anchor`` (or this file),
    or ``"unknown"`` outside a repository."""
    cwd = (
        Path(anchor) if anchor is not None
        else Path(__file__).resolve().parent
    )
    if cwd.is_file():
        cwd = cwd.parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


def config_fingerprint(config: SystemConfig) -> str:
    """Short stable digest of every field of the machine description.

    Two runs with equal fingerprints ran on the same simulated machine;
    the digest is over the canonical JSON of the config dataclass tree
    (non-JSON leaves fall back to ``repr``, which is stable for the
    frozen dataclasses used throughout).
    """
    payload = dataclasses.asdict(config)
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _guard_kind_counts(
    guard_events: Sequence[tuple[float, str, str, str]],
) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _time, kind, _detail, _mode in guard_events:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def headline_from_result(result: "SystemResult") -> dict:
    """Headline figures of one :class:`~repro.sim.stats.SystemResult`."""
    return {
        "miss_rate": result.miss_rate,
        "mean_cpi": result.mean_cpi,
        "migrations": result.migrations,
        "epochs": len(result.epochs),
        "guard_actions": len(result.guard_events),
        "guard_kinds": _guard_kind_counts(result.guard_events),
    }


def headline_from_comparison(comparison: "SchemeComparison") -> dict:
    """Headline figures of one :class:`~repro.sim.runner.SchemeComparison`:
    per-scheme miss rates plus misses/CPI relative to No-partitions."""
    schemes = {}
    for scheme, result in comparison.results.items():
        entry = headline_from_result(result)
        entry["relative_miss_rate"] = comparison.relative_miss_rate(scheme)
        entry["relative_cpi"] = comparison.relative_cpi(scheme)
        schemes[scheme] = entry
    return {"schemes": schemes}


def headline_from_montecarlo(result: "MonteCarloResult") -> dict:
    """Headline figures of one
    :class:`~repro.analysis.montecarlo.MonteCarloResult`.  Ranked sweeps
    (``--rank-policies``) additionally archive the per-policy mean miss
    ratios; plain Fig. 7 manifests keep their historical key set."""
    headline = {
        "mixes": len(result.points),
        "mean_unrestricted_ratio": result.mean_unrestricted_ratio,
        "mean_bank_aware_ratio": result.mean_bank_aware_ratio,
        "restriction_penalty": result.restriction_penalty(),
    }
    ranking = result.policy_ranking()
    if ranking:
        headline["policy_ranking"] = [
            [name, ratio] for name, ratio in ranking
        ]
    return headline


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One archived run: its id, directory, and parsed manifest."""

    run_id: str
    path: Path
    manifest: dict

    @property
    def trace_path(self) -> Path | None:
        """Absolute path of the archived trace, or ``None`` if untraced."""
        name = self.manifest.get("trace")
        return self.path / name if name else None

    @property
    def series_path(self) -> Path | None:
        """Absolute path of the time-series sidecar, or ``None``."""
        name = self.manifest.get("timeseries")
        return self.path / name if name else None


class RunStore:
    """Directory of archived runs (one subdirectory per run)."""

    def __init__(self, root: str | Path = DEFAULT_STORE) -> None:
        self.root = Path(root)

    def archive(
        self,
        *,
        source: str,
        config: SystemConfig,
        workloads: Sequence[str] | None = None,
        settings: Mapping[str, object] | None = None,
        headline: Mapping[str, object] | None = None,
        metrics: Mapping[str, object] | None = None,
        trace_events: Sequence[Mapping] | None = None,
        trace_file: str | Path | None = None,
    ) -> RunRecord:
        """Archive one run and return its record.

        ``trace_events`` (an in-memory stream) or ``trace_file`` (an
        existing JSONL file, copied) attaches the telemetry stream; both
        ``None`` archives an untraced run with ``trace: null``.
        """
        fingerprint = config_fingerprint(config)
        created = time.time()
        run_id = self._fresh_run_id(source, created, fingerprint)
        run_dir = self.root / run_id
        run_dir.mkdir(parents=True)
        trace_name: str | None = None
        trace_count: int | None = None
        if trace_events is not None:
            write_jsonl(run_dir / TRACE_NAME, trace_events)
            trace_name = TRACE_NAME
            trace_count = len(trace_events)
        elif trace_file is not None:
            try:
                data = Path(trace_file).read_bytes()
            except OSError as exc:
                raise ObsError(
                    f"cannot archive trace {trace_file}: {exc}"
                ) from exc
            atomic_write_bytes(run_dir / TRACE_NAME, data)
            trace_name = TRACE_NAME
            trace_count = sum(
                1 for line in data.splitlines() if line.strip()
            )
            trace_events = read_jsonl(run_dir / TRACE_NAME)
        series_name: str | None = None
        series_epochs: int | None = None
        if trace_events is not None:
            # derived from the canonical projection, so the sidecar is
            # byte-identical across backends and --jobs values
            series = build_series(trace_events)
            if series["schemes"]:
                write_series(run_dir / SERIES_NAME, series)
                series_name = SERIES_NAME
                series_epochs = sum(
                    table["rows"] for table in series["schemes"].values()
                )
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "run_id": run_id,
            "created_unix": created,
            "created": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(created)
            ),
            "source": source,
            "git_rev": git_rev(),
            "schema_version": SCHEMA_VERSION,
            "config_fingerprint": fingerprint,
            "workloads": list(workloads) if workloads is not None else None,
            "settings": dict(settings) if settings is not None else {},
            "headline": dict(headline) if headline is not None else {},
            "metrics": dict(metrics) if metrics is not None else None,
            "trace": trace_name,
            "trace_events": trace_count,
            "timeseries": series_name,
            "timeseries_epochs": series_epochs,
        }
        atomic_write_text(
            run_dir / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return RunRecord(run_id, run_dir, manifest)

    def _fresh_run_id(
        self, source: str, created: float, fingerprint: str
    ) -> str:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(created))
        base = f"{source}-{stamp}-{fingerprint[:8]}"
        run_id = base
        suffix = 2
        while (self.root / run_id).exists():
            run_id = f"{base}-{suffix}"
            suffix += 1
        return run_id

    def list(self) -> list[RunRecord]:
        """Every archived run, oldest first (unreadable entries skipped)."""
        if not self.root.is_dir():
            return []
        records = []
        for entry in self.root.iterdir():
            manifest_path = entry / MANIFEST_NAME
            if not manifest_path.is_file():
                continue
            try:
                manifest = json.loads(
                    manifest_path.read_text(encoding="utf-8")
                )
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if (
                isinstance(manifest, dict)
                and manifest.get("format") == MANIFEST_FORMAT
            ):
                records.append(RunRecord(entry.name, entry, manifest))
        records.sort(
            key=lambda r: (r.manifest.get("created_unix", 0.0), r.run_id)
        )
        return records

    def get(self, run_id: str) -> RunRecord:
        """The archived run named ``run_id`` (raises :class:`ObsError`)."""
        manifest_path = self.root / run_id / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ObsError(
                f"no run {run_id!r} in store {self.root} "
                f"(see 'repro runs list')"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ObsError(f"unreadable manifest for {run_id!r}: {exc}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != MANIFEST_FORMAT
        ):
            raise ObsError(f"{manifest_path} is not a run manifest")
        return RunRecord(run_id, self.root / run_id, manifest)

    def resolve_trace(self, spec: str) -> Path:
        """A trace path from either a filesystem path or a stored run id."""
        candidate = Path(spec)
        if candidate.is_file():
            return candidate
        record = self.get(spec)
        trace = record.trace_path
        if trace is None or not trace.is_file():
            raise ObsError(f"run {spec!r} was archived without a trace")
        return trace
