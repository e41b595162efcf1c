"""Per-epoch time-series: a compact columnar sidecar next to the trace.

The event stream already carries everything needed to answer "how did
miss rate / partition / bank pressure evolve over epochs?" — it is just
inconvenient to query.  :func:`build_series` projects a trace onto a
columnar per-epoch table, one row per ``bank_snapshot`` (epoch installs
plus the end-of-run ``epoch=-1`` snapshot), per scheme:

* ``core_miss_rate.cN`` — the epoch's per-core miss rate (windowed
  deltas of the cumulative ``core_hits``/``core_misses`` counters);
* ``ways.cN`` / ``policy`` — the most recent installed decision;
* ``bank_accesses.bN`` / ``bank_queue_delay.bN`` — the epoch's per-bank
  served accesses and mean port-queue delay (cycles per access);
* ``migrations`` / ``writebacks`` — windowed deltas;
* ``guard_actions`` / ``epoch_skips`` — actions since the previous row.

Determinism is inherited, not re-established: the fold reads only four
non-advisory event types, so the series is a pure function of
:func:`~repro.obs.events.canonical_events`, and a serial and a ``--jobs
N`` run — and the reference and batched sim backends — produce
byte-identical sidecars.  :func:`write_series` pins the gzip
header (``mtime=0``) and uses canonical JSON, making the *file* identical
too, which is what the CI byte-identity gate compares.
"""

from __future__ import annotations

import gzip
import io
import json
from collections.abc import Iterable, Mapping
from pathlib import Path

from repro.obs.errors import ObsError
from repro.obs.events import SCHEMA_VERSION, checked_event

SERIES_FORMAT = "repro-timeseries"
SERIES_VERSION = 1

#: sidecar filename, next to ``trace.jsonl`` in an archived run.
SERIES_NAME = "timeseries.json.gz"

#: the event types the per-epoch fold reads; none is advisory.
FOLDED_EVENTS = frozenset(
    {"bank_snapshot", "epoch_decision", "guard_action", "epoch_skip"}
)


def _snapshot_row(event: Mapping, state: dict) -> dict:
    """One series row from a ``bank_snapshot`` and the accumulated
    since-last-row state (previous snapshot, latest decision, action
    counts)."""
    prev = state["prev"]
    row: dict = {"epoch": event["epoch"], "time": event["time"]}
    nbanks = len(event["hits"])
    for b in range(nbanks):
        served = event["queue_served"][b] - (
            prev["queue_served"][b] if prev else 0
        )
        delay = event["queue_delay"][b] - (
            prev["queue_delay"][b] if prev else 0.0
        )
        row[f"bank_accesses.b{b}"] = served
        row[f"bank_queue_delay.b{b}"] = delay / served if served else 0.0
    row["migrations"] = event["migrations"] - (
        prev["migrations"] if prev else 0
    )
    row["writebacks"] = event["writebacks"] - (
        prev["writebacks"] if prev else 0
    )
    hits = event.get("core_hits")
    misses = event.get("core_misses")
    if hits is not None and misses is not None:
        prev_hits = prev.get("core_hits") if prev else None
        prev_misses = prev.get("core_misses") if prev else None
        for c in range(len(hits)):
            dh = hits[c] - (prev_hits[c] if prev_hits else 0)
            dm = misses[c] - (prev_misses[c] if prev_misses else 0)
            accesses = dh + dm
            row[f"core_miss_rate.c{c}"] = dm / accesses if accesses else 0.0
    decision = state["decision"]
    if decision is not None:
        for c, ways in enumerate(decision["ways"]):
            row[f"ways.c{c}"] = ways
        row["policy"] = decision.get("policy", decision["algorithm"])
    row["guard_actions"] = state["guard"]
    row["epoch_skips"] = state["skips"]
    return row


def _columnar(rows: list[dict]) -> dict:
    """Row dicts to aligned columns (missing cells become ``null``)."""
    names = sorted({name for row in rows for name in row})
    return {
        "rows": len(rows),
        "columns": {
            name: [row.get(name) for row in rows] for name in names
        },
    }


def build_series(events: Iterable[Mapping]) -> dict:
    """The per-epoch time-series payload of one trace's event stream.

    Reads only :data:`FOLDED_EVENTS`, so advisory events and their
    wall-clock fields can never leak into the series.  Each folded event
    is schema-validated first: a damaged one raises :class:`ObsError`
    naming its ``seq``.  Streams without ``bank_snapshot`` events (Monte
    Carlo sweeps) produce an empty ``schemes`` map.
    """
    state: dict[str, dict] = {}
    for event in events:
        etype = event.get("type")
        if etype not in FOLDED_EVENTS:
            continue
        checked_event(event)
        key = event.get("scheme", "")
        st = state.get(key)
        if st is None:
            st = state[key] = {
                "prev": None, "decision": None,
                "guard": 0, "skips": 0, "rows": [],
            }
        if etype == "epoch_decision":
            st["decision"] = event
        elif etype == "guard_action":
            st["guard"] += 1
        elif etype == "epoch_skip":
            st["skips"] += 1
        else:
            st["rows"].append(_snapshot_row(event, st))
            st["prev"] = event
            st["guard"] = 0
            st["skips"] = 0
    return {
        "format": SERIES_FORMAT,
        "version": SERIES_VERSION,
        "schema_version": SCHEMA_VERSION,
        "schemes": {
            key: _columnar(st["rows"])
            for key, st in sorted(state.items())
            if st["rows"]
        },
    }


def validate_series(payload: object) -> list[str]:
    """Problems with one series payload (empty list = valid)."""
    if not isinstance(payload, Mapping):
        return ["series payload is not a JSON object"]
    problems = []
    if payload.get("format") != SERIES_FORMAT:
        problems.append(
            f"format is {payload.get('format')!r}, expected "
            f"{SERIES_FORMAT!r}"
        )
    if payload.get("version") != SERIES_VERSION:
        problems.append(f"unsupported version {payload.get('version')!r}")
    schemes = payload.get("schemes")
    if not isinstance(schemes, Mapping):
        return problems + ["'schemes' is not a JSON object"]
    for key, table in schemes.items():
        if not isinstance(table, Mapping):
            problems.append(f"scheme {key!r}: table is not a JSON object")
            continue
        rows = table.get("rows")
        columns = table.get("columns")
        if not isinstance(rows, int) or not isinstance(columns, Mapping):
            problems.append(f"scheme {key!r}: missing rows/columns")
            continue
        for name, values in columns.items():
            if not isinstance(values, list) or len(values) != rows:
                problems.append(
                    f"scheme {key!r}: column {name!r} has "
                    f"{len(values) if isinstance(values, list) else '?'} "
                    f"values for {rows} rows"
                )
    return problems


def series_to_bytes(payload: Mapping) -> bytes:
    """Deterministic gzip encoding: canonical JSON, pinned gzip header.

    Fixing ``mtime=0`` (and the default filename-free header) makes the
    byte stream a pure function of the payload, so two runs with equal
    canonical events write *identical files* — the property the CI gate
    asserts with ``cmp``.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    return buf.getvalue()


def write_series(path: str | Path, payload: Mapping) -> None:
    """Write one series sidecar (deterministic bytes, atomic rename)."""
    from repro.util.atomic_write import atomic_write_bytes

    atomic_write_bytes(Path(path), series_to_bytes(payload))


def load_series(path: str | Path) -> dict:
    """Read one series sidecar back (raises :class:`ObsError` on damage)."""
    try:
        with gzip.open(path, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ObsError(f"cannot read time series {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, EOFError) as exc:
        raise ObsError(f"{path} is not a valid time series: {exc}") from exc
    problems = validate_series(payload)
    if problems:
        raise ObsError(
            f"{path} failed series validation: {'; '.join(problems)}"
        )
    return payload


__all__ = (
    "SERIES_FORMAT",
    "SERIES_NAME",
    "SERIES_VERSION",
    "build_series",
    "load_series",
    "series_to_bytes",
    "validate_series",
    "write_series",
)
