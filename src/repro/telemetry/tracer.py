"""The event tracer: collect, merge, and persist JSON-lines traces.

A :class:`Tracer` is an append-only, order-tagged event log.  The
zero-overhead-when-off contract is enforced *at the call sites*: no
subsystem ever constructs a tracer (or any event payload) unless tracing
was requested, and every emission is guarded by ``if tracer is not None``
— so the default path allocates nothing and stays bit-identical.

Parallel runs keep one tracer per work item inside the worker (or carry
events inside each worker's result object) and merge the streams into the
parent tracer **in submission order** via :meth:`Tracer.extend` — the same
discipline :class:`~repro.fabric.supervisor.Supervisor` applies to
results, so serial and ``--jobs N`` runs produce equal event streams (up
to the wall-clock fields the schema explicitly marks non-deterministic).
Worker streams were already validated event-by-event on emit, so the merge
takes a ``pre_validated=True`` fast path instead of re-walking every
schema.

Traces persist two ways:

* :func:`write_jsonl` — the durable final artefact, **stream-encoded** in
  chunks through :func:`repro.util.atomic_write.atomic_write` (temp +
  fsync + replace + dir-fsync), so a multi-million-event trace never
  materialises a second full copy of itself as one string;
* a live **sink** (``Tracer(sink=path)``) — a best-effort JSONL append
  feed flushed every few events while the run is still going, which is
  what ``repro watch`` tails.  The final :meth:`Tracer.write_jsonl`
  atomically replaces the sink file with the complete durable stream.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import IO

from repro.telemetry.events import (
    SCHEMA_VERSION,
    TelemetryError,
    jsonify_fields,
    validate_event,
)
from repro.util.atomic_write import atomic_write

#: events per encoded chunk in :func:`write_jsonl`: large enough to keep
#: syscall overhead negligible, small enough that peak extra memory is a
#: few hundred KB instead of a second copy of the whole trace.
WRITE_CHUNK_EVENTS = 4096

#: default live-sink flush cadence (events); small enough that a watcher
#: sees progress promptly, large enough to stay off the hot path.
SINK_FLUSH_EVERY = 64


class Tracer:
    """Append-only telemetry event log with schema validation on emit.

    ``sink`` names an optional live JSONL feed: emitted events are
    appended (buffered, flushed every ``sink_flush_every`` events) so a
    concurrent ``repro watch`` can follow the run.  The sink is a
    monitoring feed, not the durable artefact — call :meth:`write_jsonl`
    at the end for the atomic, fsynced replacement.
    """

    def __init__(
        self,
        *,
        validate: bool = True,
        sink: str | Path | None = None,
        sink_flush_every: int = SINK_FLUSH_EVERY,
    ) -> None:
        self.events: list[dict] = []
        self.validate = validate
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_fh: IO[str] | None = None
        self._sink_flushed = 0
        self._sink_flush_every = max(1, sink_flush_every)

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, etype: str, **fields: object) -> dict:
        """Append one event; returns the stored (sequenced) record."""
        event = {"type": etype, "seq": len(self.events)}
        event.update(jsonify_fields(fields))
        if self.validate:
            problems = validate_event(event)
            if problems:
                raise TelemetryError("; ".join(problems))
        self.events.append(event)
        if self._sink_path is not None:
            self._pump_sink()
        return event

    def emit_run_meta(self, source: str, detail: str | None = None) -> dict:
        """Convenience header event opening a stream."""
        fields: dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "source": source,
        }
        if detail is not None:
            fields["detail"] = detail
        return self.emit("run_meta", **fields)

    def extend(
        self,
        events: Iterable[Mapping],
        *,
        scheme: str | None = None,
        pre_validated: bool = False,
    ) -> None:
        """Merge a worker's event stream, re-sequencing into this log.

        Callers invoke this in submission order, so the merged stream is
        identical whether the work ran serially or on a pool.  ``scheme``
        tags every merged event with its origin (used by ``compare``,
        where several schemes' streams interleave into one trace).

        ``pre_validated=True`` skips per-event schema validation for
        streams that a validating tracer already checked on emit (every
        worker-side tracer does) — re-walking each schema on merge is
        pure overhead.  Re-sequencing and scheme-tagging cannot
        invalidate a valid event (``seq`` and ``scheme`` are common
        fields), so the fast path is exact, not approximate.
        """
        check = self.validate and not pre_validated
        for event in events:
            merged = dict(event)
            merged["seq"] = len(self.events)
            if scheme is not None:
                merged["scheme"] = scheme
            if check:
                problems = validate_event(merged)
                if problems:
                    raise TelemetryError("; ".join(problems))
            self.events.append(merged)
        if self._sink_path is not None:
            self._pump_sink()

    def select(self, etype: str) -> list[dict]:
        """All events of one type, in stream order."""
        return [e for e in self.events if e["type"] == etype]

    # -- live sink ----------------------------------------------------------

    def _pump_sink(self, *, force: bool = False) -> None:
        """Append not-yet-flushed events to the live sink (best effort)."""
        pending = len(self.events) - self._sink_flushed
        if pending <= 0 or (not force and pending < self._sink_flush_every):
            return
        if self._sink_fh is None:
            # "w": a stale file from an earlier run must not prefix this one
            self._sink_fh = open(self._sink_path, "w", encoding="utf-8")
        for event in self.events[self._sink_flushed:]:
            self._sink_fh.write(
                json.dumps(event, separators=(",", ":")) + "\n"
            )
        self._sink_fh.flush()
        self._sink_flushed = len(self.events)

    def flush_sink(self) -> None:
        """Push every buffered event to the live sink now."""
        if self._sink_path is not None:
            self._pump_sink(force=True)

    def close_sink(self) -> None:
        """Close the live sink handle (the file itself is left in place)."""
        if self._sink_fh is not None:
            self._pump_sink(force=True)
            self._sink_fh.close()
            self._sink_fh = None

    def write_jsonl(self, path: str | Path) -> None:
        """Durably write the stream as JSON-lines.

        Closes the live sink first (when the target *is* the sink path,
        the append feed is atomically replaced by the complete durable
        stream — a watcher observes the swap as a file replacement and
        re-reads from the top).
        """
        self.close_sink()
        write_jsonl(path, self.events)
        self._sink_flushed = len(self.events)


def write_jsonl(path: str | Path, events: Iterable[Mapping]) -> None:
    """Durably write an event stream as JSON-lines (one object per line).

    Encoding is streamed in :data:`WRITE_CHUNK_EVENTS`-sized chunks
    straight into the atomic-write temp file, so peak memory stays flat
    in the number of events while keeping the temp+fsync+replace+dir-fsync
    durability contract of :func:`repro.util.atomic_write.atomic_write`.
    """

    def writer(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            chunk: list[str] = []
            for event in events:
                chunk.append(json.dumps(dict(event), separators=(",", ":")))
                if len(chunk) >= WRITE_CHUNK_EVENTS:
                    fh.write("\n".join(chunk) + "\n")
                    chunk.clear()
            if chunk:
                fh.write("\n".join(chunk) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    atomic_write(path, writer)


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSON-lines trace; raises :class:`TelemetryError` on damage."""
    events = []
    # bytes in, so a line that is not UTF-8 fails in json.loads, on its
    # own line number, instead of escaping as a UnicodeDecodeError
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise TelemetryError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise TelemetryError(
                    f"{path}:{lineno}: expected a JSON object"
                )
            events.append(event)
    return events
