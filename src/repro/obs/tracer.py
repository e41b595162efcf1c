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
to the advisory events, which carry every wall-clock field).  Every
event is validated once, on :meth:`Tracer.emit`; worker streams come
from validating tracers, so the merge does not re-walk the schemas.

A trace persists once, at the end of the run: :func:`write_jsonl` is
**stream-encoded** in chunks through
:func:`repro.util.atomic_write.atomic_write` (temp + fsync + replace +
dir-fsync), so a multi-million-event trace never materialises a second
full copy of itself as one string.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from pathlib import Path

from repro.obs.errors import ObsError
from repro.obs.events import SCHEMA_VERSION, jsonify_fields, validate_event
from repro.util.atomic_write import atomic_write

#: events per encoded chunk in :func:`write_jsonl`: large enough to keep
#: syscall overhead negligible, small enough that peak extra memory is a
#: few hundred KB instead of a second copy of the whole trace.
WRITE_CHUNK_EVENTS = 4096


class Tracer:
    """Append-only trace event log with schema validation on emit."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, etype: str, **fields: object) -> dict:
        """Append one event; returns the stored (sequenced) record."""
        event = {"type": etype, "seq": len(self.events)}
        event.update(jsonify_fields(fields))
        problems = validate_event(event)
        if problems:
            raise ObsError("; ".join(problems))
        self.events.append(event)
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
        self, events: Iterable[Mapping], *, scheme: str | None = None
    ) -> None:
        """Merge a worker's event stream, re-sequencing into this log.

        Callers invoke this in submission order, so the merged stream is
        identical whether the work ran serially or on a pool.  ``scheme``
        tags every merged event with its origin (used by ``compare``,
        where several schemes' streams interleave into one trace).

        The events are trusted, not re-validated: they come from a
        worker's tracer, which validated each one on emit, and
        re-sequencing and scheme-tagging cannot invalidate a valid event
        (``seq`` and ``scheme`` are common fields).
        """
        for event in events:
            merged = dict(event)
            merged["seq"] = len(self.events)
            if scheme is not None:
                merged["scheme"] = scheme
            self.events.append(merged)

    def select(self, etype: str) -> list[dict]:
        """All events of one type, in stream order."""
        return [e for e in self.events if e["type"] == etype]

    def write_jsonl(self, path: str | Path) -> None:
        """Durably write the stream as JSON-lines."""
        write_jsonl(path, self.events)


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
    """Load a JSON-lines trace; raises :class:`ObsError` on damage."""
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
                raise ObsError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ObsError(f"{path}:{lineno}: expected a JSON object")
            events.append(event)
    return events
