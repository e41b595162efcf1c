"""Live monitoring of a growing JSONL trace (``repro watch``).

Long sweeps (``montecarlo --trace``, detailed sweeps) append events to
their trace file while running (the tracer's live sink) and atomically
*replace* it with the complete durable stream at the end
(:func:`repro.telemetry.tracer.write_jsonl`).  :class:`TailReader`
follows both phases:

* **growth** — reads only the bytes past its resumable offset, buffering
  a partial trailing line until its newline arrives (an in-flight append
  is never a parse error);
* **replacement** — detects the atomic swap (new inode, or a file shorter
  than the old offset) and transparently restarts from byte zero,
  flagging the reset so aggregated state can be rebuilt.

:class:`WatchView` aggregates the polled events into the live picture a
terminal wants: event counts, guard-ladder activity, and — from the
``progress`` heartbeats the sweep harnesses emit — throughput and ETA.
With ``metrics=True`` it additionally runs each ``bank_snapshot``
through the *same* per-epoch row projection the time-series sidecar
uses (:func:`repro.obs.series._snapshot_row` semantics), so ``repro
watch --metrics`` shows the latest epoch's miss rates, partition and
bank pressure exactly as ``repro stats`` will report them afterwards.

The polling loop's wall-clock sleeps are the point of this module; it is
scoped under ``det002-allow`` alongside the other measurement harnesses.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.errors import ObsError


@dataclass(frozen=True)
class TailChunk:
    """One poll's outcome: freshly parsed events, and whether the file
    was replaced/truncated since the previous poll (``reset=True`` means
    ``events`` restarts from the top of the new file)."""

    events: list[dict]
    reset: bool = False


class TailReader:
    """Incremental JSONL reader with a resumable offset.

    Each :meth:`poll` parses only complete new lines; a partial trailing
    line (a writer mid-append) stays buffered for the next poll.  A
    *complete* line that fails to parse raises :class:`ObsError` — after
    an atomic replace the file is always well-formed, so damage is real.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.offset = 0
        self._buffer = b""
        self._inode: int | None = None
        #: total file replacements observed (atomic rewrites).
        self.resets = 0

    def poll(self) -> TailChunk:
        """Parse everything new since the last poll (missing file = empty)."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return TailChunk([])
        with fh:
            stat = os.fstat(fh.fileno())
            reset = (
                self._inode is not None and stat.st_ino != self._inode
            ) or stat.st_size < self.offset
            if reset:
                self.offset = 0
                self._buffer = b""
                self.resets += 1
            self._inode = stat.st_ino
            fh.seek(self.offset)
            data = fh.read()
            self.offset = fh.tell()
        if not data and not reset:
            return TailChunk([])
        self._buffer += data
        events = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break  # partial trailing line: wait for the writer
            line = self._buffer[:newline].strip()
            self._buffer = self._buffer[newline + 1:]
            if not line:
                continue
            try:
                event = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ObsError(
                    f"{self.path}: damaged trace line: {exc}"
                ) from exc
            if not isinstance(event, Mapping):
                raise ObsError(
                    f"{self.path}: trace line is not a JSON object"
                )
            events.append(dict(event))
        return TailChunk(events, reset)


@dataclass
class WatchView:
    """Rolling aggregation of a watched stream."""

    metrics: bool = False
    total_events: int = 0
    counts: dict = field(default_factory=dict)
    guard_kinds: dict = field(default_factory=dict)
    last_progress: dict | None = None
    sources: list = field(default_factory=list)
    #: per-scheme time-series state (metrics mode): the same shape the
    #: sidecar builder keeps, plus the latest projected row.
    series_state: dict = field(default_factory=dict)

    def update(self, chunk: TailChunk) -> None:
        """Absorb one poll (a reset rebuilds the view from scratch)."""
        if chunk.reset:
            self.total_events = 0
            self.counts = {}
            self.guard_kinds = {}
            self.last_progress = None
            self.sources = []
            self.series_state = {}
        for event in chunk.events:
            etype = str(event.get("type", "?"))
            self.total_events += 1
            self.counts[etype] = self.counts.get(etype, 0) + 1
            if etype == "guard_action":
                kind = str(event.get("kind", "?"))
                self.guard_kinds[kind] = self.guard_kinds.get(kind, 0) + 1
            elif etype == "progress":
                self.last_progress = event
            elif etype == "run_meta":
                source = event.get("source")
                if source and source not in self.sources:
                    self.sources.append(source)
            if self.metrics:
                self._track_series(event)

    def _track_series(self, event: Mapping) -> None:
        """Feed one event through the sidecar's row projection."""
        from repro.obs.series import _snapshot_row

        etype = event.get("type")
        if etype not in (
            "bank_snapshot", "epoch_decision", "guard_action", "epoch_skip"
        ):
            return
        key = str(event.get("scheme", ""))
        st = self.series_state.get(key)
        if st is None:
            st = self.series_state[key] = {
                "prev": None, "decision": None,
                "guard": 0, "skips": 0, "latest": None,
            }
        if etype == "epoch_decision":
            st["decision"] = event
        elif etype == "guard_action":
            st["guard"] += 1
        elif etype == "epoch_skip":
            st["skips"] += 1
        else:
            try:
                st["latest"] = _snapshot_row(event, st)
            except (KeyError, TypeError, IndexError):
                return  # damaged / partial snapshot: keep the old row
            st["prev"] = event
            st["guard"] = 0
            st["skips"] = 0

    def render_metrics(self) -> list[str]:
        """One compact line per scheme from the latest projected row."""
        lines = []
        for key in sorted(self.series_state):
            row = self.series_state[key]["latest"]
            if row is None:
                continue
            label = f" [{key}]" if key else ""
            parts = [f"epoch {row['epoch']}"]
            miss = [
                f"{row[name]:.3f}"
                for name in sorted(row) if name.startswith("core_miss_rate.")
            ]
            if miss:
                parts.append(f"miss={'/'.join(miss)}")
            ways = [
                str(row[name])
                for name in sorted(row) if name.startswith("ways.")
            ]
            if ways:
                parts.append(f"ways={'/'.join(ways)}")
            delays = [
                row[name]
                for name in sorted(row)
                if name.startswith("bank_queue_delay.")
            ]
            if delays:
                parts.append(f"peak bank delay={max(delays):.2f}cyc")
            parts.append(f"migr={row['migrations']}")
            if row["guard_actions"]:
                parts.append(f"guard={row['guard_actions']}")
            lines.append(f"metrics{label}: " + ", ".join(parts))
        return lines

    @property
    def complete(self) -> bool:
        """True once a terminal ``progress`` heartbeat (done == total) has
        been observed."""
        p = self.last_progress
        return (
            p is not None
            and p.get("total", 0) > 0
            and p.get("done") == p.get("total")
        )

    def render(self) -> str:
        """The live picture as a short multi-line block."""
        lines = [
            f"events: {self.total_events} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.counts.items()))})"
        ]
        if self.sources:
            lines[0] = f"run: {'+'.join(self.sources)} | " + lines[0]
        p = self.last_progress
        if p is not None:
            done, total = p.get("done", 0), p.get("total", 0)
            wall = float(p.get("wall_s", 0.0))
            pct = 100.0 * done / total if total else 0.0
            line = f"progress: {done}/{total} ({pct:.1f}%)"
            if wall > 0 and done:
                rate = done / wall
                line += f", {rate:.2f} items/s"
                if total > done:
                    line += f", ETA {format_eta((total - done) / rate)}"
            if self.complete:
                line += " — complete"
            lines.append(line)
        if self.guard_kinds:
            lines.append(
                "guard actions: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.guard_kinds.items())
                )
            )
        if self.metrics:
            lines.extend(self.render_metrics())
        return "\n".join(lines)


def format_eta(seconds: float) -> str:
    """Compact h/m/s rendering of a remaining-time estimate."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def watch_trace(
    path: str | Path,
    *,
    interval: float = 1.0,
    once: bool = False,
    timeout: float | None = None,
    metrics: bool = False,
    emit: Callable[[str], None] = print,
) -> int:
    """Follow a (possibly still-growing) trace until it completes.

    Prints a status block whenever new events arrive; returns 0 once a
    terminal progress heartbeat is seen (or immediately with ``once``),
    and 1 if ``timeout`` elapses first.  ``metrics`` appends the latest
    epoch's time-series row per scheme.  ``emit`` is injectable for
    tests.
    """
    reader = TailReader(path)
    view = WatchView(metrics=metrics)
    start = time.monotonic()
    while True:
        chunk = reader.poll()
        view.update(chunk)
        if chunk.events or chunk.reset or once:
            emit(view.render())
        if once:
            return 0
        if view.complete:
            emit(f"watch: run complete after {view.total_events} events")
            return 0
        if timeout is not None and time.monotonic() - start >= timeout:
            emit(f"watch: timed out after {timeout:g}s")
            return 1
        time.sleep(interval)
