"""Chrome-trace (``about://tracing`` / Perfetto) export of a trace stream.

Renders one JSONL trace stream as a Chrome Trace Event Format file
with two process tracks:

* **pid 1 — simulated time**: instant events for every epoch decision,
  skip and guard action, plus counter tracks for the cumulative migration
  and writeback totals carried by bank snapshots.  The timestamp unit is
  one microsecond per simulated kilocycle, which keeps multi-million-cycle
  runs within the viewer's comfortable zoom range.
* **pid 2 — sweep wall clock**: complete ("X") events for every
  ``sweep_item``, laid end-to-end per scheme lane in submission order.
  Items overlapped in a parallel run, so this lane shows *per-item cost*,
  not the run's true concurrency; the JSONL stays the source of truth.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.util.atomic_write import atomic_write_text

#: simulated cycles per Chrome-trace microsecond.
CYCLES_PER_US = 1000.0


def chrome_trace(events: Iterable[Mapping]) -> dict:
    """Convert a trace stream to a Chrome Trace Event Format payload."""
    trace: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "simulated time"}},
        {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
         "args": {"name": "sweep wall clock"}},
    ]
    lanes: dict[str, int] = {}  # scheme/label lane -> tid
    cursor: dict[int, float] = {}  # tid -> next free wall microsecond
    for event in events:
        etype = event.get("type")
        scheme = event.get("scheme", "")
        if etype in ("epoch_decision", "epoch_skip", "guard_action"):
            ts = float(event.get("time", 0.0)) / CYCLES_PER_US
            if etype == "epoch_decision":
                name = f"epoch {event.get('epoch')}: ways={event.get('ways')}"
            elif etype == "epoch_skip":
                name = (
                    f"epoch {event.get('epoch')} skipped: "
                    f"{event.get('reason')}"
                )
            else:
                name = (
                    f"guard {event.get('kind')} -> {event.get('mode')}"
                )
            trace.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": _lane(lanes, scheme or "epochs"),
                    "ts": ts,
                    "args": {
                        k: v
                        for k, v in event.items()
                        if k not in ("type", "seq")
                    },
                }
            )
        elif etype == "bank_snapshot":
            ts = float(event.get("time", 0.0)) / CYCLES_PER_US
            trace.append(
                {
                    "name": f"L2 totals{f' [{scheme}]' if scheme else ''}",
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "ts": ts,
                    "args": {
                        "migrations": event.get("migrations", 0),
                        "writebacks": event.get("writebacks", 0),
                    },
                }
            )
        elif etype == "sweep_item":
            tid = _lane(lanes, f"sweep:{scheme}" if scheme else "sweep")
            dur = max(float(event.get("wall_s", 0.0)), 0.0) * 1e6
            start = cursor.get(tid, 0.0)
            cursor[tid] = start + dur
            trace.append(
                {
                    "name": str(event.get("label", event.get("index"))),
                    "ph": "X",
                    "pid": 2,
                    "tid": tid,
                    "ts": start,
                    "dur": dur,
                    "args": {"index": event.get("index")},
                }
            )
    for name, tid in lanes.items():
        for pid in (1, 2):
            trace.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}}
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def _lane(lanes: dict[str, int], name: str) -> int:
    if name not in lanes:
        lanes[name] = len(lanes)
    return lanes[name]


def write_chrome_trace(
    path: str | Path, events: Sequence[Mapping]
) -> None:
    """Durably write the Chrome-trace JSON for ``events`` to ``path``."""
    atomic_write_text(path, json.dumps(chrome_trace(events)))
