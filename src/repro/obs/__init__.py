"""repro.obs — the observability package: one event stream, written, read
and folded.

The emitting side — what a simulation imports to trace itself:

* :mod:`repro.obs.events` — the schema-stable event catalogue, its
  validation and the canonical projection the determinism gates compare;
* :mod:`repro.obs.tracer` — the :class:`Tracer` every emit site writes
  to, and the JSON-lines reader/writer of a finished trace;
* :mod:`repro.obs.timing` — the one wall-clock chokepoint (sweep-item
  timing);
* :mod:`repro.obs.errors` — :class:`ObsError`, the package's one error.

The reading side — what the CLI and tests import, each from its own
module:

* :mod:`repro.obs.store` — archive runs with provenance (config
  fingerprint, git rev, mix, headline results, trace) under a queryable
  run store (``repro runs list|show``, ``--store`` on the run commands);
* :mod:`repro.obs.diff` — first-divergence trace diffing with Rules 1–3
  annotations and tolerance-gated metric deltas (``repro diff``), which
  doubles as the serial-vs-parallel determinism gate;
* :mod:`repro.obs.series` — the per-epoch columnar time-series sidecar
  archived next to each stored trace (``timeseries.json.gz``),
  deterministic down to the byte;
* :mod:`repro.obs.analytics` — the per-epoch digest behind ``repro
  report``, ``repro stats`` column aggregates and the ``repro runs list``
  filters;
* :mod:`repro.obs.chrome` — the Chrome/Perfetto export of a trace.

Import contract: this ``__init__`` loads only the emitting side.  The
simulator, the Monte Carlo sweep and the sweep fabric import the tracer,
so pulling the reading side in here would add its import cost to every
run; ``tests/test_obs.py::test_emit_side_imports_no_read_side`` checks it.
Tracing stays opt-in: untraced runs construct no tracer and every emit
site checks for ``None``.
"""

from repro.obs.errors import ObsError
from repro.obs.events import (
    ADVISORY_EVENTS,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    canonical_events,
    check_trace,
    validate_event,
    validate_events,
)
from repro.obs.tracer import Tracer, read_jsonl, write_jsonl

__all__ = [
    "ADVISORY_EVENTS",
    "EVENT_SCHEMAS",
    "ObsError",
    "SCHEMA_VERSION",
    "Tracer",
    "canonical_events",
    "check_trace",
    "read_jsonl",
    "validate_event",
    "validate_events",
    "write_jsonl",
]
