"""repro.telemetry — zero-overhead-when-off tracing and metrics.

The emitting side of the reproduction's observability: a :class:`Tracer`
of typed, schema-stable events (epoch decisions, guard ladder actions,
bank counter snapshots, sweep-item timing) written as JSON-lines, a
:class:`MetricsRegistry` of counters/gauges/histograms surfaced through
``SystemResult.telemetry``, and a Chrome-trace exporter for timelines.
The digests that read traces back (``repro report``) live in
:mod:`repro.obs.analytics`.

The subsystem is opt-in by construction: nothing here is instantiated
unless a run asks for tracing (``--trace`` / ``RunSettings.trace``), and
every emission site is guarded with ``if tracer is not None`` — the
default path allocates no telemetry objects and stays bit-identical.
Serial and parallel runs of the same experiment produce equal event
streams (worker events merge in submission order, like results); only the
fields the schema marks ``deterministic=False`` — wall-clock timings —
may differ.
"""

from repro.telemetry.chrome import chrome_trace, write_chrome_trace
from repro.telemetry.events import (
    ADVISORY_EVENTS,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    TelemetryError,
    canonical_events,
    check_trace,
    schema_rows,
    validate_event,
    validate_events,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import Tracer, read_jsonl, write_jsonl

__all__ = [
    "ADVISORY_EVENTS",
    "Counter",
    "EVENT_SCHEMAS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "Tracer",
    "TelemetryError",
    "canonical_events",
    "check_trace",
    "chrome_trace",
    "read_jsonl",
    "schema_rows",
    "validate_event",
    "validate_events",
    "write_chrome_trace",
    "write_jsonl",
]
