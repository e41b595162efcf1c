"""Typed, schema-stable trace events.

Every event a :class:`~repro.obs.tracer.Tracer` emits is a flat JSON
object with a ``type`` field naming one of the schemas below and a ``seq``
field giving its position in the merged (submission-order) stream.  The
schema is the contract between the emitters (epoch controller, decision
guard, NUCA L2, sweep harnesses) and the consumers (``repro report``, the
Chrome-trace exporter, CI validation): fields are never renamed, only
added, and :data:`SCHEMA_VERSION` is bumped on any breaking change.

Determinism is part of the contract.  Wall-clock fields exist only in
the advisory event types (:data:`ADVISORY_EVENTS`), the *only* events
allowed to differ between a serial and a ``--jobs N`` run of the same
experiment; :func:`canonical_events` drops them so equality can be
asserted exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.obs.errors import ObsError

#: bumped on any breaking change to an event schema below.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FieldSpec:
    """Declared shape of one event field."""

    types: tuple[type, ...]
    required: bool = True


_NUM = FieldSpec((int, float))
_INT = FieldSpec((int,))
_STR = FieldSpec((str,))
_LIST = FieldSpec((list, tuple))
_OPT_STR = FieldSpec((str,), required=False)
_OPT_LIST = FieldSpec((list, tuple), required=False)

#: fields present on (or permitted for) every event regardless of type.
#: ``scheme`` lets multi-scheme streams (``compare``) tag merged worker
#: events with their origin.
COMMON_FIELDS: dict[str, FieldSpec] = {
    "type": _STR,
    "seq": _INT,
    "scheme": _OPT_STR,
}

#: the event catalogue.  ``epoch`` is the controller's boundary index;
#: ``-1`` marks an end-of-run snapshot taken outside any boundary.
EVENT_SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    # stream header: who produced this trace and under what settings.
    "run_meta": {
        "schema_version": _INT,
        "source": _STR,  #: 'simulate' | 'compare' | 'sweep' | 'montecarlo'
        "detail": _OPT_STR,
    },
    # one installed repartitioning decision (simulated time, per-core ways,
    # layout, and the MSA-projected misses at the installed allocation).
    "epoch_decision": {
        "time": _NUM,
        "epoch": _INT,
        "algorithm": _STR,
        #: registry name of the deciding policy (added with the policy
        #: lab; equals ``algorithm`` for registry-dispatched runs).
        "policy": _OPT_STR,
        "ways": _LIST,
        "center_banks": _OPT_LIST,
        "pairs": _OPT_LIST,
        "projected_misses": _LIST,
    },
    # a boundary that fired but installed nothing (and why).
    "epoch_skip": {
        "time": _NUM,
        "epoch": _INT,
        "reason": _STR,
    },
    # one decision-guard ladder action (fault/fallback/degrade/recover).
    "guard_action": {
        "time": _NUM,
        "epoch": _INT,
        "kind": _STR,
        "detail": _STR,
        "mode": _STR,
    },
    # per-bank L2 counters at an epoch install (or end of run, epoch=-1):
    # cumulative hits/misses/occupancy per bank, port-queue state, and the
    # cumulative migration/writeback totals.
    "bank_snapshot": {
        "time": _NUM,
        "epoch": _INT,
        "hits": _LIST,
        "misses": _LIST,
        "occupancy": _LIST,
        "queue_served": _LIST,
        "queue_delay": _LIST,
        "migrations": _INT,
        "writebacks": _INT,
        #: cumulative per-core hit/miss totals (added with the time-series
        #: store; both sim backends emit bit-identical values).
        "core_hits": _OPT_LIST,
        "core_misses": _OPT_LIST,
    },
    # one Monte Carlo mix outcome (analytic sweep).  ``policies`` holds
    # the per-policy projected misses when the sweep ranks registry
    # policies (``--rank-policies``); absent otherwise.
    "mc_point": {
        "index": _INT,
        "mix": _LIST,
        "equal_misses": _NUM,
        "unrestricted_misses": _NUM,
        "bank_aware_misses": _NUM,
        "ways": _LIST,
        "policies": FieldSpec((dict,), required=False),
    },
    # one sweep work item's observed completion latency (wall clock),
    # emitted by the supervisor as it yields the item.  Advisory: it
    # narrates how the sweep was scheduled (a resumed sweep re-runs only
    # its tail), while the results travel in the item's own events.
    "sweep_item": {
        "index": _INT,
        "label": _STR,
        "wall_s": _NUM,
    },
    # periodic sweep heartbeat (done/total, and ``wall_s`` seconds since
    # the sweep began) that earlier versions emitted for a live monitor.
    # Nothing emits it any more; the schema is kept so traces stored by
    # earlier versions still validate and diff.  Advisory: ``wall_s`` is
    # wall clock, so the canonical projection drops the whole event.
    "progress": {
        "done": _INT,
        "total": _INT,
        "source": _STR,  #: 'montecarlo' | 'sweep'
        "wall_s": _NUM,
    },
    # one fabric supervision action (retry / timeout / quarantine / degrade
    # / requeue).  Nothing emits it any more — the sweep fabric fails fast
    # and recovers only through --resume — but the schema is kept so
    # traces stored by earlier versions still validate and diff.  Advisory:
    # it described *how* a run survived the host, not *what* it computed,
    # so the whole event is dropped from the canonical projection (see
    # :data:`ADVISORY_EVENTS`).
    "supervisor": {
        "kind": _STR,  #: 'retry' | 'timeout' | 'quarantine' | 'degrade' | 'requeue'
        "index": _INT,
        "attempt": _INT,
        "label": _OPT_STR,
        "rung": _OPT_STR,  #: degradation-ladder rung the action ran under
        "detail": _OPT_STR,
    },
    # one completed span of the in-program profiler earlier versions
    # had: a named phase's wall-clock window with its slash-joined
    # ancestry path and nesting depth.  Nothing emits it any more; the
    # schema is kept so traces stored by earlier versions still validate
    # and diff.  Advisory: a span described where *host* time went, not
    # what the run computed, so the canonical projection drops it.
    "span": {
        "name": _STR,
        "path": _STR,
        "depth": _INT,
        "t0": _NUM,
        "t1": _NUM,
    },
}

#: event types that may legitimately differ between two otherwise
#: identical runs (a stored trace from an earlier version may carry
#: supervisor retries, profiler spans or progress heartbeats; a resumed
#: sweep yields only the items it recomputed).  They hold every
#: wall-clock field of the catalogue.  :func:`canonical_events` removes
#: them wholesale and renumbers ``seq``, so the determinism gate compares
#: only the computed stream.
ADVISORY_EVENTS = frozenset({"supervisor", "span", "sweep_item", "progress"})

#: list fields of one event type that must share one length: a
#: ``bank_snapshot`` carries one entry per bank in each of its bank
#: counters, and one per core in each of its core counters.
ALIGNED_FIELDS: dict[str, tuple[tuple[str, ...], ...]] = {
    "bank_snapshot": (
        ("hits", "misses", "occupancy", "queue_served", "queue_delay"),
        ("core_hits", "core_misses"),
    ),
}


def validate_event(event: Mapping) -> list[str]:
    """Problems with one event (empty list = valid)."""
    etype = event.get("type")
    if not isinstance(etype, str):
        return ["event has no string 'type' field"]
    schema = EVENT_SCHEMAS.get(etype)
    if schema is None:
        return [f"unknown event type {etype!r}"]
    problems = []
    for name, spec in schema.items():
        if name not in event:
            if spec.required:
                problems.append(f"{etype}: missing required field {name!r}")
            continue
        if not isinstance(event[name], spec.types):
            problems.append(
                f"{etype}.{name}: expected "
                f"{'/'.join(t.__name__ for t in spec.types)}, "
                f"got {type(event[name]).__name__}"
            )
    for name, spec in COMMON_FIELDS.items():
        if name in event and not isinstance(event[name], spec.types):
            problems.append(
                f"{etype}.{name}: expected "
                f"{'/'.join(t.__name__ for t in spec.types)}, "
                f"got {type(event[name]).__name__}"
            )
    unknown = set(event) - set(schema) - set(COMMON_FIELDS)
    if unknown:
        problems.append(f"{etype}: unknown fields {sorted(unknown)}")
    for group in ALIGNED_FIELDS.get(etype, ()):
        lengths = {
            name: len(event[name])
            for name in group
            if isinstance(event.get(name), (list, tuple))
        }
        if len(set(lengths.values())) > 1:
            problems.append(
                f"{etype}: fields of unequal length "
                + ", ".join(f"{n}={k}" for n, k in lengths.items())
            )
    return problems


def checked_event(event: Mapping) -> Mapping:
    """``event`` itself once it validates: every fold of a loaded trace
    (``stats``, ``report``, ``diff``) reads events through this, so a
    damaged one raises :class:`ObsError` naming its ``seq`` instead of
    failing somewhere inside the fold."""
    problems = validate_event(event)
    if problems:
        raise ObsError(
            f"trace event seq {event.get('seq')}: {'; '.join(problems)}"
        )
    return event


def validate_events(events: Iterable[Mapping]) -> list[str]:
    """Problems across a whole stream, prefixed with the event index."""
    problems = []
    for i, event in enumerate(events):
        problems.extend(f"event #{i}: {p}" for p in validate_event(event))
    return problems


def check_trace(events: Sequence[Mapping]) -> list[str]:
    """Schema-validate a loaded trace stream (``repro report --check``);
    returns the problem list, which also flags a missing ``run_meta``
    header."""
    problems = validate_events(events)
    if events and events[0].get("type") != "run_meta":
        problems.insert(0, "trace does not open with a run_meta event")
    return problems


def canonical_events(events: Iterable[Mapping]) -> list[dict]:
    """The deterministic projection of a stream: advisory event types
    (:data:`ADVISORY_EVENTS`) dropped and ``seq`` renumbered to the
    canonical position — suitable for exact ``==`` comparison between
    serial, parallel, and crash-resumed runs.  For a stream with no
    advisory events the projection keeps every original ``seq``."""
    out = []
    for event in events:
        if event.get("type") in ADVISORY_EVENTS:
            continue
        projected = dict(event)
        if "seq" in projected:
            projected["seq"] = len(out)
        out.append(projected)
    return out


def _jsonify(value: object) -> object:
    """Coerce emitted values to stable JSON shapes (tuples become lists,
    numpy scalars become their Python equivalents)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()  # numpy scalar
    return value


def jsonify_fields(fields: Mapping[str, object]) -> dict:
    """JSON-stable copy of one event's payload fields."""
    return {name: _jsonify(value) for name, value in fields.items()}


__all__: Sequence[str] = (
    "ADVISORY_EVENTS",
    "ALIGNED_FIELDS",
    "COMMON_FIELDS",
    "EVENT_SCHEMAS",
    "FieldSpec",
    "SCHEMA_VERSION",
    "canonical_events",
    "check_trace",
    "checked_event",
    "jsonify_fields",
    "validate_event",
    "validate_events",
)
