"""First-divergence diffing of two telemetry traces (``repro diff``).

The paper's evaluation — and this repository's determinism contract — is
comparative: the interesting question about two runs is never "do the
end-of-run aggregates roughly agree" but "*where* did the decision streams
first part ways".  This module walks two canonical event streams (the
deterministic projection of :func:`repro.telemetry.events.canonical_events`,
wall-clock fields stripped) in lockstep and reports the **first** event at
which they differ, annotated at the domain level:

* ``epoch_decision`` divergence names the epoch and the per-core way
  vector difference (the Rules 1–3 surface: way splits, center-bank
  grants, adjacent-pair sharing);
* ``bank_snapshot`` divergence names the first bank whose hit/miss/
  occupancy counters drifted;
* metric deltas (total misses, decision counts, Monte Carlo mean ratios)
  are reported regardless, with configurable absolute/relative tolerances
  for cross-config comparisons.

With the default zero tolerances the diff doubles as the serial-vs-
``--jobs N`` determinism gate: two runs of the same experiment must
produce *identical* canonical streams, and any non-empty divergence is a
regression.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.obs.errors import ObsError
from repro.telemetry.events import canonical_events

#: domain annotations attached to diverging fields of an epoch_decision —
#: the paper's placement rules make these the semantically loaded ones.
FIELD_NOTES: dict[str, str] = {
    "ways": "per-core way allocation (capacity split feeding Rules 1-3)",
    "center_banks": "center-bank grant — Rule 1: center banks are "
                    "assigned whole to a single core",
    "pairs": "local-bank sharing pairs — Rule 3: only adjacent cores "
             "may way-share a local bank",
    "projected_misses": "MSA-projected misses at the installed allocation",
    "hits": "per-bank cumulative hits",
    "misses": "per-bank cumulative misses",
    "occupancy": "per-bank resident lines",
    "queue_served": "per-bank port-queue served count",
    "queue_delay": "per-bank port-queue delay",
}


@dataclass(frozen=True)
class FieldDiff:
    """One diverging field of the first diverging event pair."""

    name: str
    a: object
    b: object
    note: str | None = None
    #: for list-shaped fields: indices (cores/banks) that differ.
    positions: tuple[int, ...] = ()


@dataclass(frozen=True)
class Divergence:
    """The first stream position where the canonical traces differ."""

    index: int  #: position in the canonical stream
    kind: str  #: 'field' | 'type' | 'length'
    etype_a: str | None
    etype_b: str | None
    epoch: int | None
    scheme: str | None
    fields: tuple[FieldDiff, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class MetricDelta:
    """One headline metric compared across the two streams."""

    name: str
    a: float
    b: float
    delta: float
    within_tolerance: bool


@dataclass
class DiffReport:
    """Outcome of one trace diff."""

    a_label: str
    b_label: str
    a_events: int
    b_events: int
    divergence: Divergence | None = None
    metrics: list[MetricDelta] = field(default_factory=list)
    #: float field differences waived by the tolerances (count only
    #: informational; the first non-waived difference stops the walk).
    waived: int = 0

    @property
    def identical(self) -> bool:
        """No divergence and every metric within tolerance."""
        return self.divergence is None and all(
            m.within_tolerance for m in self.metrics
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.identical else 1

    def to_dict(self) -> dict:
        """JSON-serialisable form (``repro diff --format json``)."""
        payload: dict = {
            "a": {"label": self.a_label, "events": self.a_events},
            "b": {"label": self.b_label, "events": self.b_events},
            "identical": self.identical,
            "waived_float_diffs": self.waived,
            "metrics": [
                {
                    "name": m.name, "a": m.a, "b": m.b, "delta": m.delta,
                    "within_tolerance": m.within_tolerance,
                }
                for m in self.metrics
            ],
        }
        if self.divergence is not None:
            d = self.divergence
            payload["divergence"] = {
                "index": d.index,
                "kind": d.kind,
                "type_a": d.etype_a,
                "type_b": d.etype_b,
                "epoch": d.epoch,
                "scheme": d.scheme,
                "detail": d.detail,
                "fields": [
                    {
                        "field": f.name, "a": f.a, "b": f.b,
                        "note": f.note, "positions": list(f.positions),
                    }
                    for f in d.fields
                ],
            }
        return payload


def _within(a: float, b: float, rel_tol: float, abs_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def _values_differ(
    a: object, b: object, rel_tol: float, abs_tol: float, waived: list[int]
) -> bool:
    """Structural inequality with float leaves compared by tolerance.

    Integers, strings and container shapes must match exactly; float
    leaves within tolerance are tolerated (counted in ``waived``).  A
    bool is never conflated with the ints it subclasses.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is not b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return True
        if a == b:  # exact match, including int/float cross-typing
            return False
        if _within(float(a), float(b), rel_tol, abs_tol):
            waived[0] += 1
            return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return True
        return any(
            _values_differ(x, y, rel_tol, abs_tol, waived)
            for x, y in zip(a, b)
        )
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            return True
        return any(
            _values_differ(a[k], b[k], rel_tol, abs_tol, waived) for k in a
        )
    return a != b


def _positions(a: object, b: object) -> tuple[int, ...]:
    """Indices at which two equal-length sequences disagree."""
    if (
        isinstance(a, (list, tuple))
        and isinstance(b, (list, tuple))
        and len(a) == len(b)
    ):
        return tuple(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    return ()


def _event_diffs(
    ea: Mapping, eb: Mapping, rel_tol: float, abs_tol: float,
    waived: list[int],
) -> list[FieldDiff]:
    diffs = []
    for name in sorted(set(ea) | set(eb)):
        va, vb = ea.get(name), eb.get(name)
        if not _values_differ(va, vb, rel_tol, abs_tol, waived):
            continue
        diffs.append(
            FieldDiff(
                name, va, vb,
                note=FIELD_NOTES.get(name),
                positions=_positions(va, vb),
            )
        )
    return diffs


def _event_epoch(event: Mapping) -> int | None:
    epoch = event.get("epoch")
    if isinstance(epoch, int):
        return epoch
    index = event.get("index")
    return index if isinstance(index, int) else None


def _collect_metrics(events: Sequence[Mapping]) -> dict[str, float]:
    """Headline metrics of one canonical stream, keyed for comparison."""
    metrics: dict[str, float] = {}
    last_snapshot: dict[str, Mapping] = {}
    decisions: dict[str, int] = {}
    guards: dict[str, int] = {}
    mc_ratios: list[float] = []
    for event in events:
        etype = event.get("type")
        scheme = str(event.get("scheme", ""))
        if etype == "bank_snapshot":
            last_snapshot[scheme] = event
        elif etype == "epoch_decision":
            decisions[scheme] = decisions.get(scheme, 0) + 1
        elif etype == "guard_action":
            guards[scheme] = guards.get(scheme, 0) + 1
        elif etype == "mc_point":
            equal = event.get("equal_misses") or 0.0
            bank = event.get("bank_aware_misses") or 0.0
            if equal:
                mc_ratios.append(bank / equal)
    for scheme, snap in last_snapshot.items():
        prefix = f"{scheme}/" if scheme else ""
        metrics[f"{prefix}misses_total"] = float(
            sum(snap.get("misses", []))
        )
        metrics[f"{prefix}hits_total"] = float(sum(snap.get("hits", [])))
        metrics[f"{prefix}migrations"] = float(snap.get("migrations", 0))
    for scheme, count in decisions.items():
        prefix = f"{scheme}/" if scheme else ""
        metrics[f"{prefix}decisions"] = float(count)
    for scheme, count in guards.items():
        prefix = f"{scheme}/" if scheme else ""
        metrics[f"{prefix}guard_actions"] = float(count)
    if mc_ratios:
        metrics["mc/points"] = float(len(mc_ratios))
        metrics["mc/mean_bank_aware_ratio"] = sum(mc_ratios) / len(mc_ratios)
    return metrics


def diff_traces(
    a: Sequence[Mapping],
    b: Sequence[Mapping],
    *,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    a_label: str = "A",
    b_label: str = "B",
) -> DiffReport:
    """First-divergence comparison of two event streams.

    Both streams are projected onto their deterministic fields first, so
    wall-clock jitter never reads as divergence.  The walk stops at the
    first event pair with a non-waived difference; headline metric deltas
    are computed over the *full* streams either way.  Tolerances must be
    finite and non-negative (:class:`ObsError` otherwise).
    """
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ObsError(
                f"{name} must be finite and non-negative, got {tol!r}"
            )
    ca, cb = canonical_events(a), canonical_events(b)
    waived = [0]
    report = DiffReport(a_label, b_label, len(ca), len(cb))
    for index, (ea, eb) in enumerate(zip(ca, cb)):
        ta, tb = ea.get("type"), eb.get("type")
        if ta != tb:
            report.divergence = Divergence(
                index, "type", ta, tb,
                _event_epoch(ea), ea.get("scheme"),
                detail=f"event #{index} is {ta!r} in {a_label} but "
                       f"{tb!r} in {b_label}",
            )
            break
        diffs = _event_diffs(ea, eb, rel_tol, abs_tol, waived)
        if diffs:
            report.divergence = Divergence(
                index, "field", ta, tb,
                _event_epoch(ea), ea.get("scheme"),
                fields=tuple(diffs),
                detail=f"first divergence at event #{index} ({ta})",
            )
            break
    else:
        if len(ca) != len(cb):
            shorter, longer = (
                (a_label, b_label) if len(ca) < len(cb)
                else (b_label, a_label)
            )
            index = min(len(ca), len(cb))
            tail = (cb if len(ca) < len(cb) else ca)[index]
            report.divergence = Divergence(
                index, "length", tail.get("type"), tail.get("type"),
                _event_epoch(tail), tail.get("scheme"),
                detail=f"{shorter} ends after {index} events; {longer} "
                       f"continues with {tail.get('type')!r}",
            )
    ma, mb = _collect_metrics(ca), _collect_metrics(cb)
    for name in sorted(set(ma) | set(mb)):
        va, vb = ma.get(name, 0.0), mb.get(name, 0.0)
        report.metrics.append(
            MetricDelta(
                name, va, vb, vb - va,
                within_tolerance=_within(va, vb, rel_tol, abs_tol),
            )
        )
    report.waived = waived[0]
    return report


def render_diff_text(report: DiffReport) -> str:
    """Human-readable diff report."""
    lines = [
        f"diff {report.a_label} ({report.a_events} events) vs "
        f"{report.b_label} ({report.b_events} events)"
    ]
    d = report.divergence
    if d is None:
        lines.append("streams: identical canonical event streams")
    else:
        where = f"event #{d.index}"
        if d.epoch is not None:
            where += f", epoch {d.epoch}"
        if d.scheme:
            where += f", scheme {d.scheme}"
        lines.append(f"FIRST DIVERGENCE at {where}: {d.detail}")
        for f in d.fields:
            lines.append(f"  {f.name}: {f.a!r} -> {f.b!r}")
            if f.positions:
                label = "banks" if f.name in (
                    "hits", "misses", "occupancy", "queue_served",
                    "queue_delay",
                ) else "cores"
                lines.append(
                    f"    differs at {label} "
                    f"{', '.join(map(str, f.positions))}"
                )
            if f.note:
                lines.append(f"    ({f.note})")
    interesting = [
        m for m in report.metrics
        if not m.within_tolerance or m.delta != 0
    ]
    shown = interesting if interesting else report.metrics
    if shown:
        lines.append("metric deltas:")
        for m in shown:
            flag = "ok" if m.within_tolerance else "EXCEEDS TOLERANCE"
            lines.append(
                f"  {m.name}: {m.a:g} -> {m.b:g} "
                f"(delta {m.delta:+g}) [{flag}]"
            )
    if report.waived:
        lines.append(
            f"waived {report.waived} float field difference(s) within "
            f"tolerance"
        )
    lines.append(
        "verdict: "
        + ("no divergence" if report.identical else "streams diverge")
    )
    return "\n".join(lines)


def render_diff_json(report: DiffReport) -> str:
    """The diff report as pretty-printed JSON."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
