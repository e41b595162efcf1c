"""Compare two benchmark records written by ``run.py --json``.

    python3 bench/compare.py before.json after.json

One row per workload and metric: each side's median, quartiles and sample
count, the change of the median, and a verdict against the metric's bound
in ``BENCHMARK.json``:

* ``worse`` -- the median moved the wrong way by more than the bound;
* ``better`` -- it moved the right way by more than the bound, or the
  spread is too wide to judge but every sample of B beats every sample of A;
* ``unresolved`` -- the spread (quartile distance over median) of either
  side exceeds the bound;
* ``within bound`` -- otherwise.

Metrics without a bound (per-layer ones) get ``-``.  The modelled values
and ``results_digest`` must be identical: a simulator-only change may not
move them.  Exit code 1 when any metric is worse or unresolved, a model
value or digest differs, or B has failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import load_spec


def spread(s: dict) -> float:
    """Quartile distance as a share of the median."""
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge B against A (summaries from ``run.summarize``)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if max(spread(a), spread(b)) > bound:
        beats_all = (max(b["samples"]) < min(a["samples"]) if better == "lower"
                     else min(b["samples"]) > max(a["samples"]))
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within bound"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether B passes against A."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':16s} {'metric':42s} {'A median [q1, q3] n':32s} "
             f"{'B median [q1, q3] n':32s} {'change':>8s} {'bound':>6s}  verdict"]
    ok = True
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"{workload:16s} missing from B")
            ok = False
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for name, sa in ra["metrics"].items():
            sb = rb["metrics"].get(name)
            if sb is None:
                lines.append(f"{workload:16s} {name:42s} missing from B")
                ok = False
                continue
            m = metric_spec[name]
            bound = m.get("bound")
            v = "-" if bound is None else verdict(sa, sb, m["better"], bound)
            ok &= v not in ("worse", "unresolved")
            change = (sb["value"] - sa["value"]) / abs(sa["value"]) if sa["value"] else 0.0
            lines.append(
                f"{workload:16s} {name:42s} {_cell(sa):32s} {_cell(sb):32s} "
                f"{100 * change:+7.2f}% {'' if bound is None else f'{100 * bound:.0f}%':>6s}  {v}"
            )
        for name, va in ra["model"].items():
            vb = rb["model"].get(name)
            same = vb == va
            ok &= same
            lines.append(f"{workload:16s} model {name:36s} {va!r:32} {vb!r:32} "
                         f"{'':15s}  {'identical' if same else 'CHANGED'}")
        same = ra["results_digest"] == rb["results_digest"]
        ok &= same
        lines.append(f"{workload:16s} results_digest {'identical' if same else 'DIFFERS'}")
        if rb["failures"]:
            ok = False
            lines.append(f"{workload:16s} B failed {len(rb['failures'])}/{rb['attempted']}: "
                         + "; ".join(rb["failures"]))
    return lines, ok


def _cell(s: dict) -> str:
    return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline record")
    parser.add_argument("b", type=Path, help="candidate record")
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if a["seed"] != b["seed"]:
        print(f"warning: seeds differ ({a['seed']} vs {b['seed']}); "
              "model values and digests cannot match", file=sys.stderr)
    lines, ok = compare(a, b, load_spec())
    print("\n".join(lines))
    print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
