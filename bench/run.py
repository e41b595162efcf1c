"""End-to-end benchmark of the paper artefacts (see bench/README.md).

    python3 bench/run.py                          # all workloads, seed 7
    python3 bench/run.py --workload mc_fig7 --seed 13 --seconds 20
    python3 bench/run.py --reps 3 --json before.json
    python3 bench/run.py --trace 1                # per-layer run

Every pass runs in a fresh interpreter (``workloads.py``), one at a time.
Passes repeat until ``--reps`` are done and the next one would no longer
end within ``--seconds``; only the first runs the output checks.  Set-up
is repeated in set-up-only interpreters until :data:`SETUP_SAMPLES`
set-ups were timed.  Timings are medians over
the passes.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A pass that cannot
start, such as in a checkout without the program's sources, ends the
benchmark with exit code 2 and no result line; a failed unit or output
check gives exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: set-ups timed per workload (pass interpreters count)
SETUP_SAMPLES = 3
#: a pass that takes longer is stopped and the benchmark fails
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A pass could not produce its record."""


def load_spec(path: Path = SPEC_PATH) -> dict:
    """``BENCHMARK.json``: workloads, metric units, directions and bounds."""
    return json.loads(path.read_text())


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    values = sorted(samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": samples}


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one pass interpreter and return its record."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode} without a record")
    return json.loads(lines[-1])


def end_to_end_samples(passes: list[dict], setups: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's samples from pass and set-up records."""
    return {
        "setup_s": [r["setup_s"] for r in passes + setups],
        "run_s": [r["run_s"] for r in passes],
        "events_per_s": [r["events"] / r["run_s"] for r in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
    }


def measure(workload: str, seed: int, reps: int, seconds: float) -> dict:
    """Untraced passes plus set-up samples for one workload."""
    passes: list[dict] = []
    elapsed = unchecked = 0.0
    while len(passes) < reps or elapsed + unchecked / len(passes) <= seconds:
        # later passes skip the output checks: they must match the first
        # pass's results_digest instead
        start = time.monotonic()
        passes.append(spawn(workload, seed, "pass" if passes else "check"))
        wall = time.monotonic() - start
        elapsed += wall
        unchecked += wall - passes[-1]["checks_s"]
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES - len(passes))]
    samples = end_to_end_samples(passes, setups)
    out = _outcome(passes + setups)
    digests = {r["results_digest"] for r in passes}
    if len(passes) > 1:
        out["attempted"] += 1
        if len(digests) > 1:
            out["failures"].append("passes of one seed disagree on results_digest")
    out.update(
        metrics={name: summarize(values) for name, values in samples.items()},
        model=passes[0]["model"], counts=passes[0]["counts"],
        results_digest=passes[0]["results_digest"],
        checks=passes[0]["checks"],
    )
    return out


def measure_traced(workload: str, seed: int) -> dict:
    """An untraced and a traced pass; the per-layer metrics come from the
    traced one, its overhead from the difference."""
    plain = spawn(workload, seed, "check")
    traced = spawn(workload, seed, "traced")
    out = _outcome([plain, traced])
    out["attempted"] += 1
    if traced["results_digest"] != plain["results_digest"]:
        out["failures"].append("tracing changed results_digest")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (traced["window_s"] / plain["window_s"] - 1.0)
    out.update(
        metrics={name: summarize([value]) for name, value in metrics.items()},
        model=plain["model"], counts=plain["counts"],
        results_digest=plain["results_digest"], checks=plain["checks"],
        files=traced["files"],
    )
    return out


def _outcome(records: list[dict]) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in records),
        "failures": [f for r in records for f in r["failures"]],
    }


def _units(spec: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(results: dict[str, dict], units: dict[str, str]) -> None:
    for workload, res in results.items():
        print(f"== {workload}: {res['attempted'] - len(res['failures'])}/{res['attempted']} "
              f"units and checks passed, results_digest {res['results_digest'][:16]}")
        for name, s in res["metrics"].items():
            print(f"  {name:42s} {s['value']:14.6g} {units[name]:10s} "
                  f"[{s['q1']:.6g} .. {s['q3']:.6g}] n={s['n']}")
        for name, value in res["model"].items():
            print(f"  model {name:36s} {value:.6f}")
        for failure in res["failures"]:
            print(f"  FAILED {failure}")
        for path in res.get("files", ()):
            print(f"  wrote {path}")


def result_line(results: dict[str, dict], units: dict[str, str]) -> dict:
    """The last output line: with one workload the metrics are keyed by
    metric name, with several by ``<workload>.<metric>``."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    single = len(results) == 1
    metrics = {}
    for workload, res in results.items():
        for name, s in res["metrics"].items():
            key = name if single else f"{workload}.{name}"
            metrics[key] = {"value": s["value"], "unit": units[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed: trace, profile and mix generation")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting passes while the next should end within this time")
    parser.add_argument("--reps", type=int, default=1, help="minimum passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--json", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.reps < 1 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0 and --reps >= 1")

    units = _units(spec, args.trace)
    results = {}
    try:
        for workload in args.workload or names:
            if args.trace:
                results[workload] = measure_traced(workload, args.seed)
            else:
                results[workload] = measure(workload, args.seed, args.reps, args.seconds)
            produced = set(results[workload]["metrics"])
            if produced != set(units):
                raise BenchError(
                    f"metrics differ from {SPEC_PATH.name}: produced only "
                    f"{sorted(produced - set(units))}, missing {sorted(set(units) - produced)}"
                )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json is not None:
        record = {"seed": args.seed, "reps": args.reps, "seconds": args.seconds,
                  "trace": args.trace, "nproc": os.cpu_count(), "workloads": results}
        args.json.write_text(json.dumps(record, indent=1))
    print_table(results, units)
    line = result_line(results, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
