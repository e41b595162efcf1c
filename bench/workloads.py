"""The benchmark's workloads, their output checks, and the per-pass child.

Each workload regenerates a reduced paper artefact from the ``repro``
sources of this checkout:

* ``mc_fig7`` -- the analytic Monte Carlo of Fig. 7: 26 stand-alone MSA
  profiles, then 1000 random mixes ranked by every analytic policy.
* ``fig89_batched`` -- Figs. 8/9: the 8 Table III sets x the 3 detailed
  schemes on the batched engine.
* ``fig89_reference`` -- Sets 1-2 x the 3 schemes on the reference engine.
* ``epoch_churn`` -- Sets 6-7 x 4 dynamic policies with a short epoch.

``run.py`` runs every pass in a fresh interpreter:

    python3 bench/workloads.py --workload fig89_batched --seed 7 --mode check \
        --spawned-at <CLOCK_MONOTONIC seconds taken just before the spawn>

and reads the JSON record on the last line of its standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
#: traced-pass reports and scratch files; ignored by git
OUT_DIR = BENCH_DIR / "out"

# The benchmark measures the program of its own checkout, never an
# installed copy.
sys.path.insert(0, str(SRC_DIR))
import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC_DIR):
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC_DIR}")

from repro.analysis import montecarlo  # noqa: E402
from repro.analysis.experiments import DetailedResults  # noqa: E402
from repro.config import SystemConfig, scaled_config  # noqa: E402
from repro.partitioning.registry import analytic_policies  # noqa: E402
from repro.sim.runner import RunSettings, SchemeComparison, build_system  # noqa: E402
from repro.sim.stats import SystemResult  # noqa: E402
from repro.sim.system import DETAILED_SCHEMES  # noqa: E402
from repro.workloads.mixes import TABLE_III_SETS, Mix  # noqa: E402

import layers  # noqa: E402

#: counts read from the simulated system's public state after every run
COUNTS = (
    "sim.epochs_installed",
    "sim.l2_accesses",
    "cache.l2_hits",
    "cache.migrations",
    "cache.writebacks",
    "noc.bank_queue_delay_cycles",
    "noc.mem_queue_delay_cycles",
    "resilience.guard_events",
)

CHURN_SCHEMES = ("bank-aware", "unrestricted", "joint", "bank-bw")


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass
class Pass:
    """One pass over a workload: host times, outputs and model counts."""

    setup_s: float = 0.0  #: time in ``build_system`` (imports come on top)
    run_s: float = 0.0  #: the timed phase
    events: int = 0  #: L2 accesses simulated, or Monte Carlo mixes evaluated
    #: detailed: (mix, scheme, result) per unit; Monte Carlo: the result
    results: list = field(default_factory=list)
    mc_result: montecarlo.MonteCarloResult | None = None
    model: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: what a re-run on another engine needs
    config: SystemConfig | None = None
    settings: RunSettings | None = None

    def digest(self) -> str:
        """SHA-256 over every ``SystemResult.to_dict()`` or Monte Carlo point."""
        if self.mc_result is not None:
            payload = [p.to_dict() for p in self.mc_result.points]
        else:
            payload = [[str(mix), scheme, r.to_dict()] for mix, scheme, r in self.results]
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _failed(p: Pass, what: str) -> None:
    traceback.print_exc()
    p.failures.append(f"{what}: {sys.exc_info()[1]!r}")


# -- workloads ------------------------------------------------------------


def mc_fig7(
    seed: int,
    *,
    profile_accesses: int = 80_000,
    num_mixes: int = 1000,
    build_only: bool = False,
) -> Pass:
    """Profile all 26 workloads, then run the Monte Carlo over
    ``num_mixes`` random mixes with every analytic policy ranked."""
    p = Pass(config=scaled_config())
    if build_only:
        return p
    p.attempted = 2
    start = time.perf_counter()
    try:
        curves = montecarlo.collect_profiles(
            config=p.config, accesses=profile_accesses, seed=seed
        )
        p.mc_result = montecarlo.run_monte_carlo(
            num_mixes, p.config, curves=curves, seed=seed,
            policies=analytic_policies(), jobs=1,
        )
    except Exception:
        _failed(p, "mc_fig7")
        return p
    finally:
        p.run_s = time.perf_counter() - start
    p.events = len(p.mc_result.points)
    p.model = {
        "mc_bank_aware_ratio": p.mc_result.mean_bank_aware_ratio,
        "mc_unrestricted_ratio": p.mc_result.mean_unrestricted_ratio,
        "mc_restriction_penalty_pp": 100.0 * p.mc_result.restriction_penalty(),
    }
    return p


def detailed(
    seed: int,
    *,
    sets: tuple[Mix, ...],
    schemes: tuple[str, ...],
    backend: str,
    epoch_cycles: int = 250_000,
    duration_cycles: float = 1_500_000,
    build_only: bool = False,
) -> Pass:
    """Simulate every (set, scheme) unit from empty caches; statistics are
    collected after the first half of ``duration_cycles``."""
    p = Pass(
        config=scaled_config(8, epoch_cycles=epoch_cycles),
        settings=RunSettings(
            duration_cycles=duration_cycles, warmup_fraction=0.5,
            seed=seed, sim_backend=backend,
        ),
    )
    for mix in sets:
        for scheme in schemes:
            p.attempted += 1
            try:
                t0 = time.perf_counter()
                system = build_system(mix, scheme, p.config, p.settings)
                t1 = time.perf_counter()
                p.setup_s += t1 - t0
                if build_only:
                    continue
                result = system.run()
                p.run_s += time.perf_counter() - t1
            except Exception:
                _failed(p, f"{mix} {scheme}")
                continue
            p.results.append((mix, scheme, result))
            _count(p.counts, system, result)
    p.events = p.counts["sim.l2_accesses"]
    if set(DETAILED_SCHEMES) <= set(schemes) and not p.failures and p.results:
        by_mix: dict[Mix, dict[str, SystemResult]] = {}
        for mix, scheme, result in p.results:
            by_mix.setdefault(mix, {})[scheme] = result
        summary = DetailedResults(
            [SchemeComparison(mix, res) for mix, res in by_mix.items()]
        ).summary()
        p.model = {
            "rel_miss_bank_aware_gm": summary["bank_aware_relative_miss"],
            "rel_miss_equal_gm": summary["equal_relative_miss"],
            "rel_cpi_bank_aware_gm": summary["bank_aware_relative_cpi"],
            "rel_cpi_equal_gm": summary["equal_relative_cpi"],
        }
    return p


def _count(counts: dict[str, float], system, result: SystemResult) -> None:
    stats = system.l2.stats
    counts["sim.epochs_installed"] += len(result.epochs)
    counts["sim.l2_accesses"] += stats.total_accesses()
    counts["cache.l2_hits"] += stats.total_hits()
    counts["cache.migrations"] += stats.migrations
    counts["cache.writebacks"] += stats.writebacks
    counts["noc.bank_queue_delay_cycles"] += sum(
        port.total_queue_delay for port in system.contention.ports
    )
    counts["noc.mem_queue_delay_cycles"] += system.contention.memory_port.total_queue_delay
    counts["resilience.guard_events"] += len(result.guard_events)


# -- output checks (untimed) ----------------------------------------------


def same_result(a: SystemResult, b: SystemResult) -> bool:
    """Exact identity: equal ``to_dict()`` down to every float's digits."""
    return json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def rerun_identity(
    p: Pass, backend: str, units: set[tuple[Mix, str]] | None = None
) -> list[Check]:
    """Re-run units on ``backend`` and require results identical to the pass."""
    settings = replace(p.settings, sim_backend=backend)
    checks = []
    for mix, scheme, result in p.results:
        if units is not None and (mix, scheme) not in units:
            continue
        name = f"{mix} {scheme} identical on {backend}"
        try:
            again = build_system(mix, scheme, p.config, settings).run()
        except Exception:
            traceback.print_exc()
            checks.append(Check(name, False, "re-run raised"))
            continue
        checks.append(Check(name, same_result(result, again), "to_dict() equality"))
    return checks


def check_mc_fig7(p: Pass) -> list[Check]:
    result = p.mc_result
    if result is None:
        return [Check("mc_fig7 produced a result", False, "no result")]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = Path(tmp) / "montecarlo.json"
        result.to_json(path)
        back = montecarlo.MonteCarloResult.from_json(path)
    penalty = p.model["mc_restriction_penalty_pp"]
    total_ways = p.config.l2.total_ways
    bad_ways = [pt.bank_aware_ways for pt in result.points if sum(pt.bank_aware_ways) != total_ways]
    return [
        Check(
            "MonteCarloResult JSON round trip is exact",
            [x.to_dict() for x in back.points] == [x.to_dict() for x in result.points],
            f"{len(result.points)} points",
        ),
        Check("0 <= restriction penalty <= 5 pp", 0.0 <= penalty <= 5.0, f"{penalty:.3f} pp"),
        Check(
            f"bank-aware way vectors sum to {total_ways}",
            not bad_ways,
            f"{len(bad_ways)} bad vectors" + (f", first {bad_ways[0]}" if bad_ways else ""),
        ),
    ]


def check_fig89_batched(p: Pass) -> list[Check]:
    m = p.model
    if not m:
        return [Check("fig89 produced relative metrics", False, "units failed")]
    miss_ba, miss_eq = m["rel_miss_bank_aware_gm"], m["rel_miss_equal_gm"]
    cpi_ba, cpi_eq = m["rel_cpi_bank_aware_gm"], m["rel_cpi_equal_gm"]
    # no bank-aware-vs-equal CPI ordering: at 1.5 M cycles it does not hold
    return [
        Check("relative miss GMs < 1", miss_ba < 1 and miss_eq < 1, f"{miss_ba:.4f}, {miss_eq:.4f}"),
        Check("bank-aware miss GM < equal miss GM", miss_ba < miss_eq, f"{miss_ba:.4f} vs {miss_eq:.4f}"),
        Check("relative CPI GMs < 1", cpi_ba < 1 and cpi_eq < 1, f"{cpi_ba:.4f}, {cpi_eq:.4f}"),
    ]


def check_fig89_reference(p: Pass) -> list[Check]:
    return rerun_identity(p, "batched")


def check_epoch_churn(p: Pass) -> list[Check]:
    return rerun_identity(p, "reference", units={(TABLE_III_SETS[6], "bank-bw")})


class Workload(NamedTuple):
    run: Callable[..., Pass]
    check: Callable[[Pass], list[Check]]


#: the parameters later changes refer to: keep them fixed
WORKLOADS: dict[str, Workload] = {
    "mc_fig7": Workload(mc_fig7, check_mc_fig7),
    "fig89_batched": Workload(
        partial(detailed, sets=TABLE_III_SETS, schemes=DETAILED_SCHEMES, backend="batched"),
        check_fig89_batched,
    ),
    "fig89_reference": Workload(
        partial(detailed, sets=TABLE_III_SETS[:2], schemes=DETAILED_SCHEMES, backend="reference"),
        check_fig89_reference,
    ),
    "epoch_churn": Workload(
        partial(detailed, sets=TABLE_III_SETS[5:7], schemes=CHURN_SCHEMES, backend="batched",
                epoch_cycles=25_000),
        check_epoch_churn,
    ),
}


# -- traced-pass report -----------------------------------------------------


def layer_metrics(report: dict, counts: dict[str, float], wrapper_ns: float) -> dict[str, float]:
    """Flatten a :meth:`layers.LayerTracer.report` plus the model counts
    into the benchmark's per-layer metric names."""
    out: dict[str, float] = {}
    for name, rec in report["callables"].items():
        out[f"{name}.self_pct"] = rec["self_pct"]
        out[f"{name}.calls"] = rec["calls"]
    for layer, rec in report["layers"].items():
        out[f"{layer}.self_pct"] = rec["self_pct"]
    out["profiling.observe_many.accesses"] = report["items"]["profiling.observe_many"]
    accesses = counts["sim.l2_accesses"]
    for name, value in counts.items():
        if name != "cache.l2_hits":
            out[name] = value
    out["cache.l2_hit_ratio"] = counts["cache.l2_hits"] / accesses if accesses else 0.0
    out["trace.wall_s"] = report["wall_s"]
    out["trace.unattributed_pct"] = report["unattributed_pct"]
    out["trace.wrapper_ns_per_call"] = wrapper_ns
    return out


# -- child entry point --------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def pass_record(
    p: Pass, imports_s: float, window_s: float, peak_rss_mb: float, checks: list[Check]
) -> dict:
    """The record of one pass that ``run.py`` reads."""
    return {
        "setup_s": imports_s + p.setup_s,
        "run_s": p.run_s,
        "window_s": window_s,
        "events": p.events,
        "peak_rss_mb": peak_rss_mb,
        "model": p.model,
        "counts": p.counts,
        "results_digest": p.digest(),
        "checks": [c._asdict() for c in checks],
        "attempted": p.attempted + len(checks),
        "failures": p.failures
        + [f"check failed: {c.name} ({c.detail})" for c in checks if not c.ok],
    }


def child(workload: str, seed: int, mode: str, imports_s: float) -> dict:
    """One pass in this process.

    ``mode`` is ``setup`` (build every system, run nothing), ``pass``
    (timed pass), ``check`` (timed pass plus output checks) or ``traced``
    (the pass under the layer tracer; reports land in ``bench/out/``)."""
    w = WORKLOADS[workload]
    if mode == "setup":
        p = w.run(seed, build_only=True)
        return {"setup_s": imports_s + p.setup_s, "attempted": 1,
                "failures": [f"set-up: {'; '.join(p.failures)}"] if p.failures else []}
    if mode in ("pass", "check"):
        start = time.perf_counter()
        p = w.run(seed)
        window_s = time.perf_counter() - start
        peak = _peak_rss_mb()  # before the checks re-run anything
        checks = w.check(p) if mode == "check" and not p.failures else []
        record = pass_record(p, imports_s, window_s, peak, checks)
        record["checks_s"] = time.perf_counter() - start - window_s
        return record
    tracer = layers.LayerTracer()
    with tracer.active():
        p = w.run(seed)
    window_s = (tracer.end_ns - tracer.start_ns) / 1e9
    record = pass_record(p, imports_s, window_s, _peak_rss_mb(), [])
    report = tracer.report()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    record["files"] = [str(stem.with_suffix(".layers.json")), str(stem.with_suffix(".trace.json"))]
    Path(record["files"][0]).write_text(json.dumps(report, indent=1))
    Path(record["files"][1]).write_text(json.dumps(tracer.chrome_trace()))
    record["layers"] = layer_metrics(report, p.counts, layers.wrapper_cost_ns())
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "check", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    imports_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    record = child(args.workload, args.seed, args.mode, imports_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
