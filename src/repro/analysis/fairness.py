"""Fairness and throughput metrics for scheme comparisons.

The paper motivates partitioning with workloads that "destructively
interfere in an unfair way"; its evaluation reports misses and CPI.  This
module adds the standard multiprogramming metrics built on per-workload
*stand-alone* runs (each workload on the machine by itself):

* per-core slowdown            ``CPI_shared / CPI_alone``
* weighted speedup             ``sum(IPC_shared / IPC_alone)``
* fairness index               ``min(slowdown) / max(slowdown)`` (1 = fair)

These quantify the unfairness the introduction describes and let the
schemes be compared on quality-of-service grounds, not just total misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, scaled_config
from repro.mem.trace import Trace
from repro.sim.runner import RunSettings, run_mix, trace_length
from repro.sim.stats import SystemResult
from repro.sim.system import CMPSystem
from repro.workloads.mixes import Mix
from repro.workloads.synthetic import generate_trace


def _empty_trace() -> Trace:
    return Trace.from_records([])


def standalone_cpi(
    name: str,
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
) -> float:
    """CPI of one workload running alone on the whole machine (the shared
    cache without competitors — the baseline for slowdown metrics)."""
    from repro.workloads.spec_like import get

    cfg = config or scaled_config()
    st = settings or RunSettings()
    spec = get(name)
    trace = generate_trace(
        spec, trace_length(spec, cfg, st), cfg.l2.sets_per_bank, seed=st.seed
    )
    specs = [spec] + [spec] * (cfg.num_cores - 1)
    traces = [trace] + [_empty_trace() for _ in range(cfg.num_cores - 1)]
    system = CMPSystem(cfg, specs, traces, scheme="no-partitions")
    system.set_measurement_window(st.warmup_cycles, st.duration_cycles)
    result = system.run()
    return result.cores[0].cpi


@dataclass(frozen=True)
class FairnessReport:
    """Multiprogramming quality metrics of one scheme on one mix."""

    scheme: str
    slowdowns: tuple[float, ...]

    @property
    def weighted_speedup(self) -> float:
        return float(sum(1.0 / s for s in self.slowdowns if s > 0))

    @property
    def fairness_index(self) -> float:
        if not self.slowdowns:
            return 1.0
        return min(self.slowdowns) / max(self.slowdowns)

    @property
    def worst_slowdown(self) -> float:
        return max(self.slowdowns)


def fairness_report(
    mix: Mix,
    scheme: str,
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
    *,
    alone_cpis: dict[str, float] | None = None,
) -> FairnessReport:
    """Run ``mix`` under ``scheme`` and relate each core's CPI to its
    stand-alone CPI.  Pass precomputed ``alone_cpis`` to amortise the
    stand-alone runs across schemes."""
    cfg = config or scaled_config()
    st = settings or RunSettings()
    if alone_cpis is None:
        alone_cpis = {
            name: standalone_cpi(name, cfg, st) for name in set(mix.names)
        }
    result: SystemResult = run_mix(mix, scheme, cfg, st)
    slowdowns = []
    for core in result.cores:
        alone = alone_cpis[core.workload]
        slowdowns.append(core.cpi / alone if alone > 0 else float("nan"))
    return FairnessReport(scheme, tuple(slowdowns))
