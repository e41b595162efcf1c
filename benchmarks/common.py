"""Shared settings for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and prints it
(run ``pytest benchmarks/ --benchmark-only -s`` to see the tables inline).

Scaling knobs (environment variables):

* ``REPRO_FULL=1``        — run the analytic experiments (profiles, Monte
  Carlo, Table III) on the full 2048-set paper machine instead of the
  1/8-scale default.
* ``REPRO_BENCH_DURATION`` — simulated cycles per detailed run
  (default 6,000,000; the EXPERIMENTS.md numbers use 12,000,000).
* ``REPRO_BENCH_MIXES``    — Monte Carlo mix count (default 300; paper 1000).
* ``REPRO_JOBS``           — worker processes for the parallel sweeps
  (default 1 = serial; results are bit-identical for every value).
"""

from __future__ import annotations

import os

from repro.config import SystemConfig, scaled_config
from repro.fabric.supervisor import resolve_jobs
from repro.sim.runner import RunSettings


def bench_scale() -> int:
    return 1 if os.environ.get("REPRO_FULL") else 8


def bench_config(epoch_cycles: int | None = None) -> SystemConfig:
    kwargs = {} if epoch_cycles is None else {"epoch_cycles": epoch_cycles}
    return scaled_config(bench_scale(), **kwargs)


def detailed_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", 6_000_000))


def detailed_settings(seed: int = 7) -> RunSettings:
    return RunSettings(duration_cycles=detailed_duration(), seed=seed)


def monte_carlo_mixes() -> int:
    return int(os.environ.get("REPRO_BENCH_MIXES", 300))


def bench_jobs() -> int:
    """Worker count for the sweep benchmarks (``REPRO_JOBS``, default 1)."""
    return resolve_jobs(None)


def once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
