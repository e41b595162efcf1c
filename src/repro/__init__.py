"""repro — Bank-aware Dynamic Cache Partitioning for Multicore Architectures.

A complete Python reproduction of Kaseridis, Stuecheli & John (ICPP 2009):
an 8-core CMP with a 16-bank DNUCA L2, MSA stack-distance profiling in
hardware-feasible form, marginal-utility cache partitioning under realistic
bank restrictions, and the trace-driven full-system simulation
infrastructure needed to evaluate it.

Typical entry points:

>>> from repro import scaled_config, get, generate_trace
>>> from repro.profiling import MSAProfiler, MissCurve
>>> from repro.partitioning import bank_aware_partition
>>> from repro.sim import run_mix, compare_schemes

See README.md for the architecture overview and DESIGN.md/EXPERIMENTS.md
for the per-paper-figure experiment index.
"""

from repro.config import (
    ResilienceConfig,
    SystemConfig,
    baseline_config,
    default_scale,
    scaled_config,
)
from repro.resilience import DecisionGuard, ReproError
from repro.workloads import (
    ALL_NAMES,
    TABLE_III_SETS,
    Mix,
    WorkloadSpec,
    generate_trace,
    get,
    random_mixes,
    suite,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_NAMES",
    "DecisionGuard",
    "Mix",
    "ReproError",
    "ResilienceConfig",
    "SystemConfig",
    "TABLE_III_SETS",
    "WorkloadSpec",
    "__version__",
    "baseline_config",
    "default_scale",
    "generate_trace",
    "get",
    "random_mixes",
    "scaled_config",
    "suite",
]
