"""Resilience subsystem: fault injection, guarded decisions, checkpoints.

The dynamic partitioning pipeline trusts sampled hardware profilers for
every epoch decision and runs sweeps long enough that crashes are a
when-not-if.  This package makes the reproduction *test* that trust
(:mod:`~repro.resilience.faults`), *contain* its violations
(:mod:`~repro.resilience.guard`) and *survive* interruptions
(:mod:`~repro.resilience.checkpoint`), under the structured error taxonomy
of :mod:`repro.errors` (re-exported here).
"""

from repro.resilience.checkpoint import (
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.errors import (
    CheckpointCorrupt,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
    PartitionInvariantError,
    PoisonItemError,
    ProfilerFault,
    ReproError,
    SanitizerViolation,
    SimulationInvariantError,
)
from repro.resilience.faults import (
    ANY_CORE,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.guard import (
    LADDER,
    DecisionGuard,
    DegradedMode,
    GuardEvent,
)
from repro.resilience.sanitizer import ReproSanitizer

__all__ = [
    "ANY_CORE",
    "CheckpointCorrupt",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "ConfigError",
    "DecisionGuard",
    "DegradedMode",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GuardEvent",
    "LADDER",
    "PartitionInvariantError",
    "PoisonItemError",
    "ProfilerFault",
    "ReproError",
    "ReproSanitizer",
    "SanitizerViolation",
    "SimulationInvariantError",
    "SweepCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
]
