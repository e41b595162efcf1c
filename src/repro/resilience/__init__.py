"""Resilience subsystem: the decision guard, the sanitizer, checkpoints.

The dynamic partitioning pipeline trusts sampled hardware profilers for
every epoch decision and runs sweeps long enough that crashes are a
when-not-if.  This package *contains* sparse or damaged profiler reads
(:mod:`~repro.resilience.guard`), *fails fast* on corrupted simulator
state (:mod:`~repro.resilience.sanitizer`) and *survives* interruptions
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
)
from repro.resilience.guard import (
    LADDER,
    DecisionGuard,
    DegradedMode,
    GuardEvent,
)
from repro.resilience.sanitizer import ReproSanitizer

__all__ = [
    "CheckpointCorrupt",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "ConfigError",
    "DecisionGuard",
    "DegradedMode",
    "GuardEvent",
    "LADDER",
    "PartitionInvariantError",
    "PoisonItemError",
    "ProfilerFault",
    "ReproError",
    "ReproSanitizer",
    "SanitizerViolation",
    "SweepCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
]
