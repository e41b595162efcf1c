"""Structured exception taxonomy of the whole package.

This module is a dependency *leaf* (it imports nothing from the
package), so every layer — ``repro.config`` at the bottom, the lint
engine at the top — can raise taxonomy errors without import cycles.

Every failure the resilience machinery can detect — and therefore contain —
is a :class:`ReproError`, so callers (the epoch controller, the sweep
drivers, the CLI) can distinguish *contained, expected* faults from genuine
programming errors and react without a bare ``except Exception``.

Errors that replace what used to be plain ``ValueError`` raises also inherit
from :class:`ValueError`, so existing callers that caught ``ValueError`` on
those paths keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "CheckpointCorrupt",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "ConfigError",
    "PartitionInvariantError",
    "PoisonItemError",
    "ProfilerFault",
    "ReproError",
    "SanitizerViolation",
]


class ReproError(Exception):
    """Base class of every structured error raised by this package."""


class ConfigError(ReproError, ValueError):
    """A component was constructed with out-of-domain parameters."""


class ProfilerFault(ReproError):
    """A profiler's output is unusable for a partitioning decision.

    Raised when an MSA histogram has too few observations (the epoch
    controller's per-core floor, which sparse but healthy profilers trip
    in fault-free runs), contains negative or non-finite counters, or
    projects a degenerate miss curve.
    """

    def __init__(self, message: str, *, core: int | None = None) -> None:
        super().__init__(message)
        self.core = core


class PartitionInvariantError(ReproError, ValueError):
    """A partitioning decision violates a hard structural invariant.

    The invariants are the ones the paper's scheme depends on for safety:
    way conservation, the 9/16 maximum-assignable-capacity cap, a minimum
    share per core, and Rules 1–3 of the Bank-aware assignment.
    """


class PoisonItemError(ReproError):
    """A sweep work item failed, aborting the sweep.

    Raised by the :class:`~repro.fabric.supervisor.Supervisor` when an
    item's worker raises or its worker process dies, so a thousand-item
    sweep aborts naming *which* item failed (``index``, ``label``) instead
    of a raw traceback from an anonymous pool process.  The worker's
    exception (or the ``BrokenProcessPool``) is chained as ``__cause__``.
    Items are never retried: a checkpointed sweep recovers with
    ``--resume``.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.label = label


class CheckpointCorrupt(ReproError):
    """A sweep checkpoint file failed parsing or integrity validation."""


class CheckpointMismatchError(CheckpointCorrupt):
    """An intact checkpoint belongs to a *different* experiment.

    Raised when a resume is attempted with parameters (seed, mixes,
    schemes, machine shape, ...) that disagree with the snapshot's stored
    metadata: splicing its completed items into the current sweep would
    silently pair work item *i* with another experiment's result.  Subclass
    of :class:`CheckpointCorrupt` so existing refuse-to-resume handlers
    keep working; ``mismatched`` names the disagreeing metadata keys.
    """

    def __init__(self, message: str, *, mismatched: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.mismatched = mismatched


#: modern alias — new code should catch :class:`CheckpointCorruptError`;
#: the short name predates the ``*Error`` convention and stays for
#: backwards compatibility.
CheckpointCorruptError = CheckpointCorrupt


class SanitizerViolation(ReproError):
    """A deep sanitizer check failed (see :mod:`repro.resilience.sanitizer`).

    Unlike the guard — which *contains* bad decisions and keeps running —
    the sanitizer is a debugging mode: a violation always propagates, with
    enough context (check name, bank/set/core) to localise the corruption.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str | None = None,
        core: int | None = None,
        bank: int | None = None,
        set_index: int | None = None,
    ) -> None:
        where = ", ".join(
            f"{key}={value}"
            for key, value in (
                ("check", check), ("core", core),
                ("bank", bank), ("set", set_index),
            )
            if value is not None
        )
        super().__init__(f"sanitizer: {message}" + (f" [{where}]" if where else ""))
        self.check = check
        self.core = core
        self.bank = bank
        self.set_index = set_index
