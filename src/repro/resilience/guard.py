"""The epoch controller's containment: profiler health and the fallback ladder.

The paper's only defensive measure is the 9/16 maximum assignable
capacity cap, which every policy verdict checks inside ``decide``
(:func:`~repro.partitioning.allocation.check_way_vector`).  The
:class:`DecisionGuard` holds the two rules around it that shape results:

* **profiler health** — a histogram with too few observations (the
  controller's per-core floor), negative or non-finite counters, or a
  degenerate projected miss curve flags its profiler unhealthy
  (:class:`~repro.errors.ProfilerFault`);
* **fallback ladder** — on a failed epoch the controller keeps the
  last-known-good partition; every :data:`DEGRADE_AFTER` consecutive
  failures descend one rung (bank-aware → equal-share → frozen), and
  recovery climbs back one rung per :data:`HYSTERESIS_EPOCHS` consecutive
  healthy epochs, so an intermittent failure cannot make the partition
  flap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.profiling.miss_curve import MissCurve
from repro.errors import ProfilerFault

if TYPE_CHECKING:  # import cycle: cache.partition_map raises our errors
    from repro.cache.partition_map import PartitionMap


class DegradedMode(Enum):
    """The guard's operating rung, from full function to full stop."""

    NORMAL = "bank-aware"
    EQUAL_SHARE = "equal-share"
    FROZEN = "frozen"


#: descent order of the fallback ladder.
LADDER: tuple[DegradedMode, ...] = (
    DegradedMode.NORMAL,
    DegradedMode.EQUAL_SHARE,
    DegradedMode.FROZEN,
)

#: consecutive failed epochs per ladder rung descended.
DEGRADE_AFTER = 3

#: consecutive healthy epochs required to climb one ladder rung back up.
HYSTERESIS_EPOCHS = 2


@dataclass(frozen=True)
class GuardEvent:
    """One logged guard action (fault seen, fallback taken, rung change)."""

    time: float
    kind: str  #: 'fault' | 'fallback' | 'degrade' | 'recover'
    detail: str
    mode: str  #: the operating mode after this event


class DecisionGuard:
    """Health-checks profiler reads and runs the fallback ladder.

    The epoch controller consults its guard at every boundary: histograms
    are health-checked, and the ladder state tells the controller what to
    install when anything fails.  The ladder methods never raise —
    containment, not propagation — while :meth:`checked_curve` raises a
    typed :class:`~repro.errors.ProfilerFault` for the controller to
    contain.
    """

    def __init__(self) -> None:
        self.mode = DegradedMode.NORMAL
        self.strikes = 0  #: consecutive failed epochs
        self.healthy_streak = 0  #: consecutive healthy epochs
        self.last_good: PartitionMap | None = None
        self.events: list[GuardEvent] = []

    def checked_curve(
        self,
        name: str,
        core: int,
        histogram: np.ndarray,
        *,
        min_observations: float = 0.0,
    ) -> MissCurve:
        """Health-check one profiler histogram and build its miss curve.

        Raises :class:`ProfilerFault` on too few observations, negative or
        non-finite counters, or a non-monotone projected curve.
        """
        h = np.asarray(histogram, dtype=np.float64)
        if not np.all(np.isfinite(h)):
            raise ProfilerFault(
                f"core {core} ({name}): non-finite profiler counters", core=core
            )
        if np.any(h < 0):
            raise ProfilerFault(
                f"core {core} ({name}): negative profiler counters "
                "(non-monotone miss curve)", core=core,
            )
        observed = float(h.sum())
        if observed < min_observations:
            raise ProfilerFault(
                f"core {core} ({name}): {observed:.0f} observations, "
                f"need {min_observations:.0f}", core=core,
            )
        try:
            return MissCurve.from_histogram(name, h)
        except ValueError as exc:  # any residual degeneracy
            raise ProfilerFault(
                f"core {core} ({name}): degenerate miss curve: {exc}", core=core
            ) from exc

    # -- fallback ladder ----------------------------------------------------

    def _event(self, time: float, kind: str, detail: str) -> None:
        self.events.append(GuardEvent(time, kind, detail, self.mode.value))

    def record_install(self, pmap: PartitionMap) -> None:
        """Remember a freshly validated, installed partition as known-good."""
        self.last_good = pmap

    def note_failure(self, time: float, error: Exception) -> DegradedMode:
        """Register a failed epoch; returns the mode to operate in.

        The first ``DEGRADE_AFTER - 1`` consecutive failures stay on the
        current rung (the controller keeps the last-known-good partition);
        each further ``DEGRADE_AFTER`` failures descend one rung.
        """
        self.strikes += 1
        self.healthy_streak = 0
        self._event(time, "fault", str(error))
        rung = LADDER.index(self.mode)
        target = min(self.strikes // DEGRADE_AFTER, len(LADDER) - 1)
        if target > rung:
            self.mode = LADDER[target]
            self._event(
                time, "degrade",
                f"{self.strikes} consecutive failures: degraded to "
                f"{self.mode.value}",
            )
        else:
            fallback = (
                "holding last-known-good partition"
                if self.last_good is not None
                else "holding initial partition (no known-good yet)"
            )
            self._event(time, "fallback", fallback)
        return self.mode

    def note_healthy(self, time: float) -> DegradedMode:
        """Register a healthy epoch; climbs one rung per
        ``HYSTERESIS_EPOCHS`` consecutive healthy epochs.  Returns the mode
        to operate in."""
        self.strikes = 0
        self.healthy_streak += 1
        if self.mode is not DegradedMode.NORMAL and (
            self.healthy_streak >= HYSTERESIS_EPOCHS
        ):
            rung = LADDER.index(self.mode)
            self.mode = LADDER[rung - 1]
            self.healthy_streak = 0
            self._event(
                time, "recover", f"profilers healthy: recovered to {self.mode.value}"
            )
        return self.mode
