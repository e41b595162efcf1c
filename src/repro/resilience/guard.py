"""Guarded partition decisions: invariants, health checks, fallback ladder.

The paper already contains one defensive measure — the 9/16 maximum
assignable capacity cap — because a single bad epoch decision starves
co-runners for 100M cycles.  :class:`DecisionGuard` generalises that into a
full containment layer:

* **hard invariants** — every allocation vector and Bank-aware decision is
  validated before installation: way conservation, the capacity cap, a
  minimum share per core, and Rules 1–3 of the Bank-aware assignment
  (whole Center banks, Local bank comes with Center banks, adjacent-only
  Local sharing);
* **profiler health** — a histogram with too few observations, negative or
  non-finite counters, or a non-monotone projected miss curve flags its
  profiler unhealthy (:class:`~repro.errors.ProfilerFault`);
* **fallback ladder** — on any violation the guard keeps the last-known-good
  partition instead of installing garbage; sustained failures degrade
  bank-aware → equal-share → frozen, and recovery climbs back one rung per
  ``hysteresis`` consecutive healthy epochs so an intermittent fault cannot
  make the partition flap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.profiling.miss_curve import MissCurve
from repro.errors import (
    ConfigError,
    PartitionInvariantError,
    ProfilerFault,
)

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


@dataclass(frozen=True)
class GuardEvent:
    """One logged guard action (fault seen, fallback taken, rung change)."""

    time: float
    kind: str  #: 'fault' | 'fallback' | 'degrade' | 'recover'
    detail: str
    mode: str  #: the operating mode after this event


class DecisionGuard:
    """Validates partitioning decisions and contains bad ones.

    The epoch controller consults the guard at every boundary: histograms
    are health-checked, fresh decisions are invariant-checked, and the
    guard's ladder state tells the controller what to install when anything
    fails.  The guard never raises out of the ladder methods — containment,
    not propagation — but the pure ``validate_*``/``checked_curve`` methods
    raise typed errors for direct use (and property testing).
    """

    def __init__(
        self,
        num_cores: int,
        *,
        num_banks: int,
        bank_ways: int,
        max_ways_per_core: int,
        min_ways: int = 1,
        hysteresis: int = 2,
        degrade_after: int = 3,
    ) -> None:
        if num_cores < 1:
            raise ConfigError("guard needs at least one core")
        if num_banks < num_cores or bank_ways < 1:
            raise ConfigError("guard needs one Local bank per core")
        if min_ways < 1:
            raise ConfigError("every core must keep at least one way")
        if max_ways_per_core < min_ways:
            raise ConfigError("capacity cap below the per-core minimum")
        if hysteresis < 1:
            raise ConfigError("hysteresis must be at least one epoch")
        if degrade_after < 1:
            raise ConfigError("degrade_after must be at least one failure")
        self.num_cores = num_cores
        self.num_banks = num_banks
        self.bank_ways = bank_ways
        self.total_ways = num_banks * bank_ways
        self.max_ways_per_core = max_ways_per_core
        self.min_ways = min_ways
        self.hysteresis = hysteresis
        self.degrade_after = degrade_after
        self.mode = DegradedMode.NORMAL
        self.strikes = 0  #: consecutive failed epochs
        self.healthy_streak = 0  #: consecutive healthy epochs
        self.last_good: PartitionMap | None = None
        self.events: list[GuardEvent] = []

    # -- pure validation ----------------------------------------------------

    def validate_vector(self, ways: Sequence[int]) -> None:
        """Check the machine-safety invariants of an allocation vector."""
        if len(ways) != self.num_cores:
            raise PartitionInvariantError(
                f"vector covers {len(ways)} cores, machine has {self.num_cores}"
            )
        for core, w in enumerate(ways):
            if w != int(w):
                raise PartitionInvariantError(
                    f"core {core} allocated a fractional way count {w!r}"
                )
            if w < self.min_ways:
                raise PartitionInvariantError(
                    f"core {core} allocated {w} ways (minimum {self.min_ways})"
                )
            if w > self.max_ways_per_core:
                raise PartitionInvariantError(
                    f"core {core} allocated {w} ways, above the "
                    f"{self.max_ways_per_core}-way capacity cap"
                )
        total = sum(int(w) for w in ways)
        if total != self.total_ways:
            raise PartitionInvariantError(
                f"allocation sums to {total} ways, machine has {self.total_ways}"
            )

    def validate_decision(
        self,
        ways: Sequence[int],
        center_banks: Sequence[int],
        pairs: Sequence[tuple[int, int]],
    ) -> None:
        """Vector invariants plus Rules 1–3 of the Bank-aware assignment."""
        self.validate_vector(ways)
        if len(center_banks) != self.num_cores:
            raise PartitionInvariantError("one center-bank count per core required")
        if sum(center_banks) != self.num_banks - self.num_cores:
            raise PartitionInvariantError(
                f"{sum(center_banks)} Center banks assigned, machine has "
                f"{self.num_banks - self.num_cores}"
            )
        paired: set[int] = set()
        for a, b in pairs:
            if not 0 <= a < self.num_cores and 0 <= b < self.num_cores:
                raise PartitionInvariantError(f"pair ({a},{b}) out of range")
            if b != a + 1:
                raise PartitionInvariantError(
                    f"Rule 3: pair ({a},{b}) is not adjacent"
                )
            if a in paired or b in paired:
                raise PartitionInvariantError(
                    "Rule 3: a core may share with at most one neighbour"
                )
            paired.update((a, b))
            if center_banks[a] or center_banks[b]:
                raise PartitionInvariantError(
                    "Rule 2: Center-bank cores may not share Local banks"
                )
            if ways[a] + ways[b] != 2 * self.bank_ways:
                raise PartitionInvariantError(
                    f"pair ({a},{b}) splits {ways[a] + ways[b]} ways, "
                    f"not two Local banks"
                )
        for core in range(self.num_cores):
            if center_banks[core]:
                expect = self.bank_ways * (1 + center_banks[core])
                if ways[core] != expect:
                    raise PartitionInvariantError(
                        f"Rule 1/2: core {core} owns {center_banks[core]} "
                        f"Center banks but {ways[core]} ways (expected {expect})"
                    )
            elif core not in paired and ways[core] != self.bank_ways:
                raise PartitionInvariantError(
                    f"unpaired core {core} must own exactly its Local bank"
                )

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

        The first ``degrade_after - 1`` consecutive failures stay on the
        current rung (the controller keeps the last-known-good partition);
        each further ``degrade_after`` failures descend one rung.
        """
        self.strikes += 1
        self.healthy_streak = 0
        self._event(time, "fault", str(error))
        rung = LADDER.index(self.mode)
        target = min(self.strikes // self.degrade_after, len(LADDER) - 1)
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
        """Register a healthy epoch; climbs one rung per ``hysteresis``
        consecutive healthy epochs.  Returns the mode to operate in."""
        self.strikes = 0
        self.healthy_streak += 1
        if self.mode is not DegradedMode.NORMAL and (
            self.healthy_streak >= self.hysteresis
        ):
            rung = LADDER.index(self.mode)
            self.mode = LADDER[rung - 1]
            self.healthy_streak = 0
            self._event(
                time, "recover", f"profilers healthy: recovered to {self.mode.value}"
            )
        return self.mode

    @property
    def fallback_count(self) -> int:
        """Number of epochs the guard refused to install a fresh decision."""
        return sum(1 for e in self.events if e.kind in ("fault",))
