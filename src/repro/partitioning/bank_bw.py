"""Per-bank bandwidth regulation (after arXiv:2410.14003).

The related work regulates each core's *access rate to each LLC bank* over
short windows instead of (or on top of) partitioning capacity: a core that
hammers one bank is deferred to the next window once it exhausts its
per-window budget, so co-runners keep predictable bank latency even when
capacity is split evenly.

Reproduction here:

* The :class:`BankBudgetRegulator` keeps a per-(core, bank) token window.
  Every L2 access is charged before it enters the bank's FIFO port; an
  access over budget is deferred to the start of the next window with a
  free slot and the deferral is added to its latency.  Both sim backends
  call :meth:`BankBudgetRegulator.charge` with identical event order, so
  the model stays bit-identical between them.
* The :class:`BankBandwidthPolicy` decides budgets at every epoch boundary
  from the *observed* per-core per-bank demand of the previous epoch:
  each core's next budget is its measured per-window rate plus 25 %
  headroom (integer arithmetic, deterministic), so steady cores never
  stall while a core bursting far above its profile is smoothed out.
  Capacity itself stays at the even split — regulation replaces
  repartitioning, mirroring the related work's set-partitioned LLC.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigError
from repro.partitioning.registry import (
    PartitionPolicy,
    PolicyContext,
    PolicyDecision,
    private_map_verdict,
    register,
)
from repro.partitioning.static import equal_partition
from repro.profiling.miss_curve import MissCurve

#: regulation windows per controller epoch: the window is the fine-grained
#: enforcement quantum, the epoch the (coarse) budget-decision quantum.
WINDOWS_PER_EPOCH = 64

#: budget headroom over the observed per-window rate, as a ratio
#: (5/4 = 25 %): absorbs ordinary jitter, throttles genuine phase bursts.
HEADROOM_NUM = 5
HEADROOM_DEN = 4


class BankBudgetRegulator:
    """Windowed per-(core, bank) access budgets, enforced on the hot path.

    ``budgets[core][bank] == 0`` means unlimited (the state before the
    first epoch decision, and for pairs with no observed demand).  All
    arithmetic is on floats derived from simulated time plus plain ints,
    so serial/parallel and reference/batched runs charge identically.
    """

    def __init__(
        self,
        num_cores: int,
        num_banks: int,
        *,
        window_cycles: float,
    ) -> None:
        if num_cores < 1 or num_banks < 1:
            raise ConfigError("need at least one core and one bank")
        if window_cycles <= 0:
            raise ConfigError("regulation window must be positive")
        self.num_cores = num_cores
        self.num_banks = num_banks
        self.window_cycles = float(window_cycles)
        self.budgets = [[0] * num_banks for _ in range(num_cores)]
        #: index of the window the per-pair token count refers to; advanced
        #: past the arrival's own window when deferrals spill forward.
        self._window = [[-1.0] * num_banks for _ in range(num_cores)]
        self._used = [[0] * num_banks for _ in range(num_cores)]
        #: accesses observed since the last budget decision.
        self.demand = [[0] * num_banks for _ in range(num_cores)]
        self.throttled = 0  #: accesses deferred to a later window
        self.total_throttle_cycles = 0.0

    def charge(self, core: int, bank: int, arrival: float) -> float:
        """Account one access; returns the deferral (cycles, >= 0.0)."""
        self.demand[core][bank] += 1
        quota = self.budgets[core][bank]
        if quota == 0:
            return 0.0
        w = arrival // self.window_cycles
        if w > self._window[core][bank]:
            self._window[core][bank] = w
            self._used[core][bank] = 0
        used = self._used[core][bank]
        if used < quota:
            self._used[core][bank] = used + 1
            return 0.0
        # window exhausted: this access opens the next window (which may
        # already lie ahead of the arrival's own when a burst spills far)
        nxt = self._window[core][bank] + 1.0
        self._window[core][bank] = nxt
        self._used[core][bank] = 1
        throttle = nxt * self.window_cycles - arrival
        self.throttled += 1
        self.total_throttle_cycles += throttle
        return throttle

    def rebudget(self) -> None:
        """Set the next epoch's budgets from observed demand, reset demand.

        ``budget = max(1, demand * 5 // (4 * windows_per_epoch))`` — the
        measured per-window rate with 25 % headroom; zero demand leaves
        the pair unregulated (no evidence, no throttle).
        """
        for core in range(self.num_cores):
            drow = self.demand[core]
            brow = self.budgets[core]
            for bank in range(self.num_banks):
                d = drow[bank]
                if d == 0:
                    brow[bank] = 0
                else:
                    brow[bank] = max(
                        1, (HEADROOM_NUM * d) // (HEADROOM_DEN * WINDOWS_PER_EPOCH)
                    )
                drow[bank] = 0


class BankBandwidthPolicy(PartitionPolicy):
    """Even capacity split + demand-derived per-bank bandwidth budgets."""

    name = "bank-bw"
    summary = "per-bank access budgets per window (arXiv:2410.14003)"
    dynamic = True
    needs_profilers = True
    needs_bank_queues = True

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        if ctx.regulator is not None:
            ctx.regulator.rebudget()
        return private_map_verdict(
            equal_partition(ctx.num_cores, ctx.total_ways), ctx
        )


register(BankBandwidthPolicy())

__all__ = [
    "BankBandwidthPolicy",
    "BankBudgetRegulator",
    "HEADROOM_DEN",
    "HEADROOM_NUM",
    "WINDOWS_PER_EPOCH",
]
