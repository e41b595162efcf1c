"""Joint cache partition + job assignment (after arXiv:1210.4053).

The related work shows that deciding *which core runs which job* together
with the partition beats partitioning a fixed placement: on a machine
whose partitioning rules depend on physical adjacency (the Bank-aware
Rules 1-3 pair only neighbouring cores), moving two cache-hungry jobs
apart can unlock way splits the fixed placement forbids.

Reproduction here: a deterministic pairwise-swap hill climb over
workload↔core placements.  One
:class:`~repro.partitioning.bank_aware.BankAwarePlan` is built per search
and decides every candidate placement; a candidate's objective is its
:func:`~repro.partitioning.unrestricted.predicted_misses`, summed from the
plan's padded curves in the same order — the same metric the Monte Carlo
sweep uses, so rankings are comparable.  The search is first-improvement
with a fixed scan order and a bounded pass count, hence fully
deterministic.

As an epoch policy the simulator cannot migrate jobs mid-run, so the
optimal placement's way vector is mapped back through the permutation:
each *workload* receives the ways it would enjoy under the best
placement, materialised as the idealised contiguous layout (like
``unrestricted``, the physical adjacency of the searched placement is
not realisable in place).  :func:`schedule_mix` exposes the scheduler
layer itself — the reordered mix to hand to
:func:`~repro.sim.runner.compare_schemes`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import stays local to schedule_mix
    from repro.workloads.mixes import Mix

from repro.partitioning.bank_aware import BankAwareDecision, BankAwarePlan
from repro.partitioning.registry import (
    PartitionPolicy,
    PolicyContext,
    PolicyDecision,
    private_map_verdict,
    register,
)
from repro.profiling.miss_curve import MissCurve


@dataclass(frozen=True)
class JointAssignment:
    """Outcome of the joint search.

    ``placement[core]`` is the index of the workload assigned to that core
    in the optimal placement; ``decision`` the Bank-aware decision under
    it; ``predicted`` its projected total misses.
    """

    placement: tuple[int, ...]
    decision: BankAwareDecision
    predicted: float

    def ways_by_workload(self) -> tuple[int, ...]:
        """Way counts indexed by *workload* (i.e. by original core)."""
        ways = [0] * len(self.placement)
        for core, workload in enumerate(self.placement):
            ways[workload] = self.decision.ways[core]
        return tuple(ways)


def best_assignment(
    curves: Sequence[MissCurve],
    *,
    num_banks: int = 16,
    bank_ways: int = 8,
    max_ways_per_core: int | None = None,
    min_ways: int = 1,
    max_passes: int | None = None,
) -> JointAssignment:
    """Pairwise-swap hill climb over placements (first-improvement).

    Starts from the identity placement, scans all core pairs in fixed
    order, takes any strictly improving swap immediately, and stops after
    a full pass without improvement (or ``max_passes``, default one pass
    per core).  Strict improvement + fixed scan order = deterministic.
    """
    n = len(curves)
    plan = BankAwarePlan(
        curves,
        num_banks=num_banks,
        bank_ways=bank_ways,
        max_ways_per_core=max_ways_per_core,
        min_ways=min_ways,
    )
    values = plan.values

    def score(placement: list[int]) -> tuple[float, BankAwareDecision]:
        decision = plan.decide(placement)
        # predicted_misses of the placed curves: the same terms in core order
        misses = sum([values[w][ways] for w, ways in zip(placement, decision.ways)])
        return misses, decision

    placement = list(range(n))
    best, decision = score(placement)
    # the best only falls, so a placement scored before cannot beat it
    scored = {tuple(placement)}
    limit = n if max_passes is None else max_passes
    for _ in range(limit):
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                candidate = placement.copy()
                candidate[i], candidate[j] = candidate[j], candidate[i]
                key = tuple(candidate)
                if key in scored:
                    continue
                scored.add(key)
                misses, cand_decision = score(candidate)
                if misses < best:
                    best, decision, placement = misses, cand_decision, candidate
                    improved = True
        if not improved:
            break
    return JointAssignment(tuple(placement), decision, best)


def schedule_mix(
    mix: "Mix",
    curves: Mapping[str, MissCurve],
    *,
    num_banks: int = 16,
    bank_ways: int = 8,
    max_ways_per_core: int | None = None,
    min_ways: int = 1,
) -> "tuple[Mix, JointAssignment]":
    """The scheduler layer: reorder a mix onto its joint-optimal placement.

    Returns ``(scheduled_mix, assignment)`` — hand the reordered mix to
    :func:`~repro.sim.runner.compare_schemes` to simulate the placement
    the joint optimisation chose.  Import stays local so the partitioning
    package keeps no hard dependency on the workload layer.
    """
    from repro.workloads.mixes import Mix

    mix_curves = [curves[name] for name in mix.names]
    assignment = best_assignment(
        mix_curves,
        num_banks=num_banks,
        bank_ways=bank_ways,
        max_ways_per_core=max_ways_per_core,
        min_ways=min_ways,
    )
    names = tuple(mix.names[w] for w in assignment.placement)
    return Mix(names), assignment


class JointPolicy(PartitionPolicy):
    """Joint placement + partition search, applied as a way vector."""

    name = "joint"
    summary = "joint partition + job assignment search (arXiv:1210.4053)"
    dynamic = True
    needs_profilers = True
    needs_job_assignment = True

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        assignment = best_assignment(
            curves,
            num_banks=ctx.num_banks,
            bank_ways=ctx.bank_ways,
            max_ways_per_core=ctx.max_ways_per_core,
            min_ways=ctx.min_ways,
        )
        return private_map_verdict(assignment.ways_by_workload(), ctx)


register(JointPolicy())

__all__ = [
    "JointAssignment",
    "JointPolicy",
    "best_assignment",
    "schedule_mix",
]
