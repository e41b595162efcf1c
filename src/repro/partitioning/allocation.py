"""Mapping abstract way assignments onto physical banks (paper Fig. 5).

The Bank-aware algorithm decides *how many* ways (and Center banks) each
core gets; this module decides *which* banks: Center banks are handed out by
proximity (cores grab their nearest free Center bank, minimising NUCA hop
latency), Local banks stay with their adjacent core, and paired cores split
way indices inside the pair's two Local banks.

Bank numbering convention (matches :mod:`repro.noc.topology`): banks
``0..num_cores-1`` are the Local banks (bank *i* adjacent to core *i*),
banks ``num_cores..num_banks-1`` are the Center banks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.partition_map import BankAllocation, CorePartition, PartitionMap
from repro.errors import PartitionInvariantError
from repro.partitioning.bank_aware import BankAwareDecision
from repro.util.floorplan import center_bank_positions

__all__ = [
    "assign_center_banks",
    "center_bank_positions",
    "check_center_cover",
    "check_way_vector",
    "decision_to_partition_map",
    "vector_to_private_map",
]


def check_center_cover(
    decision: BankAwareDecision, num_cores: int, num_banks: int
) -> None:
    """The check :func:`assign_center_banks` needs: the decision hands out
    every Center bank exactly once."""
    if sum(decision.center_banks) != num_banks - num_cores:
        raise PartitionInvariantError("decision does not cover every Center bank")


def check_way_vector(ways: Sequence[int], total_ways: int) -> None:
    """The checks :func:`vector_to_private_map` needs: the vector covers
    the machine exactly and gives every core at least one way."""
    if sum(ways) != total_ways:
        raise PartitionInvariantError(
            f"way vector sums to {sum(ways)}, machine has {total_ways}"
        )
    if any(count <= 0 for count in ways):
        raise PartitionInvariantError("every core needs at least one way")


def assign_center_banks(
    decision: BankAwareDecision, num_cores: int, num_banks: int
) -> dict[int, list[int]]:
    """Choose which physical Center banks serve each core's quota.

    Cores are processed in descending demand and repeatedly take their
    nearest free Center bank — a deterministic proximity heuristic that
    keeps a core's aggregated banks physically close to it.
    """
    check_center_cover(decision, num_cores, num_banks)
    num_centers = num_banks - num_cores
    positions = center_bank_positions(num_cores, num_centers)
    free = set(range(num_centers))
    chosen: dict[int, list[int]] = {c: [] for c in range(num_cores)}
    order = sorted(
        range(num_cores), key=lambda c: (-decision.center_banks[c], c)
    )
    for core in order:
        for _ in range(decision.center_banks[core]):
            nearest = min(free, key=lambda b: (abs(positions[b] - core), b))
            free.discard(nearest)
            chosen[core].append(num_cores + nearest)
    return chosen


def decision_to_partition_map(
    decision: BankAwareDecision,
    *,
    num_cores: int | None = None,
    num_banks: int = 16,
) -> PartitionMap:
    """Materialise a :class:`BankAwareDecision` into bank/way assignments.

    For a pair ``(a, b)`` the core with the larger share keeps its own Local
    bank whole and annexes the top way indices of its partner's bank as a
    level-2 (cascade victim) allocation; the partner retains the low way
    indices of its own bank.  This realises the depth-2 cascading of paper
    Fig. 4c.
    """
    n = num_cores if num_cores is not None else len(decision.ways)
    if len(decision.ways) != n:
        raise PartitionInvariantError("decision size disagrees with num_cores")
    bank_ways = decision.bank_ways
    all_ways = tuple(range(bank_ways))
    centers = assign_center_banks(decision, n, num_banks)
    paired = {c: pair for pair in decision.pairs for c in pair}
    pmap = PartitionMap()
    for core in range(n):
        w = decision.ways[core]
        if core not in paired:
            level1 = [BankAllocation(core, all_ways)]
            for bank in centers[core]:
                level1.append(BankAllocation(bank, all_ways))
            pmap.add(CorePartition(core, tuple(level1)))
            continue
        a, b = paired[core]
        partner = b if core == a else a
        wp = decision.ways[partner]
        if w == bank_ways:  # an (8, 8) split: no actual sharing
            pmap.add(CorePartition(core, (BankAllocation(core, all_ways),)))
        elif w > bank_ways:
            # own bank whole, plus the top ways of the partner's bank
            annex = tuple(range(wp, bank_ways))
            pmap.add(
                CorePartition(
                    core,
                    (BankAllocation(core, all_ways),),
                    level2=BankAllocation(partner, annex),
                )
            )
        else:
            # shrunk: keeps only the low ways of its own Local bank
            pmap.add(CorePartition(core, (BankAllocation(core, tuple(range(w))),)))
    return pmap


def vector_to_private_map(
    ways: Sequence[int], *, num_banks: int, bank_ways: int
) -> PartitionMap:
    """Materialise an *arbitrary* way vector as contiguous private regions.

    This is the physically unrestricted layout (only meaningful for
    analytical comparisons): ways are laid out core after core across the
    bank/way grid, so a core's share may straddle banks in fractions the
    Bank-aware rules would forbid.
    """
    check_way_vector(ways, num_banks * bank_ways)
    pmap = PartitionMap()
    cursor = 0
    for core, count in enumerate(ways):
        allocations: list[BankAllocation] = []
        remaining = count
        while remaining > 0:
            bank, way = divmod(cursor, bank_ways)
            take = min(remaining, bank_ways - way)
            allocations.append(
                BankAllocation(bank, tuple(range(way, way + take)))
            )
            cursor += take
            remaining -= take
        pmap.add(CorePartition(core, tuple(allocations)))
    return pmap
