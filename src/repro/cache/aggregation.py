"""Standalone models of the bank-aggregation schemes (paper Section III.B).

When a core's partition spans several banks, the banks must be aggregated
into one logical cache.  The paper discusses three options (Fig. 4):

* **Cascade** — banks chained head-to-tail into one long LRU stack.  Emulates
  the MSA-ideal LRU exactly, but every allocation or promotion shifts lines
  across bank boundaries: the migration rate is "prohibitively high".
* **Address-Hash** — the line's address picks the bank; per-bank LRU.  Zero
  migrations, but banks must be symmetric and the aggregate only
  approximates a global LRU (a hot set in one bank cannot borrow space from
  another).
* **Parallel** — a line may live in *any* bank; allocation is round-robin,
  and lookups consult a directory across all banks (higher power).  Same
  migration behaviour as Address-Hash with slightly different conflict
  statistics.

These classes model one core's aggregated partition in isolation so the
schemes can be compared on miss rate, migration count and directory probes
(`benchmarks/bench_fig4_aggregation.py`).  The production NUCA uses the
Parallel/Hash placement with depth-2 cascading (see
:class:`repro.cache.nuca.NucaL2`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.cache.bank import CacheBank, CacheImage


@dataclass
class AggregationStats:
    accesses: int = 0
    misses: int = 0
    migrations: int = 0  #: lines moved between banks
    directory_probes: int = 0  #: per-bank tag lookups performed

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def migrations_per_access(self) -> float:
        return self.migrations / self.accesses if self.accesses else 0.0


class AggregatedCache(ABC):
    """A logical cache built from ``num_banks`` banks of ``bank_ways`` ways
    over ``num_sets`` sets (same set count in every bank)."""

    name = "abstract"

    def __init__(self, num_banks: int, bank_ways: int, num_sets: int) -> None:
        if num_banks < 1 or bank_ways < 1 or num_sets < 1:
            raise ValueError("banks, ways and sets must all be positive")
        if num_sets & (num_sets - 1):
            raise ValueError("set count must be a power of two")
        self.num_banks = num_banks
        self.bank_ways = bank_ways
        self.num_sets = num_sets
        self.stats = AggregationStats()

    @property
    def total_ways(self) -> int:
        return self.num_banks * self.bank_ways

    def set_index(self, line: int) -> int:
        return line & (self.num_sets - 1)

    def access(self, line: int) -> bool:
        """Reference a line; True on hit.  Updates the statistics."""
        self.stats.accesses += 1
        hit = self._access(line)
        if not hit:
            self.stats.misses += 1
        return hit

    @abstractmethod
    def _access(self, line: int) -> bool: ...


class CascadeAggregation(AggregatedCache):
    """Head-to-tail LRU chain across banks (paper Fig. 4a/4b).

    Modelled per set as an explicit MRU->LRU list whose positions map onto
    banks in order: positions ``[0, W)`` are bank 0, ``[W, 2W)`` bank 1, etc.
    Any insertion at the head shifts every line after the insertion point
    down by one; each line that crosses a bank boundary is one migration.
    A hit deep in the chain additionally migrates the promoted line itself.
    """

    name = "cascade"

    def __init__(self, num_banks: int, bank_ways: int, num_sets: int) -> None:
        super().__init__(num_banks, bank_ways, num_sets)
        self._stacks: list[list[int]] = [[] for _ in range(num_sets)]

    def _bank_of_position(self, pos: int) -> int:
        return pos // self.bank_ways

    def _shift_migrations(self, from_pos: int) -> int:
        """Lines crossing a bank boundary when positions ``[0, from_pos)``
        all shift down by one: one per boundary below ``from_pos``."""
        return self._bank_of_position(from_pos)

    def _access(self, line: int) -> bool:
        stack = self._stacks[self.set_index(line)]
        try:
            pos = stack.index(line)
        except ValueError:
            pos = -1
        if pos >= 0:
            stack.pop(pos)
            stack.insert(0, line)
            promoted_bank = self._bank_of_position(pos)
            # Every full bank above the hit position spills one line down.
            self.stats.migrations += self._shift_migrations(pos)
            if promoted_bank != 0:
                self.stats.migrations += 1  # the promoted line itself moves
            return True
        stack.insert(0, line)
        if len(stack) > self.total_ways:
            stack.pop()
            self.stats.migrations += self._shift_migrations(self.total_ways - 1)
        else:
            self.stats.migrations += self._shift_migrations(len(stack) - 1)
        return False

    def recency_order(self, set_index: int) -> list[int]:
        return list(self._stacks[set_index])


class AddressHashAggregation(AggregatedCache):
    """Address bits select the bank; independent per-bank LRU (Fig. 4,
    'Address Hash').  The hash uses the bits above the set index, like the
    POWER4/POWER5 bank hash the paper cites."""

    name = "hash"

    def __init__(self, num_banks: int, bank_ways: int, num_sets: int) -> None:
        super().__init__(num_banks, bank_ways, num_sets)
        self._banks = CacheImage(num_banks, num_sets, bank_ways).banks()
        self._set_bits = num_sets.bit_length() - 1

    def bank_of(self, line: int) -> int:
        return (line >> self._set_bits) % self.num_banks

    def _access(self, line: int) -> bool:
        bank = self._banks[self.bank_of(line)]
        self.stats.directory_probes += 1
        if bank.access(0, line):
            return True
        bank.fill(0, line)
        return False


class ParallelAggregation(AggregatedCache):
    """Any bank may hold any line; round-robin allocation and a full-width
    directory lookup on every access (Fig. 4, 'Parallel')."""

    name = "parallel"

    def __init__(self, num_banks: int, bank_ways: int, num_sets: int) -> None:
        super().__init__(num_banks, bank_ways, num_sets)
        self._banks = CacheImage(num_banks, num_sets, bank_ways).banks()
        self._image = self._banks[0].image
        self._rr = 0

    def _access(self, line: int) -> bool:
        # the directory probes every bank's tag array in parallel
        self.stats.directory_probes += self.num_banks
        slot = self._image.where.get(line)
        if slot is not None:
            self._banks[slot >> self._image.slot_bits].access(0, line)
            return True
        bank = self._rr % self.num_banks
        self._rr += 1
        self._banks[bank].fill(0, line)
        return False


class IdealLRUAggregation(AggregatedCache):
    """Reference: a single monolithic ``num_banks * bank_ways``-way LRU — the
    structure the MSA histogram predicts.  Physically unrealisable at bank
    granularity; used to score the realisable schemes' fidelity."""

    name = "ideal"

    def __init__(self, num_banks: int, bank_ways: int, num_sets: int) -> None:
        super().__init__(num_banks, bank_ways, num_sets)
        self._bank = CacheBank(0, num_sets, self.total_ways)

    def _access(self, line: int) -> bool:
        if self._bank.access(0, line):
            return True
        self._bank.fill(0, line)
        return False


SCHEMES: dict[str, type[AggregatedCache]] = {
    cls.name: cls
    for cls in (
        CascadeAggregation,
        AddressHashAggregation,
        ParallelAggregation,
        IdealLRUAggregation,
    )
}


def make_aggregation(
    name: str, num_banks: int, bank_ways: int, num_sets: int
) -> AggregatedCache:
    """Instantiate an aggregation scheme by name."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown aggregation scheme {name!r}") from None
    return cls(num_banks, bank_ways, num_sets)
