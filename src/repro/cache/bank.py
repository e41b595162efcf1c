"""A physical L2 cache bank with per-way core ownership.

The paper's machine has 16 such banks (1 MB, 8-way, 2048 sets each).  To
reduce design complexity "all of the sets in a cache bank are vertically
partitioned with the same cache-ways assignment" (Section III.B) — ownership
is therefore bank-level state here, not per-set state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.cacheset import CacheSet, Eviction

from repro.errors import ConfigError


@dataclass
class BankStats:
    """Per-core hit/miss accounting for one bank."""

    hits: dict[int, int] = field(default_factory=dict)
    misses: dict[int, int] = field(default_factory=dict)
    evictions: int = 0
    writebacks: int = 0

    def record(self, core: int, hit: bool) -> None:
        book = self.hits if hit else self.misses
        book[core] = book.get(core, 0) + 1

    def total_hits(self) -> int:
        return sum(self.hits.values())

    def total_misses(self) -> int:
        return sum(self.misses.values())


class CacheBank:
    """One banked slice of the L2: ``num_sets`` sets of ``ways`` ways."""

    def __init__(self, bank_id: int, num_sets: int, ways: int) -> None:
        if num_sets < 1:
            raise ConfigError("bank needs at least one set")
        self.bank_id = bank_id
        self.num_sets = num_sets
        self.ways = ways
        self._set_mask = num_sets - 1
        if num_sets & self._set_mask:
            raise ConfigError("bank set count must be a power of two")
        self.sets = [CacheSet(ways) for _ in range(num_sets)]
        #: cores allowed to allocate into each way; None = any core.
        self._way_owners: list[frozenset[int] | None] = [None] * ways
        #: cached per-core candidate tuples derived from ``_way_owners``.
        self._candidates: dict[int, tuple[int, ...]] = {}
        self.stats = BankStats()

    # -- partition state ----------------------------------------------------

    def share_all(self) -> None:
        """No partitioning: every core may allocate into every way."""
        self._way_owners = [None] * self.ways
        self._candidates.clear()

    def set_way_owners(self, owners: list[frozenset[int] | None]) -> None:
        """Install a vertical partition: ``owners[w]`` is the set of cores
        that may allocate into way ``w`` (``None`` = unrestricted)."""
        if len(owners) != self.ways:
            raise ConfigError(f"need exactly {self.ways} owner entries")
        self._way_owners = list(owners)
        self._candidates.clear()

    def assign_ways(self, assignment: dict[int, int]) -> None:
        """Partition the bank's ways by *count*: ``assignment[core] = n``
        gives ``core`` exclusive use of the next ``n`` ways, in core order.
        The counts must sum to the bank's associativity."""
        total = sum(assignment.values())
        if total != self.ways:
            raise ConfigError(
                f"way counts sum to {total}, bank has {self.ways} ways"
            )
        if any(n < 0 for n in assignment.values()):
            raise ConfigError("way counts must be non-negative")
        owners: list[frozenset[int] | None] = []
        for core in sorted(assignment):
            owners.extend([frozenset((core,))] * assignment[core])
        self.set_way_owners(owners)

    def way_owners(self) -> list[frozenset[int] | None]:
        return list(self._way_owners)

    def candidates_for(self, core: int) -> tuple[int, ...]:
        """Ways ``core`` may allocate into under the current partition."""
        cached = self._candidates.get(core)
        if cached is None:
            cached = tuple(
                w
                for w, owners in enumerate(self._way_owners)
                if owners is None or core in owners
            )
            self._candidates[core] = cached
        return cached

    def ways_owned_by(self, core: int) -> int:
        return len(self.candidates_for(core))

    # -- access path --------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def probe(self, line: int) -> bool:
        """Directory-style presence check without recency update."""
        return self.sets[self.set_index(line)].probe(line) is not None

    def access(
        self, core: int, line: int, *, is_write: bool = False
    ) -> bool:
        """Reference ``line``; True on hit.  Does *not* allocate on miss —
        allocation is the NUCA level's decision (placement policy)."""
        hit = (
            self.sets[self.set_index(line)].lookup(line, is_write=is_write)
            is not None
        )
        self.stats.record(core, hit)
        return hit

    def fill(
        self, core: int, line: int, *, dirty: bool = False
    ) -> Eviction | None:
        """Allocate ``line`` for ``core`` into the core's owned ways."""
        candidates = self.candidates_for(core)
        if not candidates:
            raise PermissionError(
                f"core {core} owns no ways in bank {self.bank_id}"
            )
        ev = self.sets[self.set_index(line)].insert(
            line, core, candidates, dirty=dirty
        )
        if ev is not None:
            self.stats.evictions += 1
            if ev.dirty:
                self.stats.writebacks += 1
        return ev

    def invalidate(self, line: int) -> Eviction | None:
        return self.sets[self.set_index(line)].invalidate(line)

    def occupancy(self) -> int:
        return sum(s.occupancy() for s in self.sets)

    def resident_lines(self) -> list[int]:
        out: list[int] = []
        for s in self.sets:
            out.extend(s.resident_tags())
        return out
