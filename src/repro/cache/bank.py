"""Physical L2 cache banks with per-way core ownership, over one flat image.

The paper's machine has 16 such banks (1 MB, 8-way, 2048 sets each).  To
reduce design complexity "all of the sets in a cache bank are vertically
partitioned with the same cache-ways assignment" (Section III.B) — ownership
is therefore bank-level state here, not per-set state, and a bank is one
tag array under one way mask.

The lines themselves live in a :class:`CacheImage`: flat ``tags``,
``dirty``, ``owner`` and ``stamps`` lists indexed by the slot
``(bank << slot_bits) | set * ways + way``, one LRU clock per set and one
directory ``where: line -> slot``.  A :class:`CacheBank` is a view of one
bank of an image (its way owners, candidate ways and statistics); its
``probe``/``access``/``fill``/``invalidate`` read and write the image, so
the NUCA L2 and the batched engine (:mod:`repro.sim.batched`) share one
cache state.

Replacement is the paper's *modified LRU*, true LRU as the MSA profilers
model it: a lookup may hit in any way, but a fill picks its victim only
among the requesting core's candidate ways.  The victim is the candidate
with the smallest recency stamp, the first in candidate order on a tie.  An
empty way has stamp 0 and a resident line a stamp of at least 1, so this
one rule is "the first empty candidate, else the least recently used one".
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigError


class Eviction(NamedTuple):
    """A line pushed out of a set."""

    tag: int
    dirty: bool
    owner: int  #: core that allocated the line (-1 if unknown)


class CacheImage:
    """Flat storage for ``num_banks`` banks of ``num_sets`` x ``ways`` lines.

    Every slot is either empty (tag -1, stamp 0, owner -1, clean) or holds
    one resident line whose stamp is at least 1 and unique within its set;
    ``where`` maps exactly the resident lines to their slots.  Slots past
    ``num_sets * ways`` in a bank's ``1 << slot_bits`` stride stay empty.
    """

    __slots__ = (
        "num_banks", "num_sets", "ways", "slot_bits",
        "tags", "dirty", "owner", "stamps", "clocks", "where",
    )

    def __init__(self, num_banks: int, num_sets: int, ways: int) -> None:
        if ways < 1:
            raise ConfigError("a set needs at least one way")
        self.num_banks = num_banks
        self.num_sets = num_sets
        self.ways = ways
        self.slot_bits = max(1, (num_sets * ways - 1).bit_length())
        size = num_banks << self.slot_bits
        self.tags = [-1] * size
        self.dirty = [False] * size
        self.owner = [-1] * size
        self.stamps = [0] * size
        #: one LRU clock per set: ``clocks[bank][set]``
        self.clocks = [[0] * num_sets for _ in range(num_banks)]
        self.where: dict[int, int] = {}

    def banks(self) -> list[CacheBank]:
        """One :class:`CacheBank` view per bank of this image."""
        return [
            CacheBank(b, self.num_sets, self.ways, image=self)
            for b in range(self.num_banks)
        ]


class BankStats:
    """Per-core hit/miss accounting for one bank.

    Like :class:`~repro.cache.nuca.NucaStats`, the per-core counters are
    flat lists (the batched engine bumps them in place); ``hits`` and
    ``misses`` are dict views of the cores with a non-zero count.
    """

    __slots__ = ("_hits", "_misses", "evictions", "writebacks")

    def __init__(self) -> None:
        self._hits: list[int] = []
        self._misses: list[int] = []
        self.evictions = 0
        self.writebacks = 0

    def grow(self, size: int) -> None:
        """Make room for cores ``0 .. size - 1``."""
        pad = size - len(self._hits)
        if pad > 0:
            self._hits.extend([0] * pad)
            self._misses.extend([0] * pad)

    @property
    def hits(self) -> dict[int, int]:
        return {c: v for c, v in enumerate(self._hits) if v}

    @property
    def misses(self) -> dict[int, int]:
        return {c: v for c, v in enumerate(self._misses) if v}

    def record(self, core: int, hit: bool) -> None:
        if core >= len(self._hits):
            self.grow(core + 1)
        if hit:
            self._hits[core] += 1
        else:
            self._misses[core] += 1

    def total_hits(self) -> int:
        return sum(self._hits)

    def total_misses(self) -> int:
        return sum(self._misses)


class CacheBank:
    """One banked slice of the L2: ``num_sets`` sets of ``ways`` ways.

    ``image`` is the cache image holding bank ``bank_id``'s lines; a
    standalone bank gets a private one-bank image.
    """

    def __init__(
        self,
        bank_id: int,
        num_sets: int,
        ways: int,
        *,
        image: CacheImage | None = None,
    ) -> None:
        if num_sets < 1:
            raise ConfigError("bank needs at least one set")
        if num_sets & (num_sets - 1):
            raise ConfigError("bank set count must be a power of two")
        if image is None:
            image = CacheImage(1, num_sets, ways)
            index = 0
        elif (image.num_sets, image.ways) != (num_sets, ways):
            raise ConfigError("bank shape differs from its cache image")
        else:
            index = bank_id
        self.bank_id = bank_id
        self.num_sets = num_sets
        self.ways = ways
        self.image = image
        self._set_mask = num_sets - 1
        #: first slot of this bank in the image; its sets follow in order
        self.base = index << image.slot_bits
        self._end = self.base + num_sets * ways
        self._clocks = image.clocks[index]
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

    def slot_of(self, line: int) -> int | None:
        """Image slot holding ``line`` in this bank (no recency update)."""
        slot = self.image.where.get(line)
        if slot is None or not self.base <= slot < self._end:
            return None
        return slot

    def probe(self, line: int) -> bool:
        """Directory-style presence check without recency update."""
        return self.slot_of(line) is not None

    def access(
        self, core: int, line: int, *, is_write: bool = False
    ) -> bool:
        """Reference ``line``; True on hit (updating recency and the dirty
        bit).  Does *not* allocate on miss — allocation is the NUCA level's
        decision (placement policy)."""
        slot = self.slot_of(line)
        hit = slot is not None
        if hit:
            # the set's clock ticks; the line becomes its most recent way
            clocks = self._clocks
            si = line & self._set_mask
            clocks[si] += 1
            self.image.stamps[slot] = clocks[si]
            if is_write:
                self.image.dirty[slot] = True
        self.stats.record(core, hit)
        return hit

    def fill(
        self, core: int, line: int, *, dirty: bool = False
    ) -> Eviction | None:
        """Allocate ``line`` for ``core`` into the core's owned ways,
        evicting the candidate with the smallest stamp."""
        candidates = self.candidates_for(core)
        if not candidates:
            raise PermissionError(
                f"core {core} owns no ways in bank {self.bank_id}"
            )
        image = self.image
        where = image.where
        if line in where:
            raise ConfigError(f"line {line} already resident; use access()")
        si = line & self._set_mask
        base = self.base + si * self.ways
        stamps = image.stamps
        # the smallest stamp wins, the first candidate on a tie; an empty
        # way's stamp is 0, below every resident line's
        victim = None
        for way in candidates:
            stamp = stamps[base + way]
            if victim is None or stamp < lowest:
                victim = way
                lowest = stamp
        slot = base + victim
        evicted = None
        old = image.tags[slot]
        if old != -1:
            evicted = Eviction(old, image.dirty[slot], image.owner[slot])
            del where[old]
            self.stats.evictions += 1
            if evicted.dirty:
                self.stats.writebacks += 1
        image.tags[slot] = line
        image.dirty[slot] = dirty
        image.owner[slot] = core
        where[line] = slot
        clocks = self._clocks
        clocks[si] += 1
        stamps[slot] = clocks[si]
        return evicted

    def invalidate(self, line: int) -> Eviction | None:
        """Remove ``line`` if resident here, returning its state."""
        slot = self.slot_of(line)
        if slot is None:
            return None
        image = self.image
        ev = Eviction(line, image.dirty[slot], image.owner[slot])
        del image.where[line]
        image.tags[slot] = -1
        image.dirty[slot] = False
        image.owner[slot] = -1
        image.stamps[slot] = 0
        return ev

    def occupancy(self) -> int:
        tags = self.image.tags[self.base:self._end]
        return len(tags) - tags.count(-1)

    def resident_lines(self) -> list[int]:
        return [t for t in self.image.tags[self.base:self._end] if t != -1]
