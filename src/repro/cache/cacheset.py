"""A single set-associative cache set with vertical way partitioning.

The paper enforces partitions inside each bank with a *modified LRU*: every
way of the set belongs to one or more cores, lookups may hit in any way, but
on a miss the replacement victim is chosen only among the ways owned by the
requesting core (Section III.B).  :class:`CacheSet` implements exactly that:
``insert`` takes the candidate way list supplied by the bank's partition
state, so the same code serves shared, private and partially-shared sets.

Replacement is true LRU, the policy the MSA profilers model, inlined as
integer stamps for speed: this class sits on the hottest path of the
simulator.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigError, SimulationInvariantError


class Eviction(NamedTuple):
    """A line pushed out of a set."""

    tag: int
    dirty: bool
    owner: int  #: core that allocated the line (-1 if unknown)


class CacheSet:
    """One cache set: ``ways`` lines identified by integer tags."""

    __slots__ = (
        "ways",
        "_tags",
        "_dirty",
        "_owner",
        "_map",
        "_stamps",
        "_clock",
    )

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ConfigError("a set needs at least one way")
        self.ways = ways
        self._tags: list[int | None] = [None] * ways
        self._dirty = [False] * ways
        self._owner = [-1] * ways
        self._map: dict[int, int] = {}
        # inlined LRU state (stamp 0 == never touched)
        self._stamps = [0] * ways
        self._clock = 0

    # -- queries ------------------------------------------------------------

    def probe(self, tag: int) -> int | None:
        """Way holding ``tag`` without updating recency (directory lookup)."""
        return self._map.get(tag)

    def lookup(self, tag: int, *, is_write: bool = False) -> int | None:
        """Reference ``tag``: returns its way on a hit (updating recency and
        the dirty bit), or ``None`` on a miss."""
        way = self._map.get(tag)
        if way is None:
            return None
        self._clock += 1
        self._stamps[way] = self._clock
        if is_write:
            self._dirty[way] = True
        return way

    def occupancy(self) -> int:
        return len(self._map)

    def resident_tags(self) -> list[int]:
        return list(self._map)

    def owner_of(self, tag: int) -> int:
        way = self._map.get(tag)
        if way is None:
            raise KeyError(f"tag {tag} not resident")
        return self._owner[way]

    def ways_of_core(self, core: int) -> list[int]:
        """Ways currently holding lines allocated by ``core``."""
        return [w for w in range(self.ways) if self._owner[w] == core]

    # -- updates ------------------------------------------------------------

    def insert(
        self,
        tag: int,
        core: int,
        candidates: tuple[int, ...],
        *,
        dirty: bool = False,
    ) -> Eviction | None:
        """Fill ``tag`` for ``core`` into one of ``candidates`` ways.

        An empty candidate way is preferred; otherwise the least recently
        used candidate is the victim.  Returns the eviction (if any).
        """
        if tag in self._map:
            raise ConfigError(f"tag {tag} already resident; use lookup()")
        if not candidates:
            raise ConfigError("insert() needs at least one candidate way")
        tags = self._tags
        way = None
        best_stamp = None
        for cand in candidates:
            if tags[cand] is None:
                way = cand
                best_stamp = None
                break
            stamp = self._stamps[cand]
            if best_stamp is None or stamp < best_stamp:
                best_stamp = stamp
                way = cand
        if way is None:
            raise SimulationInvariantError(
                f"replacement selected no victim among candidate ways "
                f"{candidates} (non-empty by precondition)"
            )
        evicted = None
        old = tags[way]
        if old is not None:
            evicted = Eviction(old, self._dirty[way], self._owner[way])
            del self._map[old]
        tags[way] = tag
        self._dirty[way] = dirty
        self._owner[way] = core
        self._map[tag] = way
        self._clock += 1
        self._stamps[way] = self._clock
        return evicted

    def invalidate(self, tag: int) -> Eviction | None:
        """Remove ``tag`` if resident, returning its state."""
        way = self._map.pop(tag, None)
        if way is None:
            return None
        ev = Eviction(tag, self._dirty[way], self._owner[way])
        self._tags[way] = None
        self._dirty[way] = False
        self._owner[way] = -1
        self._stamps[way] = 0
        return ev

    def set_dirty(self, tag: int, dirty: bool = True) -> None:
        way = self._map.get(tag)
        if way is None:
            raise KeyError(f"tag {tag} not resident")
        self._dirty[way] = dirty
