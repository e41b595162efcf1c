"""The banked DNUCA L2 cache (paper Section II, Fig. 1).

16 physical banks of 2048 sets x 8 ways form a "128-way equivalent" cache.
The cache operates in one of two modes:

* **shared** (the paper's *No-partitions* baseline): the DNUCA the paper
  builds on (Kim et al. / Beckmann's CMP-NUCA, with block migration).
  ``placement='dnuca'`` (default for shared mode) is a generational model
  of it: a miss allocates in the requesting core's Local bank, the victim
  is demoted one step outward along its owner's distance-ordered bank list
  (falling off the far end to memory), and a hit in a non-nearest bank
  promotes the block one step toward the requester.  Blocks therefore
  gravitate toward their cores and the *nearby* banks become the
  battleground — divergent neighbours destroy each other's working sets,
  exactly the interference the paper sets out to remove.
  ``placement='parallel'`` (round-robin over all banks, a global
  128-way-LRU-like aggregate) and ``placement='hash'`` (address-hashed
  home banks) are kept as idealised shared baselines for ablations.
* **partitioned**: a :class:`~repro.cache.partition_map.PartitionMap`
  assigns bank ways to cores.  Multi-bank partitions are aggregated with
  the *Parallel* (round-robin placement, directory lookup) or
  *Address-Hash* scheme over the level-1 banks, with the optional partial
  allocation in a shared Local bank acting as a level-2 victim below them
  (cascading limited to depth two, Fig. 4c).  On a level-2 hit the line is
  promoted back to level 1 — these block moves are the *migrations* whose
  rate distinguishes the aggregation schemes in the paper.

All banks live in one :class:`~repro.cache.bank.CacheImage`, whose
directory ``where`` maps every resident line to its slot in every mode;
the hardware equivalent is the partial-tag directory the paper assumes for
Parallel allocation.  The batched engine (:mod:`repro.sim.batched`) runs on
the same image in place, so both engines share one cache state.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.bank import CacheImage, Eviction
from repro.cache.partition_map import CorePartition, PartitionMap
from repro.config import L2Config
from repro.telemetry.metrics import MetricsRegistry
from repro.util.bits import ilog2
from repro.util.floorplan import distance_ordered_banks

from repro.errors import ConfigError


class AccessResult(NamedTuple):
    """Outcome of one L2 reference."""

    hit: bool
    bank: int  #: bank serving the reference (hit bank, or fill bank on miss)
    evictions: tuple[Eviction, ...]  #: lines pushed out to memory
    migrations: int  #: bank-to-bank block moves triggered by this access


class NucaStats:
    """L2-level per-core accounting.

    The hot-path counters are flat per-core lists (``record`` is a single
    list index per access); the historical ``hits``/``misses`` dict views
    stay available as properties for the public API.
    """

    __slots__ = ("_hits", "_misses", "migrations", "writebacks")

    def __init__(
        self,
        hits: dict[int, int] | None = None,
        misses: dict[int, int] | None = None,
        migrations: int = 0,
        writebacks: int = 0,
        *,
        num_cores: int = 0,
    ) -> None:
        n = num_cores
        if hits:
            n = max(n, max(hits) + 1)
        if misses:
            n = max(n, max(misses) + 1)
        self._hits = [0] * n
        self._misses = [0] * n
        for core, v in (hits or {}).items():
            self._hits[core] = v
        for core, v in (misses or {}).items():
            self._misses[core] = v
        self.migrations = migrations
        self.writebacks = writebacks

    def _grow(self, size: int) -> None:
        pad = size - len(self._hits)
        if pad > 0:
            self._hits.extend([0] * pad)
            self._misses.extend([0] * pad)

    @property
    def hits(self) -> dict[int, int]:
        """Per-core hit counts (cores with at least one hit)."""
        return {c: v for c, v in enumerate(self._hits) if v}

    @property
    def misses(self) -> dict[int, int]:
        """Per-core miss counts (cores with at least one miss)."""
        return {c: v for c, v in enumerate(self._misses) if v}

    def record(self, core: int, hit: bool) -> None:
        book = self._hits if hit else self._misses
        try:
            book[core] += 1
        except IndexError:
            self._grow(core + 1)
            book[core] += 1

    def core_hits(self, core: int) -> int:
        return self._hits[core] if core < len(self._hits) else 0

    def core_misses(self, core: int) -> int:
        return self._misses[core] if core < len(self._misses) else 0

    def core_accesses(self, core: int) -> int:
        return self.core_hits(core) + self.core_misses(core)

    def core_miss_rate(self, core: int) -> float:
        acc = self.core_accesses(core)
        return self.core_misses(core) / acc if acc else 0.0

    def total_hits(self) -> int:
        return sum(self._hits)

    def total_misses(self) -> int:
        return sum(self._misses)

    def total_accesses(self) -> int:
        return sum(self._hits) + sum(self._misses)

    def snapshot(self) -> "NucaStats":
        return NucaStats(
            self.hits, self.misses, self.migrations, self.writebacks,
            num_cores=len(self._hits),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NucaStats):
            return NotImplemented
        return (
            self.hits == other.hits
            and self.misses == other.misses
            and self.migrations == other.migrations
            and self.writebacks == other.writebacks
        )

    def __repr__(self) -> str:
        return (
            f"NucaStats(hits={self.hits}, misses={self.misses}, "
            f"migrations={self.migrations}, writebacks={self.writebacks})"
        )


class NucaL2:
    """The banked NUCA L2 with switchable sharing/partitioning."""

    def __init__(
        self,
        config: L2Config | None = None,
        num_cores: int = 8,
        *,
        placement: str = "parallel",
    ) -> None:
        self.config = config or L2Config()
        self.config.validate()
        if placement not in ("parallel", "hash", "dnuca"):
            raise ConfigError("placement must be 'parallel', 'hash' or 'dnuca'")
        self.num_cores = num_cores
        self.placement = placement
        #: nearest-first bank list per core (DNUCA migration geography).
        self.bank_orders = [
            distance_ordered_banks(c, num_cores, self.config.num_banks)
            for c in range(num_cores)
        ]
        self._order_pos = [
            {bank: i for i, bank in enumerate(order)}
            for order in self.bank_orders
        ]
        #: demotion-chain cap per access in DNUCA mode (bounded migration).
        self.max_demotions = 2
        #: the lines of every bank, shared with the batched engine
        self.image = CacheImage(
            self.config.num_banks, self.config.sets_per_bank,
            self.config.bank_ways,
        )
        self.banks = self.image.banks()
        self._set_bits = ilog2(self.config.sets_per_bank)
        self._mode = "shared"
        self._pmap: PartitionMap | None = None
        self._rr: dict[int, int] = {}
        self._shared_rr = 0
        self.stats = NucaStats(num_cores=num_cores)

    # -- configuration ------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def partition_map(self) -> PartitionMap | None:
        return self._pmap

    def share_all(self) -> None:
        """Enter the *No-partitions* shared baseline mode.

        Shared mode locates lines purely by their address hash, so any lines
        that a previous partitioned epoch placed in non-home banks must be
        dropped first.
        """
        if self._mode == "partitioned" and self.image.where:
            self.flush()
        self._mode = "shared"
        self._pmap = None
        for bank in self.banks:
            bank.share_all()

    def apply_partition(self, pmap: PartitionMap) -> None:
        """Install a partition map.  Resident lines are left in place (as in
        the paper — enforcement is purely through replacement masking), so
        stale lines of the previous epoch drain out naturally.  The
        directory covers every mode, so shared-mode residents stay
        findable."""
        pmap.validate(self.config.num_banks, self.config.bank_ways)
        self._mode = "partitioned"
        self._pmap = pmap
        self._rr = {c: 0 for c in pmap.partitions}
        pmap.install(self.banks)
        # Nearest-first chain of each partition's banks: under the 'dnuca'
        # placement, blocks gravitate to the chain head and age outward —
        # the machine stays a DNUCA whether or not it is partitioned.
        self._chain = {
            core: sorted(
                (a.bank for a in part.allocations()),
                key=self._order_pos[core].__getitem__,
            )
            for core, part in pmap.partitions.items()
        }
        self._chain_pos = {
            core: {bank: i for i, bank in enumerate(chain)}
            for core, chain in self._chain.items()
        }

    # -- placement helpers ----------------------------------------------------

    def shared_home(self, line: int) -> int:
        """Address-hash home bank in shared mode (bits above the set index)."""
        return (line >> self._set_bits) % self.config.num_banks

    def _level1_bank(self, core: int, part: CorePartition, line: int) -> int:
        if len(part.level1) == 1:
            return part.level1[0].bank
        if self.placement == "hash":
            idx = (line >> self._set_bits) % len(part.level1)
        else:  # parallel: round-robin allocation, any bank may hold the line
            idx = self._rr[core] % len(part.level1)
            self._rr[core] = idx + 1
        return part.level1[idx].bank

    # -- access path --------------------------------------------------------

    def access(self, core: int, line: int, *, is_write: bool = False) -> AccessResult:
        """Reference ``line`` on behalf of ``core`` (allocate-on-miss)."""
        if self._mode == "shared":
            return self._access_shared(core, line, is_write)
        return self._access_partitioned(core, line, is_write)

    def _access_shared(self, core: int, line: int, is_write: bool) -> AccessResult:
        """Shared (No-partitions) reference.

        ``placement='dnuca'`` is the paper's migrating-DNUCA baseline (see
        the module docstring); ``'parallel'`` places round-robin over all
        banks (a global 128-way-LRU-like aggregate); ``'hash'`` gives every
        line an address-hashed home bank (conventional banked shared cache).
        """
        if self.placement == "dnuca":
            return self._access_dnuca(core, line, is_write)
        if self.placement == "hash":
            bank = self.banks[self.shared_home(line)]
            hit = bank.access(core, line, is_write=is_write)
            self.stats.record(core, hit)
            if hit:
                return AccessResult(True, bank.bank_id, (), 0)
            ev = bank.fill(core, line, dirty=is_write)
            evictions = (ev,) if ev is not None else ()
            if ev is not None and ev.dirty:
                self.stats.writebacks += 1
            return AccessResult(False, bank.bank_id, evictions, 0)

        home = self.bank_of(line)
        if home is not None:
            hit = self.banks[home].access(core, line, is_write=is_write)
            assert hit, "directory said present but set lookup missed"
            self.stats.record(core, True)
            return AccessResult(True, home, (), 0)
        self.stats.record(core, False)
        bank_id = self._shared_rr % self.config.num_banks
        self._shared_rr += 1
        ev = self.banks[bank_id].fill(core, line, dirty=is_write)
        self.banks[bank_id].stats.record(core, False)
        evictions: tuple[Eviction, ...] = ()
        if ev is not None:
            evictions = (ev,)
            if ev.dirty:
                self.stats.writebacks += 1
        return AccessResult(False, bank_id, evictions, 0)

    # -- DNUCA (migrating shared baseline) ------------------------------------

    def _access_dnuca(self, core: int, line: int, is_write: bool) -> AccessResult:
        """Generational DNUCA: gravity placement + one-step migration."""
        home = self.bank_of(line)
        if home is not None:
            hit = self.banks[home].access(core, line, is_write=is_write)
            assert hit, "directory said present but set lookup missed"
            self.stats.record(core, True)
            migrations = 0
            pos = self._order_pos[core].get(home, 0)
            if pos > 0:
                migrations = self._dnuca_promote(core, line, home, pos)
            return AccessResult(True, home, (), migrations)
        self.stats.record(core, False)
        local = self.bank_orders[core][0]
        evictions, migrations = self._dnuca_fill(core, line, local, dirty=is_write)
        self.banks[local].stats.record(core, False)
        return AccessResult(False, local, evictions, migrations)

    def _dnuca_fill(
        self, owner: int, line: int, bank_id: int, *, dirty: bool
    ) -> tuple[tuple[Eviction, ...], int]:
        """Fill at ``bank_id``; each victim is demoted one step outward along
        *its own owner's* distance order, chained up to ``max_demotions``
        boundary crossings per access, then spilled to memory."""
        evictions: list[Eviction] = []
        migrations = 0
        ev = self.banks[bank_id].fill(owner, line, dirty=dirty)
        current_bank = bank_id
        demotions = 0
        while ev is not None:
            v_owner = ev.owner if 0 <= ev.owner < self.num_cores else owner
            order = self.bank_orders[v_owner]
            pos = self._order_pos[v_owner].get(current_bank, len(order) - 1)
            if demotions >= self.max_demotions or pos + 1 >= len(order):
                evictions.append(ev)
                break
            target = order[pos + 1]
            next_ev = self.banks[target].fill(v_owner, ev.tag, dirty=ev.dirty)
            migrations += 1
            demotions += 1
            current_bank = target
            ev = next_ev
        for e in evictions:
            if e.dirty:
                self.stats.writebacks += 1
        self.stats.migrations += migrations
        return tuple(evictions), migrations

    def _dnuca_promote(self, core: int, line: int, home: int, pos: int) -> int:
        """Move a hit block one bank closer to the requester, swapping with
        the LRU occupant of the target set (if any)."""
        target = self.bank_orders[core][pos - 1]
        removed = self.banks[home].invalidate(line)
        assert removed is not None
        displaced = self.banks[target].fill(core, line, dirty=removed.dirty)
        migrations = 1
        if displaced is not None:
            back_owner = (
                displaced.owner if 0 <= displaced.owner < self.num_cores else core
            )
            back = self.banks[home].fill(
                back_owner, displaced.tag, dirty=displaced.dirty
            )
            migrations += 1
            # freed way re-raced by a mode change
            if back is not None and back.dirty:
                self.stats.writebacks += 1
        self.stats.migrations += migrations
        return migrations

    def _access_partitioned(
        self, core: int, line: int, is_write: bool
    ) -> AccessResult:
        if self.placement == "dnuca":
            return self._access_partitioned_dnuca(core, line, is_write)
        assert self._pmap is not None
        part = self._pmap[core]
        home = self.bank_of(line)
        if home is not None:
            bank = self.banks[home]
            hit = bank.access(core, line, is_write=is_write)
            assert hit, "directory said present but set lookup missed"
            self.stats.record(core, True)
            migrations = 0
            evictions: tuple[Eviction, ...] = ()
            if (
                part.level2 is not None
                and home == part.level2.bank
                and len(part.level1) > 0
            ):
                evictions, migrations = self._promote(core, part, line, home)
            return AccessResult(True, home, evictions, migrations)

        # Miss: allocate in a level-1 bank; demote its victim to level 2.
        self.stats.record(core, False)
        fill_bank_id = self._level1_bank(core, part, line)
        evictions, migrations = self._fill_with_demotion(
            core, part, line, fill_bank_id, dirty=is_write
        )
        self.banks[fill_bank_id].stats.record(core, False)
        return AccessResult(False, fill_bank_id, evictions, migrations)

    def _access_partitioned_dnuca(
        self, core: int, line: int, is_write: bool
    ) -> AccessResult:
        """Partitioned access with gravity placement inside the partition:
        fills land in the chain's nearest bank, victims age outward through
        the core's own ways, and hits migrate one step back toward the core.
        The way masks still provide the isolation — all movement happens in
        ways the core owns."""
        home = self.bank_of(line)
        if home is not None:
            hit = self.banks[home].access(core, line, is_write=is_write)
            assert hit, "directory said present but set lookup missed"
            self.stats.record(core, True)
            migrations = 0
            pos = self._chain_pos[core].get(home)
            if pos is not None and pos > 0:
                migrations = self._chain_promote(core, line, home, pos)
            return AccessResult(True, home, (), migrations)
        self.stats.record(core, False)
        chain = self._chain[core]
        evictions, migrations = self._chain_fill(core, line, dirty=is_write)
        self.banks[chain[0]].stats.record(core, False)
        return AccessResult(False, chain[0], evictions, migrations)

    def _chain_fill(
        self, core: int, line: int, *, dirty: bool
    ) -> tuple[tuple[Eviction, ...], int]:
        """Fill at the head of ``core``'s partition chain, demoting victims
        outward through the chain (bounded, as in the shared DNUCA)."""
        chain = self._chain[core]
        evictions: list[Eviction] = []
        migrations = 0
        ev = self.banks[chain[0]].fill(core, line, dirty=dirty)
        pos = 0
        demotions = 0
        while ev is not None:
            if demotions >= self.max_demotions or pos + 1 >= len(chain):
                evictions.append(ev)
                break
            target = chain[pos + 1]
            next_ev = self.banks[target].fill(core, ev.tag, dirty=ev.dirty)
            migrations += 1
            demotions += 1
            pos += 1
            ev = next_ev
        for e in evictions:
            if e.dirty:
                self.stats.writebacks += 1
        self.stats.migrations += migrations
        return tuple(evictions), migrations

    def _chain_promote(self, core: int, line: int, home: int, pos: int) -> int:
        """Swap a hit block one chain step toward the core's Local bank.

        After a repartition the freed way in ``home`` may no longer belong
        to the core, so the back-fill can itself displace a line; that
        second victim is dropped to memory rather than cascaded further.
        """
        target = self._chain[core][pos - 1]
        removed = self.banks[home].invalidate(line)
        assert removed is not None
        displaced = self.banks[target].fill(core, line, dirty=removed.dirty)
        migrations = 1
        if displaced is not None:
            back = self.banks[home].fill(core, displaced.tag, dirty=displaced.dirty)
            migrations += 1
            if back is not None and back.dirty:
                self.stats.writebacks += 1
        self.stats.migrations += migrations
        return migrations

    # -- internal movement --------------------------------------------------

    def _fill_with_demotion(
        self,
        core: int,
        part: CorePartition,
        line: int,
        bank_id: int,
        *,
        dirty: bool,
    ) -> tuple[tuple[Eviction, ...], int]:
        """Fill ``line`` into ``bank_id``; cascade the victim into the
        partition's level-2 allocation when one exists."""
        evictions: list[Eviction] = []
        migrations = 0
        ev = self.banks[bank_id].fill(core, line, dirty=dirty)
        if ev is not None:
            demote_ok = (
                part.level2 is not None
                and bank_id != part.level2.bank
                and ev.owner == core
            )
            if demote_ok:
                ev2 = self.banks[part.level2.bank].fill(
                    core, ev.tag, dirty=ev.dirty
                )
                migrations += 1
                if ev2 is not None:
                    evictions.append(ev2)
            else:
                evictions.append(ev)
        for e in evictions:
            if e.dirty:
                self.stats.writebacks += 1
        self.stats.migrations += migrations
        return tuple(evictions), migrations

    def _promote(
        self, core: int, part: CorePartition, line: int, home: int
    ) -> tuple[tuple[Eviction, ...], int]:
        """Move a level-2 hit back into level 1 (cascade MRU insertion)."""
        ev = self.banks[home].invalidate(line)
        assert ev is not None
        fill_bank_id = self._level1_bank(core, part, line)
        evictions, migrations = self._fill_with_demotion(
            core, part, line, fill_bank_id, dirty=ev.dirty
        )
        self.stats.migrations += 1
        return evictions, migrations + 1

    # -- introspection ------------------------------------------------------

    def contains(self, line: int) -> bool:
        return line in self.image.where

    def bank_of(self, line: int) -> int | None:
        """Bank holding ``line``, or None when it is not resident."""
        slot = self.image.where.get(line)
        return None if slot is None else slot >> self.image.slot_bits

    def occupancy(self) -> int:
        return sum(b.occupancy() for b in self.banks)

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Publish cache-level totals into a telemetry registry.

        Pull-style on purpose: the access path never touches the registry,
        so untraced runs pay nothing.  Every value is simulated state,
        identical between serial and parallel runs.
        """
        registry.counter("l2.hits").inc(self.stats.total_hits())
        registry.counter("l2.misses").inc(self.stats.total_misses())
        registry.counter("l2.migrations").inc(self.stats.migrations)
        registry.counter("l2.writebacks").inc(self.stats.writebacks)
        registry.gauge("l2.occupancy").set(self.occupancy())
        per_bank = registry.histogram("l2.bank_occupancy")
        for bank in self.banks:
            per_bank.observe(bank.occupancy())
        hit_hist = registry.histogram("l2.bank_hits")
        miss_hist = registry.histogram("l2.bank_misses")
        for bank in self.banks:
            hit_hist.observe(bank.stats.total_hits())
            miss_hist.observe(bank.stats.total_misses())

    def flush(self) -> int:
        """Invalidate everything (returns the number of lines dropped)."""
        dropped = 0
        for bank in self.banks:
            for line in bank.resident_lines():
                bank.invalidate(line)
                dropped += 1
        return dropped
