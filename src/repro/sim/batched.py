"""Struct-of-arrays batched execution backend for :class:`CMPSystem`.

The reference backend (``repro.sim.system``) pays Python object overhead on
every L2 access: a heap push/pop, an ``AccessResult`` allocation, dict+list
churn inside :class:`~repro.cache.cacheset.CacheSet`, and a per-access MSA
profiler update.  This module re-executes the *same* simulation on flat
arrays with a single tight event loop, deferring profiler observations to
vectorised ``observe_many`` batches.  See DESIGN.md §15.

Bit-identity with the reference loop is a hard requirement (it is gated by
``repro diff`` in CI and by the property tests in
``tests/test_sim_backends.py``).  The rules that make it hold:

* **Event order.** The reference heap orders events by ``(arrival, core)``
  tuples.  The engine keeps one heap of the same tuples, one entry per
  running core: each access ends with a single ``heappushpop`` that
  schedules the core's next access and returns the globally earliest
  event, ties going to the lowest core exactly as the reference heap
  pops them.
* **Float arithmetic.** Every IEEE operation of the reference path is
  reproduced with the same operands in the same association: queue delays
  (``max(0.0, next_free - arrival)``), latency accumulation
  (bank latency, then memory latency, then memory queue delay), and the
  MLP-divided timer advance.  Compute advances are precomputed vectorised
  as ``gaps * nonmem_cpi`` — elementwise float64, bit-equal to the scalar
  product.  Instruction and access counters are integers, so they are
  order-free and recovered from prefix sums instead of per-event adds.
* **Batch boundaries.** Controller ticks, warmup crossings and
  ``max_cycles`` are folded into one *barrier* cycle count; an event at or
  past the barrier takes a slow path that re-runs the reference checks in
  the reference order (max_cycles, tick, warmup mark, then the access).
  Deferred profiler batches are flushed before any *due* tick, so epoch
  decisions see exactly the accesses that precede the boundary event.
* **Directory encoding.** The NUCA directory is one dict
  ``line -> (bank << slot_bits) | slot`` whose value doubles as the index
  into the flat tag/dirty/owner/stamp arrays, so a hit resolves bank,
  way *and* storage with a single lookup.  The dict performs the same key
  insert/delete sequence as the reference's ``l2._where``, and
  ``check_in`` rebuilds ``l2._where`` from it (same content, same
  insertion order) at every synchronisation point.
* **Victim selection.** Replacement scans the set's slice of the flat
  arrays: first empty way, else the lowest LRU stamp with ties to the
  lowest way.  Each core's candidate ways per bank are precomputed as a
  *span*: ``True`` when the core owns the whole set (one
  ``list.index``/``min`` over the full slice) and ``(lo, hi)`` for a
  partial range (the same scan over the sub-slice); both reproduce
  :meth:`CacheSet.insert` exactly.  Every partitioner hands out
  contiguous way ranges, so a way mask with a gap is refused with
  :class:`~repro.errors.ConfigError` when the partition is read, before
  any access runs.
* **Shared mutable state.** The engine mutates the round-robin cursors and
  the per-core NucaStats arrays in place — the same objects the reference
  path uses — and checks the flat cache image back into the ``CacheSet``
  objects at the rare synchronisation points (before sanitised controller
  ticks and at run end), so the sanitizer, tracer and ``results()`` always
  read coherent object state.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.cpu.core import CoreSnapshot
from repro.errors import ConfigError
from repro.util.bits import LINE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import CMPSystem

#: accesses materialised from the numpy trace columns per refill; scalar
#: list indexing is ~5x cheaper than numpy scalar indexing on this path.
CHUNK = 8192

_INF = float("inf")

#: address -> line-number shift, as a numpy scalar so a shifted uint64
#: column stays uint64 (the dtype of ``Trace.lines``)
_LINE_SHIFT = np.uint64(LINE_SHIFT)

# placement-mode codes for the per-access dispatch
_SH_DNUCA, _SH_HASH, _SH_PAR, _P_AGG, _P_DNUCA = range(5)


def run_batched(system: "CMPSystem") -> None:  # noqa: C901 - one hot loop
    """Execute ``system``'s event loop on the struct-of-arrays engine.

    Leaves ``system`` (timers, caches, stats, controller, tracer,
    ``stop_time``, trace positions) in exactly the state the reference
    loop would have produced.
    """
    config = system.config
    ncores = config.num_cores
    l2 = system.l2
    banks = l2.banks
    nbanks = len(banks)
    ways = l2.config.bank_ways
    nsets = banks[0].num_sets
    set_mask = banks[0]._set_mask
    set_bits = l2._set_bits
    max_demotions = l2.max_demotions
    bank_orders = l2.bank_orders
    order_pos = l2._order_pos

    if l2._mode == "shared":
        mode = {"dnuca": _SH_DNUCA, "hash": _SH_HASH, "parallel": _SH_PAR}[
            l2.placement
        ]
    else:
        mode = _P_DNUCA if l2.placement == "dnuca" else _P_AGG

    # -- check out cache state into flat arrays ------------------------------
    # One list per field across all banks; bank b owns the index range
    # [b << slot_bits, b << slot_bits + nsets*ways).  Tags use -1 as the
    # empty sentinel (line numbers are non-negative).
    slot_bits = max(1, (nsets * ways - 1).bit_length())
    stride = 1 << slot_bits
    pad = stride - nsets * ways
    ftags: list[int] = []
    fdirty: list[bool] = []
    fowners: list[int] = []
    fstamps: list[int] = []
    bclocks: list[list[int]] = []
    bmaps: list[dict[int, int]] = []
    bocc = [0] * nbanks
    # per-set empty-way count, indexed by the set's flat base slot; lets
    # full sets (the steady state) skip the tag scan entirely
    socc = [0] * (nbanks << slot_bits)
    for b, bank in enumerate(banks):
        gb = b << slot_bits
        clk: list[int] = []
        bmap: dict[int, int] = {}
        for si, cs in enumerate(bank.sets):
            base = gb + si * ways
            for w, tg in enumerate(cs._tags):
                if tg is None:
                    ftags.append(-1)
                    socc[base] += 1
                else:
                    ftags.append(tg)
                    bmap[tg] = base + w
                    bocc[b] += 1
            fdirty.extend(cs._dirty)
            fowners.extend(cs._owner)
            fstamps.extend(cs._stamps)
            clk.append(cs._clock)
        if pad:
            ftags.extend([-1] * pad)
            fdirty.extend([False] * pad)
            fowners.extend([-1] * pad)
            fstamps.extend([0] * pad)
        bclocks.append(clk)
        bmaps.append(bmap)

    # encoded directory: the value is the flat slot index.  Seeded in
    # l2._where's insertion order and driven with the same key-op sequence,
    # so the check-in rebuild reproduces the reference dict exactly.
    enc_dir: dict[int, int] = {
        ln: bmaps[bk][ln] for ln, bk in l2._where.items()
    }

    # bank-level stats as per-core matrices (dicts rebuilt at check-in)
    bhits = [[bank.stats.hits.get(c, 0) for c in range(ncores)] for bank in banks]
    bmiss = [[bank.stats.misses.get(c, 0) for c in range(ncores)] for bank in banks]
    bevict = [bank.stats.evictions for bank in banks]
    bwb = [bank.stats.writebacks for bank in banks]

    # NUCA-level stats: the per-core arrays are mutated in place (aliased).
    # Hit/miss counters are integers, hence order-free: the loop only
    # maintains the per-(bank, core) matrices and the NUCA totals are
    # recovered as base + column sums at synchronisation points.
    nhits = l2.stats._hits
    nmiss = l2.stats._misses
    nh_base = [nhits[cc] - sum(row[cc] for row in bhits) for cc in range(ncores)]
    nm_base = [nmiss[cc] - sum(row[cc] for row in bmiss) for cc in range(ncores)]
    nmig = l2.stats.migrations
    nwb = l2.stats.writebacks
    shared_rr = l2._shared_rr

    # contention ports
    contention = system.contention
    bank_busy = contention.ports[0].busy_cycles
    pnext = [p.next_free for p in contention.ports]
    pdelay = [p.total_queue_delay for p in contention.ports]
    # served counts are derivable: every access takes exactly one bank
    # port (the bank whose hit/miss stat it bumps) and every miss takes
    # the memory port once, so they too become base + sums at sync points
    pbase = [
        contention.ports[b].served - sum(bhits[b]) - sum(bmiss[b])
        for b in range(nbanks)
    ]
    mport = contention.memory_port
    mem_busy = mport.busy_cycles
    mnext = mport.next_free
    mbase = mport.served - sum(sum(row) for row in bmiss)
    mdelay = mport.total_queue_delay
    mem_lat = config.memory.latency_cycles
    lat = system._lat

    # core timers (initial values; time lives in `arrival` during the run)
    timers = system.timers
    ctime = [t.time for t in timers]
    cinstr = [t.instructions for t in timers]
    cstall = [t.mem_stall for t in timers]
    cacc = [t.accesses for t in timers]
    cmlp = [t.mlp for t in timers]

    # traces: numpy columns; scalar access goes through tolist() chunks,
    # and line numbers are shifted out of the addresses chunk by chunk
    addrs_np = system._addrs
    writes_np = system._writes
    comp_np = [
        g.astype(np.float64) * timers[c].nonmem_cpi
        for c, g in enumerate(system._gaps)
    ]
    counts = system._len
    poss = list(system._pos)
    pos0 = list(poss)
    # instructions are an order-free integer sum: recover them from a
    # prefix sum over gaps+1 instead of adding per event.  icum[c][j] is
    # the instruction count after scheduling access j-1.
    icum: list[np.ndarray] = []
    for c in range(ncores):
        ex = np.zeros(counts[c] + 1, dtype=np.int64)
        if counts[c]:
            np.cumsum(system._gaps[c].astype(np.int64) + 1, out=ex[1:])
        icum.append(cinstr[c] - ex[poss[c]] + ex)
    clines: list[list[int]] = [[] for _ in range(ncores)]
    cwrites: list[list[bool]] = [[] for _ in range(ncores)]
    ccomp: list[list[float]] = [[] for _ in range(ncores)]
    cb_start = [0] * ncores

    # first position past the loaded chunk; doubles as the trace-end
    # sentinel so the hot loop needs a single boundary compare
    climit = [0] * ncores

    def load_chunk(cc: int, start: int) -> None:
        stop_i = min(start + CHUNK, counts[cc])
        clines[cc] = (addrs_np[cc][start:stop_i] >> _LINE_SHIFT).tolist()
        cwrites[cc] = writes_np[cc][start:stop_i].tolist()
        ccomp[cc] = comp_np[cc][start:stop_i].tolist()
        cb_start[cc] = start
        climit[cc] = stop_i

    # deferred profiler batches: per-core [pend[c], pos) awaits observe_many
    profilers = system.profilers
    pend = list(poss)

    controller = system.controller
    # bank-bw regulator: mutated in place (never rebound), charged per
    # access in the hot loop in the same event order as the reference
    regulator = system.regulator
    next_epoch = controller.next_epoch if controller is not None else _INF
    sanitizer = system.sanitizer
    tracer = system.tracer
    warmup = system.warmup_cycles
    max_cycles = system.max_cycles
    have_max = max_cycles is not None
    marked = [s is not None for s in system._start_snaps]

    # -- partition mirrors (refreshed after every due controller tick) -------
    chains: dict[int, list[int]] = {}
    rr: dict[int, int] = {}
    l1banks: dict[int, list[int]] = {}
    l2bank: dict[int, int] = {}
    cpos: list[list[int]] = []
    cspan: list[list[tuple[int, int] | bool | None]] = []
    clens: list[int] = []
    placement_hash = l2.placement == "hash"
    # static under shared dnuca: distance rank of each bank per core
    opos = [
        [order_pos[cc].get(bk, 0) for bk in range(nbanks)]
        for cc in range(ncores)
    ]

    def refresh_partition() -> None:
        nonlocal chains, rr, l1banks, l2bank, cpos, cspan, clens
        # candidates_for enumerates ways ascending, and every partitioner
        # hands out contiguous way ranges, so each core's candidates in a
        # bank are the whole set (True), one (lo, hi) slice, or nothing
        # (None: a fill there raises PermissionError, as in the reference)
        cspan = []
        for bank in banks:
            row: list[tuple[int, int] | bool | None] = []
            for cc in range(ncores):
                cand = bank.candidates_for(cc)
                if not cand:
                    row.append(None)
                elif cand[-1] - cand[0] + 1 != len(cand):
                    raise ConfigError(
                        f"core {cc}'s ways in bank {bank.bank_id} are not "
                        f"contiguous ({cand}); the batched engine only "
                        f"victim-scans contiguous way ranges"
                    )
                elif len(cand) == ways:
                    row.append(True)
                else:
                    row.append((cand[0], cand[-1] + 1))
            cspan.append(row)
        if l2._mode == "partitioned":
            chains = l2._chain
            rr = l2._rr
            pmap = l2._pmap
            l1banks = {}
            l2bank = {}
            for cc, part in pmap.partitions.items():
                l1banks[cc] = [a.bank for a in part.level1]
                l2bank[cc] = part.level2.bank if part.level2 is not None else -1
            if mode == _P_DNUCA:
                cpos = [[-1] * nbanks for _ in range(ncores)]
                clens = [0] * ncores
                for cc, ch in chains.items():
                    row = cpos[cc]
                    for i, bk in enumerate(ch):
                        row[bk] = i
                    clens[cc] = len(ch)

    refresh_partition()

    # -- cache movement primitives (flat mirrors of bank.fill/invalidate) ----

    def bank_fill(
        b: int, line: int, core: int, dirty: bool
    ) -> tuple[int, bool, int] | None:
        """Victim-select + insert + directory insert, in reference order."""
        si = line & set_mask
        gbase = (b << slot_bits) + si * ways
        span = cspan[b][core]
        if span is True:
            if socc[gbase]:
                slot = ftags.index(-1, gbase, gbase + ways)
            else:
                sseg = fstamps[gbase:gbase + ways]
                slot = gbase + sseg.index(min(sseg))
        elif span is not None:
            lo = gbase + span[0]
            hi = gbase + span[1]
            if socc[gbase]:
                seg = ftags[lo:hi]
                if -1 in seg:
                    slot = lo + seg.index(-1)
                else:
                    sseg = fstamps[lo:hi]
                    slot = lo + sseg.index(min(sseg))
            else:
                sseg = fstamps[lo:hi]
                slot = lo + sseg.index(min(sseg))
        else:
            raise PermissionError(f"core {core} owns no ways in bank {b}")
        old = ftags[slot]
        if old != -1:
            ev = (old, fdirty[slot], fowners[slot])
            bevict[b] += 1
            if ev[1]:
                bwb[b] += 1
        else:
            ev = None
            bocc[b] += 1
            socc[gbase] -= 1
        ftags[slot] = line
        fdirty[slot] = dirty
        fowners[slot] = core
        clk = bclocks[b]
        nc = clk[si] + 1
        clk[si] = nc
        fstamps[slot] = nc
        enc_dir[line] = slot
        return ev

    def bank_fill_hash(
        b: int, line: int, core: int, dirty: bool
    ) -> tuple[int, bool, int] | None:
        """Hash-shared variant: maintains the per-bank tag map instead of
        the directory (hash mode locates lines by address alone)."""
        si = line & set_mask
        gbase = (b << slot_bits) + si * ways
        span = cspan[b][core]
        if span is True:
            if socc[gbase]:
                slot = ftags.index(-1, gbase, gbase + ways)
            else:
                sseg = fstamps[gbase:gbase + ways]
                slot = gbase + sseg.index(min(sseg))
        elif span is not None:
            lo = gbase + span[0]
            hi = gbase + span[1]
            if socc[gbase]:
                seg = ftags[lo:hi]
                if -1 in seg:
                    slot = lo + seg.index(-1)
                else:
                    sseg = fstamps[lo:hi]
                    slot = lo + sseg.index(min(sseg))
            else:
                sseg = fstamps[lo:hi]
                slot = lo + sseg.index(min(sseg))
        else:
            raise PermissionError(f"core {core} owns no ways in bank {b}")
        old = ftags[slot]
        bm = bmaps[b]
        if old != -1:
            ev = (old, fdirty[slot], fowners[slot])
            del bm[old]
            bevict[b] += 1
            if ev[1]:
                bwb[b] += 1
        else:
            ev = None
            bocc[b] += 1
            socc[gbase] -= 1
        ftags[slot] = line
        fdirty[slot] = dirty
        fowners[slot] = core
        bm[line] = slot
        clk = bclocks[b]
        nc = clk[si] + 1
        clk[si] = nc
        fstamps[slot] = nc
        return ev

    def bank_clear(b: int, slot: int) -> bool:
        """Invalidate a known flat slot; returns the line's dirty bit."""
        was = fdirty[slot]
        ftags[slot] = -1
        fdirty[slot] = False
        fowners[slot] = -1
        fstamps[slot] = 0
        bocc[b] -= 1
        socc[slot - (slot - (b << slot_bits)) % ways] += 1
        return was

    # -- placement-specific miss/migration paths (cold relative to hits) -----

    def dnuca_fill(owner: int, line: int, bank_id: int, dirty: bool) -> None:
        nonlocal nmig, nwb
        ev = bank_fill(bank_id, line, owner, dirty)
        current = bank_id
        demotions = 0
        while ev is not None:
            tag, edirty, eowner = ev
            del enc_dir[tag]
            v = eowner if 0 <= eowner < ncores else owner
            order = bank_orders[v]
            p = order_pos[v].get(current, len(order) - 1)
            if demotions >= max_demotions or p + 1 >= len(order):
                if edirty:
                    nwb += 1
                break
            target = order[p + 1]
            ev = bank_fill(target, tag, v, edirty)
            nmig += 1
            demotions += 1
            current = target

    def dnuca_promote(
        core: int, line: int, home: int, slot: int, p: int
    ) -> None:
        nonlocal nmig, nwb
        target = bank_orders[core][p - 1]
        rdirty = bank_clear(home, slot)
        del enc_dir[line]
        displaced = bank_fill(target, line, core, rdirty)
        nmig += 1
        if displaced is not None:
            dtag, ddirty, downer = displaced
            del enc_dir[dtag]
            back_owner = downer if 0 <= downer < ncores else core
            back = bank_fill(home, dtag, back_owner, ddirty)
            nmig += 1
            if back is not None:
                del enc_dir[back[0]]
                if back[1]:
                    nwb += 1

    def level1_bank(core: int, line: int) -> int:
        l1 = l1banks[core]
        n1 = len(l1)
        if n1 == 1:
            return l1[0]
        if placement_hash:
            return l1[(line >> set_bits) % n1]
        idx = rr[core] % n1
        rr[core] = idx + 1
        return l1[idx]

    def fill_demote(core: int, line: int, bank_id: int, dirty: bool) -> None:
        nonlocal nmig, nwb
        ev = bank_fill(bank_id, line, core, dirty)
        if ev is not None:
            tag, edirty, eowner = ev
            del enc_dir[tag]
            l2b = l2bank[core]
            if l2b >= 0 and bank_id != l2b and eowner == core:
                ev2 = bank_fill(l2b, tag, core, edirty)
                nmig += 1
                if ev2 is not None:
                    del enc_dir[ev2[0]]
                    if ev2[1]:
                        nwb += 1
            elif edirty:
                nwb += 1

    def agg_promote(core: int, line: int, home: int, slot: int) -> None:
        nonlocal nmig
        rdirty = bank_clear(home, slot)
        del enc_dir[line]
        fill_demote(core, line, level1_bank(core, line), rdirty)
        nmig += 1

    # -- synchronisation points ----------------------------------------------

    def flush_pending(cur_core: int, cur_pos: int) -> None:
        """Hand deferred observations to the vectorised profilers.  The
        current core's boundary event itself (index ``cur_pos``) is
        excluded — the reference observes it only after the tick."""
        if profilers is None:
            return
        for cc in range(ncores):
            end = cur_pos if cc == cur_core else poss[cc]
            start = pend[cc]
            if end > start:
                profilers[cc].observe_many(
                    addrs_np[cc][start:end] >> _LINE_SHIFT
                )
                pend[cc] = end

    def check_in() -> None:
        """Write the flat cache image back into the object model."""
        for b, bank in enumerate(banks):
            gb = b << slot_bits
            clk = bclocks[b]
            for si in range(nsets):
                cs = bank.sets[si]
                base = gb + si * ways
                seg = ftags[base:base + ways]
                cs._tags[:] = [None if t == -1 else t for t in seg]
                cs._dirty[:] = fdirty[base:base + ways]
                cs._owner[:] = fowners[base:base + ways]
                cs._stamps[:] = fstamps[base:base + ways]
                cs._clock = clk[si]
                cs._map = {t: w for w, t in enumerate(seg) if t != -1}
            st = bank.stats
            st.hits = {cc: v for cc, v in enumerate(bhits[b]) if v}
            st.misses = {cc: v for cc, v in enumerate(bmiss[b]) if v}
            st.evictions = bevict[b]
            st.writebacks = bwb[b]
        if mode != _SH_HASH:
            l2._where = {ln: e >> slot_bits for ln, e in enc_dir.items()}
        for cc in range(ncores):
            nhits[cc] = nh_base[cc] + sum(row[cc] for row in bhits)
            nmiss[cc] = nm_base[cc] + sum(row[cc] for row in bmiss)
        l2.stats.migrations = nmig
        l2.stats.writebacks = nwb
        l2._shared_rr = shared_rr
        for i, port in enumerate(contention.ports):
            port.next_free = pnext[i]
            port.served = pbase[i] + sum(bhits[i]) + sum(bmiss[i])
            port.total_queue_delay = pdelay[i]
        mport.next_free = mnext
        mport.served = mbase + sum(sum(row) for row in bmiss)
        mport.total_queue_delay = mdelay

    def emit_snapshot(now: float, epoch: int) -> None:
        tracer.emit(
            "bank_snapshot",
            time=now,
            epoch=epoch,
            hits=[sum(h) for h in bhits],
            misses=[sum(m) for m in bmiss],
            occupancy=list(bocc),
            queue_served=[
                pbase[b] + sum(bhits[b]) + sum(bmiss[b])
                for b in range(nbanks)
            ],
            queue_delay=list(pdelay),
            migrations=nmig,
            writebacks=nwb,
            core_hits=[
                nh_base[cc] + sum(row[cc] for row in bhits)
                for cc in range(ncores)
            ],
            core_misses=[
                nm_base[cc] + sum(row[cc] for row in bmiss)
                for cc in range(ncores)
            ],
        )

    # -- initial scheduling (mirrors the reference pre-loop) -----------------
    arrival = [_INF] * ncores
    for c in range(ncores):
        if warmup == 0 and not marked[c]:
            system._start_snaps[c] = CoreSnapshot(
                ctime[c], cinstr[c], cstall[c], cacc[c]
            )
            system._start_l2[c] = (nhits[c], nmiss[c])
            marked[c] = True
        if poss[c] < counts[c]:
            load_chunk(c, poss[c])
            ctime[c] += ccomp[c][poss[c] - cb_start[c]]
            arrival[c] = ctime[c]
    nunmarked = sum(
        1 for c in range(ncores) if not marked[c] and poss[c] < counts[c]
    )

    def next_barrier() -> float:
        bar = next_epoch
        if have_max and max_cycles < bar:
            bar = max_cycles
        if nunmarked and warmup < bar:
            bar = warmup
        return bar

    barrier = next_barrier()
    enc_get = enc_dir.get
    stop: float | None = None

    # -- the flat event loop -------------------------------------------------
    # One iteration per L2 access: (rare) barrier slow path, access on the
    # flat mirrors, contention, timer advance, then one fused
    # ``heappushpop`` that schedules this core's next access and hands back
    # the globally earliest one.  (t, core) tuples compare
    # lexicographically — the reference heap's order.  On an empty heap
    # (single running core) heappushpop returns its argument unchanged,
    # which is exactly "the next event is this core's own".
    # -- hot-loop local aliases ----------------------------------------------
    # Nearly every name the event loop touches is captured by a closure
    # (check_in, load_chunk, refresh_partition, ...) and therefore lives in
    # a cell: LOAD_DEREF on every access.  Containers are mutated in place
    # and never rebound, so plain local aliases (LOAD_FAST) are safe; the
    # partition mirrors, which refresh_partition does rebind, are
    # re-aliased after every barrier slow path.  The scalar counters the
    # inlined paths bump (nmig/nwb) become local deltas folded back into
    # the cells at every synchronisation point; mnext/mdelay are aliased
    # and written back the same way.
    ftags_ = ftags
    fdirty_ = fdirty
    fowners_ = fowners
    fstamps_ = fstamps
    bclocks_ = bclocks
    socc_ = socc
    bocc_ = bocc
    enc_dir_ = enc_dir
    bhits_ = bhits
    bmiss_ = bmiss
    bevict_ = bevict
    bwb_ = bwb
    bmaps_ = bmaps
    pnext_ = pnext
    pdelay_ = pdelay
    poss_ = poss
    counts_ = counts
    climit_ = climit
    clines_ = clines
    cwrites_ = cwrites
    ccomp_ = ccomp
    cb_start_ = cb_start
    cspan_ = cspan
    cpos_ = cpos
    clens_ = clens
    chains_ = chains
    bank_orders_ = bank_orders
    l1banks_ = l1banks
    l2bank_ = l2bank
    set_mask_ = set_mask
    slot_bits_ = slot_bits
    set_bits_ = set_bits
    ways_ = ways
    max_demotions_ = max_demotions
    nbanks_ = nbanks
    mnext_ = mnext
    mdelay_ = mdelay
    nmig_d = 0
    nwb_d = 0
    is_pdnuca = mode == _P_DNUCA
    is_pagg = mode == _P_AGG
    is_shdnuca = mode == _SH_DNUCA
    is_shhash = mode == _SH_HASH
    heap = sorted((arrival[cc], cc) for cc in range(ncores) if arrival[cc] != _INF)
    heappushpop = heapq.heappushpop
    if not heap:
        t, c = _INF, -1
    else:
        t, c = heapq.heappop(heap)
    while c >= 0:

        if t >= barrier:
            # push the deferred scalar counters back into the closure
            # cells before anything (sanitizer check-in, controller tick,
            # snapshot) reads them
            nmig += nmig_d
            nwb += nwb_d
            nmig_d = nwb_d = 0
            mnext = mnext_
            mdelay = mdelay_
            # reference per-event check order: max_cycles, tick, warmup
            if have_max and t >= max_cycles:
                arrival[c] = t
                stop = max_cycles
                break
            if t >= next_epoch:
                flush_pending(c, poss_[c])
                if sanitizer is not None:
                    check_in()
                installed = controller.tick(t)
                next_epoch = controller.next_epoch
                refresh_partition()
                if installed and tracer is not None:
                    emit_snapshot(t, controller.epoch_index - 1)
            if nunmarked and t >= warmup and not marked[c]:
                pc = poss_[c]
                system._start_snaps[c] = CoreSnapshot(
                    t, int(icum[c][pc + 1]), cstall[c], cacc[c] + pc - pos0[c]
                )
                system._start_l2[c] = (
                    nh_base[c] + sum(row[c] for row in bhits_),
                    nm_base[c] + sum(row[c] for row in bmiss_),
                )
                marked[c] = True
                nunmarked -= 1
            barrier = next_barrier()
            # a due tick rebinds the partition mirrors: refresh the local
            # aliases (no-ops otherwise)
            cspan_ = cspan
            cpos_ = cpos
            clens_ = clens
            chains_ = chains
            l1banks_ = l1banks
            l2bank_ = l2bank

        pos = poss_[c]
        i = pos - cb_start_[c]
        line = clines_[c][i]
        wr = cwrites_[c][i]

        # -- L2 access (inlined NucaL2.access on the flat mirrors) -----------
        if is_pdnuca:
            enc = enc_get(line)
            if enc is not None:
                home = enc >> slot_bits_
                si = line & set_mask_
                clk = bclocks_[home]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[enc] = ncl
                if wr:
                    fdirty_[enc] = True
                bhits_[home][c] += 1
                p = cpos_[c][home]
                if p > 0:
                    # inlined chain_promote: swap the line one bank toward
                    # the chain head; every fill shares the set index.
                    target = chains_[c][p - 1]
                    rdirty = fdirty_[enc]
                    fstamps_[enc] = 0
                    ftags_[enc] = -1
                    fdirty_[enc] = False
                    fowners_[enc] = -1
                    bocc_[home] -= 1
                    base = si * ways_
                    ghome = (home << slot_bits_) + base
                    socc_[ghome] += 1
                    del enc_dir_[line]
                    gbase = (target << slot_bits_) + base
                    span = cspan_[target][c]
                    if span is True:
                        if socc_[gbase]:
                            slot = ftags_.index(-1, gbase, gbase + ways_)
                        else:
                            sseg = fstamps_[gbase:gbase + ways_]
                            slot = gbase + sseg.index(min(sseg))
                    elif span is not None:
                        lo = gbase + span[0]
                        hi = gbase + span[1]
                        if socc_[gbase]:
                            seg = ftags_[lo:hi]
                            if -1 in seg:
                                slot = lo + seg.index(-1)
                            else:
                                sseg = fstamps_[lo:hi]
                                slot = lo + sseg.index(min(sseg))
                        else:
                            sseg = fstamps_[lo:hi]
                            slot = lo + sseg.index(min(sseg))
                    else:
                        raise PermissionError(
                            f"core {c} owns no ways in bank {target}"
                        )
                    dtag = ftags_[slot]
                    if dtag != -1:
                        ddirty = fdirty_[slot]
                        bevict_[target] += 1
                        if ddirty:
                            bwb_[target] += 1
                    else:
                        ddirty = False
                        bocc_[target] += 1
                        socc_[gbase] -= 1
                    ftags_[slot] = line
                    fdirty_[slot] = rdirty
                    fowners_[slot] = c
                    clk = bclocks_[target]
                    ncl = clk[si] + 1
                    clk[si] = ncl
                    fstamps_[slot] = ncl
                    enc_dir_[line] = slot
                    nmig_d += 1
                    if dtag != -1:
                        # swap the displaced line back into the vacated home
                        del enc_dir_[dtag]
                        gbase = ghome
                        span = cspan_[home][c]
                        if span is True:
                            if socc_[gbase]:
                                slot = ftags_.index(-1, gbase, gbase + ways_)
                            else:
                                sseg = fstamps_[gbase:gbase + ways_]
                                slot = gbase + sseg.index(min(sseg))
                        elif span is not None:
                            lo = gbase + span[0]
                            hi = gbase + span[1]
                            if socc_[gbase]:
                                seg = ftags_[lo:hi]
                                if -1 in seg:
                                    slot = lo + seg.index(-1)
                                else:
                                    sseg = fstamps_[lo:hi]
                                    slot = lo + sseg.index(min(sseg))
                            else:
                                sseg = fstamps_[lo:hi]
                                slot = lo + sseg.index(min(sseg))
                        else:
                            raise PermissionError(
                                f"core {c} owns no ways in bank {home}"
                            )
                        old = ftags_[slot]
                        if old != -1:
                            odirty = fdirty_[slot]
                            bevict_[home] += 1
                            if odirty:
                                bwb_[home] += 1
                        else:
                            odirty = False
                            bocc_[home] += 1
                            socc_[gbase] -= 1
                        ftags_[slot] = dtag
                        fdirty_[slot] = ddirty
                        fowners_[slot] = c
                        clk = bclocks_[home]
                        ncl = clk[si] + 1
                        clk[si] = ncl
                        fstamps_[slot] = ncl
                        enc_dir_[dtag] = slot
                        nmig_d += 1
                        if old != -1:
                            del enc_dir_[old]
                            if odirty:
                                nwb_d += 1
                hit = True
                bank_id = home
            else:
                chain = chains_[c]
                b = chain[0]
                bank_id = b
                # inlined chain head fill + demotion cascade: every victim
                # shares the set index (same address bits), so si/base are
                # computed once for the whole chain walk.
                si = line & set_mask_
                base = si * ways_
                gbase = (b << slot_bits_) + base
                span = cspan_[b][c]
                if span is True:
                    if socc_[gbase]:
                        slot = ftags_.index(-1, gbase, gbase + ways_)
                    else:
                        sseg = fstamps_[gbase:gbase + ways_]
                        slot = gbase + sseg.index(min(sseg))
                elif span is not None:
                    lo = gbase + span[0]
                    hi = gbase + span[1]
                    if socc_[gbase]:
                        seg = ftags_[lo:hi]
                        if -1 in seg:
                            slot = lo + seg.index(-1)
                        else:
                            sseg = fstamps_[lo:hi]
                            slot = lo + sseg.index(min(sseg))
                    else:
                        sseg = fstamps_[lo:hi]
                        slot = lo + sseg.index(min(sseg))
                else:
                    raise PermissionError(
                        f"core {c} owns no ways in bank {b}"
                    )
                old = ftags_[slot]
                if old != -1:
                    odirty = fdirty_[slot]
                    bevict_[b] += 1
                    if odirty:
                        bwb_[b] += 1
                else:
                    odirty = False
                    bocc_[b] += 1
                    socc_[gbase] -= 1
                ftags_[slot] = line
                fdirty_[slot] = wr
                fowners_[slot] = c
                clk = bclocks_[b]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[slot] = ncl
                enc_dir_[line] = slot
                if old != -1:
                    del enc_dir_[old]
                    p = 0
                    demotions = 0
                    clen = clens_[c]
                    while True:
                        if demotions >= max_demotions_ or p + 1 >= clen:
                            if odirty:
                                nwb_d += 1
                            break
                        p += 1
                        b = chain[p]
                        gbase = (b << slot_bits_) + base
                        span = cspan_[b][c]
                        if span is True:
                            if socc_[gbase]:
                                slot = ftags_.index(-1, gbase, gbase + ways_)
                            else:
                                sseg = fstamps_[gbase:gbase + ways_]
                                slot = gbase + sseg.index(min(sseg))
                        elif span is not None:
                            lo = gbase + span[0]
                            hi = gbase + span[1]
                            if socc_[gbase]:
                                seg = ftags_[lo:hi]
                                if -1 in seg:
                                    slot = lo + seg.index(-1)
                                else:
                                    sseg = fstamps_[lo:hi]
                                    slot = lo + sseg.index(min(sseg))
                            else:
                                sseg = fstamps_[lo:hi]
                                slot = lo + sseg.index(min(sseg))
                        else:
                            raise PermissionError(
                                f"core {c} owns no ways in bank {b}"
                            )
                        old2 = ftags_[slot]
                        if old2 != -1:
                            odirty2 = fdirty_[slot]
                            bevict_[b] += 1
                            if odirty2:
                                bwb_[b] += 1
                        else:
                            odirty2 = False
                            bocc_[b] += 1
                            socc_[gbase] -= 1
                        ftags_[slot] = old
                        fdirty_[slot] = odirty
                        fowners_[slot] = c
                        clk = bclocks_[b]
                        ncl = clk[si] + 1
                        clk[si] = ncl
                        fstamps_[slot] = ncl
                        enc_dir_[old] = slot
                        nmig_d += 1
                        demotions += 1
                        if old2 == -1:
                            break
                        del enc_dir_[old2]
                        old = old2
                        odirty = odirty2
                bmiss_[bank_id][c] += 1
                hit = False
        elif is_pagg:
            enc = enc_get(line)
            if enc is not None:
                home = enc >> slot_bits_
                si = line & set_mask_
                clk = bclocks_[home]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[enc] = ncl
                if wr:
                    fdirty_[enc] = True
                bhits_[home][c] += 1
                if home == l2bank_[c] and l1banks_[c]:
                    agg_promote(c, line, home, enc)
                hit = True
                bank_id = home
            else:
                bank_id = level1_bank(c, line)
                fill_demote(c, line, bank_id, wr)
                bmiss_[bank_id][c] += 1
                hit = False
        elif is_shdnuca:
            enc = enc_get(line)
            if enc is not None:
                home = enc >> slot_bits_
                si = line & set_mask_
                clk = bclocks_[home]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[enc] = ncl
                if wr:
                    fdirty_[enc] = True
                bhits_[home][c] += 1
                p = opos[c][home]
                if p > 0:
                    dnuca_promote(c, line, home, enc, p)
                hit = True
                bank_id = home
            else:
                bank_id = bank_orders_[c][0]
                dnuca_fill(c, line, bank_id, wr)
                bmiss_[bank_id][c] += 1
                hit = False
        elif is_shhash:
            bank_id = (line >> set_bits_) % nbanks_
            slot = bmaps_[bank_id].get(line)
            if slot is not None:
                si = line & set_mask_
                clk = bclocks_[bank_id]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[slot] = ncl
                if wr:
                    fdirty_[slot] = True
                bhits_[bank_id][c] += 1
                hit = True
            else:
                bmiss_[bank_id][c] += 1
                ev = bank_fill_hash(bank_id, line, c, wr)
                if ev is not None and ev[1]:
                    nwb_d += 1
                hit = False
        else:  # _SH_PAR
            enc = enc_get(line)
            if enc is not None:
                home = enc >> slot_bits_
                si = line & set_mask_
                clk = bclocks_[home]
                ncl = clk[si] + 1
                clk[si] = ncl
                fstamps_[enc] = ncl
                if wr:
                    fdirty_[enc] = True
                bhits_[home][c] += 1
                hit = True
                bank_id = home
            else:
                bank_id = shared_rr % nbanks_
                shared_rr += 1
                ev = bank_fill(bank_id, line, c, wr)
                bmiss_[bank_id][c] += 1
                if ev is not None:
                    del enc_dir_[ev[0]]
                    if ev[1]:
                        nwb_d += 1
                hit = False

        # -- contention + latency + timer (same ops, same order; the
        # uncontended branches skip only exact no-ops: +0.0 on finite
        # non-negative floats is bitwise identity) ---------------------------
        if regulator is not None:
            # bank-bw: mirror of the reference regulator branch — the
            # throttled arrival joins the queue, and the final
            # ``lat + delay + throttle`` keeps the reference's left
            # association (throttle added last)
            throttle = regulator.charge(c, bank_id, t)
            ta = t + throttle
            nf = pnext_[bank_id]
            if nf <= ta:
                pnext_[bank_id] = ta + bank_busy
                latency = lat[c][bank_id] + throttle
            else:
                delay = nf - ta
                pnext_[bank_id] = ta + delay + bank_busy
                pdelay_[bank_id] += delay
                latency = lat[c][bank_id] + delay + throttle
        else:
            nf = pnext_[bank_id]
            if nf <= t:
                pnext_[bank_id] = t + bank_busy
                latency = lat[c][bank_id]
            else:
                delay = nf - t
                pnext_[bank_id] = t + delay + bank_busy
                pdelay_[bank_id] += delay
                latency = lat[c][bank_id] + delay
        if not hit:
            mem_arrival = t + latency
            latency += mem_lat
            if mnext_ <= mem_arrival:
                mnext_ = mem_arrival + mem_busy
            else:
                d2 = mnext_ - mem_arrival
                mnext_ = mem_arrival + d2 + mem_busy
                mdelay_ += d2
                latency += d2
        eff = latency / cmlp[c]
        cstall[c] += eff

        # -- schedule this core's next access --------------------------------
        pos += 1
        poss_[c] = pos
        if pos >= climit_[c]:
            if pos >= counts_[c]:
                arrival[c] = t + eff
                stop = t
                break
            load_chunk(c, pos)
        t, c = heappushpop(heap, (t + eff + ccomp_[c][pos - cb_start_[c]], c))

    # -- final write-back -----------------------------------------------------
    nmig += nmig_d
    nwb += nwb_d
    mnext = mnext_
    mdelay = mdelay_
    # each still-running core's next arrival lives in its heap entry (the
    # hot loop does not maintain `arrival` per event)
    for a, cc in heap:
        arrival[cc] = a
    flush_pending(-1, 0)
    check_in()
    for cc in range(ncores):
        timer = timers[cc]
        a = arrival[cc]
        timer.time = ctime[cc] if a == _INF else a
        timer.instructions = int(icum[cc][min(poss[cc] + 1, counts[cc])])
        timer.mem_stall = cstall[cc]
        timer.accesses = cacc[cc] + poss[cc] - pos0[cc]
    system._pos = poss
    if stop is not None:
        system.stop_time = stop
