"""Deep runtime invariant checking (the ``--sanitize`` mode).

Static analysis (:mod:`repro.lint`) proves the *code* routes decisions and
randomness through the right choke points; the sanitizer proves the
*running state* stays sound.  When enabled it instruments the cache image
and epoch installs with checks far too expensive for production runs:

* **cache-image integrity** — every slot is empty (tag -1, stamp 0, owner
  -1, clean) or resident (stamp >= 1, unique within its set, no tag twice);
  the directory and the resident tags are the same set of lines, slot for
  slot; in shared hash mode every line sits in its address-hash home;
* **way conservation** — an installed :class:`PartitionMap` claims every
  bank way exactly once, and the banks' vertical ownership masks agree
  with it way for way;
* **MSA mass conservation** — each profiler's histogram mass equals its
  independently-tracked observation ledger, and the histogram the epoch
  controller is about to *trust* (possibly fault-filtered) carries the
  same mass the profiler actually recorded;
* **Rules 1–3 post-aggregation** — after a Bank-aware decision is
  materialised onto physical banks, the realised map still honours whole
  Center banks, Local-bank completeness and adjacent-only sharing.

Every failure raises :class:`~repro.errors.SanitizerViolation`
(a :class:`~repro.errors.ReproError`) with full context.
Unlike the :class:`~repro.resilience.guard.DecisionGuard`, the sanitizer
never contains: a violation is a bug (or an injected fault surfacing), and
the run must stop loudly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ConfigError,
    PartitionInvariantError,
    SanitizerViolation,
)

if TYPE_CHECKING:  # heavy imports for annotations only
    from repro.cache.bank import CacheBank, CacheImage
    from repro.cache.nuca import NucaL2
    from repro.cache.partition_map import PartitionMap
    from repro.partitioning.bank_aware import BankAwareDecision


class ReproSanitizer:
    """Stateful deep checker; one instance per instrumented run.

    ``checks_run`` counts individual check invocations so tests (and
    curious users) can confirm the instrumentation actually executed.
    """

    def __init__(self, *, rel_tolerance: float = 1e-6) -> None:
        if rel_tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        self.rel_tolerance = rel_tolerance
        self.checks_run = 0

    # -- cache-image integrity -----------------------------------------------

    def check_bank(self, bank: CacheBank) -> None:
        """Ownership-mask shape plus the image invariants of one bank's sets.

        Every slot is either empty (tag -1, stamp 0, owner -1, clean) or
        resident (stamp >= 1, unique within its set) — the victim rule, the
        smallest stamp among the candidates, depends on both — and every
        resident line is in the directory at its own slot.
        """
        self.checks_run += 1
        owners = bank.way_owners()
        if len(owners) != bank.ways:
            raise SanitizerViolation(
                f"bank has {bank.ways} ways but {len(owners)} owner entries",
                check="way-conservation", bank=bank.bank_id,
            )
        for set_index in range(bank.num_sets):
            lo = bank.base + set_index * bank.ways
            problem = _set_problem(bank.image, range(lo, lo + bank.ways))
            if problem is not None:
                message, check = problem
                raise SanitizerViolation(
                    message, check=check, bank=bank.bank_id,
                    set_index=set_index,
                )

    # -- partition invariants ------------------------------------------------

    def check_partition_map(
        self, pmap: PartitionMap, num_banks: int, bank_ways: int
    ) -> None:
        """Way conservation: every way claimed exactly once, full coverage."""
        self.checks_run += 1
        try:
            pmap.validate(num_banks, bank_ways)
        except PartitionInvariantError as exc:
            raise SanitizerViolation(
                f"partition map fails physical validation: {exc}",
                check="way-conservation",
            ) from exc
        claimed = sum(p.total_ways for p in pmap.partitions.values())
        total = num_banks * bank_ways
        if claimed != total:
            raise SanitizerViolation(
                f"partition map claims {claimed} ways, machine has {total} "
                "(capacity leak)",
                check="way-conservation",
            )

    def check_installation(self, l2: NucaL2) -> None:
        """Installed state: ownership masks match the map, the directory
        matches residency, every set is internally consistent, and in
        shared hash mode every line sits in its home bank."""
        self.checks_run += 1
        pmap = l2.partition_map
        if pmap is not None:
            self.check_partition_map(
                pmap, l2.config.num_banks, l2.config.bank_ways
            )
            for core, part in pmap.partitions.items():
                for alloc in part.allocations():
                    owners = l2.banks[alloc.bank].way_owners()
                    for way in alloc.ways:
                        if owners[way] != frozenset((core,)):
                            raise SanitizerViolation(
                                f"way {way} is mapped to core {core} but the "
                                f"bank mask says {owners[way]!r}",
                                check="way-conservation",
                                core=core, bank=alloc.bank,
                            )
        for bank in l2.banks:
            self.check_bank(bank)
        # every resident line maps to its own slot (check_bank), so equal
        # counts make the directory and the resident tags the same set
        where = l2.image.where
        resident = l2.occupancy()
        if resident != len(where):
            raise SanitizerViolation(
                f"directory tracks {len(where)} lines, banks hold {resident}",
                check="directory",
            )
        if l2.mode == "shared" and l2.placement == "hash":
            for line in where:
                home = l2.shared_home(line)
                if l2.bank_of(line) != home:
                    raise SanitizerViolation(
                        f"line {line} sits in bank {l2.bank_of(line)}, its "
                        f"address-hash home is bank {home}",
                        check="hash-home", bank=home,
                    )

    def check_decision_realization(
        self, decision: BankAwareDecision, pmap: PartitionMap
    ) -> None:
        """Rules 1–3 re-verified *after* aggregation onto physical banks."""
        self.checks_run += 1
        n = len(decision.ways)
        vector = pmap.way_vector()
        for core in range(n):
            if vector.get(core) != decision.ways[core]:
                raise SanitizerViolation(
                    f"decision grants {decision.ways[core]} ways, realised "
                    f"map holds {vector.get(core)}",
                    check="realization", core=core,
                )
        paired = {c: pair for pair in decision.pairs for c in pair}
        bank_ways = decision.bank_ways
        for core in range(n):
            part = pmap[core]
            if decision.center_banks[core]:
                allocs = part.allocations()
                if any(a.num_ways != bank_ways for a in allocs):
                    raise SanitizerViolation(
                        "Rule 1: a Center-bank core holds a partial bank",
                        check="realization", core=core,
                    )
                if core not in {a.bank for a in allocs}:
                    raise SanitizerViolation(
                        "Rule 2: a Center-bank core lost its Local bank",
                        check="realization", core=core,
                    )
                if len(allocs) != 1 + decision.center_banks[core]:
                    raise SanitizerViolation(
                        f"core owns {len(allocs)} banks, decision says "
                        f"{1 + decision.center_banks[core]}",
                        check="realization", core=core,
                    )
            elif core in paired:
                if not {a.bank for a in part.allocations()} <= set(paired[core]):
                    raise SanitizerViolation(
                        "Rule 3: a paired core spilled outside the pair's "
                        "two Local banks",
                        check="realization", core=core,
                    )
            else:
                allocs = part.allocations()
                if len(allocs) != 1 or allocs[0].bank != core or (
                    allocs[0].num_ways != bank_ways
                ):
                    raise SanitizerViolation(
                        "an unpaired, Center-less core must own exactly its "
                        "Local bank",
                        check="realization", core=core,
                    )

    # -- profiler mass conservation ------------------------------------------

    def _masses_differ(self, a: float, b: float) -> bool:
        return not math.isclose(
            a, b, rel_tol=self.rel_tolerance, abs_tol=self.rel_tolerance
        )

    def check_profiler(self, profiler: object, *, core: int | None = None) -> None:
        """Histogram mass equals the profiler's own observation ledger."""
        self.checks_run += 1
        ledger = getattr(profiler, "expected_mass", None)
        if ledger is None:
            return  # a custom profiler without a ledger: nothing to check
        raw = getattr(profiler, "raw_histogram", None)
        counters = raw if raw is not None else profiler.histogram
        mass = float(np.asarray(counters, dtype=np.float64).sum())
        if self._masses_differ(mass, float(ledger)):
            raise SanitizerViolation(
                f"histogram mass {mass:.6g} diverged from the observation "
                f"ledger {float(ledger):.6g}",
                check="msa-mass", core=core,
            )

    def check_trusted_histogram(
        self,
        profiler: object,
        trusted: np.ndarray,
        *,
        core: int | None = None,
    ) -> None:
        """The histogram a decision is about to trust carries the mass the
        profiler actually recorded (catches corruption between the two)."""
        self.checks_run += 1
        seen = np.asarray(trusted, dtype=np.float64)
        if not np.all(np.isfinite(seen)):
            raise SanitizerViolation(
                "non-finite counters in the trusted histogram",
                check="msa-mass", core=core,
            )
        truth = float(np.asarray(profiler.histogram, dtype=np.float64).sum())
        if self._masses_differ(float(seen.sum()), truth):
            raise SanitizerViolation(
                f"trusted histogram mass {float(seen.sum()):.6g} != profiler "
                f"mass {truth:.6g} (counters tampered between read and "
                "decision)",
                check="msa-mass", core=core,
            )

    # -- composite hooks -----------------------------------------------------

    def check_epoch_install(
        self,
        l2: NucaL2,
        pmap: PartitionMap,
        decision: BankAwareDecision | None = None,
    ) -> None:
        """Everything worth checking right after an epoch install."""
        self.check_partition_map(pmap, l2.config.num_banks, l2.config.bank_ways)
        if decision is not None:
            self.check_decision_realization(decision, pmap)
        self.check_installation(l2)


def _set_problem(image: CacheImage, slots: range) -> tuple[str, str] | None:
    """The first broken image invariant among one set's ``slots``, as
    ``(message, check)``, or None when the set is sound."""
    tags = image.tags
    resident = [slot for slot in slots if tags[slot] != -1]
    lines = [tags[slot] for slot in resident]
    if len(set(lines)) != len(lines):
        return (
            "duplicate tag in a cache set (a line resident twice)",
            "lru-uniqueness",
        )
    for slot in slots:
        if tags[slot] == -1 and (
            image.stamps[slot] != 0
            or image.owner[slot] != -1
            or image.dirty[slot]
        ):
            return (
                f"empty slot {slot} keeps a stamp, owner or dirty bit",
                "slot-state",
            )
    stamps = [image.stamps[slot] for slot in resident]
    if any(stamp <= 0 for stamp in stamps):
        return (
            "occupied way with a never-touched recency stamp",
            "lru-uniqueness",
        )
    if len(set(stamps)) != len(stamps):
        return (
            "two occupied ways share a recency stamp (ambiguous LRU victim)",
            "lru-uniqueness",
        )
    for slot in resident:
        placed = image.where.get(tags[slot])
        if placed != slot:
            return (
                f"slot {slot} holds line {tags[slot]}, the directory "
                f"places it at {placed!r}",
                "directory",
            )
    return None
