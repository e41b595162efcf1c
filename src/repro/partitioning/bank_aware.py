"""The Bank-aware partition assignment algorithm (paper Section III.B/C).

The contribution of the paper: marginal-utility cache partitioning that
respects the physical bank structure of the DNUCA L2.  The restrictions
(Fig. 5/6):

* **Rule 1** — Center banks are assigned *whole* (8 ways) to a single core,
  so aggregated banks always have equal capacity.
* **Rule 2** — any core that receives Center banks also receives its entire
  Local bank.
* **Rule 3** — Local banks may only be way-shared between *adjacent* cores,
  keeping data transfers short; each core pairs with at most one neighbour.

The algorithm (flow chart, Fig. 6) proceeds in two phases:

1. **Center banks** — starting from every core owning its Local bank,
   repeatedly grant a whole Center bank to the core whose marginal utility
   for +8 ways is highest (subject to the 9/16 maximum-capacity cap) until
   all Center banks are assigned.  Cores that received Center banks are
   marked *complete* (Rules 1+2).
2. **Local banks** — among the remaining cores, repeatedly find the core
   with the highest marginal utility for one extra way.  Growing past its
   own 8-way Local bank overflows into a neighbour's bank, so at that point
   the *ideal pair* is chosen — the adjacent incomplete core minimising the
   pair's combined misses under the best split of their 16 shared ways —
   and both cores are marked complete (pairing is deferred until forced).

:class:`BankAwarePlan` prepares the algorithm once per set of curves and
decides any placement of them; :func:`bank_aware_partition` is its
decision for the identity placement, so the rules live in one place.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.profiling.miss_curve import MissCurve
from repro.errors import ConfigError, PartitionInvariantError


@dataclass(frozen=True)
class BankAwareDecision:
    """Outcome of the Bank-aware assignment.

    ``ways[c]`` is core *c*'s total way count; ``center_banks[c]`` how many
    whole Center banks it owns; ``pairs`` the adjacent couples sharing their
    Local banks.  Structural invariants (checked in ``__post_init__``):
    capacity adds up, center-bank cores own exactly ``8 + 8k`` ways, paired
    cores' ways sum to two Local banks, pairs name real cores and are
    adjacent and disjoint.
    """

    ways: tuple[int, ...]
    center_banks: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    bank_ways: int = 8

    def __post_init__(self) -> None:
        n = len(self.ways)
        if len(self.center_banks) != n:
            raise PartitionInvariantError("one center-bank count per core required")
        paired: set[int] = set()
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise PartitionInvariantError(
                    f"pair ({a},{b}) names a core outside 0..{n - 1}"
                )
            if b != a + 1:
                raise PartitionInvariantError(f"pair ({a},{b}) is not adjacent")
            if a in paired or b in paired:
                raise PartitionInvariantError("a core may belong to only one pair")
            paired.update((a, b))
            if self.center_banks[a] or self.center_banks[b]:
                raise PartitionInvariantError("center-bank cores may not share Local banks")
            if self.ways[a] + self.ways[b] != 2 * self.bank_ways:
                raise PartitionInvariantError("a pair must split exactly two Local banks")
        for core in range(n):
            if self.center_banks[core]:
                expect = self.bank_ways * (1 + self.center_banks[core])
                if self.ways[core] != expect:
                    raise PartitionInvariantError(
                        f"core {core} has {self.center_banks[core]} center "
                        f"banks but {self.ways[core]} ways (expected {expect})"
                    )
            elif core not in paired and self.ways[core] != self.bank_ways:
                raise PartitionInvariantError(
                    f"unpaired core {core} must own exactly its Local bank"
                )

    @property
    def total_ways(self) -> int:
        return sum(self.ways)

    def pair_of(self, core: int) -> tuple[int, int] | None:
        for pair in self.pairs:
            if core in pair:
                return pair
        return None


#: the bid of a core the cap excludes from further Center banks; it sorts
#: below every real bid because miss curves are finite
_CAPPED = (-math.inf,)


def _padded(values: tuple[float, ...], reach: int) -> tuple[float, ...]:
    """``values`` extended with its last entry to cover sizes 0..reach."""
    short = reach + 1 - len(values)
    return values + values[-1:] * short if short > 0 else values


def _best_pair_split(
    misses_a: Sequence[float],
    misses_b: Sequence[float],
    pair_capacity: int,
    min_ways: int,
) -> tuple[int, int, float]:
    """Optimal split of ``pair_capacity`` ways between two cores whose
    misses (indexed by way count, covering the pair's capacity) are given:
    returns ``(ways_a, ways_b, combined_misses)`` minimising total misses."""
    best = None
    for wa in range(min_ways, pair_capacity - min_ways + 1):
        misses = misses_a[wa] + misses_b[pair_capacity - wa]
        if best is None or misses < best[2]:
            best = (wa, pair_capacity - wa, misses)
    if best is None:
        raise PartitionInvariantError(
            f"no feasible split of {pair_capacity} shared ways with a "
            f"{min_ways}-way floor per core"
        )
    return best


class BankAwarePlan:
    """The Bank-aware assignment prepared once for one set of curves.

    :meth:`decide` runs the algorithm for any placement of the curves on
    the cores; the joint swap search scores dozens of placements per mix.
    The plan pads each curve once (:attr:`values`), precomputes each
    curve's Center-bank bid at every count of Center banks and its fixed
    Phase-B gain, and memoises the best split of each ordered pair of
    curves, so a decision reads tables instead of curves (DESIGN.md
    section 10.6).
    """

    def __init__(
        self,
        curves: Sequence[MissCurve],
        *,
        num_banks: int = 16,
        bank_ways: int = 8,
        max_ways_per_core: int | None = None,
        min_ways: int = 1,
    ) -> None:
        n = len(curves)
        if n < 1:
            raise ConfigError("need at least one core")
        num_centers = num_banks - n
        if num_centers < 0:
            raise ConfigError("need one Local bank per core")
        total_ways = num_banks * bank_ways
        cap = (
            (total_ways * 9) // 16 if max_ways_per_core is None else max_ways_per_core
        )
        if cap < bank_ways:
            raise ConfigError("cap must allow at least the Local bank")
        if not 1 <= min_ways <= bank_ways:
            raise ConfigError(
                f"min_ways must be between 1 and the {bank_ways}-way Local bank, "
                f"got {min_ways}"
            )
        self.bank_ways = bank_ways
        self.min_ways = min_ways
        self.num_centers = num_centers
        self.total_ways = total_ways
        # Every size read below is at most ``reach`` (Phase A stays within the
        # cap and the machine plus one bank, Phase B within two Local banks).
        # A curve shorter than that is padded with its last value, which is
        # what misses_at returns past K, so plain indexing reads misses_at.
        reach = max(min(cap, total_ways + bank_ways), 2 * bank_ways)
        #: ``values[w][ways]`` is curve *w*'s ``misses_at(ways)``
        self.values = [_padded(curve.values, reach) for curve in curves]
        self._bids = [self._center_bids(m, cap) for m in self.values]
        # an incomplete core still owns exactly its Local bank, so its marginal
        # utility for one more way, (m[b] - m[b + 1]) / 1, is fixed for Phase B
        self._gains = [m[bank_ways] - m[bank_ways + 1] for m in self.values]
        self._splits: dict[tuple[int, int], tuple[int, int, float]] = {}

    def _center_bids(self, m: tuple[float, ...], cap: int) -> list[tuple[float, ...]]:
        """A curve's bid for one more Center bank while it holds k of them,
        k = 0..num_centers: the marginal utility of ``bank_ways`` more ways,
        tie-broken toward whoever still misses most, so spare capacity lands
        where it could plausibly help; ``_CAPPED`` past the cap."""
        b = self.bank_ways
        bids: list[tuple[float, ...]] = []
        for k in range(self.num_centers + 1):
            a = b * (1 + k)
            bids.append(_CAPPED if a + b > cap else ((m[a] - m[a + b]) / b, m[a]))
        return bids

    def _center_banks(self, placement: Sequence[int]) -> list[int]:
        """Phase A (Boxes 1-3): whole Center banks by marginal utility, each
        granted to the highest bid, ties to the lowest core."""
        bids = [self._bids[w] for w in placement]
        keys = [row[0] for row in bids]
        centers = [0] * len(keys)
        for _ in range(self.num_centers):
            best_key = max(keys)
            if best_key == _CAPPED:
                raise PartitionInvariantError(
                    "capacity cap leaves a Center bank unassignable"
                )
            best_core = keys.index(best_key)  # the lowest core of a tie
            centers[best_core] += 1
            # only the winner's allocation changes, so only its bid moves
            keys[best_core] = bids[best_core][centers[best_core]]
        return centers

    def _pair_split(self, lower: int, upper: int) -> tuple[int, int, float]:
        """:func:`_best_pair_split` of two curves, memoised per ordered pair."""
        split = self._splits.get((lower, upper))
        if split is None:
            split = self._splits[lower, upper] = _best_pair_split(
                self.values[lower], self.values[upper], 2 * self.bank_ways,
                self.min_ways,
            )
        return split

    def decide(self, placement: Sequence[int]) -> BankAwareDecision:
        """The assignment with curve ``placement[core]`` on each core
        (``placement`` is a permutation of the curve indices)."""
        centers = self._center_banks(placement)
        n = len(centers)
        bank_ways = self.bank_ways
        alloc = [bank_ways * (1 + count) for count in centers]
        complete = [count > 0 for count in centers]

        # ---- Phase B: Local-bank way sharing between neighbours (Boxes 4-5) -
        gains = [self._gains[w] for w in placement]
        pairs: list[tuple[int, int]] = []
        while True:
            best_core = -1
            best_mu = 0.0
            for core in range(n):
                if not complete[core] and gains[core] > best_mu:
                    best_mu, best_core = gains[core], core
            if best_core < 0:
                break  # nobody incomplete wants to grow
            # Growing past the Local bank overflows into a neighbour: choose
            # the ideal (minimal combined misses) adjacent incomplete partner.
            candidates = [
                p
                for p in (best_core - 1, best_core + 1)
                if 0 <= p < n and not complete[p]
            ]
            if not candidates:
                complete[best_core] = True  # boxed in: keeps its Local bank
                continue
            best_partner = -1
            best_split: tuple[int, int, float] | None = None
            for p in candidates:
                a, b = min(best_core, p), max(best_core, p)
                split = self._pair_split(placement[a], placement[b])
                if best_split is None or split[2] < best_split[2]:
                    best_split, best_partner = split, p
            if best_split is None:
                raise PartitionInvariantError(
                    f"core {best_core} has adjacent candidates {candidates} but "
                    "no pair split was evaluated"
                )
            a, b = min(best_core, best_partner), max(best_core, best_partner)
            alloc[a], alloc[b] = best_split[0], best_split[1]
            complete[a] = complete[b] = True
            pairs.append((a, b))

        decision = BankAwareDecision(
            ways=tuple(alloc),
            center_banks=tuple(centers),
            pairs=tuple(sorted(pairs)),
            bank_ways=bank_ways,
        )
        if decision.total_ways != self.total_ways:
            raise PartitionInvariantError(
                f"assignment sums to {decision.total_ways} ways, machine has "
                f"{self.total_ways} (way conservation broken)"
            )
        return decision


def bank_aware_partition(
    curves: Sequence[MissCurve],
    *,
    num_banks: int = 16,
    bank_ways: int = 8,
    max_ways_per_core: int | None = None,
    min_ways: int = 1,
) -> BankAwareDecision:
    """Run the Bank-aware assignment for ``len(curves)`` cores.

    The machine must have one Local bank per core; the remaining banks are
    Center banks.  ``max_ways_per_core`` defaults to the paper's 9/16 cap.
    """
    plan = BankAwarePlan(
        curves,
        num_banks=num_banks,
        bank_ways=bank_ways,
        max_ways_per_core=max_ways_per_core,
        min_ways=min_ways,
    )
    return plan.decide(range(len(curves)))
