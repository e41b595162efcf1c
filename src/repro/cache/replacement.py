"""Per-set replacement policies.

The paper's machinery is built on true LRU (the MSA profiler *requires* the
LRU inclusion property, and the partition enforcement is a "modified LRU"
restricted to the requesting core's ways).  :class:`LRUPolicy` is therefore
the default everywhere.  :class:`TreePLRUPolicy` and :class:`RandomPolicy`
are provided for extension studies (e.g. how profiler accuracy degrades when
the cache does not implement true LRU).

A policy tracks recency for the ways of one cache set.  ``victim`` selects a
way among an arbitrary *candidate subset* of ways — this is exactly the
paper's vertical way-partitioning hook: the candidate set is the requesting
core's owned ways.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable

from repro.util.rng import rng_stream


class ReplacementPolicy(ABC):
    """Recency state for one set of ``ways`` ways."""

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ValueError("a set needs at least one way")
        self.ways = ways

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a reference to ``way`` (hit or fill)."""

    @abstractmethod
    def victim(self, candidates: Iterable[int]) -> int:
        """Pick the replacement victim among ``candidates`` (non-empty)."""

    def invalidate(self, way: int) -> None:
        """Forget all recency state for ``way`` (its line was removed).

        The way should afterwards look like it was never touched — the
        preferred victim — matching what the containing set does with its
        own inlined LRU stamps.  Stateless policies only range-check.
        """
        self._check_way(way)

    def recency_order(self) -> list[int]:
        """Ways ordered MRU -> LRU (used by tests and the MSA reference).

        Policies without a total recency order may raise
        :class:`NotImplementedError`.
        """
        raise NotImplementedError

    def _check_way(self, way: int) -> None:
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} out of range 0..{self.ways - 1}")


class LRUPolicy(ReplacementPolicy):
    """True LRU via a monotonically increasing stamp per way."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._clock = 0
        # stamp 0 == never touched; such ways are preferred victims.
        self._stamps = [0] * ways

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._stamps[way] = self._clock

    def victim(self, candidates: Iterable[int]) -> int:
        best_way = -1
        best_stamp = None
        for way in candidates:
            self._check_way(way)
            stamp = self._stamps[way]
            if best_stamp is None or stamp < best_stamp:
                best_stamp = stamp
                best_way = way
        if best_way < 0:
            raise ValueError("victim() needs at least one candidate way")
        return best_way

    def invalidate(self, way: int) -> None:
        self._check_way(way)
        self._stamps[way] = 0

    def recency_order(self) -> list[int]:
        return sorted(range(self.ways), key=lambda w: -self._stamps[w])


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (the common hardware approximation).

    Requires a power-of-two number of ways.  ``victim`` follows the PLRU
    tree but, when the pointed-to way is not a candidate (partitioned set),
    falls back to the least-recently *touched* candidate, mirroring how a
    partition-aware PLRU masks tree branches.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError("tree PLRU needs a power-of-two way count")
        self._bits = [False] * max(ways - 1, 1)
        self._clock = 0
        self._stamps = [0] * ways

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._clock += 1
        self._stamps[way] = self._clock
        node = 0
        span = self.ways
        while span > 1:
            half = span // 2
            left = way % span < half
            # True = victim on the right; touching the left half points the
            # victim pointer away from it.
            self._bits[node] = left
            node = 2 * node + (1 if left else 2)
            span = half

    def _tree_victim(self) -> int:
        node = 0
        lo, span = 0, self.ways
        while span > 1:
            half = span // 2
            go_right = self._bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                lo += half
            span = half
        return lo

    def victim(self, candidates: Iterable[int]) -> int:
        cands = list(candidates)
        if not cands:
            raise ValueError("victim() needs at least one candidate way")
        for way in cands:
            self._check_way(way)
        tv = self._tree_victim()
        if tv in cands:
            return tv
        return min(cands, key=lambda w: self._stamps[w])

    def invalidate(self, way: int) -> None:
        """Clear the stamp and aim the tree at ``way`` so the freed slot is
        the next victim (the hardware's invalidate behaviour)."""
        self._check_way(way)
        self._stamps[way] = 0
        node = 0
        span = self.ways
        while span > 1:
            half = span // 2
            right = way % span >= half
            self._bits[node] = right
            node = 2 * node + (2 if right else 1)
            span = half


class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement (deterministic under a fixed seed)."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = rng_stream(seed, "random-replacement", ways)

    def touch(self, way: int) -> None:
        self._check_way(way)

    def victim(self, candidates: Iterable[int]) -> int:
        cands = list(candidates)
        if not cands:
            raise ValueError("victim() needs at least one candidate way")
        for way in cands:
            self._check_way(way)
        return cands[int(self._rng.integers(0, len(cands)))]


POLICIES = {
    "lru": LRUPolicy,
    "plru": TreePLRUPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``plru``/``random``)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        # mapping-protocol contract: make_policy mirrors dict lookup and
        # tests/callers rely on KeyError; ConfigError subclasses ValueError
        # and cannot also subclass KeyError
        raise KeyError(  # repro-lint: disable=ERR001
            f"unknown replacement policy {name!r}"
        ) from None
    return cls(ways)
