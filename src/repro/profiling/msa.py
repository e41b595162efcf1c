"""Mattson stack-distance (MSA) cache profiling (paper Section III.A).

MSA exploits the inclusion property of LRU: during any access sequence the
content of an N-way cache is a subset of any larger cache's content, so a
single pass with K+1 counters yields the miss count of *every* cache size up
to K ways.  Counter ``i`` (0-based) counts hits at LRU stack depth ``i+1``
(depth 1 = MRU); the final counter counts accesses beyond depth K or to
lines never seen — misses at every size.

:class:`MSAProfiler` is the exact (full-tag, all-sets) reference.  The
hardware-feasible version with partial tags and set sampling lives in
:mod:`repro.profiling.sampled`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.profiling.batched import (
    add_observations,
    batch_eligible,
    batched_depth_bins,
)
from repro.util.bits import is_pow2

from repro.errors import ConfigError


class MSAProfiler:
    """Exact per-set LRU stack-distance histogram over ``positions`` ways.

    Parameters
    ----------
    num_sets:
        Number of cache sets being modelled (stack distances are per set).
    positions:
        K — the deepest stack position tracked; the histogram has K+1 bins
        (K hit depths plus the miss bin).
    """

    def __init__(self, num_sets: int, positions: int) -> None:
        if not is_pow2(num_sets):
            raise ConfigError("num_sets must be a power of two")
        if positions < 1:
            raise ConfigError("need at least one stack position")
        self.num_sets = num_sets
        self.positions = positions
        self._set_mask = num_sets - 1
        self._stacks: list[list[int]] = [[] for _ in range(num_sets)]
        self._counters = np.zeros(positions + 1, dtype=np.float64)
        #: mass ledger: observations recorded, aged exactly like the
        #: counters, so counter mass is checkable at any time (sanitizer).
        self._mass = 0.0

    # -- observation --------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def observe(self, line: int) -> int:
        """Record one reference.  Returns the observed stack depth
        (1-based; ``positions + 1`` denotes a miss at every tracked size)."""
        stack = self._stacks[self.set_index(line)]
        try:
            depth = stack.index(line) + 1
        except ValueError:
            depth = self.positions + 1
        if depth <= self.positions:
            del stack[depth - 1]
        stack.insert(0, line)
        if len(stack) > self.positions:
            stack.pop()
        self._counters[depth - 1] += 1
        self._mass += 1.0
        return depth

    def observe_many(self, lines: Iterable[int]) -> None:
        """Observe many line numbers (the bulk entry point for traces).

        Large non-negative integer arrays take the vectorized batch path
        (:mod:`repro.profiling.batched`), which produces bit-identical
        counters, mass and stack state to the per-access reference loop;
        everything else falls back to :meth:`observe_many_reference`.
        """
        if batch_eligible(lines):
            self._observe_batch(lines)
        else:
            self.observe_many_reference(lines)

    def observe_many_reference(self, lines: Iterable[int]) -> None:
        """The checked per-access reference for :meth:`observe_many`."""
        for line in lines:
            self.observe(int(line))

    def _observe_batch(self, lines: np.ndarray) -> None:
        a = lines.astype(np.int64, copy=False)
        bins, self._stacks = batched_depth_bins(
            a, a & self._set_mask, self.num_sets, self.positions, self._stacks
        )
        self._mass = add_observations(self._counters, bins, self._mass)

    # -- histogram queries ---------------------------------------------------

    @property
    def histogram(self) -> np.ndarray:
        """Counters C1..CK, C_miss (a copy)."""
        return self._counters.copy()

    @property
    def total_accesses(self) -> float:
        return float(self._counters.sum())

    @property
    def expected_mass(self) -> float:
        """What the counters *should* sum to, tracked independently of them
        (observations accumulate it, :meth:`decay`/:meth:`reset` age it)."""
        return self._mass

    def hit_counts(self) -> np.ndarray:
        """Hits at each stack depth 1..K (excludes the miss counter)."""
        return self._counters[:-1].copy()

    def miss_counts(self) -> np.ndarray:
        """``miss_counts()[w]`` = misses the workload would take in a
        ``w``-way LRU cache of this set count, for w = 0..K.  This is the
        inclusion-property projection the paper uses: shrinking the cache
        converts hits at depths > w into misses."""
        hits_cum = np.concatenate(([0.0], np.cumsum(self._counters[:-1])))
        return self.total_accesses - hits_cum

    def misses_at(self, ways: int) -> float:
        if not 0 <= ways <= self.positions:
            raise ConfigError(f"ways must be in 0..{self.positions}")
        return float(self.miss_counts()[ways])

    def miss_ratio_curve(self) -> np.ndarray:
        """Cumulative miss *ratio* for every size 0..K (paper Fig. 3 y-axis)."""
        total = self.total_accesses
        if total == 0:
            return np.ones(self.positions + 1)
        return self.miss_counts() / total

    # -- epoch management ----------------------------------------------------

    def reset(self) -> None:
        """Clear counters (stack state is kept: the cache does not forget)."""
        self._counters[:] = 0.0
        self._mass = 0.0

    def decay(self, factor: float = 0.5) -> None:
        """Exponentially age the counters between epochs so the dynamic
        controller tracks phase changes without forgetting instantly."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigError("decay factor must be in [0, 1]")
        self._counters *= factor
        self._mass *= factor

    def stack_of_set(self, set_index: int) -> list[int]:
        """MRU->LRU line numbers tracked for one set (for tests)."""
        return list(self._stacks[set_index])
