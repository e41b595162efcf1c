"""Hardware-feasible MSA profiler: partial tags + set sampling + capacity cap.

A naive MSA profiler needs a full shadow copy of the cache directory, which
the paper calls "prohibitively high".  The paper's implementation (Section
III.A, Table II) cuts the cost three ways:

* **partial tags** (12 bits) — the stack stores a hash of the line address,
  so distinct lines can alias and corrupt individual depth observations;
* **set sampling** (1 in 32) — only sampled sets are profiled and counts are
  scaled up by the sampling ratio;
* **maximum assignable capacity** (9/16 of the cache, 72 of 128 ways) — the
  stack depth is truncated at the largest partition a core may receive.

The paper reports the combined error within 5 % of a full-tag profile; the
``bench_profiler_accuracy`` benchmark reproduces that claim against
:class:`repro.profiling.msa.MSAProfiler`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.profiling.batched import (
    MIN_BATCH,
    add_observations,
    batch_eligible,
    batched_depth_bins,
    hash_fold_many,
)
from repro.profiling.msa import MSAProfiler
from repro.util.bits import hash_fold, is_pow2

from repro.errors import ConfigError


class SampledMSAProfiler:
    """MSA histogram from sampled sets and hashed (partial) tags."""

    def __init__(
        self,
        num_sets: int,
        positions: int,
        *,
        set_sampling: int = 32,
        partial_tag_bits: int = 12,
        sample_offset: int = 0,
        tag_mode: str = "truncate",
    ) -> None:
        if not is_pow2(num_sets):
            raise ConfigError("num_sets must be a power of two")
        if not is_pow2(set_sampling) or set_sampling > num_sets:
            raise ConfigError("set sampling must be a power of two <= num_sets")
        if positions < 1:
            raise ConfigError("need at least one stack position")
        if partial_tag_bits < 1:
            raise ConfigError("partial tags need at least one bit")
        if not 0 <= sample_offset < set_sampling:
            raise ConfigError("sample offset out of range")
        if tag_mode not in ("truncate", "fold"):
            raise ConfigError("tag_mode must be 'truncate' or 'fold'")
        self.tag_mode = tag_mode
        self.num_sets = num_sets
        self.positions = positions
        self.set_sampling = set_sampling
        self.partial_tag_bits = partial_tag_bits
        self.sample_offset = sample_offset
        self._set_mask = num_sets - 1
        self._sample_mask = set_sampling - 1
        self.sampled_sets = num_sets // set_sampling
        # dense stacks indexed by compressed sampled-set id
        self._stacks: list[list[int]] = [[] for _ in range(self.sampled_sets)]
        self._counters = np.zeros(positions + 1, dtype=np.float64)
        self.observed = 0  #: raw (unscaled) sampled references
        #: mass ledger: sampled observations aged exactly like the counters.
        self._mass = 0.0

    def set_index(self, line: int) -> int:
        return line & self._set_mask

    def is_sampled(self, line: int) -> bool:
        return (self.set_index(line) & self._sample_mask) == self.sample_offset

    def partial_tag(self, line: int) -> int:
        """The stored partial tag (set index dropped, shortened to N bits).

        ``truncate`` keeps the low tag bits — the hardware-typical choice;
        sequential streams then cycle through all 2^N values before any
        alias, so streaming workloads do not fabricate deep stack hits.
        ``fold`` XOR-hashes the whole tag, which spreads aliases uniformly
        (worst case for streams) and is kept for the accuracy ablation.
        """
        set_bits = self.num_sets.bit_length() - 1
        tag = line >> set_bits
        if self.tag_mode == "truncate":
            return tag & ((1 << self.partial_tag_bits) - 1)
        return hash_fold(tag, self.partial_tag_bits)

    def observe(self, line: int) -> int | None:
        """Record one reference; returns the depth for sampled sets, else
        ``None`` (the access bypasses the profiler entirely)."""
        if not self.is_sampled(line):
            return None
        # dense index over the sampled sets (index % sampling == offset)
        return self._update(
            self.set_index(line) // self.set_sampling, self.partial_tag(line)
        )

    def _update(self, sampled_id: int, tag: int) -> int:
        """The MSA stack step for one sampled reference; returns its depth."""
        self.observed += 1
        stack = self._stacks[sampled_id]
        try:
            depth = stack.index(tag) + 1
        except ValueError:
            depth = self.positions + 1
        if depth <= self.positions:
            del stack[depth - 1]
        stack.insert(0, tag)
        if len(stack) > self.positions:
            stack.pop()
        self._counters[depth - 1] += 1
        self._mass += 1.0
        return depth

    def observe_many(self, lines: Iterable[int]) -> None:
        """Observe many line numbers, bit-identically to
        :meth:`observe_many_reference`.

        A non-negative integer ndarray has its sampled lines picked out in
        one pass, as the hardware profiles only sampled sets.  With
        ``MIN_BATCH`` or more of them the vectorised kernel runs; fewer
        take the per-reference stack step directly.  Anything else falls
        back to the reference loop.
        """
        if not batch_eligible(lines, 1):
            self.observe_many_reference(lines)
            return
        groups, tags = self._sampled(lines)
        if groups.size >= MIN_BATCH:
            self._observe_batch(groups, tags)
        else:
            for sampled_id, tag in zip(groups.tolist(), tags.tolist()):
                self._update(sampled_id, tag)

    def observe_many_reference(self, lines: Iterable[int]) -> None:
        """The checked per-access reference for :meth:`observe_many`."""
        for line in lines:
            self.observe(int(line))

    def _sampled(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense sampled-set ids and partial tags of the sampled lines, in
        order (vectorised :meth:`is_sampled` and :meth:`partial_tag`;
        ``sample_mask < num_sets``, so the mask needs no set index)."""
        a = lines.astype(np.int64, copy=False)
        sub = a[(a & self._sample_mask) == self.sample_offset]
        groups = (sub & self._set_mask) // self.set_sampling
        set_bits = self.num_sets.bit_length() - 1
        tags = sub >> set_bits
        if self.tag_mode == "truncate":
            tags &= (1 << self.partial_tag_bits) - 1
        else:
            tags = hash_fold_many(tags, self.partial_tag_bits)
        return groups, tags

    def _observe_batch(self, groups: np.ndarray, tags: np.ndarray) -> None:
        # partial tags collide across sets; fold the group id into the key
        # so the kernel's equal-key-implies-equal-group contract holds
        bits = self.partial_tag_bits
        keys = (groups << bits) | tags
        composed = [
            [(g << bits) | tag for tag in stack]
            for g, stack in enumerate(self._stacks)
        ]
        bins, new_stacks = batched_depth_bins(
            keys, groups, self.sampled_sets, self.positions, composed
        )
        mask = (1 << bits) - 1
        self._stacks = [[key & mask for key in st] for st in new_stacks]
        self._mass = add_observations(self._counters, bins, self._mass)
        self.observed += int(groups.size)

    # -- scaled histogram queries -------------------------------------------

    @property
    def histogram(self) -> np.ndarray:
        """Counters scaled by the sampling ratio to estimate the full cache."""
        return self._counters * self.set_sampling

    @property
    def raw_histogram(self) -> np.ndarray:
        return self._counters.copy()

    @property
    def total_accesses(self) -> float:
        return float(self.histogram.sum())

    @property
    def expected_mass(self) -> float:
        """What the *raw* counters should sum to (see
        :attr:`repro.profiling.msa.MSAProfiler.expected_mass`)."""
        return self._mass

    def miss_counts(self) -> np.ndarray:
        hits_cum = np.concatenate(([0.0], np.cumsum(self.histogram[:-1])))
        return self.total_accesses - hits_cum

    def misses_at(self, ways: int) -> float:
        if not 0 <= ways <= self.positions:
            raise ConfigError(f"ways must be in 0..{self.positions}")
        return float(self.miss_counts()[ways])

    def miss_ratio_curve(self) -> np.ndarray:
        total = self.total_accesses
        if total == 0:
            return np.ones(self.positions + 1)
        return self.miss_counts() / total

    def reset(self) -> None:
        self._counters[:] = 0.0
        self._mass = 0.0

    def decay(self, factor: float = 0.5) -> None:
        if not 0.0 <= factor <= 1.0:
            raise ConfigError("decay factor must be in [0, 1]")
        self._counters *= factor
        self._mass *= factor


def profile_error(
    reference: MSAProfiler, sampled: SampledMSAProfiler
) -> float:
    """Mean absolute relative error of the sampled miss-ratio curve against
    the exact one (the paper's 'within 5 % of the profiling accuracy').

    Compared over sizes 1..min(K_ref, K_sampled); size 0 is excluded since
    both curves are identically 1 there.
    """
    k = min(reference.positions, sampled.positions)
    ref = reference.miss_ratio_curve()[1 : k + 1]
    est = sampled.miss_ratio_curve()[1 : k + 1]
    denom = np.maximum(ref, 1e-12)
    return float(np.mean(np.abs(est - ref) / denom))
