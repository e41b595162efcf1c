"""Synthetic workload models standing in for SPEC CPU2000 traces.

The paper consumes its workloads exclusively through (a) their MSA
stack-distance histograms and (b) their interference in the shared L2.  Both
are fully determined by the stack-distance statistics of the L2 reference
stream, so we model each benchmark as a mixture of *reuse pools* plus a
*streaming* component:

* A reuse pool of ``w`` ways footprint holds ``w * num_sets`` distinct lines
  accessed with a stationary popularity distribution.  Under uniform
  popularity the move-to-front (LRU stack) position of a request is uniform
  over the pool's resident lines, which yields a miss-ratio curve that falls
  *linearly* until the pool fits (``w`` dedicated ways) and is flat beyond —
  exactly the knee shapes of the paper's Fig. 3 (sixtrack ~6 ways,
  applu ~10 ways).  Zipf popularity produces convex, gradually-improving
  curves (bzip2-like).
* A streaming component walks sequentially through a large region and never
  reuses a line: its references miss at every allocation, making the curve
  flat at ``stream_weight`` for any partition size (applu's floor).

Pool footprints are specified in *ways* so that the same spec scales with
the simulated machine: a pool of 6 ways is 6 lines per L2 set regardless of
whether a bank has 2048 or 256 sets.

Traces generated here represent the **L2 reference stream** (the paper's
profilers likewise monitor "the L2 cache accesses of each core"); the L1 is
not simulated: its hit latency is folded into the workload's non-memory
CPI.  ``gap`` values encode the instructions
retired between consecutive L2 references, derived from the workload's L2
accesses-per-kilo-instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import zlib

from repro.mem.trace import Trace
from repro.util.rng import rng_stream

from repro.errors import ConfigError

#: byte span reserved for each pool/stream region so regions never overlap.
_REGION_SPAN = 1 << 34


def _region_base_lines(spec_name: str, component: int, region_lines: int) -> int:
    """Starting line of a component's region.

    Regions are spaced ``region_lines`` apart plus a deterministic sub-2^20
    salt, so their cache *tags* start at unrelated values.  Perfectly
    aligned regions would all truncate to the same partial-tag sequence and
    systematically alias in the hardware profiler — real program segments
    (heap, stacks, mmaps) are not giga-aligned either.
    """
    salt = zlib.crc32(f"{spec_name}:{component}".encode()) & 0xFFFFF
    return component * region_lines + salt


@dataclass(frozen=True)
class ReusePool:
    """A resident working-set component.

    Parameters
    ----------
    ways:
        Footprint in cache ways (lines per L2 set).
    weight:
        Un-normalised probability mass of this component in the mixture.
    zipf:
        Popularity skew exponent; ``0`` means uniform popularity (sharp
        linear knee), larger values give convex curves with long tails.
    """

    ways: int
    weight: float
    zipf: float = 0.0

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigError("pool footprint must be at least one way")
        if self.weight <= 0:
            raise ConfigError("pool weight must be positive")
        if self.zipf < 0:
            raise ConfigError("zipf exponent must be non-negative")


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete synthetic model of one benchmark."""

    name: str
    pools: tuple[ReusePool, ...]
    stream_weight: float = 0.0
    write_fraction: float = 0.3
    #: L2 references per 1000 instructions; drives the gap distribution.
    l2_apki: float = 20.0
    #: average exploitable memory-level parallelism for L2/memory misses.
    mlp: float = 2.0
    #: CPI of the non-memory instruction stream (includes L1 hit latency).
    nonmem_cpi: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.pools, ReusePool):  # forgive a missing comma
            object.__setattr__(self, "pools", (self.pools,))
        object.__setattr__(self, "pools", tuple(self.pools))
        if not self.pools and self.stream_weight <= 0:
            raise ConfigError("workload needs at least one component")
        if self.stream_weight < 0:
            raise ConfigError("stream weight must be non-negative")
        if not 0 <= self.write_fraction <= 1:
            raise ConfigError("write fraction must be in [0, 1]")
        if self.l2_apki <= 0:
            raise ConfigError("l2_apki must be positive")
        if self.mlp < 1:
            raise ConfigError("MLP must be at least 1")

    @property
    def mean_gap(self) -> float:
        """Mean non-memory instructions between consecutive L2 references."""
        return max(1000.0 / self.l2_apki - 1.0, 0.0)

    def component_weights(self) -> np.ndarray:
        """Normalised mixture weights: pools first, stream last."""
        raw = np.array([p.weight for p in self.pools] + [self.stream_weight])
        return raw / raw.sum()


def _pool_popularity(
    pool: ReusePool, num_lines: int, num_sets: int
) -> np.ndarray | None:
    """Per-line selection probabilities inside a pool (None for uniform).

    Zipf skew is applied over the line's *depth within its set* (line ``i``
    maps to set ``i % num_sets`` and depth ``i // num_sets``), so every set
    observes an identical popularity distribution.  Rank-ordering across raw
    line indices would pile the hottest lines into the lowest-numbered sets
    and systematically bias the set-sampled profiler.
    """
    if pool.zipf < 1e-12:  # vanishing skew: numerically uniform
        return None
    depth = np.arange(num_lines, dtype=np.float64) // num_sets + 1.0
    weights = depth ** (-pool.zipf)
    return weights / weights.sum()


def generate_trace(
    spec: WorkloadSpec,
    num_accesses: int,
    num_sets: int,
    *,
    seed: int = 0,
    base_address: int = 0,
) -> Trace:
    """Generate ``num_accesses`` L2 references for one benchmark.

    ``num_sets`` is the total number of L2 sets of the simulated machine
    (2048 for the paper baseline); pool footprints scale with it so that a
    pool of *w* ways always occupies *w* lines per set.

    Lines are striped across sets (line index ``i`` of a pool maps to set
    ``i % num_sets``) so that each set observes the same stack-distance
    statistics — the homogeneity assumption behind the paper's 1-in-32 set
    sampling.
    """
    if num_accesses < 0:
        raise ConfigError("num_accesses must be non-negative")
    # base_address deliberately not in the RNG key: offsetting a trace in
    # the address space must not change its access pattern.
    rng = rng_stream(seed, "trace", spec.name)

    weights = spec.component_weights()
    n_components = len(weights)
    stream_idx = n_components - 1
    choices = rng.choice(n_components, size=num_accesses, p=weights)

    lines = np.empty(num_accesses, dtype=np.uint64)
    region_lines = _REGION_SPAN >> 6
    for idx, pool in enumerate(spec.pools):
        mask = choices == idx
        count = int(mask.sum())
        if not count:
            continue
        pool_lines = pool.ways * num_sets
        pop = _pool_popularity(pool, pool_lines, num_sets)
        picks = rng.choice(pool_lines, size=count, p=pop)
        base = _region_base_lines(spec.name, idx, region_lines)
        lines[mask] = np.uint64(base) + picks.astype(np.uint64)

    stream_mask = choices == stream_idx
    n_stream = int(stream_mask.sum())
    if n_stream:
        # A sequential walk through a dedicated region; wraps far beyond any
        # realistic simulation length, so every reference is a cold line.
        start = int(rng.integers(0, num_sets))
        seq = (start + np.arange(n_stream, dtype=np.uint64)) % np.uint64(
            region_lines
        )
        base = _region_base_lines(spec.name, stream_idx, region_lines)
        lines[stream_mask] = np.uint64(base) + seq

    addresses = (lines << np.uint64(6)) + np.uint64(base_address)
    is_write = rng.random(num_accesses) < spec.write_fraction
    gaps = rng.poisson(spec.mean_gap, size=num_accesses).astype(np.uint32)
    return Trace(addresses, is_write, gaps)


@dataclass
class PhasedWorkload:
    """A workload whose behaviour changes over time (for the dynamic
    controller experiments): a list of ``(spec, num_accesses)`` phases."""

    phases: list[tuple[WorkloadSpec, int]] = field(default_factory=list)

    def generate(self, num_sets: int, *, seed: int = 0, base_address: int = 0) -> Trace:
        if not self.phases:
            raise ConfigError("phased workload needs at least one phase")
        parts = [
            generate_trace(
                spec,
                count,
                num_sets,
                seed=seed + i,
                base_address=base_address,
            )
            for i, (spec, count) in enumerate(self.phases)
        ]
        trace = parts[0]
        for part in parts[1:]:
            trace = trace.concat(part)
        return trace
