"""System configuration for the baseline DNUCA-CMP (paper Table I).

The paper's baseline is an 8-core SPARCv9 CMP with:

* a 16 MB L2 built from 16 physical banks of 1 MB each, 8-way set
  associative, 64 B lines (a "128-way equivalent" cache of 2048 sets),
* per-core 64 KB 2-way L1 with 3-cycle access,
* bank access latency between 10 and 70 cycles depending on hop distance,
* 260-cycle memory latency, 16 outstanding requests per core,
* 4 GHz, 4-wide out-of-order cores.

Everything in this module is expressed through dataclasses so that tests and
benchmarks can run scaled-down versions of the machine (fewer sets per bank,
shorter traces) without touching any other code: stack-distance geometry is
scale-invariant as long as cache capacity and workload footprints scale
together.  :func:`baseline_config` builds the paper machine;
:func:`scaled_config` builds a linearly scaled one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.util.bits import LINE_SIZE


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class L1Config:
    """Per-core L1 data cache parameters (paper: 64 KB, 2-way, 3 cycles)."""

    size_bytes: int = 64 * 1024
    ways: int = 2
    line_size: int = LINE_SIZE
    access_cycles: int = 3

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    def validate(self) -> None:
        if self.size_bytes % (self.ways * self.line_size):
            raise ConfigError("L1 size must be a multiple of ways * line size")
        if not _is_pow2(self.num_sets):
            raise ConfigError("L1 set count must be a power of two")


@dataclass(frozen=True)
class L2Config:
    """Banked DNUCA L2 parameters (paper: 16 x 1 MB banks, 8-way, 64 B)."""

    num_banks: int = 16
    bank_ways: int = 8
    sets_per_bank: int = 2048
    line_size: int = LINE_SIZE
    #: cycles a bank's port is busy serving one access (queueing model).
    bank_busy_cycles: int = 4
    #: minimum access latency: a core hitting its adjacent Local bank.
    min_latency: int = 10
    #: maximum access latency without contention (7 hops away).
    max_latency: int = 70

    @property
    def bank_size_bytes(self) -> int:
        return self.bank_ways * self.sets_per_bank * self.line_size

    @property
    def total_size_bytes(self) -> int:
        return self.num_banks * self.bank_size_bytes

    @property
    def total_ways(self) -> int:
        """Associativity of the '128-way equivalent' view of the cache."""
        return self.num_banks * self.bank_ways

    def validate(self) -> None:
        if not _is_pow2(self.sets_per_bank):
            raise ConfigError("sets per bank must be a power of two")
        if self.num_banks % 2:
            raise ConfigError("banks must split evenly into Local/Center halves")
        if self.min_latency >= self.max_latency:
            raise ConfigError("min latency must be below max latency")


@dataclass(frozen=True)
class CoreConfig:
    """Analytic out-of-order core model parameters.

    The paper simulates a 4 GHz, 30-stage, 4-wide fetch/decode machine with a
    128-entry ROB and 16 outstanding misses per core.  Our analytic model
    consumes ``base_cpi`` for non-memory work and overlaps memory stalls up
    to ``max_outstanding`` requests (bounded further per workload by its
    memory-level parallelism).
    """

    frequency_ghz: float = 4.0
    width: int = 4
    rob_entries: int = 128
    base_cpi: float = 0.25
    max_outstanding: int = 16

    def validate(self) -> None:
        if self.base_cpi <= 0:
            raise ConfigError("base CPI must be positive")
        if self.max_outstanding < 1:
            raise ConfigError("need at least one outstanding request")


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory parameters (paper: 260 cycles, 64 GB/s, 4 GB DRAM)."""

    latency_cycles: int = 260
    bandwidth_gbs: float = 64.0
    size_bytes: int = 4 * 1024**3

    def validate(self) -> None:
        if self.latency_cycles <= 0:
            raise ConfigError("memory latency must be positive")


@dataclass(frozen=True)
class ProfilerConfig:
    """MSA profiler hardware parameters (paper Section III.A / Table II)."""

    partial_tag_bits: int = 12
    set_sampling: int = 32  #: profile 1 in ``set_sampling`` sets.
    #: fraction of total cache ways assignable to one core (paper: 9/16).
    max_capacity_num: int = 9
    max_capacity_den: int = 16
    hit_counter_bits: int = 32
    lru_pointer_bits: int = 6

    def max_assignable_ways(self, total_ways: int) -> int:
        return (total_ways * self.max_capacity_num) // self.max_capacity_den

    def validate(self) -> None:
        if not 0 < self.max_capacity_num <= self.max_capacity_den:
            raise ConfigError("capacity cap must be a fraction in (0, 1]")
        if self.set_sampling < 1:
            raise ConfigError("set sampling ratio must be >= 1")


@dataclass(frozen=True)
class ResilienceConfig:
    """Decision-guard and checkpointing knobs (see :mod:`repro.resilience`).

    The guard validates every epoch decision against hard invariants and
    falls back to the last-known-good partition on violations; sustained
    failures descend the degraded-mode ladder (bank-aware → equal-share →
    frozen) after ``degrade_after`` consecutive bad epochs, and recovery
    climbs one rung per ``hysteresis_epochs`` consecutive healthy epochs.
    """

    guard_enabled: bool = True
    #: consecutive healthy epochs required to climb one ladder rung back up.
    hysteresis_epochs: int = 2
    #: consecutive failed epochs per ladder rung descended.
    degrade_after: int = 3
    #: smallest share the guard allows any core (paper floor: one way).
    min_ways: int = 1
    #: completed sweep items between checkpoint snapshots.
    checkpoint_every: int = 25
    #: deep runtime invariant checking (LRU-stack uniqueness, way
    #: conservation, MSA mass, Rules 1-3 post-aggregation).  Expensive;
    #: violations raise :class:`~repro.errors.SanitizerViolation`
    #: and are never contained by the guard.
    sanitize: bool = False

    def validate(self) -> None:
        if self.hysteresis_epochs < 1:
            raise ConfigError("hysteresis must be at least one epoch")
        if self.degrade_after < 1:
            raise ConfigError("degrade_after must be at least one failure")
        if self.min_ways < 1:
            raise ConfigError("every core must keep at least one way")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint interval must be at least one item")


@dataclass(frozen=True)
class SystemConfig:
    """Complete CMP description (paper Table I by default)."""

    num_cores: int = 8
    l1: L1Config = field(default_factory=L1Config)
    l2: L2Config = field(default_factory=L2Config)
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: cycles between dynamic repartitioning decisions (paper: 100 M).
    epoch_cycles: int = 100_000_000

    def validate(self) -> "SystemConfig":
        if self.num_cores < 1:
            raise ConfigError("need at least one core")
        if self.l2.num_banks < self.num_cores:
            raise ConfigError("need at least one Local bank per core")
        self.l1.validate()
        self.l2.validate()
        self.core.validate()
        self.memory.validate()
        self.profiler.validate()
        self.resilience.validate()
        return self

    @property
    def max_ways_per_core(self) -> int:
        return self.profiler.max_assignable_ways(self.l2.total_ways)


def baseline_config() -> SystemConfig:
    """The full paper machine (Table I)."""
    return SystemConfig().validate()


def scaled_config(scale: int = 8, epoch_cycles: int = 1_500_000) -> SystemConfig:
    """A linearly scaled baseline: same banks/ways, ``1/scale`` sets per bank.

    With ``scale=8`` the L2 is 2 MB (16 banks x 256 sets x 8 ways) which keeps
    every structural property of the paper machine (bank count, associativity,
    Local/Center split, latency range) while making trace-driven simulation
    fast enough for tests.  Workload footprints must be scaled by the caller
    (see :func:`repro.workloads.spec_like.suite`).
    """
    if scale < 1 or 2048 % scale:
        raise ConfigError("scale must divide 2048")
    base = SystemConfig()
    # Set sampling scales with the set count so the profiler keeps the same
    # number of monitored sets (64) and hence the same statistical power.
    sampling = max(1, base.profiler.set_sampling // scale)
    cfg = replace(
        base,
        l2=replace(base.l2, sets_per_bank=2048 // scale),
        profiler=replace(base.profiler, set_sampling=sampling),
        epoch_cycles=epoch_cycles,
    )
    return cfg.validate()


def default_scale() -> int:
    """Scale factor for benchmarks: 1 (full paper machine) if ``REPRO_FULL``
    is set in the environment, otherwise 8."""
    return 1 if os.environ.get("REPRO_FULL") else 8
