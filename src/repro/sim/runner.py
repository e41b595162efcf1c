"""High-level experiment entry points.

Wraps trace generation + system construction + measurement windows into the
one-call experiments the benchmarks and examples need, mirroring the paper's
methodology: fast-forward (we simply generate), warm the L2, then measure a
concurrent slice (Section IV).

Runs are sized in *simulated cycles*: each core receives a trace long enough
(by an access-rate estimate with safety margin) to stay busy for the whole
duration, and the simulation ends when the duration — or the shortest
trace — runs out, so every core observes the full contention of its
co-runners.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

from repro.config import SystemConfig, scaled_config
from repro.errors import CheckpointCorrupt, ConfigError
from repro.fabric.supervisor import Supervisor
from repro.mem.trace import Trace
from repro.obs.tracer import Tracer
from repro.resilience.checkpoint import SweepCheckpoint
from repro.sim.stats import SystemResult
from repro.sim.system import DETAILED_SCHEMES, CMPSystem
from repro.util.stats import relative
from repro.workloads.mixes import Mix
from repro.workloads.synthetic import WorkloadSpec, generate_trace

#: address-space stride between cores so multiprogrammed footprints never
#: overlap (the paper's workloads are independent processes).
CORE_ADDRESS_STRIDE = 1 << 40


def estimate_access_rate(spec: WorkloadSpec, config: SystemConfig) -> float:
    """Rough L2 accesses per cycle for trace sizing (not for results).

    Assumes a pessimistic-but-typical average access latency of one bank
    round trip plus half a memory access, overlapped by the workload's MLP.
    """
    mean_latency = 40.0 + 0.5 * config.memory.latency_cycles
    period = spec.mean_gap * spec.nonmem_cpi + mean_latency / spec.mlp
    return 1.0 / max(period, 1.0)


@dataclass(frozen=True)
class RunSettings:
    """Shared knobs for one detailed simulation."""

    duration_cycles: float = 6_000_000.0
    warmup_fraction: float = 0.5
    seed: int = 1
    #: intra-partition data placement ('dnuca' = gravity chain, keeping the
    #: latency playing field level with the DNUCA baseline; 'parallel' and
    #: 'hash' are the paper's Fig. 4 aggregation alternatives).
    placement: str = "dnuca"
    #: organisation of the No-partitions baseline ('dnuca' = the paper's
    #: migrating DNUCA; 'parallel'/'hash' are idealised shared caches).
    shared_placement: str = "dnuca"
    profiler_kind: str = "sampled"
    #: trace-length safety margin over the estimated access rate.
    trace_margin: float = 1.7
    #: epoch-to-epoch histogram decay (higher keeps more history, letting
    #: slow workloads with deep pools accumulate stack-distance evidence).
    profiler_decay: float = 0.75
    #: deep runtime invariant checking (expensive; see
    #: :mod:`repro.resilience.sanitizer`).  Violations raise
    #: :class:`~repro.errors.SanitizerViolation` and are never
    #: contained by the guard.
    sanitize: bool = False
    #: record trace events during the run (see :mod:`repro.obs`).  Off by
    #: default — untraced runs construct no tracer and stay bit-identical
    #: to the seed behaviour.
    trace: bool = False
    #: execution backend: 'reference' (checked object-model event loop) or
    #: 'batched' (struct-of-arrays engine, bit-identical; see
    #: :mod:`repro.sim.batched`).
    sim_backend: str = "reference"

    def __post_init__(self) -> None:
        # a NaN or out-of-range window would otherwise run to a result of
        # zeros or escape build_system as a bare ValueError/OverflowError
        for name, in_range, wanted in (
            ("duration_cycles", self.duration_cycles > 0, "positive"),
            ("warmup_fraction", 0 <= self.warmup_fraction < 1, "in [0, 1)"),
            ("trace_margin", self.trace_margin > 0, "positive"),
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and in_range):
                raise ConfigError(
                    f"{name} must be finite and {wanted}, got {value!r}"
                )

    @property
    def warmup_cycles(self) -> float:
        return self.duration_cycles * self.warmup_fraction


def trace_length(
    spec: WorkloadSpec, config: SystemConfig, settings: RunSettings
) -> int:
    """Accesses one core's trace needs to stay busy for the whole run:
    the estimated access rate over ``duration_cycles``, with margin."""
    rate = estimate_access_rate(spec, config)
    return int(settings.duration_cycles * rate * settings.trace_margin) + 1


@functools.lru_cache(maxsize=1)
def _mix_traces(
    specs: tuple[WorkloadSpec, ...],
    lengths: tuple[int, ...],
    sets_per_bank: int,
    seed: int,
) -> tuple[Trace, ...]:
    """One mix's per-core traces, shared by every scheme of the mix.

    The key is everything :func:`generate_trace` and
    :data:`CORE_ADDRESS_STRIDE` read; one entry suffices because callers
    build a mix's schemes back to back (DESIGN.md §10.7).  The columns
    are read-only because every caller gets the same arrays.
    """
    traces = tuple(
        generate_trace(
            spec,
            length,
            sets_per_bank,
            seed=seed + core,
            base_address=core * CORE_ADDRESS_STRIDE,
        )
        for core, (spec, length) in enumerate(zip(specs, lengths))
    )
    for trace in traces:
        for column in (trace.addresses, trace.is_write, trace.gaps):
            column.flags.writeable = False
    return traces


def build_system(
    mix: Mix,
    scheme: str,
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
) -> CMPSystem:
    """Construct a ready-to-run system for one workload mix and scheme."""
    cfg = config or scaled_config()
    st = settings or RunSettings()
    specs = mix.specs()
    if len(specs) != cfg.num_cores:
        raise ConfigError(
            f"mix has {len(specs)} workloads, machine has {cfg.num_cores} cores"
        )
    traces = _mix_traces(
        specs,
        tuple(trace_length(spec, cfg, st) for spec in specs),
        cfg.l2.sets_per_bank,
        st.seed,
    )
    system = CMPSystem(
        cfg,
        specs,
        traces,
        scheme=scheme,
        placement=st.placement,
        shared_placement=st.shared_placement,
        profiler_kind=st.profiler_kind,
        profiler_decay=st.profiler_decay,
        sanitize=st.sanitize,
        trace=st.trace,
        backend=st.sim_backend,
    )
    system.set_measurement_window(st.warmup_cycles, st.duration_cycles)
    return system


def run_mix(
    mix: Mix,
    scheme: str,
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
) -> SystemResult:
    """Simulate one mix under one scheme and return measured results."""
    return build_system(mix, scheme, config, settings).run()


@dataclass(frozen=True)
class SchemeComparison:
    """Per-mix outcome of one scheme set (the paper's three detailed
    schemes of Figs. 8/9 by default; any registered policies otherwise).
    The relative metrics need *No-partitions* among the results."""

    mix: Mix
    results: dict[str, SystemResult]

    def relative_miss_rate(self, scheme: str) -> float:
        """Aggregate misses-per-instruction of ``scheme`` relative to
        *No-partitions*.  Normalising by retired instructions makes the
        time-based windows comparable: a scheme that speeds cores up retires
        more instructions in the same duration and must not be charged for
        the extra misses that come with them."""
        base = self.results["no-partitions"]
        ours = self.results[scheme]
        base_mpi = relative(base.total_misses, base.total_instructions)
        our_mpi = relative(ours.total_misses, ours.total_instructions)
        return relative(our_mpi, base_mpi)

    def relative_cpi(self, scheme: str) -> float:
        """Mean CPI of ``scheme`` relative to *No-partitions*."""
        base = self.results["no-partitions"].mean_cpi
        return relative(self.results[scheme].mean_cpi, base)


#: per-worker payload installed by :func:`_sweep_init` (also set
#: in-process on the serial path).
_WORKER: dict = {}


def _sweep_init(cfg: SystemConfig, settings: RunSettings) -> None:
    _WORKER["cfg"] = cfg
    _WORKER["settings"] = settings


def _sweep_run(item: tuple[Mix, str]) -> SystemResult:
    """Simulate one (mix, scheme) work item (pure given the payload)."""
    mix, scheme = item
    return run_mix(mix, scheme, _WORKER["cfg"], _WORKER["settings"])


def compare_schemes(
    mix: Mix,
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
    schemes: tuple[str, ...] = DETAILED_SCHEMES,
    *,
    jobs: int | None = None,
    tracer: Tracer | None = None,
) -> SchemeComparison:
    """Run one mix under every scheme in ``schemes`` (same traces/seed;
    default: the paper's three detailed schemes — any registered policy
    name is accepted).

    The schemes are independent simulations of identical traces, so
    ``jobs`` runs them concurrently with bit-identical results (default
    serial; see :func:`repro.fabric.supervisor.resolve_jobs`).  A failing
    simulation aborts with :class:`~repro.errors.PoisonItemError` naming
    the (mix, scheme) item, its exception chained.

    With a ``tracer`` attached (and ``settings.trace`` enabled so the
    simulations record events), each run's event stream is merged into the
    tracer in submission order, scheme-tagged — identical for every
    ``jobs`` value.
    """
    cfg = config or scaled_config()
    st = settings or RunSettings()
    supervisor = Supervisor(
        jobs, initializer=_sweep_init, initargs=(cfg, st), tracer=tracer
    )
    results: dict[str, SystemResult] = {}
    for scheme, res in zip(
        schemes,
        supervisor.map_ordered(
            _sweep_run,
            [(mix, s) for s in schemes],
            labels=[f"{mix}:{s}" for s in schemes],
        ),
    ):
        if tracer is not None:
            tracer.extend(res.events, scheme=scheme)
        results[scheme] = res
    return SchemeComparison(mix, results)


def _restore_comparisons(
    completed: list, mixes: Sequence[Mix], schemes: tuple[str, ...]
) -> list[SchemeComparison]:
    """Checkpointed items back to comparisons, validating each shape."""
    if len(completed) > len(mixes):
        raise CheckpointCorrupt(
            f"checkpoint holds {len(completed)} completed mixes but this "
            f"sweep only has {len(mixes)}"
        )
    out = []
    for i, item in enumerate(completed):
        if not isinstance(item, dict) or set(item) != set(schemes):
            raise CheckpointCorrupt(
                f"checkpoint item #{i} holds schemes "
                f"{sorted(item) if isinstance(item, dict) else item!r}, "
                f"expected {sorted(schemes)}"
            )
        out.append(
            SchemeComparison(
                mixes[i],
                {s: SystemResult.from_dict(d) for s, d in item.items()},
            )
        )
    return out


def run_sweep(
    mixes: Sequence[Mix],
    config: SystemConfig | None = None,
    settings: RunSettings | None = None,
    schemes: tuple[str, ...] = DETAILED_SCHEMES,
    *,
    checkpoint_path: str | None = None,
    resume: bool = False,
    jobs: int | None = None,
    tracer: Tracer | None = None,
) -> list[SchemeComparison]:
    """Detailed-simulation sweep over many mixes, resumable mid-run.

    Each completed (mix, all-schemes) comparison is recorded in an atomic
    JSON checkpoint (see :mod:`repro.resilience.checkpoint`); with
    ``resume=True`` a killed sweep restarts after its last completed mix and
    reproduces the uninterrupted sweep exactly, because every mix's
    simulation is fully determined by (mix, config, settings).  A snapshot
    from different parameters — any :class:`~repro.config.SystemConfig` or
    :class:`RunSettings` field that can change a result — raises
    :class:`~repro.errors.CheckpointMismatchError` naming the fields.

    ``jobs`` fans the independent (mix, scheme) simulations out over worker
    processes (one :class:`~repro.fabric.supervisor.Supervisor`, fail-fast);
    results merge in submission order, so both the returned
    comparisons and the checkpoint prefix are bit-identical for every
    ``jobs`` value.
    """
    cfg = config or scaled_config()
    st = settings or RunSettings()
    meta: dict = {
        "schemes": list(schemes),
        "mixes": [list(m.names) for m in mixes],
    }
    # one key per field that can change a result, dotted below the config's
    # groups, so a mismatch names the field; what only schedules snapshots,
    # checks invariants, traces or picks the engine is left out
    for group, value in asdict(cfg).items():
        if isinstance(value, dict):
            meta.update((f"{group}.{k}", v) for k, v in value.items())
        else:
            meta[group] = value
    del meta["resilience.checkpoint_every"], meta["resilience.sanitize"]
    meta.update(
        (f.name, getattr(st, f.name)) for f in fields(st)
        if f.name not in ("sanitize", "trace", "sim_backend")
    )
    ckpt = SweepCheckpoint(
        checkpoint_path, "detailed-sweep", meta,
        every=cfg.resilience.checkpoint_every, resume=resume,
    )
    out = _restore_comparisons(ckpt.completed, mixes, schemes)
    todo = list(mixes[len(out):])
    items = [(mix, scheme) for mix in todo for scheme in schemes]
    supervisor = Supervisor(
        jobs, initializer=_sweep_init, initargs=(cfg, st), tracer=tracer
    )
    try:
        gathered: dict[str, SystemResult] = {}
        for (mix, scheme), res in zip(
            items,
            supervisor.map_ordered(
                _sweep_run, items,
                labels=[f"{m}:{s}" for m, s in items],
            ),
        ):
            if tracer is not None:
                tracer.extend(res.events, scheme=f"{mix}:{scheme}")
            gathered[scheme] = res
            if len(gathered) == len(schemes):
                comp = SchemeComparison(mix, gathered)
                gathered = {}
                out.append(comp)
                ckpt.record({s: r.to_dict() for s, r in comp.results.items()})
    finally:
        ckpt.save()
    return out
