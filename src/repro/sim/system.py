"""The full CMP discrete-event simulator.

Ties together everything the paper's Simics/GEMS setup provided: per-core
trace replay through analytic core timers, the banked DNUCA L2 with way
partitioning, the hop-latency NoC with per-bank port contention, the DRAM
latency/bandwidth model, per-core MSA profilers and the dynamic epoch
controller.

The event loop is a classic min-heap over the cores' next L2-access arrival
times, so cores genuinely interleave in simulated time and contend for bank
ports; each access's end-to-end latency feeds back into its core's clock
(divided by the workload's memory-level parallelism).

Measurement is *time-based*, mirroring the paper's fixed instruction slices
run concurrently: all cores stay co-scheduled for the whole simulation
(the run stops as soon as any core exhausts its trace), and each core's
statistics window opens once the simulated clock passes the warmup
boundary.  This matters — with per-core access quotas, fast memory-bound
cores would finish early and leave the cache quiet for the survivors,
silently removing the contention being studied.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import equal_partition_map
from repro.config import SystemConfig
from repro.cpu.core import CoreSnapshot, CoreTimer
from repro.mem.trace import Trace
from repro.noc.contention import ContentionModel
from repro.noc.latency import LatencyModel
from repro.obs.tracer import Tracer
from repro.partitioning.bank_bw import WINDOWS_PER_EPOCH, BankBudgetRegulator
from repro.partitioning.registry import get_policy, registered_policies
from repro.profiling.msa import MSAProfiler
from repro.profiling.sampled import SampledMSAProfiler
from repro.resilience.sanitizer import ReproSanitizer
from repro.sim.controller import EpochController
from repro.sim.stats import CoreResult, SystemResult
from repro.util.bits import LINE_SHIFT
from repro.workloads.synthetic import WorkloadSpec

from repro.errors import ConfigError

#: the paper's detailed-simulation schemes (Figs. 8/9 compare these three).
DETAILED_SCHEMES = ("no-partitions", "equal-partitions", "bank-aware")

#: every scheme the simulator supports — any policy registered in the lab
#: (:mod:`repro.partitioning.registry`): the paper's four plus the
#: related-work policies (``bank-bw``, ``joint``).
ALL_SIM_SCHEMES = registered_policies()

#: execution backends: 'reference' is the object-model discrete-event loop,
#: 'batched' the struct-of-arrays engine (bit-identical, see repro.sim.batched).
SIM_BACKENDS = ("reference", "batched")


class CMPSystem:
    """An 8-core (configurable) CMP running one trace per core."""

    def __init__(
        self,
        config: SystemConfig,
        specs: Sequence[WorkloadSpec],
        traces: Sequence[Trace],
        *,
        scheme: str = "bank-aware",
        placement: str = "parallel",
        shared_placement: str = "dnuca",
        profiler_kind: str = "sampled",
        profiler_decay: float = 0.5,
        sanitize: bool = False,
        trace: bool = False,
        backend: str = "reference",
    ) -> None:
        config.validate()
        policy = get_policy(scheme)  # single source of scheme identity
        if backend not in SIM_BACKENDS:
            raise ConfigError(f"backend must be one of {SIM_BACKENDS}")
        self.backend = backend
        if len(specs) != config.num_cores or len(traces) != config.num_cores:
            raise ConfigError("need one spec and one trace per core")
        if profiler_kind not in ("sampled", "exact", "none"):
            raise ConfigError("profiler_kind must be sampled/exact/none")
        self.config = config
        self.specs = list(specs)
        self.scheme = scheme
        self.policy = policy
        # The shared baseline is the paper's migrating DNUCA; partitioned
        # schemes aggregate their banks with Parallel (or Address-Hash).
        effective_placement = (
            shared_placement if policy.shares_cache else placement
        )
        self.l2 = NucaL2(config.l2, config.num_cores, placement=effective_placement)
        self.latency = LatencyModel.from_config(config.l2, config.num_cores)
        self._lat = self.latency.latency_table()  # [core][bank], hot path
        self.contention = ContentionModel(
            config.l2.num_banks, bank_busy_cycles=config.l2.bank_busy_cycles
        )
        self.timers = [
            CoreTimer(c, config.core, nonmem_cpi=s.nonmem_cpi, mlp=s.mlp)
            for c, s in enumerate(self.specs)
        ]
        # only policies that read miss curves pay for profiling, as in the
        # modelled hardware; static schemes keep none
        self.profilers = (
            self._build_profilers(profiler_kind)
            if policy.needs_profilers
            else None
        )
        self.controller: EpochController | None = None
        self.sanitizer: ReproSanitizer | None = (
            ReproSanitizer()
            if (sanitize or config.resilience.sanitize)
            else None
        )
        # Tracing is opt-in by construction: untraced runs never allocate
        # a tracer and every emission site checks for None.
        self.tracer: Tracer | None = Tracer() if trace else None
        if self.tracer is not None:
            self.tracer.emit_run_meta(
                "detailed-sim",
                detail=f"{scheme}, {config.num_cores} cores, "
                f"{config.l2.num_banks} banks",
            )

        if policy.shares_cache:
            self.l2.share_all()
        else:
            self.l2.apply_partition(
                equal_partition_map(
                    config.num_cores, config.l2.num_banks, config.l2.bank_ways
                )
            )
        #: per-(core, bank) bandwidth regulator of ``needs_bank_queues``
        #: policies; charged on every access in both sim backends.
        self.regulator: BankBudgetRegulator | None = None
        if policy.needs_bank_queues:
            self.regulator = BankBudgetRegulator(
                config.num_cores,
                config.l2.num_banks,
                window_cycles=config.epoch_cycles / WINDOWS_PER_EPOCH,
            )
        if policy.dynamic:
            if self.profilers is None:
                raise ConfigError(f"the {scheme} scheme requires profilers")
            self.controller = EpochController(
                self.l2,
                self.profilers,
                [s.name for s in self.specs],
                epoch_cycles=config.epoch_cycles,
                max_ways_per_core=config.max_ways_per_core,
                decay=profiler_decay,
                algorithm=scheme,
                sanitizer=self.sanitizer,
                tracer=self.tracer,
                regulator=self.regulator,
            )

        # columnar trace state for the event loop: the Trace objects' own
        # arrays, never copied (build_system shares one trace set among a
        # mix's schemes); line numbers are derived where they are read
        self._addrs = [t.addresses for t in traces]
        self._writes = [t.is_write for t in traces]
        self._gaps = [t.gaps for t in traces]
        self._pos = [0] * config.num_cores
        self._len = [len(t) for t in traces]
        self.warmup_cycles = 0.0
        self.max_cycles: float | None = None
        self._start_snaps: list[CoreSnapshot | None] = [None] * config.num_cores
        self._start_l2: list[tuple[int, int] | None] = [None] * config.num_cores
        self.stop_time: float | None = None

    def _build_profilers(self, kind: str):
        if kind == "none":
            return None
        positions = self.config.max_ways_per_core
        sets = self.config.l2.sets_per_bank
        if kind == "exact":
            return [
                MSAProfiler(sets, positions)
                for _ in range(self.config.num_cores)
            ]
        sampling = min(self.config.profiler.set_sampling, sets)
        return [
            SampledMSAProfiler(
                sets,
                positions,
                set_sampling=sampling,
                partial_tag_bits=self.config.profiler.partial_tag_bits,
            )
            for _ in range(self.config.num_cores)
        ]

    # -- measurement window ----------------------------------------------------

    def set_measurement_window(
        self, warmup_cycles: float, max_cycles: float | None = None
    ) -> None:
        """Open each core's statistics window at ``warmup_cycles`` simulated
        cycles (the paper warms its caches before the measured slice) and
        optionally stop the whole run at ``max_cycles``."""
        if not (math.isfinite(warmup_cycles) and warmup_cycles >= 0):
            raise ConfigError("warmup must be finite and non-negative")
        if max_cycles is not None and not math.isfinite(max_cycles):
            raise ConfigError("max_cycles must be finite")
        if max_cycles is not None and max_cycles <= warmup_cycles:
            raise ConfigError("max_cycles must exceed the warmup")
        self.warmup_cycles = float(warmup_cycles)
        self.max_cycles = max_cycles

    # -- event loop -----------------------------------------------------------

    def _schedule(self, heap: list, core: int) -> bool:
        pos = self._pos[core]
        if pos >= self._len[core]:
            return False
        arrival = self.timers[core].advance_compute(int(self._gaps[core][pos]))
        heapq.heappush(heap, (arrival, core))
        return True

    def run(self) -> SystemResult:
        """Simulate until any core's trace is exhausted (or ``max_cycles``);
        all cores are co-scheduled for the entire simulated duration."""
        if self.backend == "batched":
            from repro.sim.batched import run_batched

            run_batched(self)
        else:
            self._run_reference()
        if self.sanitizer is not None:
            # Final deep sweep: the whole cache must still be coherent.
            self.sanitizer.check_installation(self.l2)
        if self.tracer is not None:
            # end-of-run totals snapshot, by convention at epoch -1
            self._emit_bank_snapshot(self.stop_time or 0.0, -1)
        return self.results()

    def _run_reference(self) -> None:
        """The checked object-model event loop (one heap event per access)."""
        heap: list[tuple[float, int]] = []
        for core in range(self.config.num_cores):
            if self.warmup_cycles == 0:
                self._mark_measure_start(core)
            self._schedule(heap, core)
        while heap:
            arrival, core = heapq.heappop(heap)
            if self.max_cycles is not None and arrival >= self.max_cycles:
                self.stop_time = self.max_cycles
                break
            if self.controller is not None:
                if self.controller.tick(arrival) and self.tracer is not None:
                    self._emit_bank_snapshot(
                        arrival, self.controller.epoch_index - 1
                    )
            if (
                self._start_snaps[core] is None
                and arrival >= self.warmup_cycles
            ):
                self._mark_measure_start(core)
            self._process(core, arrival)
            if not self._schedule(heap, core):
                self.stop_time = arrival  # first exhausted trace ends the run
                break

    def _emit_bank_snapshot(self, now: float, epoch: int) -> None:
        """Trace per-bank counter state (only called when tracing is on)."""
        assert self.tracer is not None
        self.tracer.emit(
            "bank_snapshot",
            time=now,
            epoch=epoch,
            hits=[b.stats.total_hits() for b in self.l2.banks],
            misses=[b.stats.total_misses() for b in self.l2.banks],
            occupancy=[b.occupancy() for b in self.l2.banks],
            queue_served=[p.served for p in self.contention.ports],
            queue_delay=[p.total_queue_delay for p in self.contention.ports],
            migrations=self.l2.stats.migrations,
            writebacks=self.l2.stats.writebacks,
            core_hits=[
                self.l2.stats.core_hits(c)
                for c in range(self.config.num_cores)
            ],
            core_misses=[
                self.l2.stats.core_misses(c)
                for c in range(self.config.num_cores)
            ],
        )

    def _process(self, core: int, arrival: float) -> None:
        pos = self._pos[core]
        line = int(self._addrs[core][pos]) >> LINE_SHIFT
        is_write = bool(self._writes[core][pos])
        if self.profilers is not None:
            self.profilers[core].observe(line)
        result = self.l2.access(core, line, is_write=is_write)
        if self.regulator is not None:
            # bank-bw: an over-budget access waits for its next window to
            # open before it may even join the bank queue.
            throttle = self.regulator.charge(core, result.bank, arrival)
            queue_delay = self.contention.bank_delay(
                result.bank, arrival + throttle
            )
            latency = self._lat[core][result.bank] + queue_delay + throttle
        else:
            queue_delay = self.contention.bank_delay(result.bank, arrival)
            latency = self._lat[core][result.bank] + queue_delay
        if not result.hit:
            mem_arrival = arrival + latency
            latency += self.config.memory.latency_cycles
            latency += self.contention.memory_delay(mem_arrival)
        self.timers[core].complete_access(latency)
        self._pos[core] = pos + 1

    def _mark_measure_start(self, core: int) -> None:
        self._start_snaps[core] = self.timers[core].snapshot()
        self._start_l2[core] = (
            self.l2.stats.core_hits(core),
            self.l2.stats.core_misses(core),
        )

    # -- results ---------------------------------------------------------------

    def results(self) -> SystemResult:
        out = SystemResult(
            scheme=self.scheme,
            migrations=self.l2.stats.migrations,
            writebacks=self.l2.stats.writebacks,
        )
        for core in range(self.config.num_cores):
            start = self._start_snaps[core]
            l2_start = self._start_l2[core]
            if start is None or l2_start is None:
                # never reached its measurement window: report zeros
                out.cores.append(
                    CoreResult(core, self.specs[core].name, 0, 0.0, 0, 0)
                )
                continue
            end = self.timers[core].snapshot()
            hits = self.l2.stats.core_hits(core) - l2_start[0]
            misses = self.l2.stats.core_misses(core) - l2_start[1]
            out.cores.append(
                CoreResult(
                    core,
                    self.specs[core].name,
                    end.instructions - start.instructions,
                    end.time - start.time,
                    hits + misses,
                    misses,
                )
            )
        if self.controller is not None:
            out.epochs = list(self.controller.history)
            out.guard_events = [
                (e.time, e.kind, e.detail, e.mode)
                for e in self.controller.guard.events
            ]
        if self.tracer is not None:
            out.events = list(self.tracer.events)
        return out
