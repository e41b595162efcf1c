"""The epoch-based dynamic repartitioning controller (paper Section IV).

"The frequency of evaluating and reallocating the L2 cache partitions was
set to a 100M cycle epoch."  At each epoch boundary the controller reads the
per-core MSA profilers, computes a fresh Bank-aware assignment, installs it
on the NUCA (replacement-mask enforcement only — resident lines drain
naturally), and exponentially decays the histograms so the next decision
tracks phase changes without forgetting instantly.

With a :class:`~repro.resilience.guard.DecisionGuard` attached the
controller additionally *contains* bad decisions: every histogram it is
about to trust is health-checked (and optionally filtered through a
:class:`~repro.resilience.faults.FaultInjector` for failure testing), every
fresh decision is validated against the hard partitioning invariants, and
on any violation the last-known-good partition stays installed while the
guard's degraded-mode ladder (bank-aware → equal-share → frozen) decides
how aggressively to retreat.
"""

from __future__ import annotations

import numpy as np

from collections.abc import Sequence

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import PartitionMap, equal_partition_map
from repro.partitioning.bank_aware import BankAwareDecision
from repro.partitioning.registry import PolicyContext, get_policy
from repro.profiling.miss_curve import MissCurve
from repro.errors import ConfigError, PartitionInvariantError, ReproError
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import DecisionGuard, DegradedMode
from repro.resilience.sanitizer import ReproSanitizer
from repro.sim.stats import EpochRecord
from repro.telemetry.tracer import Tracer


class EpochController:
    """Drives dynamic repartitioning from live profiler state.

    ``algorithm`` names any *dynamic* policy in the registry
    (:mod:`repro.partitioning.registry`): ``'bank-aware'`` is the paper's
    scheme, ``'unrestricted'`` the UCP-lookahead baseline materialised as
    contiguous private way regions (physically unrealistic — which is
    exactly what makes it the idealised comparison point), ``'bank-bw'``
    and ``'joint'`` the related-work policies of the policy lab.

    ``guard`` enables containment (see module docstring); ``fault_injector``
    corrupts what the controller reads, for resilience testing.  Both are
    optional and default to the historical unguarded behaviour.
    ``regulator`` is the bank-bandwidth regulator of ``needs_bank_queues``
    policies, handed to each decision through the policy context.
    """

    def __init__(
        self,
        l2: NucaL2,
        profilers: Sequence,
        workload_names: Sequence[str],
        *,
        epoch_cycles: float,
        max_ways_per_core: int,
        decay: float = 0.5,
        min_observations: int = 1000,
        algorithm: str = "bank-aware",
        guard: DecisionGuard | None = None,
        fault_injector: FaultInjector | None = None,
        sanitizer: ReproSanitizer | None = None,
        tracer: Tracer | None = None,
        regulator=None,
    ) -> None:
        policy = get_policy(algorithm)
        if not policy.dynamic:
            raise ConfigError(
                f"policy {algorithm!r} is static; the epoch controller "
                "drives dynamic policies only"
            )
        if epoch_cycles <= 0:
            raise ConfigError("epoch length must be positive")
        if not 0.0 <= decay <= 1.0:
            raise ConfigError("decay must be in [0, 1]")
        if len(profilers) != len(workload_names):
            raise ConfigError("one profiler per workload required")
        if min_observations < 0:
            raise ConfigError("min_observations must be non-negative")
        if max_ways_per_core < 1:
            raise ConfigError("max_ways_per_core must be at least 1")
        self.l2 = l2
        self.profilers = list(profilers)
        self.names = list(workload_names)
        self.epoch_cycles = epoch_cycles
        self.max_ways_per_core = max_ways_per_core
        self.decay = decay
        self.min_observations = min_observations
        self.algorithm = algorithm
        self.policy = policy
        self.regulator = regulator
        self.guard = guard
        self.fault_injector = fault_injector
        self.sanitizer = sanitizer
        self.tracer = tracer
        self.next_epoch = epoch_cycles
        self.epoch_index = 0  #: boundaries evaluated (fault windows key on it)
        self.history: list[EpochRecord] = []
        self._equal_installed = False

    def due(self, now: float) -> bool:
        return now >= self.next_epoch

    # -- decision pipeline --------------------------------------------------

    def _read_histograms(self, epoch: int) -> list[np.ndarray]:
        """The histograms the controller trusts (possibly fault-filtered)."""
        hists = [p.histogram for p in self.profilers]
        if self.fault_injector is not None:
            hists = [
                self.fault_injector.filter_histogram(core, h, epoch)
                for core, h in enumerate(hists)
            ]
        return hists

    def _decide(
        self, now: float, curves: list[MissCurve]
    ) -> tuple[PartitionMap, EpochRecord, BankAwareDecision | None]:
        """One fresh policy decision, invariant-checked via the guard."""
        ctx = PolicyContext(
            num_cores=len(self.profilers),
            num_banks=self.l2.config.num_banks,
            bank_ways=self.l2.config.bank_ways,
            max_ways_per_core=self.max_ways_per_core,
            now=now,
            regulator=self.regulator,
        )
        verdict = self.policy.decide(curves, ctx)
        if verdict.pmap is None:
            raise PartitionInvariantError(
                f"dynamic policy {self.policy.name!r} returned no "
                "partition map to install"
            )
        decision = verdict.bank_decision
        if self.guard is not None:
            if decision is not None:
                self.guard.validate_decision(
                    decision.ways, decision.center_banks, decision.pairs
                )
            else:
                self.guard.validate_vector(verdict.ways)
        record = EpochRecord(
            now,
            verdict.ways,
            decision.center_banks if decision is not None else None,
            decision.pairs if decision is not None else None,
        )
        return verdict.pmap, record, decision

    def _apply_degraded(self, mode: DegradedMode) -> None:
        """Realise a non-NORMAL ladder rung on the cache.

        EQUAL_SHARE installs the paper's Equal-partitions map once per
        descent (skipped when banks do not divide evenly — the guard then
        simply holds the last-known-good map); FROZEN touches nothing.
        """
        if mode is DegradedMode.EQUAL_SHARE and not self._equal_installed:
            try:
                pmap = equal_partition_map(
                    len(self.profilers),
                    self.l2.config.num_banks,
                    self.l2.config.bank_ways,
                )
            except ValueError:
                return
            self.l2.apply_partition(pmap)
            if self.sanitizer is not None:
                self.sanitizer.check_epoch_install(self.l2, pmap)
            self._equal_installed = True
        elif mode is DegradedMode.NORMAL:
            self._equal_installed = False

    def _finish_epoch(self) -> None:
        for prof in self.profilers:
            prof.decay(self.decay)

    # -- telemetry (every emission is guarded: off => zero allocations) -----

    def _trace_skip(self, now: float, epoch: int, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.emit("epoch_skip", time=now, epoch=epoch,
                             reason=reason)

    def _trace_decision(
        self, now: float, epoch: int, curves: list[MissCurve],
        record: EpochRecord,
    ) -> None:
        if self.tracer is None:
            return
        # center_banks/pairs are optional in the schema: policies without
        # the Bank-aware structure must *omit* them, not emit None (the
        # historical emitter sent None and broke any traced vector-only
        # run at the validation layer)
        structure = {}
        if record.center_banks is not None:
            structure["center_banks"] = record.center_banks
        if record.pairs is not None:
            structure["pairs"] = record.pairs
        self.tracer.emit(
            "epoch_decision",
            time=now,
            epoch=epoch,
            algorithm=self.algorithm,
            policy=self.policy.name,
            ways=record.ways,
            projected_misses=[
                curve.misses_at(int(w))
                for curve, w in zip(curves, record.ways)
            ],
            **structure,
        )

    def _trace_guard_events(self, epoch: int, start: int) -> None:
        """Mirror guard-ladder events logged since ``start`` into the trace."""
        if self.tracer is None or self.guard is None:
            return
        for e in self.guard.events[start:]:
            self.tracer.emit("guard_action", time=e.time, epoch=epoch,
                             kind=e.kind, detail=e.detail, mode=e.mode)

    def tick(self, now: float) -> bool:
        """Repartition if an epoch boundary has passed; returns True when a
        new partition was installed."""
        if not self.due(now):
            return False
        while self.next_epoch <= now:
            self.next_epoch += self.epoch_cycles
        epoch = self.epoch_index
        self.epoch_index += 1
        if self.fault_injector is not None and self.fault_injector.drops_epoch(
            epoch
        ):
            # the boundary never fired: no decision, no decay
            self._trace_skip(now, epoch, "fault injector dropped the boundary")
            return False
        hists = self._read_histograms(epoch)
        if self.sanitizer is not None:
            # Mass conservation runs OUTSIDE guard containment on purpose:
            # a tampered histogram must stop the run, not degrade it.
            for core, (prof, hist) in enumerate(zip(self.profilers, hists)):
                self.sanitizer.check_profiler(prof, core=core)
                self.sanitizer.check_trusted_histogram(prof, hist, core=core)
        total_observed = sum(float(np.abs(h).sum()) for h in hists)
        if total_observed < self.min_observations:
            # not enough profile signal yet; keep current map
            self._trace_skip(
                now, epoch,
                f"insufficient observations "
                f"({total_observed:.0f} < {self.min_observations})",
            )
            return False
        if self.guard is None:
            return self._tick_unguarded(now, epoch, hists)
        return self._tick_guarded(now, epoch, hists, self.guard)

    def _tick_unguarded(
        self, now: float, epoch: int, hists: list[np.ndarray]
    ) -> bool:
        curves = [
            MissCurve.from_histogram(name, h)
            for name, h in zip(self.names, hists)
        ]
        pmap, record, decision = self._decide(now, curves)
        self.l2.apply_partition(pmap)
        if self.sanitizer is not None:
            self.sanitizer.check_epoch_install(self.l2, pmap, decision)
        self.history.append(record)
        self._trace_decision(now, epoch, curves, record)
        self._finish_epoch()
        return True

    def _tick_guarded(
        self, now: float, epoch: int, hists: list[np.ndarray],
        guard: DecisionGuard,
    ) -> bool:
        per_core_min = self.min_observations / max(len(self.profilers), 1)
        guard_log_start = len(guard.events)
        try:
            curves = [
                guard.checked_curve(
                    name, core, h, min_observations=per_core_min
                )
                for core, (name, h) in enumerate(zip(self.names, hists))
            ]
            pmap, record, decision = self._decide(now, curves)
        except ReproError as error:
            mode = guard.note_failure(now, error)
            self._apply_degraded(mode)
            self._trace_guard_events(epoch, guard_log_start)
            self._finish_epoch()
            return False
        mode = guard.note_healthy(now)
        if mode is not DegradedMode.NORMAL:
            # healthy epoch, but hysteresis keeps us on a lower rung —
            # hold the degraded partition rather than flap.
            self._apply_degraded(mode)
            self._trace_guard_events(epoch, guard_log_start)
            self._trace_skip(
                now, epoch, f"hysteresis hold on rung {mode.value}"
            )
            self._finish_epoch()
            return False
        self._apply_degraded(mode)
        self.l2.apply_partition(pmap)
        if self.sanitizer is not None:
            # Post-install deep check, outside containment: if
            # aggregation broke Rules 1-3 or way conservation, fail
            # loudly.
            self.sanitizer.check_epoch_install(self.l2, pmap, decision)
        guard.record_install(pmap)
        self.history.append(record)
        self._trace_guard_events(epoch, guard_log_start)
        self._trace_decision(now, epoch, curves, record)
        self._finish_epoch()
        return True

    @property
    def last_decision(self) -> EpochRecord | None:
        return self.history[-1] if self.history else None

    @property
    def mode(self) -> DegradedMode:
        """Current ladder rung (NORMAL when running unguarded)."""
        return self.guard.mode if self.guard is not None else DegradedMode.NORMAL
