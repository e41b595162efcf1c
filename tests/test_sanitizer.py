"""Deep runtime invariant checking (``--sanitize``): unit checks on
corrupted state, and end-to-end detection of injected profiler faults that
the guard would otherwise contain silently."""

import numpy as np
import pytest

from repro.cache.bank import CacheBank
from repro.cache.nuca import NucaL2
from repro.cache.partition_map import (
    BankAllocation,
    CorePartition,
    PartitionMap,
    equal_partition_map,
)
from repro.config import L2Config, scaled_config
from repro.partitioning.allocation import decision_to_partition_map
from repro.partitioning.bank_aware import BankAwareDecision
from repro.profiling.msa import MSAProfiler
from repro.profiling.sampled import SampledMSAProfiler
from repro.resilience import FaultPlan, ReproSanitizer, SanitizerViolation
from repro.sim.runner import RunSettings, run_mix
from repro.workloads import TABLE_III_SETS


@pytest.fixture
def sanitizer():
    return ReproSanitizer()


# ------------------------------------------------------------- cache image


def filled_bank(bank_id=0, set_index=0):
    """An 8-set, 4-way bank with three lines in ``set_index``."""
    bank = CacheBank(bank_id, 8, 4)
    for k in (1, 2, 3):
        bank.fill(0, set_index + 8 * k)
    return bank


class TestCheckSet:
    def test_healthy_set_passes(self, sanitizer):
        sanitizer.check_bank(filled_bank())
        assert sanitizer.checks_run == 1

    def test_duplicate_stamp_detected(self, sanitizer):
        bank = filled_bank()
        stamps = bank.image.stamps
        stamps[bank.slot_of(8)] = stamps[bank.slot_of(16)]
        with pytest.raises(SanitizerViolation, match="lru-uniqueness"):
            sanitizer.check_bank(bank)

    def test_duplicate_tag_detected(self, sanitizer):
        bank = filled_bank()
        empty_slot = bank.image.tags.index(-1)
        bank.image.tags[empty_slot] = 8  # line 8 now resident twice
        with pytest.raises(SanitizerViolation, match="resident twice"):
            sanitizer.check_bank(bank)

    def test_tag_map_divergence_detected(self, sanitizer):
        bank = filled_bank()
        where = bank.image.where
        where[16] = where[8]  # the directory points 16 at 8's slot
        with pytest.raises(SanitizerViolation, match="directory"):
            sanitizer.check_bank(bank)

    def test_context_in_message(self, sanitizer):
        bank = filled_bank(bank_id=2, set_index=7)
        bank.image.where[15] = bank.image.where[23]
        with pytest.raises(SanitizerViolation, match=r"bank=2, set=7"):
            sanitizer.check_bank(bank)


class TestImageInvariants:
    """One tamper per image invariant the victim rule and the directory
    depend on."""

    @pytest.mark.parametrize("field,value", [
        ("stamps", 5), ("owner", 0), ("dirty", True),
    ])
    def test_empty_slot_must_be_blank(self, sanitizer, field, value):
        bank = filled_bank()
        empty_slot = bank.image.tags.index(-1)
        getattr(bank.image, field)[empty_slot] = value
        with pytest.raises(SanitizerViolation, match="slot-state"):
            sanitizer.check_bank(bank)

    def test_resident_slot_needs_a_stamp(self, sanitizer):
        bank = filled_bank()
        bank.image.stamps[bank.slot_of(8)] = 0  # would win the victim scan
        with pytest.raises(SanitizerViolation, match="never-touched"):
            sanitizer.check_bank(bank)

    def test_directory_entry_without_a_line_detected(self, sanitizer):
        l2 = NucaL2(L2Config(num_banks=4, bank_ways=4, sets_per_bank=16), 2)
        l2.apply_partition(equal_partition_map(2, 4, 4))
        l2.access(0, 5)
        l2.image.where[99] = l2.image.tags.index(-1)
        with pytest.raises(SanitizerViolation, match="directory tracks 2"):
            sanitizer.check_installation(l2)

    def test_hash_line_outside_its_home_detected(self, sanitizer):
        l2 = NucaL2(
            L2Config(num_banks=4, bank_ways=4, sets_per_bank=16), 2,
            placement="hash",
        )
        l2.share_all()
        l2.access(0, 5)
        sanitizer.check_installation(l2)
        home = l2.shared_home(5)
        away = l2.banks[(home + 1) % 4]
        ev = l2.banks[home].invalidate(5)
        away.fill(ev.owner, 5)  # consistent image, wrong bank
        with pytest.raises(SanitizerViolation, match="hash-home"):
            sanitizer.check_installation(l2)


# ------------------------------------------------------- partition checks


class TestPartitionChecks:
    def test_full_map_passes(self, sanitizer):
        pmap = equal_partition_map(2, 4, 4)
        sanitizer.check_partition_map(pmap, num_banks=4, bank_ways=4)

    def test_capacity_leak_detected(self, sanitizer):
        pmap = PartitionMap()
        pmap.add(CorePartition(0, (BankAllocation(0, (0, 1, 2, 3)),)))
        with pytest.raises(SanitizerViolation, match="capacity leak"):
            sanitizer.check_partition_map(pmap, num_banks=4, bank_ways=4)

    def test_double_claim_detected(self, sanitizer):
        pmap = equal_partition_map(2, 4, 4)
        # claim core 1's Local bank a second time
        pmap.partitions[0] = CorePartition(
            0, (BankAllocation(0, (0, 1, 2, 3)), BankAllocation(1, (0, 1)))
        )
        with pytest.raises(SanitizerViolation, match="way-conservation"):
            sanitizer.check_partition_map(pmap, num_banks=4, bank_ways=4)


class TestDecisionRealization:
    def _decision(self):
        # 4 cores, 8 banks: cores 2/3 take the Center banks, cores 0/1 pair.
        return BankAwareDecision(
            ways=(12, 4, 24, 24),
            center_banks=(0, 0, 2, 2),
            pairs=((0, 1),),
            bank_ways=8,
        )

    def test_faithful_realization_passes(self, sanitizer):
        decision = self._decision()
        pmap = decision_to_partition_map(decision, num_banks=8)
        sanitizer.check_decision_realization(decision, pmap)

    def test_way_vector_mismatch_detected(self, sanitizer):
        decision = self._decision()
        with pytest.raises(SanitizerViolation, match="realization"):
            sanitizer.check_decision_realization(
                decision, equal_partition_map(4, 8, 8)
            )

    def test_rule3_spill_detected(self, sanitizer):
        decision = self._decision()
        pmap = decision_to_partition_map(decision, num_banks=8)
        # relocate core 0's annex from its partner's bank into bank 2
        part = pmap[0]
        pmap.partitions[0] = CorePartition(
            0, part.level1, level2=BankAllocation(2, part.level2.ways)
        )
        with pytest.raises(SanitizerViolation, match="Rule 3"):
            sanitizer.check_decision_realization(decision, pmap)


# ------------------------------------------------------- profiler ledgers


class TestProfilerMass:
    def test_msa_ledger_tracks_decay_and_reset(self, sanitizer):
        prof = MSAProfiler(16, 4)
        prof.observe_many(range(40))
        sanitizer.check_profiler(prof)
        prof.decay(0.5)
        sanitizer.check_profiler(prof)
        prof.reset()
        sanitizer.check_profiler(prof)

    def test_sampled_ledger_consistent(self, sanitizer):
        prof = SampledMSAProfiler(64, 8, set_sampling=4)
        prof.observe_many(range(512))
        sanitizer.check_profiler(prof)
        prof.decay(0.75)
        sanitizer.check_profiler(prof)

    def test_counter_tampering_detected(self, sanitizer):
        prof = MSAProfiler(16, 4)
        prof.observe_many(range(40))
        prof._counters[0] += 5.0
        with pytest.raises(SanitizerViolation, match="msa-mass"):
            sanitizer.check_profiler(prof)

    def test_zeroed_trusted_histogram_detected(self, sanitizer):
        prof = MSAProfiler(16, 4)
        prof.observe_many(range(40))
        with pytest.raises(SanitizerViolation, match="tampered"):
            sanitizer.check_trusted_histogram(
                prof, np.zeros_like(prof.histogram), core=3
            )

    def test_non_finite_trusted_histogram_detected(self, sanitizer):
        prof = MSAProfiler(16, 4)
        prof.observe_many(range(40))
        bad = prof.histogram
        bad[0] = np.nan
        with pytest.raises(SanitizerViolation, match="non-finite"):
            sanitizer.check_trusted_histogram(prof, bad)

    def test_untouched_histogram_passes(self, sanitizer):
        prof = MSAProfiler(16, 4)
        prof.observe_many(range(40))
        sanitizer.check_trusted_histogram(prof, prof.histogram)


# -------------------------------------------------------- installed state


class TestInstallation:
    def _l2(self):
        cfg = L2Config(num_banks=4, bank_ways=4, sets_per_bank=16)
        l2 = NucaL2(cfg, num_cores=2)
        l2.apply_partition(equal_partition_map(2, 4, 4))
        for line in range(64):
            l2.access(line % 2, line)
        return l2

    def test_healthy_installation_passes(self, sanitizer):
        sanitizer.check_installation(self._l2())
        assert sanitizer.checks_run > 1

    def test_directory_corruption_detected(self, sanitizer):
        l2 = self._l2()
        where = l2.image.where
        line = next(iter(where))
        # the same slot position, one bank over
        where[line] = (where[line] + (1 << l2.image.slot_bits)) % len(
            l2.image.tags
        )
        with pytest.raises(SanitizerViolation, match="directory"):
            sanitizer.check_installation(l2)

    def test_ownership_mask_corruption_detected(self, sanitizer):
        l2 = self._l2()
        owners = l2.banks[0].way_owners()
        owners[0] = frozenset((1,))  # steal a way core 0 is mapped to
        l2.banks[0].set_way_owners(owners)
        with pytest.raises(SanitizerViolation, match="way-conservation"):
            sanitizer.check_installation(l2)


# --------------------------------------------------------------- end to end


class TestEndToEnd:
    def _settings(self, **kwargs):
        return RunSettings(duration_cycles=500_000.0, seed=5, **kwargs)

    def _config(self):
        return scaled_config(32, epoch_cycles=150_000)

    def test_sanitized_run_completes_clean(self):
        result = run_mix(
            TABLE_III_SETS[0], "bank-aware", self._config(),
            self._settings(sanitize=True),
        )
        assert result.total_instructions > 0

    def test_injected_fault_raises_sanitizer_violation(self):
        plan = FaultPlan.parse("0:zero@0")
        with pytest.raises(SanitizerViolation, match="msa-mass"):
            run_mix(
                TABLE_III_SETS[0], "bank-aware", self._config(),
                self._settings(sanitize=True, fault_plan=plan),
            )

    def test_same_fault_contained_without_sanitize(self):
        plan = FaultPlan.parse("0:zero@0")
        result = run_mix(
            TABLE_III_SETS[0], "bank-aware", self._config(),
            self._settings(fault_plan=plan),
        )
        assert result.total_instructions > 0
