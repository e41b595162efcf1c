"""The policy lab: registry contract + property suite over every policy.

Four families of guarantees:

* registry mechanics — canonical listing order, lookup errors, duplicate
  rejection, capability flags;
* decision invariants — every registered policy conserves ways, honours
  the min-way floor, and (when it claims the Bank-aware structure)
  passes the guard's Rules 1-3 deep check, over randomized curve sets;
* determinism — identical inputs give identical decisions, and the
  related-work building blocks (regulator, joint search) are pure
  functions of their inputs;
* backend identity — every *dynamic* registered policy produces
  bit-identical results through the reference and batched sim engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.errors import ConfigError, PartitionInvariantError
from repro.partitioning import registry
from repro.partitioning.allocation import (
    decision_to_partition_map,
    vector_to_private_map,
)
from repro.partitioning.bank_aware import BankAwareDecision
from repro.partitioning.bank_bw import (
    WINDOWS_PER_EPOCH,
    BankBudgetRegulator,
)
from repro.partitioning.joint import best_assignment, schedule_mix
from repro.partitioning.registry import (
    PartitionPolicy,
    PolicyContext,
    PolicyDecision,
    analytic_policies,
    get_policy,
    policy_help,
    private_map_verdict,
    register,
    registered_policies,
)
from repro.profiling.miss_curve import MissCurve
from repro.resilience.guard import DecisionGuard
from repro.sim.runner import RunSettings, run_mix
from repro.sim.system import ALL_SIM_SCHEMES, DETAILED_SCHEMES
from repro.workloads import Mix

CTX = PolicyContext(
    num_cores=8, num_banks=16, bank_ways=8, max_ways_per_core=72
)


def knee_curve(knee, total=1000.0, floor_frac=0.05, max_ways=128):
    ways = np.arange(max_ways + 1, dtype=np.float64)
    frac = np.clip(ways / knee, 0, 1)
    misses = total * (1 - frac * (1 - floor_frac))
    return MissCurve(f"knee{knee}", misses, total)


@st.composite
def curve_sets(draw, n=8):
    return [
        knee_curve(
            draw(st.integers(1, 80)),
            draw(st.floats(10.0, 10_000.0)),
            draw(st.floats(0.0, 0.9)),
        )
        for _ in range(n)
    ]


class TestRegistry:
    def test_canonical_listing_order(self):
        names = registered_policies()
        assert names[:4] == (
            "no-partitions", "equal-partitions", "bank-aware", "unrestricted"
        )
        extras = names[4:]
        assert "bank-bw" in extras and "joint" in extras
        assert list(extras) == sorted(extras)

    def test_sim_schemes_follow_the_registry(self):
        assert ALL_SIM_SCHEMES == registered_policies()
        assert set(DETAILED_SCHEMES) < set(ALL_SIM_SCHEMES)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigError, match="bank-aware"):
            get_policy("half-and-half")

    def test_duplicate_and_anonymous_registration_rejected(self):
        with pytest.raises(ConfigError):
            register(get_policy("bank-aware"))
        with pytest.raises(ConfigError):
            register(PartitionPolicy())

    def test_analytic_excludes_the_shared_baseline(self):
        ranked = analytic_policies()
        assert "no-partitions" not in ranked
        assert "bank-aware" in ranked and "joint" in ranked

    def test_help_covers_every_policy(self):
        text = policy_help()
        for name in registered_policies():
            assert name in text

    def test_capability_flags(self):
        assert get_policy("no-partitions").shares_cache
        assert not get_policy("no-partitions").dynamic
        assert get_policy("bank-bw").needs_bank_queues
        assert get_policy("joint").needs_job_assignment
        for name in ("bank-aware", "unrestricted", "bank-bw", "joint"):
            assert get_policy(name).dynamic
            assert get_policy(name).needs_profilers

    def test_base_class_requires_decide(self):
        with pytest.raises(NotImplementedError):
            PartitionPolicy().decide([], CTX)


class TestDecisionInvariants:
    """Every registered policy, randomized curve sets."""

    @settings(max_examples=20, deadline=None)
    @given(curves=curve_sets())
    def test_conserves_ways_and_honours_floors(self, curves):
        guard = DecisionGuard(
            CTX.num_cores, num_banks=CTX.num_banks, bank_ways=CTX.bank_ways,
            max_ways_per_core=CTX.max_ways_per_core, min_ways=CTX.min_ways,
        )
        for name in registered_policies():
            verdict = get_policy(name).decide(curves, CTX)
            assert sum(verdict.ways) == CTX.total_ways, name
            assert all(w >= CTX.min_ways for w in verdict.ways), name
            assert all(
                w <= CTX.max_ways_per_core for w in verdict.ways
            ), name
            if verdict.bank_decision is not None:
                d = verdict.bank_decision
                guard.validate_decision(d.ways, d.center_banks, d.pairs)
            else:
                guard.validate_vector(verdict.ways)

    @settings(max_examples=20, deadline=None)
    @given(curves=curve_sets())
    def test_partitioned_policies_materialise_a_map(self, curves):
        for name in registered_policies():
            policy = get_policy(name)
            verdict = policy.decide(curves, CTX)
            if policy.shares_cache:
                assert verdict.pmap is None, name
            else:
                pmap = verdict.pmap
                assert pmap is not None, name
                pmap.validate(CTX.num_banks, CTX.bank_ways)
                # the installed map realises exactly the decided vector
                vec = pmap.way_vector()
                for core, want in enumerate(verdict.ways):
                    assert vec.get(core, 0) == want, name

    @settings(max_examples=10, deadline=None)
    @given(curves=curve_sets())
    def test_decisions_are_deterministic(self, curves):
        for name in registered_policies():
            a = get_policy(name).decide(curves, CTX)
            b = get_policy(name).decide(list(curves), CTX)
            assert a.ways == b.ways, name


class TestLazyMaps:
    @settings(max_examples=5, deadline=None)
    @given(curves=curve_sets())
    def test_map_is_built_once_and_matches_the_builders(self, curves):
        for name in registered_policies():
            policy = get_policy(name)
            if policy.shares_cache:
                continue
            verdict = policy.decide(curves, CTX)
            assert verdict.pmap is verdict.pmap, name
            if verdict.bank_decision is not None:
                want = decision_to_partition_map(
                    verdict.bank_decision, num_banks=CTX.num_banks
                )
            else:
                want = vector_to_private_map(
                    list(verdict.ways), num_banks=CTX.num_banks,
                    bank_ways=CTX.bank_ways,
                )
            assert verdict.pmap == want, name

    def test_equality_ignores_the_builder(self):
        ways = (16,) * 8
        built = private_map_verdict(ways, CTX)
        assert built == PolicyDecision(ways=ways)
        assert built.pmap is not None and PolicyDecision(ways=ways).pmap is None

    @pytest.mark.parametrize(
        "ways, message",
        [
            ([8] * 8, "way vector sums to 64, machine has 128"),
            ([0, 32] + [16] * 6, "every core needs at least one way"),
            ([-1, 33] + [16] * 6, "every core needs at least one way"),
        ],
    )
    def test_bad_vector_fails_inside_decide(self, monkeypatch, ways, message):
        monkeypatch.setattr(registry, "unrestricted_partition", lambda *a, **k: ways)
        with pytest.raises(PartitionInvariantError, match=message):
            get_policy("unrestricted").decide([knee_curve(8)] * 8, CTX)

    def test_decision_missing_center_banks_fails_inside_decide(self, monkeypatch):
        short = BankAwareDecision(
            ways=(16,) + (8,) * 7, center_banks=(1,) + (0,) * 7, pairs=()
        )
        monkeypatch.setattr(registry, "bank_aware_partition", lambda *a, **k: short)
        with pytest.raises(PartitionInvariantError, match="cover every Center bank"):
            get_policy("bank-aware").decide([knee_curve(8)] * 8, CTX)


class TestJointSearch:
    def test_moves_hungry_workloads_apart(self):
        """Two cache-hungry neighbours should not stay adjacent when the
        swap search finds a better placement."""
        hungry = knee_curve(70, total=50_000)
        modest = knee_curve(2, total=50)
        curves = [hungry, hungry] + [modest] * 6
        assignment = best_assignment(curves, max_ways_per_core=72)
        baseline = best_assignment(curves, max_passes=0)
        assert assignment.predicted <= baseline.predicted

    def test_ways_by_workload_inverts_the_placement(self):
        curves = [knee_curve(k) for k in (4, 8, 16, 32, 45, 6, 10, 60)]
        assignment = best_assignment(curves)
        for core, workload in enumerate(assignment.placement):
            assert (
                assignment.ways_by_workload()[workload]
                == assignment.decision.ways[core]
            )

    def test_schedule_mix_reorders_names(self):
        names = ("gzip", "eon", "mcf", "galgel",
                 "perlbmk", "crafty", "gap", "swim")
        curves = {
            n: knee_curve(k)
            for n, k in zip(names, (4, 8, 16, 32, 45, 6, 10, 60))
        }
        scheduled, assignment = schedule_mix(Mix(names), curves)
        assert tuple(scheduled.names) == tuple(
            names[w] for w in assignment.placement
        )
        assert sorted(scheduled.names) == sorted(names)


class TestBankBudgetRegulator:
    def test_unlimited_until_first_rebudget(self):
        reg = BankBudgetRegulator(2, 4, window_cycles=100.0)
        assert reg.charge(0, 0, 10.0) == 0.0
        assert reg.throttled == 0

    def test_budgets_track_demand_with_headroom(self):
        reg = BankBudgetRegulator(1, 1, window_cycles=100.0)
        for i in range(WINDOWS_PER_EPOCH * 4):  # 4 accesses/window
            reg.charge(0, 0, float(i))
        reg.rebudget()
        assert reg.budgets[0][0] == 5  # 4 * 1.25
        assert reg.demand[0][0] == 0  # demand window reset

    def test_over_budget_access_defers_to_next_window(self):
        reg = BankBudgetRegulator(1, 1, window_cycles=100.0)
        reg.budgets[0][0] = 1
        assert reg.charge(0, 0, 10.0) == 0.0
        delay = reg.charge(0, 0, 20.0)
        assert delay == 80.0  # pushed to cycle 100, the next window
        assert reg.throttled == 1
        assert reg.total_throttle_cycles == 80.0

    def test_burst_spreads_one_per_window(self):
        reg = BankBudgetRegulator(1, 1, window_cycles=100.0)
        reg.budgets[0][0] = 1
        reg.charge(0, 0, 0.0)
        assert reg.charge(0, 0, 1.0) == 99.0  # window 1
        assert reg.charge(0, 0, 2.0) == 198.0  # window 2
        assert reg.charge(0, 0, 3.0) == 297.0  # window 3

    def test_zero_budget_means_unlimited(self):
        reg = BankBudgetRegulator(1, 1, window_cycles=100.0)
        reg.rebudget()  # no demand observed -> budget stays 0
        assert reg.budgets[0][0] == 0
        for i in range(50):
            assert reg.charge(0, 0, float(i)) == 0.0


class TestBackendIdentity:
    """Every dynamic registered policy is bit-identical across engines."""

    CFG = scaled_config(32, epoch_cycles=100_000)
    MIX = Mix(
        ("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim")
    )

    @pytest.mark.parametrize(
        "scheme",
        [n for n in registered_policies() if get_policy(n).dynamic],
    )
    def test_reference_equals_batched(self, scheme):
        results = [
            run_mix(
                self.MIX, scheme, self.CFG,
                RunSettings(
                    duration_cycles=300_000.0, seed=5,
                    sim_backend=backend, trace=True,
                ),
            )
            for backend in ("reference", "batched")
        ]
        ref, batched = results
        assert ref.to_dict() == batched.to_dict()
        assert [dict(e) for e in ref.events] == [
            dict(e) for e in batched.events
        ]
        # the runs actually exercised the policy (epochs fired)
        assert ref.epochs, scheme
