"""The policy lab: a registry of pluggable partitioning policies.

Scheme identity used to be a bare string hardcoded across ten modules;
this registry makes it one object.  A :class:`PartitionPolicy` names
itself, declares its capabilities (is it epoch-driven? does it need the
bank-queue model? does it search job placements?) and produces a
:class:`PolicyDecision` from per-core miss curves — so adding a policy is
one module plus one :func:`register` call, and every consumer (the
``simulate``/``compare`` CLI, the :class:`~repro.sim.controller.EpochController`
in both sim backends, the Monte Carlo ranking) picks it up by name.

Built-in policies:

* ``no-partitions`` / ``equal-partitions`` — the paper's static baselines.
* ``bank-aware`` — the paper's contribution (Rules 1-3, Section III).
* ``unrestricted`` — the UCP-lookahead prior work the paper compares against.
* ``bank-bw`` — per-bank bandwidth regulation (arXiv:2410.14003), in
  :mod:`repro.partitioning.bank_bw`.
* ``joint`` — joint partition + job assignment (arXiv:1210.4053), in
  :mod:`repro.partitioning.joint`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

from repro.cache.partition_map import PartitionMap
from repro.errors import ConfigError
from repro.partitioning.allocation import (
    check_center_cover,
    check_way_vector,
    decision_to_partition_map,
    vector_to_private_map,
)
from repro.partitioning.bank_aware import BankAwareDecision, bank_aware_partition
from repro.partitioning.static import equal_partition
from repro.partitioning.unrestricted import unrestricted_partition
from repro.profiling.miss_curve import MissCurve


@dataclass(frozen=True)
class PolicyContext:
    """Machine facts a policy may consult (everything except the curves).

    ``regulator`` is the live :class:`~repro.partitioning.bank_bw.BankBudgetRegulator`
    when the running system has one (``needs_bank_queues`` policies); the
    analytic paths (Monte Carlo ranking) pass ``None``.
    """

    num_cores: int
    num_banks: int
    bank_ways: int
    max_ways_per_core: int
    min_ways: int = 1
    now: float = 0.0
    regulator: object | None = None

    @property
    def total_ways(self) -> int:
        return self.num_banks * self.bank_ways


@dataclass(frozen=True)
class PolicyDecision:
    """One policy verdict: the per-core way vector, how to build its
    physical map (``None`` for capacity-sharing policies), and — when the
    policy honours the Bank-aware rules — the structural decision the
    sanitizer can deep-check against the installed map.

    The map is built on the first read of :attr:`pmap` and cached, since
    the analytic sweep ranks verdicts it never installs.  ``decide``
    checks its verdict once, where it is made: way conservation, at least
    one way per core and the capacity cap
    (:func:`~repro.partitioning.allocation.check_way_vector`), plus Rules
    1-3 for a Bank-aware decision (``BankAwareDecision.__post_init__``).
    Equality ignores the builder.
    """

    ways: tuple[int, ...]
    bank_decision: BankAwareDecision | None = None
    build_pmap: Callable[[], PartitionMap] | None = field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def pmap(self) -> PartitionMap | None:
        """The physical map to install (``None``: the cache stays shared)."""
        return None if self.build_pmap is None else self.build_pmap()


def private_map_verdict(ways: Sequence[int], ctx: PolicyContext) -> PolicyDecision:
    """A way-vector verdict laid out as contiguous private regions
    (:func:`~repro.partitioning.allocation.vector_to_private_map`): the
    vector is checked now, the map built on first read."""
    ways = tuple(ways)
    check_way_vector(ways, ctx.total_ways, ctx.max_ways_per_core)
    return PolicyDecision(
        ways=ways,
        build_pmap=partial(
            vector_to_private_map,
            ways,
            num_banks=ctx.num_banks,
            bank_ways=ctx.bank_ways,
        ),
    )


class PartitionPolicy:
    """Base class / protocol of one registered partitioning policy.

    Subclasses override :meth:`decide` and the capability flags:

    ``dynamic``
        driven by the :class:`~repro.sim.controller.EpochController`
        every epoch (static schemes are installed once at system build).
    ``needs_profilers``
        reads per-core MSA miss curves.
    ``needs_bank_queues``
        requires the per-bank FIFO queue model plus a
        :class:`~repro.partitioning.bank_bw.BankBudgetRegulator` attached
        to the system's access path.
    ``needs_job_assignment``
        searches workload↔core placements as part of the decision.
    ``shares_cache``
        imposes no capacity isolation (the shared-cache baseline).
    ``analytic``
        ``decide`` is meaningful from solo miss curves alone, so the
        Monte Carlo sweep can rank the policy per mix.
    """

    name: str = ""
    summary: str = ""
    dynamic: bool = False
    needs_profilers: bool = False
    needs_bank_queues: bool = False
    needs_job_assignment: bool = False
    shares_cache: bool = False
    analytic: bool = True

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        raise NotImplementedError(f"policy {self.name!r} defines no decide()")


_REGISTRY: dict[str, PartitionPolicy] = {}


def register(policy: PartitionPolicy) -> PartitionPolicy:
    """Add one policy to the lab; returns it so classes can self-register."""
    if not policy.name:
        raise ConfigError("a partitioning policy must carry a name")
    if policy.name in _REGISTRY:
        raise ConfigError(f"policy {policy.name!r} is already registered")
    _REGISTRY[policy.name] = policy
    return policy


def get_policy(name: str) -> PartitionPolicy:
    """Look a policy up by name (the single source of scheme identity)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ConfigError(
            f"unknown partitioning scheme {name!r} (registered: {known})"
        ) from None


#: the paper's schemes lead the listing; later registrations follow
#: alphabetically, so the order is stable regardless of import order.
_CANONICAL = ("no-partitions", "equal-partitions", "bank-aware", "unrestricted")


def registered_policies() -> tuple[str, ...]:
    """Every registered policy name, in canonical order."""
    head = tuple(n for n in _CANONICAL if n in _REGISTRY)
    tail = tuple(sorted(n for n in _REGISTRY if n not in _CANONICAL))
    return head + tail


def analytic_policies() -> tuple[str, ...]:
    """Policies the Monte Carlo sweep can rank from solo miss curves."""
    return tuple(
        n for n in registered_policies() if _REGISTRY[n].analytic
    )


def policy_help() -> str:
    """One ``name: summary`` entry per registered policy (CLI help text)."""
    return "; ".join(
        f"{n}: {_REGISTRY[n].summary}" for n in registered_policies()
    )


# -- the four historical schemes, re-registered through the lab --------------


class NoPartitionPolicy(PartitionPolicy):
    """The fully shared DNUCA baseline (paper Figs. 8/9 reference)."""

    name = "no-partitions"
    summary = "fully shared cache, migrating DNUCA baseline"
    shares_cache = True
    #: a shared cache's misses depend on the interleaving, not on solo
    #: curves, so the analytic sweep cannot rank it.
    analytic = False

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        # nominal even shares; no map — capacity stays shared
        return PolicyDecision(
            ways=tuple(equal_partition(ctx.num_cores, ctx.total_ways))
        )


class EqualPartitionPolicy(PartitionPolicy):
    """Fixed even shares (paper: 16 ways per core, installed once)."""

    name = "equal-partitions"
    summary = "static even split, one share per core"

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        return private_map_verdict(
            equal_partition(ctx.num_cores, ctx.total_ways), ctx
        )


class BankAwarePolicy(PartitionPolicy):
    """The paper's Bank-aware assignment (Rules 1-3, Fig. 6)."""

    name = "bank-aware"
    summary = "the paper's bank-structure-aware marginal-utility assignment"
    dynamic = True
    needs_profilers = True

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        decision = bank_aware_partition(
            curves,
            num_banks=ctx.num_banks,
            bank_ways=ctx.bank_ways,
            max_ways_per_core=ctx.max_ways_per_core,
            min_ways=ctx.min_ways,
        )
        check_center_cover(decision, len(decision.ways), ctx.num_banks)
        check_way_vector(decision.ways, ctx.total_ways, ctx.max_ways_per_core)
        return PolicyDecision(
            ways=decision.ways,
            bank_decision=decision,
            build_pmap=partial(
                decision_to_partition_map, decision, num_banks=ctx.num_banks
            ),
        )


class UnrestrictedPolicy(PartitionPolicy):
    """UCP lookahead with no physical restrictions (paper Section III.B)."""

    name = "unrestricted"
    summary = "UCP-lookahead baseline, physically idealised layout"
    dynamic = True
    needs_profilers = True

    def decide(
        self, curves: Sequence[MissCurve], ctx: PolicyContext
    ) -> PolicyDecision:
        # the cap reaches the algorithm here, so the verdict's own cap
        # check in private_map_verdict never fires on a sound curve set
        ways = unrestricted_partition(
            curves,
            ctx.total_ways,
            min_ways=ctx.min_ways,
            max_ways_per_core=ctx.max_ways_per_core,
        )
        return private_map_verdict(ways, ctx)


register(NoPartitionPolicy())
register(EqualPartitionPolicy())
register(BankAwarePolicy())
register(UnrestrictedPolicy())

# The related-work policies live in their own modules and self-register on
# import; importing them here makes `import repro.partitioning.registry`
# sufficient to see the whole lab.  (Safe under any import order: a module
# imported first re-enters here, finds its dependencies already defined,
# and finishes its own registration afterwards.)
from repro.partitioning import bank_bw as _bank_bw  # noqa: E402,F401
from repro.partitioning import joint as _joint  # noqa: E402,F401

__all__ = [
    "BankAwarePolicy",
    "EqualPartitionPolicy",
    "NoPartitionPolicy",
    "PartitionPolicy",
    "PolicyContext",
    "PolicyDecision",
    "UnrestrictedPolicy",
    "analytic_policies",
    "get_policy",
    "policy_help",
    "private_map_verdict",
    "register",
    "registered_policies",
]
