"""The paper's Monte Carlo evaluation (Section IV.A, Fig. 7).

The space of 8-core combinations of 26 workloads is ~14 M, far beyond
detailed simulation, so the paper compares partitioning algorithms
*analytically*: collect each workload's MSA histogram once (stand-alone,
single-core), then for 1000 random mixes run the Unrestricted and
Bank-aware assignment algorithms on the histograms and compare their
MSA-projected total misses against fixed even shares.

``relative miss ratio = predicted_misses(algorithm) / predicted_misses(equal)``

The paper reports ~30 % average reduction for Unrestricted and ~27 % for
Bank-aware — i.e. the physical restrictions cost almost nothing — with the
Bank-aware points hugging the Unrestricted envelope when both are sorted by
the Unrestricted reduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import SystemConfig, scaled_config
from repro.errors import CheckpointCorrupt, ConfigError
from repro.fabric.supervisor import Supervisor
from repro.parallel.profile_cache import ProfileCache
from repro.partitioning.registry import (
    PolicyContext,
    analytic_policies,
    get_policy,
)
from repro.partitioning.static import equal_partition
from repro.partitioning.unrestricted import predicted_misses, unrestricted_partition
from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler
from repro.resilience.checkpoint import SweepCheckpoint
from repro.telemetry.timing import wall_clock
from repro.telemetry.tracer import Tracer
from repro.util.atomic_write import atomic_write_text
from repro.workloads.mixes import Mix, random_mixes
from repro.workloads.spec_like import ALL_NAMES, get
from repro.workloads.synthetic import generate_trace

#: traced sweeps emit one ``progress`` heartbeat per this fraction of the
#: sweep (at least every item); the cadence is a pure function of the
#: item count, so serial, parallel and resumed streams stay equal.
HEARTBEAT_FRACTION = 100


def collect_profiles(
    names: tuple[str, ...] = ALL_NAMES,
    config: SystemConfig | None = None,
    *,
    accesses: int = 80_000,
    warmup_fraction: float = 0.4,
    seed: int = 11,
    cache: ProfileCache | None = None,
) -> dict[str, MissCurve]:
    """Stand-alone MSA profiles of every workload (paper step 1).

    Each workload runs alone (as the paper profiles single benchmarks on a
    single core) and its L2 reference stream feeds an exact MSA profiler
    covering the full 128-way equivalent cache.  Mirroring the paper's
    methodology (fast-forward, warm the cache, then measure), the first
    ``warmup_fraction`` of the trace only primes the profiler's LRU stacks;
    its counters are cleared before the measured portion, so the curves
    describe steady-state reuse, not cold misses.

    With a :class:`~repro.parallel.profile_cache.ProfileCache`, curves are
    looked up (and stored) by an exact fingerprint of every profiling
    parameter, so repeated invocations skip the whole pass.
    """
    cfg = config or scaled_config()
    warmup = int(accesses * warmup_fraction)
    fingerprint = None
    if cache is not None:
        fingerprint = cache.fingerprint(
            cfg, accesses=accesses, warmup_fraction=warmup_fraction, seed=seed
        )
    curves: dict[str, MissCurve] = {}
    for name in names:
        if fingerprint is not None:
            hit = cache.get(name, fingerprint)
            if hit is not None:
                curves[name] = hit
                continue
        profiler = MSAProfiler(cfg.l2.sets_per_bank, cfg.l2.total_ways)
        trace = generate_trace(
            get(name), accesses, cfg.l2.sets_per_bank, seed=seed
        )
        lines = trace.lines
        profiler.observe_many(lines[:warmup])
        profiler.reset()  # drop warmup counts; stack state persists
        profiler.observe_many(lines[warmup:])
        curves[name] = MissCurve.from_profiler(profiler, name)
        if fingerprint is not None:
            cache.put(name, fingerprint, curves[name])
    return curves


@dataclass(frozen=True)
class MonteCarloPoint:
    """One random mix's outcome.

    ``policy_misses`` holds the MSA-projected misses of every extra
    registry policy ranked by this sweep (``policies=`` /
    ``--rank-policies``); ``None`` for the paper's plain Fig. 7 run.
    """

    mix: Mix
    equal_misses: float
    unrestricted_misses: float
    bank_aware_misses: float
    bank_aware_ways: tuple[int, ...]
    policy_misses: dict[str, float] | None = None

    @property
    def unrestricted_ratio(self) -> float:
        return (
            self.unrestricted_misses / self.equal_misses
            if self.equal_misses
            else 1.0
        )

    @property
    def bank_aware_ratio(self) -> float:
        return (
            self.bank_aware_misses / self.equal_misses
            if self.equal_misses
            else 1.0
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (for sweep checkpoints).  The
        ``policies`` key appears only on ranked points, so plain Fig. 7
        checkpoints keep their historical byte shape."""
        out = {
            "mix": list(self.mix.names),
            "equal": self.equal_misses,
            "unrestricted": self.unrestricted_misses,
            "bank_aware": self.bank_aware_misses,
            "ways": list(self.bank_aware_ways),
        }
        if self.policy_misses is not None:
            out["policies"] = dict(self.policy_misses)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MonteCarloPoint":
        """Inverse of :meth:`to_dict` (floats round-trip exactly via JSON).

        A wrongly typed field raises :class:`ConfigError` here, not a
        ``TypeError`` later in the ratio arithmetic."""
        misses = (data["equal"], data["unrestricted"], data["bank_aware"])
        ways = tuple(data["ways"])
        policies = data.get("policies")
        if policies is not None:
            if not isinstance(policies, dict) or not all(
                isinstance(name, str) and _is_number(value)
                for name, value in policies.items()
            ):
                raise ConfigError(
                    f"policies must map names to numbers, got {policies!r}"
                )
            policies = dict(policies)
        if not all(map(_is_number, misses)):
            raise ConfigError(f"misses must be numbers, got {misses!r}")
        if not all(isinstance(w, int) and not isinstance(w, bool) for w in ways):
            raise ConfigError(f"ways must hold integers, got {ways!r}")
        return cls(Mix(tuple(data["mix"])), *misses, ways, policies)


def _is_number(value: object) -> bool:
    """A JSON number: ``bool`` subclasses ``int`` but is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_points(items: list, source: str) -> list[MonteCarloPoint]:
    """Stored points (a result file's or a checkpoint's) back to points;
    the first malformed one raises :class:`CheckpointCorrupt` naming its
    index."""
    points = []
    for i, item in enumerate(items):
        malformed = f"{source}: point #{i} is malformed"
        if not isinstance(item, dict):
            raise CheckpointCorrupt(
                f"{malformed}: expected an object, got {type(item).__name__}"
            )
        try:
            points.append(MonteCarloPoint.from_dict(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(f"{malformed}: {exc!r}") from exc
    return points


@dataclass
class MonteCarloResult:
    """All points of one Fig. 7 experiment.

    The derived views (:meth:`sorted_by_unrestricted`, :meth:`series`, the
    mean ratios) share one lazily built ratio/sort cache, keyed on the
    identity of every point in the list (points are frozen, so replacing
    one always changes an identity), so plotting code can call them
    repeatedly without re-walking all points every time — and editing the
    list in place can never serve stale arrays.
    """

    points: list[MonteCarloPoint] = field(default_factory=list)
    _cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _ratios(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unrestricted, bank_aware, sort_order) over the current points."""
        key = tuple(map(id, self.points))
        if self._cache is None or self._cache[0] != key:
            unrestricted = np.array([p.unrestricted_ratio for p in self.points])
            bank_aware = np.array([p.bank_aware_ratio for p in self.points])
            order = np.argsort(unrestricted, kind="stable")
            self._cache = (key, unrestricted, bank_aware, order)
        return self._cache[1], self._cache[2], self._cache[3]

    def sorted_by_unrestricted(self) -> list[MonteCarloPoint]:
        """The paper sorts the 1000 results by the Unrestricted reduction."""
        _, _, order = self._ratios()
        return [self.points[i] for i in order]

    @property
    def mean_unrestricted_ratio(self) -> float:
        return float(np.mean(self._ratios()[0]))

    @property
    def mean_bank_aware_ratio(self) -> float:
        return float(np.mean(self._ratios()[1]))

    def restriction_penalty(self) -> float:
        """Average extra relative misses the Bank-aware rules cost over the
        Unrestricted envelope (the paper: ~3 percentage points)."""
        return self.mean_bank_aware_ratio - self.mean_unrestricted_ratio

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(unrestricted, bank_aware) ratio arrays, sorted as in Fig. 7."""
        unrestricted, bank_aware, order = self._ratios()
        return unrestricted[order], bank_aware[order]

    def policy_ranking(self) -> list[tuple[str, float]]:
        """Registry policies ranked by mean miss ratio vs. Equal (best
        first, name-tiebroken), over the points that carry per-policy
        projections.  Empty when the sweep did not rank policies."""
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for p in self.points:
            if p.policy_misses is None:
                continue
            for name, misses in p.policy_misses.items():
                ratio = misses / p.equal_misses if p.equal_misses else 1.0
                sums[name] = sums.get(name, 0.0) + ratio
                counts[name] = counts.get(name, 0) + 1
        means = [(name, sums[name] / counts[name]) for name in sums]
        return sorted(means, key=lambda item: (item[1], item[0]))

    # -- persistence ---------------------------------------------------------

    JSON_FORMAT = "repro-monte-carlo-result"
    JSON_VERSION = 1

    def to_json(self, path: str | Path) -> None:
        """Durably write every point to ``path`` (atomic + fsynced file and
        directory; exact float round-trip)."""
        payload = {
            "format": self.JSON_FORMAT,
            "version": self.JSON_VERSION,
            "points": [p.to_dict() for p in self.points],
        }
        atomic_write_text(path, json.dumps(payload))

    @classmethod
    def from_json(cls, path: str | Path) -> "MonteCarloResult":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorrupt(f"{path}: not valid JSON: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != cls.JSON_FORMAT
            or payload.get("version") != cls.JSON_VERSION
            or not isinstance(payload.get("points"), list)
        ):
            raise CheckpointCorrupt(f"{path}: not a {cls.JSON_FORMAT} file")
        return cls(points=_parse_points(payload["points"], str(path)))


#: per-worker payload installed by :func:`_montecarlo_init` (also set
#: in-process on the serial path, so the worker function is path-agnostic).
_WORKER: dict = {}


def _montecarlo_init(
    curves: dict[str, MissCurve],
    cfg: SystemConfig,
    min_ways: int,
    policies: tuple[str, ...] | None = None,
) -> None:
    _WORKER["curves"] = curves
    _WORKER["cfg"] = cfg
    _WORKER["min_ways"] = min_ways
    _WORKER["policies"] = policies


def _montecarlo_point(mix: Mix) -> MonteCarloPoint:
    """Evaluate one mix (pure: depends only on the mix and the payload)."""
    curves: dict[str, MissCurve] = _WORKER["curves"]
    cfg: SystemConfig = _WORKER["cfg"]
    min_ways: int = _WORKER["min_ways"]
    policies: tuple[str, ...] | None = _WORKER.get("policies")
    mix_curves = [curves[name] for name in mix.names]
    total_ways = cfg.l2.total_ways
    equal = tuple(equal_partition(cfg.num_cores, total_ways))
    # the paper's Unrestricted field is uncapped, unlike the registry policy
    unrestricted = tuple(
        unrestricted_partition(mix_curves, total_ways, min_ways=min_ways)
    )
    ctx = PolicyContext(
        num_cores=cfg.num_cores,
        num_banks=cfg.l2.num_banks,
        bank_ways=cfg.l2.bank_ways,
        max_ways_per_core=cfg.max_ways_per_core,
        min_ways=min_ways,
    )
    ways = {
        name: get_policy(name).decide(mix_curves, ctx).ways
        for name in policies or ()
    }
    # the paper's Bank-aware field is the registry's verdict, decided once
    if "bank-aware" in ways:
        bank_aware = ways["bank-aware"]
    else:
        bank_aware = get_policy("bank-aware").decide(mix_curves, ctx).ways
    # the even split is the paper's Equal field and both the
    # equal-partitions and bank-bw verdicts: project each distinct way
    # vector once
    vectors = (equal, unrestricted, bank_aware, *ways.values())
    misses = {
        w: predicted_misses(mix_curves, w) for w in dict.fromkeys(vectors)
    }
    return MonteCarloPoint(
        mix,
        misses[equal],
        misses[unrestricted],
        misses[bank_aware],
        bank_aware,
        {name: misses[w] for name, w in ways.items()} if policies else None,
    )


def run_monte_carlo(
    num_mixes: int = 1000,
    config: SystemConfig | None = None,
    *,
    curves: dict[str, MissCurve] | None = None,
    seed: int = 2009,
    profile_accesses: int = 60_000,
    min_ways: int = 1,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    jobs: int | None = None,
    profile_cache: ProfileCache | None = None,
    tracer: Tracer | None = None,
    policies: tuple[str, ...] | None = None,
) -> MonteCarloResult:
    """Steps 2-4 of the paper's comparison methodology for ``num_mixes``
    random workload sets.

    With ``checkpoint_path`` the sweep snapshots completed points to an
    atomic JSON file every ``checkpoint_every`` mixes (default
    ``config.resilience.checkpoint_every``; and on any exit, including
    exceptions); ``resume=True`` restores those points and continues.  A
    snapshot whose metadata disagrees with the current parameters raises
    :class:`~repro.errors.CheckpointMismatchError`.  ``random_mixes``
    draws mixes sequentially from the seed, so mix *i* is identical across
    runs and a killed-and-resumed sweep reproduces the uninterrupted one
    bit-for-bit — resuming into a larger ``num_mixes`` is likewise
    well-defined (prefix determinism).

    The mixes run through one :class:`~repro.fabric.supervisor.Supervisor`:
    ``jobs`` fans them out over worker processes (default serial; see
    :func:`~repro.fabric.supervisor.resolve_jobs`).  The first failing mix
    aborts the sweep with a typed
    :class:`~repro.errors.PoisonItemError`, after the checkpoint is
    flushed.  Every mix is a pure function of (curves, config, mix) and
    results merge in submission order, so the points are bit-identical
    for every ``jobs`` value and every kill/resume split.

    ``tracer`` records one ``mc_point`` event per mix plus ``progress``
    heartbeats over the whole sweep.  The stream is resume-stable:
    ``run_meta`` omits the restored count, restored points are re-emitted
    in their original slots, and the supervisor's ``sweep_item`` events
    are advisory — so a killed-and-resumed sweep's canonical trace equals
    an uninterrupted serial run's.

    ``policies`` additionally projects each mix through the named registry
    policies (must be :func:`~repro.partitioning.registry.analytic_policies`)
    so the result can rank them (:meth:`MonteCarloResult.policy_ranking`).
    The extra per-point payload joins the checkpoint metadata, so a ranked
    sweep never silently resumes a plain one (or vice versa) — a plain
    checkpoint's metadata has no ``policies`` key.  The metadata names the
    machine down to ``sets_per_bank``, so a snapshot taken at another
    scale is refused as well, and so is one written before that key
    existed.
    """
    cfg = config or scaled_config()
    if policies:
        policies = tuple(policies)
        ranked = set(analytic_policies())
        for name in policies:
            get_policy(name)  # unknown names fail with the full listing
            if name not in ranked:
                raise ConfigError(
                    f"policy {name!r} cannot be ranked analytically "
                    f"(rankable: {', '.join(sorted(ranked))})"
                )
    else:
        policies = None
    meta = {
        "seed": seed,
        "num_cores": cfg.num_cores,
        "num_banks": cfg.l2.num_banks,
        "sets_per_bank": cfg.l2.sets_per_bank,
        "bank_ways": cfg.l2.bank_ways,
        "min_ways": min_ways,
        "profile_accesses": profile_accesses,
    }
    if policies is not None:
        meta["policies"] = list(policies)
    ckpt = SweepCheckpoint(
        checkpoint_path, "monte-carlo", meta,
        every=checkpoint_every or cfg.resilience.checkpoint_every,
        resume=resume,
    )
    # prefix determinism makes a longer snapshot a superset of this sweep
    result = MonteCarloResult(
        points=_parse_points(ckpt.completed[:num_mixes], str(checkpoint_path))
    )
    # profiled only once the snapshot is accepted: its metadata does not
    # depend on the curves, so a refused resume fails before this pass
    if curves is None:
        curves = collect_profiles(
            config=cfg, accesses=profile_accesses, cache=profile_cache
        )
    mixes = random_mixes(num_mixes, cfg.num_cores, seed=seed)
    if tracer is not None:
        tracer.emit_run_meta(
            "monte-carlo", detail=f"{num_mixes} mixes, seed {seed}"
        )
    supervisor = Supervisor(
        jobs, initializer=_montecarlo_init,
        initargs=(curves, cfg, min_ways, policies), tracer=tracer,
    )
    heartbeat = max(1, num_mixes // HEARTBEAT_FRACTION)
    start = wall_clock() if tracer is not None else 0.0

    def note(point: MonteCarloPoint, index: int) -> None:
        if tracer is None:
            return
        extra = (
            {"policies": point.policy_misses}
            if point.policy_misses is not None
            else {}
        )
        tracer.emit(
            "mc_point",
            index=index,
            mix=list(point.mix.names),
            equal_misses=point.equal_misses,
            unrestricted_misses=point.unrestricted_misses,
            bank_aware_misses=point.bank_aware_misses,
            ways=point.bank_aware_ways,
            **extra,
        )
        done = index + 1
        if done % heartbeat == 0 or done == num_mixes:
            tracer.emit(
                "progress", done=done, total=num_mixes,
                source="montecarlo", wall_s=wall_clock() - start,
            )

    for index, point in enumerate(result.points):
        note(point, index)
    todo = mixes[len(result.points):]
    try:
        for point in supervisor.map_ordered(
            _montecarlo_point, todo, labels=[str(m) for m in todo]
        ):
            note(point, len(result.points))
            result.points.append(point)
            ckpt.record(point.to_dict())
    finally:
        ckpt.save()  # snapshot on kill/exception too, not just at the end
    return result
