"""Outside-in layer tracer for the benchmark.

The tracer times the public callables of each ``repro`` module from the
benchmark process: it replaces them with timing wrappers for the length of
one traced pass and restores every original afterwards, so no program
source changes.  Methods are wrapped on their class.  Module functions are
wrapped in every ``repro`` module namespace that holds them, because a
``from ... import`` copies the reference into the importer and a patch of
the defining module alone would miss those calls.

Each call becomes a span (name, start, end, parent) kept in memory.  The
per-access callables run about once per simulated L2 access (1.3 M calls
each on ``fig89_reference``), so a leaf call of one of those is folded into
a per-parent (calls, time) aggregate instead.  Reports and the Chrome trace
are built only after the pass ends.

A layer's self time is its time minus the time of the wrapped calls made
inside it.  The self times of all wrapped callables plus the unattributed
time (spent outside any wrapped call) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

#: kept as one span per call
SPAN = "span"
#: called about once per simulated access: leaf calls are aggregated
PER_ACCESS = "per_access"
#: a span that also counts the items of its batch argument
BATCH = "batch"

#: (metric name, ``module:attribute`` path, kind).  Several paths may share
#: one name (both profiler classes report as ``profiling.observe``).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.CMPSystem.__init__", "repro.sim.system:CMPSystem.__init__", SPAN),
    ("sim.CMPSystem.run", "repro.sim.system:CMPSystem.run", SPAN),
    # the reference loop asks the controller once per access whether an
    # epoch boundary passed; only the ticks that repartition have children
    ("sim.EpochController.tick", "repro.sim.controller:EpochController.tick", PER_ACCESS),
    ("cache.NucaL2.access", "repro.cache.nuca:NucaL2.access", PER_ACCESS),
    ("cache.NucaL2.apply_partition", "repro.cache.nuca:NucaL2.apply_partition", SPAN),
    ("noc.ContentionModel.bank_delay", "repro.noc.contention:ContentionModel.bank_delay", PER_ACCESS),
    ("noc.ContentionModel.memory_delay", "repro.noc.contention:ContentionModel.memory_delay", PER_ACCESS),
    ("cpu.CoreTimer.advance_compute", "repro.cpu.core:CoreTimer.advance_compute", PER_ACCESS),
    ("cpu.CoreTimer.complete_access", "repro.cpu.core:CoreTimer.complete_access", PER_ACCESS),
    ("profiling.observe", "repro.profiling.msa:MSAProfiler.observe", PER_ACCESS),
    ("profiling.observe", "repro.profiling.sampled:SampledMSAProfiler.observe", PER_ACCESS),
    ("profiling.observe_many", "repro.profiling.msa:MSAProfiler.observe_many", BATCH),
    ("profiling.observe_many", "repro.profiling.sampled:SampledMSAProfiler.observe_many", BATCH),
    ("partitioning.bank-aware.decide", "repro.partitioning.registry:BankAwarePolicy.decide", SPAN),
    ("partitioning.unrestricted.decide", "repro.partitioning.registry:UnrestrictedPolicy.decide", SPAN),
    ("partitioning.equal-partitions.decide", "repro.partitioning.registry:EqualPartitionPolicy.decide", SPAN),
    ("partitioning.joint.decide", "repro.partitioning.joint:JointPolicy.decide", SPAN),
    ("partitioning.bank-bw.decide", "repro.partitioning.bank_bw:BankBandwidthPolicy.decide", SPAN),
    ("partitioning.bank_aware_partition", "repro.partitioning.bank_aware:bank_aware_partition", SPAN),
    ("partitioning.unrestricted_partition", "repro.partitioning.unrestricted:unrestricted_partition", SPAN),
    ("partitioning.predicted_misses", "repro.partitioning.unrestricted:predicted_misses", SPAN),
    ("partitioning.BankBudgetRegulator.charge", "repro.partitioning.bank_bw:BankBudgetRegulator.charge", PER_ACCESS),
    ("resilience.DecisionGuard.checked_curve", "repro.resilience.guard:DecisionGuard.checked_curve", SPAN),
    ("workloads.generate_trace", "repro.workloads.synthetic:generate_trace", SPAN),
    ("analysis.collect_profiles", "repro.analysis.montecarlo:collect_profiles", SPAN),
    ("analysis.run_monte_carlo", "repro.analysis.montecarlo:run_monte_carlo", SPAN),
)


def target_names(targets=TARGETS) -> list[str]:
    """Distinct wrapped names, in table order."""
    return list(dict.fromkeys(name for name, _, _ in targets))


def module_names(targets=TARGETS) -> list[str]:
    """Distinct layers (the ``repro`` module each name belongs to)."""
    return list(dict.fromkeys(n.split(".")[0] for n in target_names(targets)))


def _resolve(path: str) -> tuple[object, str]:
    """``'pkg.mod:Class.attr'`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Wraps :data:`TARGETS` while :meth:`active` is entered."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        #: one ``(name, start_ns, end_ns, parent index)`` per call; parent -1
        #: is the pass itself
        self.spans: list = []
        #: per-access leaf calls: name -> {parent index: [calls, ns]}
        self.leaves: dict[str, dict[int, list[int]]] = {}
        #: batch callables: name -> items handed to them
        self.items: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.start_ns = 0
        self.end_ns = 0

    def wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        """A timing wrapper around ``fn`` that records under ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        leaves = self.leaves.setdefault(name, {})
        aggregate = kind == PER_ACCESS
        items = self.items if kind == BATCH else None
        if items is not None:
            items.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved so children can name their parent
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                if aggregate and len(spans) == idx + 1:
                    spans.pop()  # a leaf: nothing refers to its slot
                    rec = leaves.get(parent)
                    if rec is None:
                        leaves[parent] = [1, end - start]
                    else:
                        rec[0] += 1
                        rec[1] += end - start
                else:
                    spans[idx] = (name, start, end, parent)
                if items is not None:
                    items[name] += len(args[1])

        return wrapper

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` undoes exactly these."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for name, path, kind in self.targets:
                owner, attr = _resolve(path)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    homes = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    homes = [
                        (module, key)
                        for mod_name, module in list(sys.modules.items())
                        if mod_name == "repro" or mod_name.startswith("repro.")
                        for key, value in vars(module).items()
                        if value is original
                    ]
                wrapper = self.wrap(name, original, kind)
                for home, key in homes:
                    self._restore.append((home, key, original))
                    setattr(home, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self) -> Iterator["LayerTracer"]:
        """Trace the body: patch, time the window, always restore."""
        self.install()
        try:
            self.start_ns = time.perf_counter_ns()
            try:
                yield self
            finally:
                self.end_ns = time.perf_counter_ns()
        finally:
            self.uninstall()

    # -- reports (built after the pass) ------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(self ns per name, calls per name, ns covered by top-level calls)."""
        self_ns = {name: 0 for name in target_names(self.targets)}
        calls = dict.fromkeys(self_ns, 0)
        covered = 0
        for name, start, end, parent in self.spans:
            dur = end - start
            self_ns[name] += dur
            calls[name] += 1
            if parent < 0:
                covered += dur
            else:
                self_ns[self.spans[parent][0]] -= dur
        for name, per_parent in self.leaves.items():
            for parent, (count, ns) in per_parent.items():
                self_ns[name] = self_ns.get(name, 0) + ns
                calls[name] = calls.get(name, 0) + count
                if parent < 0:
                    covered += ns
                else:
                    self_ns[self.spans[parent][0]] -= ns
        return self_ns, calls, covered

    def report(self) -> dict:
        """Per-name and per-layer self time (s and % of wall), call counts,
        batch item counts, wall and unattributed time."""
        wall_ns = self.end_ns - self.start_ns
        self_ns, calls, covered = self.self_times()
        pct = 100.0 / wall_ns if wall_ns else 0.0
        layers = dict.fromkeys(module_names(self.targets), 0)
        for name, ns in self_ns.items():
            layers[name.split(".")[0]] += ns
        return {
            "wall_s": wall_ns / 1e9,
            "unattributed_s": (wall_ns - covered) / 1e9,
            "unattributed_pct": (wall_ns - covered) * pct,
            "callables": {
                name: {"self_s": ns / 1e9, "self_pct": ns * pct, "calls": calls[name]}
                for name, ns in self_ns.items()
            },
            "layers": {
                layer: {"self_s": ns / 1e9, "self_pct": ns * pct}
                for layer, ns in layers.items()
            },
            "items": dict(self.items),
        }

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (open in chrome://tracing or
        Perfetto); aggregated per-access calls ride on their parent span."""
        nested: dict[int, dict[str, dict]] = {}
        for name, per_parent in self.leaves.items():
            for parent, (count, ns) in per_parent.items():
                nested.setdefault(parent, {})[name] = {"calls": count, "ms": ns / 1e6}
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.start_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": nested.get(i, {}),
            }
            for i, (name, start, end, _) in enumerate(self.spans)
        ]
        if -1 in nested:
            events.append(
                {"name": "top-level per-access calls", "ph": "i", "ts": 0,
                 "pid": 1, "tid": 1, "s": "g", "args": nested[-1]}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def wrapper_cost_ns(calls: int = 200_000, repeats: int = 3) -> float:
    """Calibrated extra cost of one wrapped per-access call over the bare
    call of an empty function (best of ``repeats``)."""

    def empty() -> None:
        return None

    tracer = LayerTracer(targets=())
    wrapped = tracer.wrap("calibration", empty, PER_ACCESS)
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            empty()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best
