"""Tests of the benchmark itself (``pytest bench/``), on tiny workloads."""

from __future__ import annotations

import re
import sys

import pytest

import compare
import layers
import run
import workloads
from repro.workloads.mixes import TABLE_III_SETS

TINY = dict(
    sets=TABLE_III_SETS[:1],
    schemes=("no-partitions", "equal-partitions", "bank-aware"),
    epoch_cycles=20_000,
    duration_cycles=60_000,
)


def tiny_reference(seed: int = 7) -> workloads.Pass:
    return workloads.detailed(seed, backend="reference", **TINY)


def tiny_mc(seed: int = 7) -> workloads.Pass:
    return workloads.mc_fig7(seed, profile_accesses=4_000, num_mixes=5)


def traced(fn):
    tracer = layers.LayerTracer()
    with tracer.active():
        p = fn()
    return tracer, p


def patched_objects() -> dict:
    """Every object a tracer may replace: the target class attributes and
    every callable in every ``repro`` module namespace."""
    out = {}
    for _, path, _ in layers.TARGETS:
        owner, attr = layers._resolve(path)
        if isinstance(owner, type):
            out[(owner, attr)] = owner.__dict__[attr]
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                if callable(value):
                    out[(name, key)] = value
    return out


def test_wrappers_are_restored_after_a_traced_run():
    from repro.analysis import montecarlo
    from repro.cache.nuca import NucaL2

    before = patched_objects()
    access, collect = NucaL2.__dict__["access"], montecarlo.collect_profiles
    tracer = layers.LayerTracer()
    with tracer.active():
        assert NucaL2.__dict__["access"] is not access
        assert montecarlo.collect_profiles is not collect
        tiny_reference()
    after = patched_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_restored_when_the_pass_raises():
    before = patched_objects()
    with pytest.raises(ZeroDivisionError):
        with layers.LayerTracer().active():
            1 / 0
    after = patched_objects()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("fn", [tiny_reference, tiny_mc], ids=["reference", "mc"])
def test_self_times_reconcile_with_traced_wall_time(fn):
    tracer, p = traced(fn)
    report = tracer.report()
    self_s = [rec["self_s"] for rec in report["callables"].values()]
    assert min(self_s) >= 0.0
    total = sum(self_s) + report["unattributed_s"]
    assert total == pytest.approx(report["wall_s"], rel=0.02)
    assert not p.failures


def test_layer_calls_reach_the_tracer():
    tracer, p = traced(tiny_reference)
    calls = {name: rec["calls"] for name, rec in tracer.report()["callables"].items()}
    assert calls["cache.NucaL2.access"] == p.counts["sim.l2_accesses"]
    assert calls["sim.CMPSystem.run"] == len(TINY["schemes"])
    # generate_trace is reached through repro.sim.runner's own import
    assert calls["workloads.generate_trace"] == 8 * len(TINY["schemes"])


def test_metric_names_are_valid_and_listed_in_benchmark_json():
    spec = run.load_spec()
    p = tiny_reference()
    record = workloads.pass_record(p, 0.1, 1.0, 50.0, [])
    e2e = set(run.end_to_end_samples([record], []))
    tracer, p = traced(tiny_reference)
    per_layer = set(workloads.layer_metrics(tracer.report(), p.counts, 1.0))
    per_layer.add("trace.overhead_pct")  # run.py adds it from two passes
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    for name in e2e | per_layer:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_tampered_result_trips_the_identity_check():
    p = tiny_reference()
    assert all(c.ok for c in workloads.check_fig89_reference(p))
    p.results[1][2].migrations += 1
    checks = workloads.check_fig89_reference(p)
    assert [c.ok for c in checks] == [True, False, True]


def test_same_seed_gives_the_same_digest():
    assert tiny_reference(7).digest() == tiny_reference(7).digest()
    assert tiny_reference(7).digest() != tiny_reference(8).digest()
    assert tiny_mc(7).digest() == tiny_mc(7).digest()


def test_mc_checks_pass_on_a_tiny_sweep():
    p = tiny_mc()
    assert p.events == 5
    assert [c.ok for c in workloads.check_mc_fig7(p)] == [True, True, True]


def summary(samples):
    return run.summarize(samples)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "within bound"),
        ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "worse"),
        ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "better"),
        ([10.0, 12.0, 14.0], [10.0, 10.1, 10.2], "unresolved"),
        ([10.0, 12.0, 14.0], [5.0, 5.5, 6.0], "better"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(summary(a), summary(b), "lower", 0.1) == expected
