"""The documented public API: imports, __all__ hygiene, README snippets,
examples."""

import importlib
import runpy
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cache",
    "repro.config",
    "repro.cpu",
    "repro.fabric",
    "repro.lint",
    "repro.mem",
    "repro.noc",
    "repro.obs",
    "repro.parallel",
    "repro.partitioning",
    "repro.profiling",
    "repro.resilience",
    "repro.sim",
    "repro.util",
    "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    """Each example's module body runs (its imports resolve); ``main()``
    does not, since the module is not run as ``__main__``."""
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_readme_snippet_runs():
    """The README quickstart snippet must stay executable."""
    from repro import Mix, generate_trace, get, scaled_config
    from repro.partitioning import bank_aware_partition
    from repro.profiling import MissCurve, MSAProfiler

    cfg = scaled_config(32)
    trace = generate_trace(get("bzip2"), 5_000, cfg.l2.sets_per_bank, seed=1)
    prof = MSAProfiler(cfg.l2.sets_per_bank, cfg.l2.total_ways)
    prof.observe_many(trace.lines)
    curve = MissCurve.from_profiler(prof, "bzip2")
    assert 0.0 <= curve.miss_ratio_at(45) <= curve.miss_ratio_at(16) <= 1.0
    mix = Mix(("crafty", "gap", "mcf", "art", "equake", "equake", "bzip2", "equake"))
    assert len(mix.specs()) == 8
    decision = bank_aware_partition(
        [curve] * 8,
        num_banks=cfg.l2.num_banks,
        bank_ways=cfg.l2.bank_ways,
        max_ways_per_core=cfg.max_ways_per_core,
    )
    assert decision.total_ways == cfg.l2.total_ways
