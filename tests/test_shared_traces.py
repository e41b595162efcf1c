"""One trace set per mix: ``build_system`` generates a mix's per-core
traces once, and every scheme's system replays the same read-only arrays.

The memo (``repro.sim.runner._mix_traces``) lives for the whole process,
so every test clears it first.
"""

from dataclasses import replace

import pytest

import repro.sim.runner as runner
from repro.config import scaled_config
from repro.sim.runner import RunSettings, build_system, run_mix
from repro.sim.system import SIM_BACKENDS
from repro.workloads import Mix

CFG = scaled_config(32, epoch_cycles=100_000)  # tiny 64-set banks for speed
MIX = Mix(("gzip", "eon", "mcf", "galgel", "perlbmk", "crafty", "gap", "swim"))
ST = RunSettings(duration_cycles=150_000.0, seed=5)


@pytest.fixture
def generated(monkeypatch):
    """Clear the memo and count the ``generate_trace`` calls made through
    the runner (the global the memo calls)."""
    runner._mix_traces.cache_clear()
    calls = []
    real = runner.generate_trace

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "generate_trace", counting)
    yield calls
    runner._mix_traces.cache_clear()


def columns(system):
    return [system._addrs, system._writes, system._gaps]


def assert_shared(a, b):
    for col_a, col_b in zip(columns(a), columns(b)):
        assert all(x is y for x, y in zip(col_a, col_b))


class TestOneTraceSetPerMix:
    def test_schemes_of_one_mix_share_the_traces(self, generated):
        shared = build_system(MIX, "no-partitions", CFG, ST)
        aware = build_system(MIX, "bank-aware", CFG, ST)
        assert len(generated) == CFG.num_cores
        assert generated == list(MIX.names)
        assert_shared(shared, aware)

    @pytest.mark.parametrize("change", [
        {"seed": 6},
        {"duration_cycles": 160_000.0},
        {"trace_margin": 1.8},
        "scale",
    ], ids=["seed", "duration", "trace_margin", "scale"])
    def test_a_different_key_regenerates(self, generated, change):
        first = build_system(MIX, "equal-partitions", CFG, ST)
        again = build_system(MIX, "equal-partitions", CFG, ST)
        assert len(generated) == CFG.num_cores  # the second build hit
        if change == "scale":
            cfg, st = scaled_config(16, epoch_cycles=100_000), ST
        else:
            cfg, st = CFG, replace(ST, **change)
        other = build_system(MIX, "equal-partitions", cfg, st)
        assert len(generated) == 2 * CFG.num_cores
        assert_shared(first, again)
        assert all(
            x is not y for x, y in zip(first._addrs, other._addrs)
        )

    def test_shared_columns_are_read_only(self, generated):
        system = build_system(MIX, "equal-partitions", CFG, ST)
        for column in columns(system):
            with pytest.raises(ValueError, match="read-only"):
                column[0][0] = 1

    @pytest.mark.parametrize("backend", SIM_BACKENDS)
    def test_memo_hit_matches_a_fresh_build(self, generated, backend):
        # bank-aware profiles, so both line derivations run: per access
        # on the reference engine, per chunk and per flush on the batched
        st = replace(ST, sim_backend=backend, trace=True)
        fresh = run_mix(MIX, "bank-aware", CFG, st)
        hit = run_mix(MIX, "bank-aware", CFG, st)
        assert len(generated) == CFG.num_cores
        assert fresh.to_dict() == hit.to_dict()
        assert [dict(e) for e in fresh.events] == [dict(e) for e in hit.events]
