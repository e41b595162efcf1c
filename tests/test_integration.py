"""Cross-module integration tests: profiler -> algorithm -> cache -> timing.

These exercise the full pipeline at small scale, checking properties that
only emerge from the composition — MSA predictions vs. simulated caches,
controller convergence, latency wiring, epoch bookkeeping.
"""

import pytest

from repro.cache.nuca import NucaL2
from repro.cache.partition_map import equal_partition_map
from repro.config import L2Config, scaled_config
from repro.profiling.miss_curve import MissCurve
from repro.profiling.msa import MSAProfiler
from repro.sim.runner import RunSettings, build_system
from repro.workloads import Mix, generate_trace, get

CFG = scaled_config(32, epoch_cycles=200_000)


class TestMsaPredictsSimulatedCache:
    @pytest.mark.parametrize("name", ["vpr", "crafty", "gcc"])
    def test_prediction_matches_ideal_private_partition(self, name):
        """The MSA projection at W ways must match an actual W-way LRU
        cache fed the same stream (steady state, single core) — the
        property the whole allocation machinery rests on."""
        nsets = 64
        trace = generate_trace(get(name), 25_000, nsets, seed=13)
        lines = trace.lines.tolist()
        warm = len(lines) // 3

        prof = MSAProfiler(nsets, 32)
        prof.observe_many(lines[:warm])
        prof.reset()
        prof.observe_many(lines[warm:])
        curve = MissCurve.from_profiler(prof, name)

        for ways in (4, 16):
            cfg = L2Config(num_banks=2, bank_ways=ways // 2, sets_per_bank=nsets)
            l2 = NucaL2(cfg, 1, placement="dnuca")
            pmap = equal_partition_map(1, 2, ways // 2)
            l2.apply_partition(pmap)
            for line in lines[:warm]:
                l2.access(0, line)
            start = l2.stats.misses.get(0, 0)
            for line in lines[warm:]:
                l2.access(0, line)
            measured = l2.stats.misses.get(0, 0) - start
            predicted = curve.misses_at(ways)
            total = len(lines) - warm
            # the aggregated 2-bank structure only approximates global LRU
            assert abs(measured - predicted) / total < 0.08, (
                f"{name}@{ways}: predicted {predicted}, measured {measured}"
            )


class TestControllerConvergence:
    def test_decisions_stabilise_on_stationary_workloads(self):
        """With stationary inputs the controller's allocations must settle
        (identical decisions across the last epochs) rather than thrash."""
        mix = Mix(("gzip", "vpr", "mcf", "crafty",
                   "galgel", "eon", "vortex", "swim"))
        sys_ = build_system(
            mix, "bank-aware", CFG,
            RunSettings(duration_cycles=1_600_000.0, seed=17),
        )
        r = sys_.run()
        assert len(r.epochs) >= 4
        tail = [e.ways for e in r.epochs[-2:]]
        assert tail[0] == tail[1], r.epochs

    def test_epoch_times_strictly_increase(self):
        sys_ = build_system(
            Mix(("gzip", "vpr", "mcf", "crafty",
                 "galgel", "eon", "vortex", "swim")),
            "bank-aware", CFG,
            RunSettings(duration_cycles=1_000_000.0, seed=17),
        )
        r = sys_.run()
        times = [e.time for e in r.epochs]
        assert times == sorted(times)
        assert all(b - a >= CFG.epoch_cycles * 0.99 for a, b in zip(times, times[1:]))


class TestLatencyWiring:
    def test_cpi_reflects_bank_distance(self):
        """Two single-core runs, same workload: one served by its Local
        bank, one forced to the far Local bank — CPI must rise with hops."""
        from repro.cache.partition_map import BankAllocation, CorePartition, PartitionMap
        from repro.cpu.core import CoreTimer
        from repro.noc.contention import ContentionModel
        from repro.noc.latency import LatencyModel

        cfg = scaled_config(32)
        trace = generate_trace(get("crafty"), 8_000, cfg.l2.sets_per_bank, seed=3)
        lat = LatencyModel.from_config(cfg.l2, cfg.num_cores)
        results = {}
        for bank in (0, 7):  # own Local bank vs. the far one
            l2 = NucaL2(cfg.l2, cfg.num_cores, placement="dnuca")
            pmap = PartitionMap()
            all_ways = tuple(range(cfg.l2.bank_ways))
            pmap.add(CorePartition(0, (BankAllocation(bank, all_ways),)))
            used = {bank}
            for core in range(1, 8):
                free = next(b for b in range(16) if b not in used)
                used.add(free)
                pmap.add(CorePartition(core, (BankAllocation(free, all_ways),)))
            # give the leftover banks to core 7 so capacity is fully owned
            l2.apply_partition(pmap)
            timer = CoreTimer(0, cfg.core, nonmem_cpi=0.5, mlp=1.5)
            contention = ContentionModel(cfg.l2.num_banks)
            for gap, line in zip(trace.gaps.tolist(), trace.lines.tolist()):
                arrival = timer.advance_compute(gap)
                res = l2.access(0, line)
                delay = contention.bank_delay(res.bank, arrival)
                latency = lat.bank_latency(0, res.bank) + delay
                if not res.hit:
                    latency += cfg.memory.latency_cycles
                timer.complete_access(latency)
            results[bank] = timer.cpi
        assert results[7] > results[0] * 1.05


class TestEndToEndAccounting:
    def test_result_invariants_across_schemes(self):
        mix = Mix(("gzip", "vpr", "mcf", "crafty",
                   "galgel", "eon", "vortex", "swim"))
        for scheme in ("no-partitions", "equal-partitions", "bank-aware",
                       "unrestricted"):
            sys_ = build_system(
                mix, scheme, CFG, RunSettings(duration_cycles=400_000.0, seed=2)
            )
            r = sys_.run()
            assert r.scheme == scheme
            for c in r.cores:
                assert c.l2_misses <= c.l2_accesses
                assert c.cycles > 0 and c.instructions > 0
                assert 0.0 <= c.miss_rate <= 1.0
