"""Vectorized MSA batch kernel == per-access reference, bit for bit.

The batched kernel (:mod:`repro.profiling.batched`) is only allowed to
exist because it is *checked* against the reference loop: these tests
assert exact equality of counters, mass and carried stack state on random
traces (hypothesis), across batch boundaries, interleaved with scalar
observes and epoch management, and for both sampled tag modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.batched import (
    MIN_BATCH,
    batch_eligible,
    batched_depth_bins,
    hash_fold_many,
)
from repro.profiling.msa import MSAProfiler
from repro.profiling.sampled import SampledMSAProfiler
from repro.util.bits import hash_fold
from repro.workloads.spec_like import get
from repro.workloads.synthetic import generate_trace


def assert_profiler_equal(vec, ref):
    """Counters, mass and per-set stacks must match exactly."""
    np.testing.assert_array_equal(vec._counters, ref._counters)
    assert vec._mass == ref._mass
    assert vec._stacks == ref._stacks


def spy_kernel(monkeypatch, profiler):
    """Record the size of every batch ``profiler`` sends to the kernel."""
    sizes = []
    kernel = profiler._observe_batch

    def spy(first, *rest):
        sizes.append(len(first))
        return kernel(first, *rest)

    monkeypatch.setattr(profiler, "_observe_batch", spy)
    return sizes


# ---------------------------------------------------------------------------
# hypothesis property: batch path == reference on random traces
# ---------------------------------------------------------------------------

traces = st.lists(st.integers(min_value=0, max_value=255), max_size=400)


class TestPropertyEquivalence:
    @given(trace=traces, num_sets=st.sampled_from([1, 2, 8]),
           positions=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_exact_profiler_matches_reference(self, trace, num_sets, positions):
        lines = np.array(trace, dtype=np.int64)
        vec = MSAProfiler(num_sets, positions)
        ref = MSAProfiler(num_sets, positions)
        if lines.size:
            vec._observe_batch(lines)  # bypass MIN_BATCH dispatch
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    @given(trace=traces, split=st.integers(min_value=0, max_value=400))
    @settings(max_examples=100, deadline=None)
    def test_state_continuation_across_batches(self, trace, split):
        """Two consecutive batches == one batch == the reference: the
        prologue/stack-rebuild state handoff composes exactly."""
        lines = np.array(trace, dtype=np.int64)
        split = min(split, lines.size)
        vec = MSAProfiler(4, 5)
        ref = MSAProfiler(4, 5)
        for part in (lines[:split], lines[split:]):
            if part.size:
                vec._observe_batch(part)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    @given(trace=traces, tag_mode=st.sampled_from(["truncate", "fold"]))
    @settings(max_examples=100, deadline=None)
    def test_sampled_profiler_matches_reference(self, trace, tag_mode):
        lines = np.array(trace, dtype=np.int64)
        kwargs = dict(set_sampling=2, partial_tag_bits=3, tag_mode=tag_mode)
        vec = SampledMSAProfiler(4, 5, **kwargs)
        ref = SampledMSAProfiler(4, 5, **kwargs)
        if lines.size:
            vec._observe_batch(*vec._sampled(lines))
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)
        assert vec.observed == ref.observed

    @given(values=st.lists(st.integers(min_value=0, max_value=2**40),
                           min_size=1, max_size=50),
           bits=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_hash_fold_many_matches_scalar(self, values, bits):
        arr = np.array(values, dtype=np.int64)
        expect = [hash_fold(int(v), bits) for v in values]
        assert hash_fold_many(arr, bits).tolist() == expect


# ---------------------------------------------------------------------------
# the real dispatch path on realistic traces
# ---------------------------------------------------------------------------


class TestDispatchEquivalence:
    def _trace(self, name="bzip2", accesses=6_000, num_sets=64, seed=5):
        return generate_trace(get(name), accesses, num_sets, seed=seed).lines

    def test_observe_many_uses_batch_and_matches(self):
        lines = self._trace()
        assert batch_eligible(lines)
        vec = MSAProfiler(64, 16)
        ref = MSAProfiler(64, 16)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)

    def test_interleaved_scalar_and_batch(self):
        """Scalar observes, reset() and decay() between batches all see the
        same stack state the reference would carry."""
        lines = self._trace(accesses=4_000)
        vec = MSAProfiler(64, 16)
        ref = MSAProfiler(64, 16)
        for p in (vec, ref):
            p.observe_many(lines[:2_000]) if p is vec else \
                p.observe_many_reference(lines[:2_000])
            p.reset()
            for line in lines[2_000:2_010]:
                p.observe(int(line))
            p.decay(0.5)
        vec.observe_many(lines[2_010:])
        ref.observe_many_reference(lines[2_010:])
        assert_profiler_equal(vec, ref)

    @pytest.mark.parametrize("tag_mode", ["truncate", "fold"])
    def test_sampled_dispatch_matches(self, tag_mode):
        lines = self._trace(name="mcf", accesses=8_000)
        kwargs = dict(set_sampling=4, partial_tag_bits=8, tag_mode=tag_mode)
        vec = SampledMSAProfiler(64, 16, **kwargs)
        ref = SampledMSAProfiler(64, 16, **kwargs)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert_profiler_equal(vec, ref)
        assert vec.observed == ref.observed

    def test_histogram_mass_conserved(self):
        lines = self._trace(accesses=5_000)
        p = MSAProfiler(64, 16)
        p.observe_many(lines)
        assert p.total_accesses == p.expected_mass == 5_000


# ---------------------------------------------------------------------------
# exact counting once the counters are decayed
# ---------------------------------------------------------------------------


def exact_profiler():
    return MSAProfiler(256, 72)


def sampled_profiler():
    return SampledMSAProfiler(256, 72, set_sampling=2, partial_tag_bits=12)


PROFILERS = pytest.mark.parametrize(
    "make", [exact_profiler, sampled_profiler], ids=["exact", "sampled"]
)


class TestDecayedCounting:
    """The kernel adds one observation at a time, as the reference loop
    does: decayed float64 counters carry long mantissas, and there one
    rounded ``+= k`` can differ from ``k`` rounded ``+= 1.0`` steps."""

    @PROFILERS
    def test_rounding_tie(self, make, monkeypatch):
        # (2**52 - 0.5) + 1.0 rounds half-to-even down to 2**52, and unit
        # steps are exact from there; one (2**52 - 0.5) + n with n even
        # rounds half-to-even up to 2**52 + n instead
        n = MIN_BATCH + MIN_BATCH % 2
        lines = np.arange(n, dtype=np.int64) * 256  # set 0, all cold misses
        vec, ref = make(), make()
        for p in (vec, ref):
            p._counters[-1] = p._mass = 2.0**52 - 0.5
        sizes = spy_kernel(monkeypatch, vec)
        vec.observe_many(lines)
        ref.observe_many_reference(lines)
        assert sizes == [n]
        assert vec._counters[-1] == vec._mass == 2.0**52 + n - 1
        assert_profiler_equal(vec, ref)

    @PROFILERS
    def test_decayed_batches_match_reference(self, make, monkeypatch):
        """The epoch controller's ``decay(0.75)`` after every batch: with a
        ``bincount`` tally the kernel's counters left the reference's at
        batch 37 (sampled) or 41 (exact) of this trace."""
        batch = 2_600
        lines = generate_trace(get("mcf"), 120_000, 256, seed=5).lines
        vec, ref = make(), make()
        sizes = spy_kernel(monkeypatch, vec)
        for start in range(0, 42 * batch, batch):
            vec.observe_many(lines[start:start + batch])
            ref.observe_many_reference(lines[start:start + batch])
            assert_profiler_equal(vec, ref)
            vec.decay(0.75)
            ref.decay(0.75)
        assert len(sizes) == 42  # every batch took the kernel


# ---------------------------------------------------------------------------
# the sampled profiler's dispatch on its sampled count
# ---------------------------------------------------------------------------


class TestSampledDispatch:
    """``observe_many`` picks the sampled lines out first and runs the
    kernel only on ``MIN_BATCH`` or more of them; fewer take the
    per-reference stack step.  Both must equal the reference loop."""

    @pytest.fixture(scope="class")
    def mcf_lines(self):
        return generate_trace(get("mcf"), 12_000, 64, seed=9).lines

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("tag_mode", ["truncate", "fold"])
    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [MIN_BATCH - 1, MIN_BATCH])
    def test_matches_reference(self, mcf_lines, count, offset, tag_mode,
                               dtype, monkeypatch):
        kwargs = dict(set_sampling=4, partial_tag_bits=6,
                      sample_offset=offset, tag_mode=tag_mode)
        vec = SampledMSAProfiler(64, 16, **kwargs)
        ref = SampledMSAProfiler(64, 16, **kwargs)
        lines = mcf_lines.astype(dtype)
        sampled = np.flatnonzero((lines & 3) == offset)
        warm = lines[:sampled[99] + 1]  # 100 sampled: carried-in stacks
        rest = lines[warm.size:]
        cut = np.flatnonzero((rest & 3) == offset)[count - 1] + 1
        for p in (vec, ref):
            p.observe_many_reference(warm)
            p.decay(0.75)
        sizes = spy_kernel(monkeypatch, vec)
        vec.observe_many(rest[:cut])
        ref.observe_many_reference(rest[:cut])
        assert sizes == ([count] if count >= MIN_BATCH else [])
        assert_profiler_equal(vec, ref)
        assert vec.observed == ref.observed == 100 + count

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_empty_array_is_a_no_op(self, dtype):
        p = SampledMSAProfiler(64, 16, set_sampling=4)
        p.observe_many(np.empty(0, dtype=dtype))
        assert p.observed == 0 and p.expected_mass == 0.0
        assert not p._counters.any()


# ---------------------------------------------------------------------------
# batch_eligible gate
# ---------------------------------------------------------------------------


class TestBatchEligible:
    def test_small_arrays_fall_back(self):
        assert not batch_eligible(np.arange(MIN_BATCH - 1))
        assert batch_eligible(np.arange(MIN_BATCH))

    def test_non_arrays_fall_back(self):
        assert not batch_eligible(list(range(MIN_BATCH)))
        assert not batch_eligible(np.arange(MIN_BATCH, dtype=np.float64))
        assert not batch_eligible(np.arange(MIN_BATCH).reshape(2, -1))

    def test_negative_values_fall_back(self):
        a = np.arange(MIN_BATCH)
        a[7] = -1
        assert not batch_eligible(a)

    def test_uint64_beyond_int64_falls_back(self):
        a = np.arange(MIN_BATCH, dtype=np.uint64)
        assert batch_eligible(a)
        a[0] = np.iinfo(np.uint64).max
        assert not batch_eligible(a)

    def test_fallback_path_still_correct(self):
        """Lists (ineligible) go down the reference loop, same result."""
        lines = [int(x) for x in np.arange(MIN_BATCH) % 37]
        via_list = MSAProfiler(4, 8)
        via_list.observe_many(lines)
        via_array = MSAProfiler(4, 8)
        via_array.observe_many(np.array(lines, dtype=np.int64))
        assert_profiler_equal(via_array, via_list)


# ---------------------------------------------------------------------------
# kernel-level edges
# ---------------------------------------------------------------------------


class TestKernelEdges:
    def test_empty_batch(self):
        bins, stacks = batched_depth_bins(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            2, 4, [[1], []],
        )
        assert bins.size == 0
        assert stacks == [[1], []]

    def test_prologue_bins_discarded(self):
        """Carried-in stack lines do not contribute histogram mass."""
        stacks = [[3, 1], []]
        keys = np.array([1], dtype=np.int64)  # hits at depth 2
        bins, new_stacks = batched_depth_bins(
            keys, np.zeros(1, dtype=np.int64), 2, 4, stacks
        )
        assert bins.tolist() == [1]
        assert new_stacks == [[1, 3], []]
        assert stacks == [[3, 1], []]  # input not mutated

    def test_stack_truncated_to_positions(self):
        keys = np.arange(10, dtype=np.int64)
        bins, stacks = batched_depth_bins(
            keys, np.zeros(10, dtype=np.int64), 1, 3, [[]]
        )
        assert bins.tolist() == [3] * 10  # all cold misses
        assert stacks == [[9, 8, 7]]
