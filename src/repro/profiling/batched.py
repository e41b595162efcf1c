"""Vectorized multi-set LRU stack-distance computation (the MSA hot path).

The reference profilers (:class:`repro.profiling.msa.MSAProfiler` and the
sampled variant) pay an O(K) ``list.index`` scan per access; at the paper's
K = 128 that dominates every analytic experiment.  This module computes the
same histogram for a whole batch of accesses with numpy array passes only,
using the classic window identity for LRU stack depth:

    depth(i) = 1 + #{ j in (prev_i, i) : prev_j <= prev_i }

where ``prev_i`` is the previous access to the same line (``-1`` if none).
Every line's *first* occurrence inside the window ``(prev_i, i)`` is one
distinct intervening line, i.e. one stack position between line ``i`` and
the top — so counting first occurrences counts the depth.  Accesses with
``prev_i = -1`` and accesses whose count reaches K are misses.  Truncating
the reference stacks at K positions changes nothing: a line that fell off a
K-deep stack would observe depth > K and miss either way, so the
untruncated window count projects the identical histogram.

Counting is done column-by-column over the windows, longest-first: after
sorting queries by descending window length, column ``k`` touches exactly
the queries whose window still extends past ``k`` — one gather + compare
over a shrinking prefix, with no per-element masking.  Queries whose count
reaches K are dropped early (they are misses regardless of the remainder),
and the handful of giant windows left at the end are finished with direct
per-query slices.  Sort keys are narrowed to uint8/uint16 where value
ranges allow, because numpy's radix path on small unsigned dtypes is ~8x
faster than on int64 — the sorts are the fixed cost of the whole kernel.

State continuation: a batch may start from non-empty stacks.  The kernel
prepends a *prologue* — one synthetic access per resident line, LRU first —
which recreates the exact stack state from an empty start (stacks are the
profilers' only carried state), and discards the prologue's own bins.  The
post-batch stacks are rebuilt from each group's last line occurrences,
most recent first, truncated to K — exactly the reference's stack content.
"""

from __future__ import annotations

import numpy as np

#: below this many accesses the per-access Python loop beats the kernel's
#: fixed sort cost; callers use it as the batch-dispatch threshold.
MIN_BATCH = 1024

_CHUNK = 256  #: columns between early miss-pruning passes
_SMALL = 192  #: active-query count below which per-query slices win


def hash_fold_many(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`repro.util.bits.hash_fold` over non-negative ints."""
    if bits <= 0:
        raise ValueError("need a positive tag width")
    mask = (1 << bits) - 1
    v = values.copy()
    folded = np.zeros_like(v)
    while np.any(v):
        folded ^= v & 0xFFFF
        v >>= 16
    out = np.zeros_like(folded)
    while np.any(folded):
        out ^= folded & mask
        folded >>= bits
    return out & mask


def _group_sort_key(groups: np.ndarray, num_groups: int) -> np.ndarray:
    if num_groups <= 256:
        return groups.astype(np.uint8)
    if num_groups <= 65536:
        return groups.astype(np.uint16)
    return groups


def _window_counts(
    prev: np.ndarray, q: np.ndarray, lengths: np.ndarray, positions: int
) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence counts for the queries ``q`` (grouped coordinates).

    ``lengths[t]`` is the window length of query ``q[t]`` (all >= 1).
    Returns ``(queries, counts)`` in the kernel's processing order.
    """
    max_len = int(lengths.max())
    if max_len < 65536:
        order = np.argsort((max_len - lengths).astype(np.uint16), kind="stable")
    else:
        order = np.argsort(-lengths, kind="stable")
    qs = q[order].astype(np.int64)
    lens = lengths[order]
    starts = (prev[qs] + 1).astype(np.int64)
    thr = prev[qs]
    acc = np.zeros(qs.size, dtype=np.int32)
    # active[k] = number of queries whose window extends past column k
    active = qs.size - np.cumsum(np.bincount(lens, minlength=max_len + 1))
    col = 0
    while col < max_len:
        m = int(active[col])
        if m <= 0:
            break
        if m <= _SMALL:
            for t in range(m):
                lo = starts[t] + col
                hi = starts[t] + lens[t]
                acc[t] += np.count_nonzero(prev[lo:hi] <= thr[t])
            break
        stop = min(col + _CHUNK, max_len)
        for k in range(col, stop):
            m = int(active[k])
            if m <= 0:
                break
            acc[:m] += prev[starts[:m] + k] <= thr[:m]
        col = stop
        if col < max_len:
            m = int(active[col])
            if m > 0:
                dead = acc[:m] >= positions
                if dead.any():
                    # a pruned query misses whatever the remaining columns
                    # hold; the finished-by-length tail [m:] must survive
                    keep = np.concatenate(
                        (np.flatnonzero(~dead), np.arange(m, qs.size))
                    )
                    qs, lens, starts, thr, acc = (
                        arr[keep] for arr in (qs, lens, starts, thr, acc)
                    )
                    active = qs.size - np.cumsum(
                        np.bincount(lens, minlength=max_len + 1)
                    )
    return qs, acc


def batched_depth_bins(
    keys: np.ndarray,
    groups: np.ndarray,
    num_groups: int,
    positions: int,
    stacks: list[list[int]],
) -> tuple[np.ndarray, list[list[int]]]:
    """Histogram bins and updated stacks for one batch of accesses.

    Parameters
    ----------
    keys:
        int64 line identities.  Equal keys must imply equal group (callers
        with per-group key spaces compose the group id into the key).
    groups:
        int64 group (cache-set) index of each access, in ``[0, num_groups)``.
    positions:
        K, the deepest tracked stack position.
    stacks:
        Per-group resident keys, MRU -> LRU, each at most K long — the
        state carried in from previous observations (not mutated).

    Returns
    -------
    ``(bins, new_stacks)`` where ``bins[i]`` is the 0-based histogram bin of
    access ``i`` (depth-1 for hits, ``positions`` for misses) and
    ``new_stacks`` is the post-batch stack state.
    """
    prologue = sum(len(s) for s in stacks)
    if prologue:
        pro_keys = np.empty(prologue, dtype=np.int64)
        pro_groups = np.empty(prologue, dtype=np.int64)
        at = 0
        for g, stack in enumerate(stacks):
            for key in reversed(stack):  # LRU first recreates the order
                pro_keys[at] = key
                pro_groups[at] = g
                at += 1
        keys = np.concatenate((pro_keys, keys))
        groups = np.concatenate((pro_groups, groups))
    n = keys.size
    if n == 0:
        return np.empty(0, dtype=np.int64), [list(s) for s in stacks]

    order = np.argsort(_group_sort_key(groups, num_groups), kind="stable")
    gk = keys[order]
    by_key = np.argsort(gk, kind="stable")
    sk = gk[by_key]
    same = sk[1:] == sk[:-1]
    # prev[i] = grouped index of the previous access to the same key
    prev_by_key = np.full(n, -1, dtype=np.int64)
    prev_by_key[1:][same] = by_key[:-1][same]
    prev64 = np.empty(n, dtype=np.int64)
    prev64[by_key] = prev_by_key
    prev = prev64.astype(np.int32)

    bins_grouped = np.full(n, positions, dtype=np.int64)  # default: miss
    q = np.flatnonzero(prev >= 0)
    if q.size:
        lengths = q.astype(np.int32) - prev[q] - 1
        top = lengths == 0
        bins_grouped[q[top]] = 0  # immediate re-reference: depth 1
        q, lengths = q[~top], lengths[~top]
    if q.size:
        qs, counts = _window_counts(prev, q, lengths, positions)
        bins_grouped[qs] = np.minimum(counts, positions)

    # rebuild stacks: each group's last occurrences, most recent first
    is_last = np.empty(n, dtype=bool)
    last_by_key = np.empty(n, dtype=bool)
    last_by_key[-1] = True
    last_by_key[:-1] = ~same
    is_last[by_key] = last_by_key
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(groups, minlength=num_groups)))
    )
    new_stacks: list[list[int]] = []
    for g in range(num_groups):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        resident = np.flatnonzero(is_last[lo:hi])[::-1][:positions]
        new_stacks.append([int(k) for k in gk[lo + resident]])

    bins = np.empty(n, dtype=np.int64)
    bins[order] = bins_grouped
    return bins[prologue:], new_stacks


def add_observations(counters: np.ndarray, bins: np.ndarray, mass: float) -> float:
    """Count one observation per entry of ``bins`` into ``counters``, and
    return the mass ledger ``mass`` grown by as many, bit-identically to
    the per-access loop's ``+= 1`` steps.

    Both sums add 1.0 at a time, in order: once ``decay`` has given the
    float64 counters long mantissas, one rounded ``+= k`` (say, of a
    ``bincount``) can differ from ``k`` rounded unit steps in the last bit.
    """
    np.add.at(counters, bins, 1.0)
    steps = np.ones(bins.size + 1)
    steps[0] = mass
    return float(np.add.accumulate(steps)[-1])


def batch_eligible(lines: object, minimum: int = MIN_BATCH) -> bool:
    """Whether ``lines`` can take the batched path bit-identically.

    Requires a non-negative integer ndarray of at least ``minimum`` entries
    whose values fit int64 — anything else falls back to the per-access
    reference loop (which accepts arbitrary iterables of Python ints).
    """
    if not isinstance(lines, np.ndarray) or lines.ndim != 1:
        return False
    if lines.dtype.kind not in "iu" or lines.size < minimum:
        return False
    if lines.dtype == np.uint64 and int(lines.max()) > np.iinfo(np.int64).max:
        return False
    return int(lines.min()) >= 0
