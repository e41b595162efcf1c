"""Bit-manipulation helpers used by caches and profilers.

This module is a dependency leaf: it owns the line-size primitive so that
higher layers (``repro.config`` re-exports :data:`LINE_SIZE`) can depend on
it without creating import cycles.
"""

from __future__ import annotations

LINE_SIZE = 64  #: cache line size in bytes used throughout the paper.

LINE_SHIFT = LINE_SIZE.bit_length() - 1


def is_pow2(x: int) -> bool:
    """True for positive powers of two."""
    return x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Integer log2 of a power of two; raises for anything else."""
    if not is_pow2(x):
        # dependency-leaf math helper: ValueError on a non-power-of-two is
        # the stdlib domain-error convention (cf. math.log) and callers
        # catch ValueError
        raise ValueError(  # repro-lint: disable=ERR001
            f"{x} is not a positive power of two"
        )
    return x.bit_length() - 1


def line_address(byte_address: int) -> int:
    """Cache-line number of a byte address (64 B lines)."""
    return byte_address >> LINE_SHIFT


def hash_fold(value: int, bits: int) -> int:
    """Fold a line address into ``bits`` bits by XOR-ing 16-bit chunks.

    This models the partial-tag hash of the hardware MSA profiler: distinct
    lines can alias once folded, which is exactly the error source the paper
    quantifies for its 12-bit partial tags.
    """
    if bits <= 0:
        raise ValueError("need a positive tag width")
    mask = (1 << bits) - 1
    folded = 0
    v = value
    while v:
        folded ^= v & 0xFFFF
        v >>= 16
    # final squeeze from 16 bits down to the requested width
    out = 0
    while folded:
        out ^= folded & mask
        folded >>= bits
    return out & mask
