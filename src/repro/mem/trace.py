"""Memory-access trace containers.

The simulator is trace-driven (the substitution for the paper's Simics/GEMS
full-system runs): each core replays a :class:`Trace`, a columnar record of
memory operations.  Traces are stored as NumPy arrays for compactness and so
the workload generators can build them vectorised.

Each access carries:

* ``address`` — byte address (``uint64``),
* ``is_write`` — store vs. load,
* ``gap`` — number of non-memory instructions retired since the previous
  memory access (drives the analytic core timing model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.bits import LINE_SHIFT

from repro.errors import ConfigError


@dataclass(frozen=True)
class Trace:
    """An immutable columnar memory trace for one core."""

    addresses: np.ndarray  #: uint64 byte addresses
    is_write: np.ndarray  #: bool
    gaps: np.ndarray  #: uint32 non-memory instructions before each access

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if len(self.is_write) != n or len(self.gaps) != n:
            raise ConfigError("trace columns must have equal length")
        if self.addresses.dtype != np.uint64:
            object.__setattr__(self, "addresses", self.addresses.astype(np.uint64))
        if self.is_write.dtype != np.bool_:
            object.__setattr__(self, "is_write", self.is_write.astype(np.bool_))
        if self.gaps.dtype != np.uint32:
            object.__setattr__(self, "gaps", self.gaps.astype(np.uint32))

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def lines(self) -> np.ndarray:
        """Cache-line numbers of every access (vectorised)."""
        return self.addresses >> np.uint64(LINE_SHIFT)

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.is_write, other.is_write]),
            np.concatenate([self.gaps, other.gaps]),
        )

    def footprint_lines(self) -> int:
        """Number of distinct cache lines the trace touches."""
        return len(np.unique(self.lines))

    @staticmethod
    def from_records(records: list[tuple[int, bool, int]]) -> "Trace":
        """Build a trace from ``(address, is_write, gap)`` tuples."""
        if records:
            addrs, writes, gaps = zip(*records)
        else:
            addrs, writes, gaps = (), (), ()
        return Trace(
            np.asarray(addrs, dtype=np.uint64),
            np.asarray(writes, dtype=np.bool_),
            np.asarray(gaps, dtype=np.uint32),
        )
