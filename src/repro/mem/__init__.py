"""Columnar memory-access traces."""

from repro.mem.trace import Trace

__all__ = ["Trace"]
