"""Wall-clock reads for telemetry timing.

This is the *only* module in the telemetry/parallel tree allowed to touch
the host clock (scoped via ``det002-allow`` in ``[tool.repro-lint]``).
Everything else consumes either
simulated cycles or the opaque floats returned here, and the schema marks
every field derived from them ``deterministic=False``.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic wall-clock seconds (host ``perf_counter``)."""
    return time.perf_counter()
