"""Wall-clock reads for trace timing.

This is the *only* module of the emitting side allowed to touch the host
clock (scoped via ``det002-allow`` in ``[tool.repro-lint]``).  Everything
else consumes either simulated cycles or the opaque floats returned here,
and every field derived from them sits in an advisory event type
(:data:`repro.obs.events.ADVISORY_EVENTS`).
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic wall-clock seconds (host ``perf_counter``)."""
    return time.perf_counter()
