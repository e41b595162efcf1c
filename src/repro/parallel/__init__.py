"""Sweep speed-ups that never change results: profile caching.

* :mod:`~repro.parallel.profile_cache` memoizes the 26-workload MSA
  profiling pass on disk, keyed by everything that determines a curve.

Process fan-out itself lives in :class:`repro.fabric.Supervisor`, the one
order-preserving executor every sweep uses.
"""

from repro.parallel.profile_cache import ProfileCache, default_cache_dir

__all__ = [
    "ProfileCache",
    "default_cache_dir",
]
