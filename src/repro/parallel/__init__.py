"""Sweep speed-ups that never change results: profile caching and the
perf-tracking bench.

* :mod:`~repro.parallel.profile_cache` memoizes the 26-workload MSA
  profiling pass on disk, keyed by everything that determines a curve;
* :mod:`~repro.parallel.bench` is the ``repro bench`` perf-tracking suite
  (imported directly by the CLI, not re-exported here).

Process fan-out itself lives in :class:`repro.fabric.Supervisor`, the one
order-preserving executor every sweep uses.
"""

from repro.parallel.profile_cache import ProfileCache, default_cache_dir

__all__ = [
    "ProfileCache",
    "default_cache_dir",
]
