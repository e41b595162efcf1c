"""The sweep fabric: the one fan-out every sweep runs through.

:class:`Supervisor` fans pure work items out over processes (or runs them
in-process when ``jobs=1``) and yields results in submission order.  It
fails fast: the first failing item aborts the sweep as a typed
:class:`~repro.errors.PoisonItemError`, and a checkpointed sweep recovers
with ``--resume`` — bit-identically, because every item is pure.
"""

from repro.fabric.supervisor import Supervisor, resolve_jobs

__all__ = ["Supervisor", "resolve_jobs"]
