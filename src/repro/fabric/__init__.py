"""The sweep fabric: the one supervised fan-out every sweep runs through.

:class:`Supervisor` fans pure work items out over processes (or runs them
in-process when ``jobs=1``) and yields results in submission order under
a *supervision contract* — bounded retries with seeded backoff, wall
deadlines, a pool → fresh-pool → serial degradation ladder, poison-item
quarantine into a dead-letter ledger.  :mod:`~repro.fabric.chaos` injects
worker crashes, kills, hangs and poison items on a seed to prove it.  The
design contract throughout: recovery explains *how* a run survived
(advisory telemetry, run-store manifest) and never changes *what* it
computed (canonical traces stay bit-identical).
"""

from repro.fabric.chaos import (
    ChaosAbort,
    ChaosPlan,
    ChaosWrapped,
    InjectedWorkerCrash,
    pick_labels,
    truncate_file,
)
from repro.fabric.deadletter import (
    DEFAULT_DEADLETTER,
    DeadLetterError,
    DeadLetterLedger,
)
from repro.fabric.supervisor import (
    QUARANTINED,
    RUNGS,
    SINGLE_ATTEMPT,
    Supervisor,
    SupervisorPolicy,
    resolve_jobs,
)

__all__ = [
    "DEFAULT_DEADLETTER",
    "ChaosAbort",
    "ChaosPlan",
    "ChaosWrapped",
    "DeadLetterError",
    "DeadLetterLedger",
    "InjectedWorkerCrash",
    "QUARANTINED",
    "RUNGS",
    "SINGLE_ATTEMPT",
    "Supervisor",
    "SupervisorPolicy",
    "pick_labels",
    "resolve_jobs",
    "truncate_file",
]
