"""Supervised, order-preserving fan-out of pure work items.

The :class:`Supervisor` is the one way work leaves the driver process:
the Monte Carlo runner, the detailed sweeps and ``compare`` all hand
their items to :meth:`Supervisor.map_ordered`.  Three properties hold for
every caller:

1. **Serial is the default.**  ``jobs=1`` runs items in the caller's
   process, in order, with no pickling — numerically identical to a plain
   loop.
2. **Results come back in submission order.**  Completions arriving out
   of order are buffered until the contiguous prefix is ready, so
   :class:`~repro.resilience.checkpoint.SweepCheckpoint` contiguous-prefix
   semantics — and therefore bit-identical kill/resume — hold for every
   ``jobs`` value.  A bounded submission window (``4 * jobs``) keeps
   memory flat on thousand-item sweeps.
3. **Workers are pure.**  An item's result is a function of the item and
   the immutable initializer payload; supervision adds no randomness to
   *what* is computed.

Around that core sits the supervision contract, configured by a
:class:`SupervisorPolicy` (the plain sweeps use :data:`SINGLE_ATTEMPT`):

* **bounded retries** — an item whose worker raises is retried up to
  ``max_attempts`` starts, with *seeded deterministic backoff*: the delay
  for (item, attempt) is drawn from ``rng_stream(seed, "backoff", index,
  attempt)``, so a replayed chaos run waits the same milliseconds;
* **wall deadlines** — every start is stamped with
  :func:`~repro.telemetry.timing.wall_clock` (the one sanctioned host
  clock); an item running past ``timeout_s`` has its pool killed — a
  ``ProcessPoolExecutor`` cannot cancel a *running* future, so the only
  honest preemption is process termination — and is resubmitted;
* **a graceful-degradation ladder** mirroring the decision guard's:
  ``pool → fresh-pool → serial``.  A broken pool (worker killed hard) or
  a deadline expiry advances one rung; in-flight items are requeued, and
  the final rung runs in-process where nothing short of killing the
  parent can interrupt it;
* **poison quarantine** — an item that exhausts its attempts is recorded
  in the :class:`~repro.fabric.deadletter.DeadLetterLedger` and either
  aborts the sweep with :class:`~repro.errors.PoisonItemError` chained to
  the worker's exception (``on_poison="raise"``, the default: a
  checkpointed sweep must stay a contiguous prefix) or yields the
  :data:`QUARANTINED` sentinel in its slot (``on_poison="skip"``).

With a tracer attached, every yielded item emits one ``sweep_item`` event
(its wall time) and every supervision action one ``supervisor`` event.
Both are advisory — dropped from the canonical projection — because they
describe *how* the sweep ran, never *what* it computed; the actions are
also tallied for the run-store manifest via :meth:`Supervisor.summary`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, PoisonItemError
from repro.fabric.deadletter import DeadLetterLedger
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.timing import wall_clock
from repro.telemetry.tracer import Tracer
from repro.util.rng import rng_stream

#: the degradation ladder, least to most degraded.
RUNGS = ("pool", "fresh-pool", "serial")

#: submission-window multiple: at most this many items per worker are
#: in flight or buffered at once.
WINDOW_PER_JOB = 4

#: yielded in a quarantined item's slot under ``on_poison="skip"`` so the
#: consumer keeps positional alignment with the submitted items.
QUARANTINED = type("_Quarantined", (), {
    "__repr__": lambda self: "<quarantined>", "__slots__": (),
})()

#: patchable sleep used for retry backoff (tests stub it out).
_sleep = time.sleep


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count from an explicit ``--jobs`` value or ``REPRO_JOBS``.

    ``None`` consults the environment and defaults to 1 (serial); ``0``
    means one worker per available CPU.  Anything negative is refused.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SupervisorPolicy:
    """The supervision contract applied to every work item."""

    #: total permitted starts per item (1 = no retries).
    max_attempts: int = 3
    #: wall-clock deadline per start, seconds (None = no deadline; the
    #: serial rung cannot preempt and ignores it).
    timeout_s: float | None = None
    #: first retry delay; doubles per attempt, capped at ``backoff_max_s``.
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: seed of the deterministic backoff jitter stream.
    seed: int = 0
    #: 'raise' aborts the sweep on a poison item (checkpoint-safe);
    #: 'skip' yields QUARANTINED in its slot and continues.
    on_poison: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.on_poison not in ("raise", "skip"):
            raise ConfigError(
                f"on_poison must be 'raise' or 'skip', got {self.on_poison!r}"
            )

    def backoff_s(self, index: int, attempt: int) -> float:
        """Deterministic delay before retry ``attempt`` of item ``index``.

        Exponential in the attempt number with seeded jitter in
        [0.5x, 1.5x), so colliding retries spread out but a replay waits
        identically.
        """
        scale = min(
            self.backoff_base_s * (2 ** max(0, attempt - 1)),
            self.backoff_max_s,
        )
        jitter = rng_stream(self.seed, "backoff", index, attempt).uniform(
            0.5, 1.5
        )
        return float(scale * jitter)


#: the plain sweep contract: one attempt, no deadline — the first worker
#: exception aborts the sweep as a typed, item-naming PoisonItemError.
SINGLE_ATTEMPT = SupervisorPolicy(max_attempts=1)


class Supervisor:
    """Fault-bounded, order-preserving fan-out of pure work items.

    Parameters
    ----------
    jobs:
        Worker processes (see :func:`resolve_jobs`); 1 = in-process serial.
    policy:
        Retry/deadline/poison contract (default :class:`SupervisorPolicy`).
    initializer / initargs:
        Per-worker setup, the standard way to ship a large shared payload
        (e.g. the 26 miss curves) once per worker instead of once per
        item.  The serial rung calls it once in-process, so worker
        functions read the same module-level state either way.
    tracer / metrics:
        Optional telemetry sinks for the advisory ``sweep_item`` and
        ``supervisor`` events and the ``supervisor.*`` counters.
    deadletter / sweep:
        Ledger that quarantined items are appended to, and the sweep name
        recorded with them.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        policy: SupervisorPolicy | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        deadletter: DeadLetterLedger | None = None,
        sweep: str = "",
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.policy = policy or SupervisorPolicy()
        self._initializer = initializer
        self._initargs = initargs
        self.tracer = tracer
        self.metrics = metrics
        self.deadletter = deadletter
        self.sweep = sweep
        #: every supervision action taken, in order (manifest material).
        self.events: list[dict] = []
        self.quarantined_indices: list[int] = []
        self.total_attempts = 0
        #: per-rung item completion latencies (wall seconds, start to
        #: result) — merged into one envelope by :meth:`summary`.
        self._item_wall: dict[str, Histogram] = {}
        self._rung = 0 if self.jobs > 1 else len(RUNGS) - 1
        self._pool: ProcessPoolExecutor | None = None
        self._serial_initialized = False

    # -- observability -------------------------------------------------------

    @property
    def rung(self) -> str:
        """Current degradation-ladder rung name."""
        return RUNGS[self._rung]

    def _emit(
        self,
        kind: str,
        *,
        index: int,
        attempt: int,
        label: str | None = None,
        detail: str | None = None,
    ) -> None:
        """Record one supervision action everywhere it is observable: the
        in-memory action log (-> run-store manifest), the advisory
        telemetry stream, and the metrics registry."""
        record: dict = {"kind": kind, "index": index, "attempt": attempt}
        if label is not None:
            record["label"] = label
        record["rung"] = self.rung
        if detail is not None:
            record["detail"] = detail
        self.events.append(record)
        if self.tracer is not None:
            self.tracer.emit("supervisor", **record)
        if self.metrics is not None:
            self.metrics.counter(f"supervisor.{kind}").inc()

    def _observe_item_wall(self, wall_s: float) -> None:
        hist = self._item_wall.get(self.rung)
        if hist is None:
            hist = self._item_wall[self.rung] = Histogram(
                f"item_wall.{self.rung}"
            )
        hist.observe(wall_s)

    def summary(self) -> dict:
        """Manifest-ready digest: action counts, final rung, casualties,
        and the item-latency envelope (per-rung histograms folded into one
        with :meth:`~repro.telemetry.metrics.Histogram.merge`)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        merged = Histogram("item_wall")
        for rung in RUNGS:
            hist = self._item_wall.get(rung)
            if hist is not None:
                merged.merge(hist)
        return {
            "actions": counts,
            "rung": self.rung,
            "total_attempts": self.total_attempts,
            "quarantined": sorted(self.quarantined_indices),
            "item_wall": merged.summary(),
            "item_wall_by_rung": {
                rung: hist.summary()
                for rung, hist in sorted(self._item_wall.items())
            },
        }

    # -- pool lifecycle ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Terminate the pool's workers: the only way to preempt a running
        future, and the fate of a pool whose worker already died hard."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass  # already dead / closed — exactly what we wanted
        pool.shutdown(wait=False, cancel_futures=True)

    def _degrade(self, reason: str, *, index: int, attempt: int) -> None:
        self._kill_pool()
        if self._rung < len(RUNGS) - 1:
            self._rung += 1
        self._emit(
            "degrade", index=index, attempt=attempt,
            detail=f"{reason}; continuing on rung {self.rung!r}",
        )

    # -- quarantine / retry shared paths ------------------------------------

    def _quarantine(
        self,
        index: int,
        label: str,
        attempts: int,
        error: str,
        cause: BaseException | None = None,
    ) -> None:
        """Give up on one item: ledger, event, then raise or mark skipped."""
        if self.deadletter is not None:
            self.deadletter.record(
                index=index, label=label, attempts=attempts,
                error=error, sweep=self.sweep,
            )
        self._emit(
            "quarantine", index=index, attempt=attempts, label=label,
            detail=error,
        )
        self.quarantined_indices.append(index)
        if self.policy.on_poison == "raise":
            raise PoisonItemError(
                f"work item #{index} ({label}) failed after {attempts} "
                f"attempt(s): {error}",
                index=index, label=label, attempts=attempts,
            ) from cause

    def _retry(self, index: int, label: str, attempt: int, error: str) -> None:
        self._emit(
            "retry", index=index, attempt=attempt, label=label, detail=error
        )
        delay = self.policy.backoff_s(index, attempt)
        if delay > 0:
            _sleep(delay)

    # -- the supervised map --------------------------------------------------

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        labels: Sequence[str] | None = None,
    ) -> Iterator[Any]:
        """Apply ``fn`` to every item under supervision, yielding results
        in item order (:data:`QUARANTINED` fills a skipped item's slot).

        ``labels`` (aligned with ``items``) names the items in events,
        errors and the dead-letter ledger; it defaults to the item index.
        Abandoning the generator or an exception kills the pool, so no
        queued item runs after the sweep is over.
        """
        work: Sequence[Any] = list(items)
        if labels is not None and len(labels) != len(work):
            raise ConfigError(f"{len(labels)} labels for {len(work)} items")
        if len(work) <= 1 and self._rung == 0:
            self._rung = len(RUNGS) - 1  # nothing to fan out
        try:
            yield from self._drive(fn, work, labels)
        finally:
            self._kill_pool()

    def _label(self, labels: Sequence[str] | None, index: int) -> str:
        return labels[index] if labels else str(index)

    def _drive(
        self,
        fn: Callable[[Any], Any],
        work: Sequence[Any],
        labels: Sequence[str] | None,
    ) -> Iterator[Any]:
        total = len(work)
        window = self.jobs * WINDOW_PER_JOB
        attempts = [0] * total  # starts, including the first
        queue: deque[int] = deque(range(total))
        pending: dict[int, tuple[Any, float]] = {}  # index -> (future, t0)
        ready: dict[int, tuple[Any, float]] = {}  # index -> (result, wall_s)
        skipped: set[int] = set()
        emitted = 0
        while emitted < total:
            while emitted < total and (emitted in ready or emitted in skipped):
                if emitted in ready:
                    result, wall_s = ready.pop(emitted)
                    if self.tracer is not None:
                        self.tracer.emit(
                            "sweep_item", index=emitted,
                            label=self._label(labels, emitted), wall_s=wall_s,
                        )
                    yield result
                else:
                    skipped.discard(emitted)
                    yield QUARANTINED
                emitted += 1
            if emitted >= total:
                return
            if self._rung == len(RUNGS) - 1:
                self._step_serial(fn, work, labels, attempts, queue,
                                  pending, ready, skipped)
            else:
                self._step_pool(fn, work, labels, attempts, queue,
                                pending, ready, skipped, window,
                                already_buffered=len(ready) + len(skipped))

    def _complete(self, ready, index: int, result: Any, t0: float) -> None:
        wall_s = wall_clock() - t0
        self._observe_item_wall(wall_s)
        ready[index] = (result, wall_s)

    # -- serial rung ---------------------------------------------------------

    def _step_serial(
        self, fn, work, labels, attempts, queue, pending, ready, skipped
    ) -> None:
        # in-flight items inherited from a killed pool come first
        for index in sorted(pending):
            queue.appendleft(index)
        pending.clear()
        if not self._serial_initialized:
            if self._initializer is not None:
                self._initializer(*self._initargs)
            self._serial_initialized = True
        index = min(queue)
        queue.remove(index)
        label = self._label(labels, index)
        while True:
            attempts[index] += 1
            self.total_attempts += 1
            t0 = wall_clock()
            try:
                result = fn(work[index])
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if attempts[index] >= self.policy.max_attempts:
                    # raises under on_poison='raise'
                    self._quarantine(index, label, attempts[index], error, exc)
                    skipped.add(index)
                    return
                self._retry(index, label, attempts[index], error)
                continue
            self._complete(ready, index, result, t0)
            return

    # -- pool rungs ----------------------------------------------------------

    def _submit(self, fn, work, attempts, pending, index) -> bool:
        """Start one item on the pool; False if the pool is broken."""
        attempts[index] += 1
        self.total_attempts += 1
        try:
            future = self._ensure_pool().submit(fn, work[index])
        except (BrokenProcessPool, RuntimeError):
            attempts[index] -= 1  # the start never happened
            self.total_attempts -= 1
            return False
        pending[index] = (future, wall_clock())
        return True

    def _requeue_pending(self, pending, queue, attempts) -> None:
        """Push every in-flight item back onto the queue (lowest first) —
        the pool they were running on is gone."""
        for index in sorted(pending, reverse=True):
            self._emit(
                "requeue", index=index, attempt=attempts[index],
                detail="pool lost while item was in flight",
            )
            queue.appendleft(index)
        pending.clear()

    def _step_pool(
        self, fn, work, labels, attempts, queue, pending, ready, skipped,
        window, *, already_buffered,
    ) -> None:
        # fill the submission window
        while queue and len(pending) + already_buffered < window:
            index = queue.popleft()
            if not self._submit(fn, work, attempts, pending, index):
                queue.appendleft(index)
                self._degrade(
                    "pool rejected new work",
                    index=index, attempt=attempts[index],
                )
                self._requeue_pending(pending, queue, attempts)
                return
        if not pending:
            return
        timeout = None
        if self.policy.timeout_s is not None:
            oldest = min(t0 for _f, t0 in pending.values())
            timeout = max(
                0.0, oldest + self.policy.timeout_s - wall_clock()
            ) + 0.02
        wait(
            [f for f, _t0 in pending.values()],
            timeout=timeout, return_when=FIRST_COMPLETED,
        )
        for index in [i for i, (f, _t0) in pending.items() if f.done()]:
            future, t0 = pending.pop(index)
            label = self._label(labels, index)
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                # a worker died hard (kill -9 / os._exit): the whole pool
                # is unusable and *every* in-flight item is collateral
                self._degrade(
                    f"worker process died: {exc}",
                    index=index, attempt=attempts[index],
                )
                queue.appendleft(index)
                self._requeue_pending(pending, queue, attempts)
                return
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if attempts[index] >= self.policy.max_attempts:
                    # raises under on_poison='raise'
                    self._quarantine(
                        index, label, attempts[index], error, exc
                    )
                    skipped.add(index)
                else:
                    self._retry(index, label, attempts[index], error)
                    queue.appendleft(index)
                continue
            self._complete(ready, index, result, t0)
        # deadline sweep: anything still pending past its budget
        if self.policy.timeout_s is None or not pending:
            return
        now = wall_clock()
        expired = [
            i for i, (_f, t0) in pending.items()
            if now - t0 > self.policy.timeout_s
        ]
        if not expired:
            return
        blame = min(expired)
        self._emit(
            "timeout", index=blame, attempt=attempts[blame],
            label=self._label(labels, blame),
            detail=f"no result after {self.policy.timeout_s:g}s; "
            "killing the pool",
        )
        self._degrade(
            "deadline expired", index=blame, attempt=attempts[blame]
        )
        for index in sorted(pending, reverse=True):
            queue.appendleft(index)
        pending.clear()
        exhausted = [
            i for i in expired if attempts[i] >= self.policy.max_attempts
        ]
        for index in exhausted:
            label = self._label(labels, index)
            queue.remove(index)
            # raises under on_poison='raise'
            self._quarantine(
                index, label, attempts[index],
                f"timed out after {self.policy.timeout_s:g}s on every attempt",
            )
            skipped.add(index)
