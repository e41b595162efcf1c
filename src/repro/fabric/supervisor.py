"""Fail-fast, order-preserving fan-out of pure work items.

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
   the immutable initializer payload, so re-running an item can only
   reproduce it.

Failure is therefore fail-fast: the first worker exception, or a worker
process dying hard (which breaks the whole pool), kills the pool and
surfaces as one :class:`~repro.errors.PoisonItemError` naming the item,
with the cause chained.  Nothing is re-executed automatically; a
checkpointed sweep recovers with ``--resume``, which recomputes only the
lost tail and reproduces the uninterrupted run bit for bit.

With a tracer attached, every yielded item emits one ``sweep_item`` event
(its wall time).  It is advisory — dropped from the canonical projection —
because it describes *how* the sweep was scheduled, never *what* it
computed.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.errors import ConfigError, PoisonItemError
from repro.obs.timing import wall_clock
from repro.obs.tracer import Tracer

#: submission-window multiple: at most this many items per worker are
#: in flight or buffered at once.
WINDOW_PER_JOB = 4


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


def _poison(index: int, label: str, exc: Exception) -> PoisonItemError:
    """The typed, item-naming error a failed item aborts the sweep with."""
    if isinstance(exc, BrokenProcessPool):
        error = f"worker process died ({exc})"
    else:
        error = f"{type(exc).__name__}: {exc}"
    return PoisonItemError(
        f"work item #{index} ({label}) failed: {error}",
        index=index, label=label,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate the pool's workers: a running future cannot be
    cancelled, so this is the only way to stop queued and in-flight items
    once the sweep is over."""
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass  # already dead / closed — exactly what we wanted
    pool.shutdown(wait=False, cancel_futures=True)


class Supervisor:
    """Fail-fast, order-preserving fan-out of pure work items.

    Parameters
    ----------
    jobs:
        Worker processes (see :func:`resolve_jobs`); 1 = in-process serial.
    initializer / initargs:
        Per-worker setup, the standard way to ship a large shared payload
        (e.g. the 26 miss curves) once per worker instead of once per
        item.  The serial path calls it once in-process, so worker
        functions read the same module-level state either way.
    tracer:
        Optional sink for the advisory ``sweep_item`` events.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
        tracer: Tracer | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self._initializer = initializer
        self._initargs = initargs
        self.tracer = tracer

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        labels: Sequence[str] | None = None,
    ) -> Iterator[Any]:
        """Apply ``fn`` to every item, yielding results in item order.

        ``labels`` (aligned with ``items``) names the items in events and
        errors; it defaults to the item index.  The first failing item
        raises :class:`~repro.errors.PoisonItemError`.  An exception or an
        abandoned generator kills the pool, so no queued item runs after
        the sweep is over.
        """
        work: Sequence[Any] = list(items)
        if labels is not None and len(labels) != len(work):
            raise ConfigError(f"{len(labels)} labels for {len(work)} items")
        names = list(labels) if labels else [str(i) for i in range(len(work))]
        if not work:
            return
        if self.jobs == 1 or len(work) == 1:
            yield from self._serial(fn, work, names)
        else:
            yield from self._pool(fn, work, names)

    def _trace_item(self, index: int, label: str, wall_s: float) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "sweep_item", index=index, label=label, wall_s=wall_s
            )

    def _serial(
        self, fn: Callable[[Any], Any], work: Sequence[Any], labels: list[str]
    ) -> Iterator[Any]:
        if self._initializer is not None:
            self._initializer(*self._initargs)
        for index, item in enumerate(work):
            t0 = wall_clock()
            try:
                result = fn(item)
            except Exception as exc:
                raise _poison(index, labels[index], exc) from exc
            self._trace_item(index, labels[index], wall_clock() - t0)
            yield result

    def _pool(
        self, fn: Callable[[Any], Any], work: Sequence[Any], labels: list[str]
    ) -> Iterator[Any]:
        total = len(work)
        window = self.jobs * WINDOW_PER_JOB
        pending: dict[Future, tuple[int, float]] = {}  # future -> (index, t0)
        ready: dict[int, tuple[Any, float]] = {}  # index -> (result, wall_s)
        submitted = emitted = 0
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=self._initializer,
            initargs=self._initargs,
        )
        try:
            while emitted < total:
                while submitted < total and len(pending) + len(ready) < window:
                    try:
                        future = pool.submit(fn, work[submitted])
                    except BrokenProcessPool as exc:
                        if not pending:
                            raise _poison(
                                submitted, labels[submitted], exc
                            ) from exc
                        break  # an in-flight item's future names the death
                    pending[future] = (submitted, wall_clock())
                    submitted += 1
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # submission order, so the lowest failing index is named
                for future in [f for f in pending if f in done]:
                    index, t0 = pending.pop(future)
                    try:
                        ready[index] = (future.result(), wall_clock() - t0)
                    except Exception as exc:
                        raise _poison(index, labels[index], exc) from exc
                while emitted in ready:
                    result, wall_s = ready.pop(emitted)
                    self._trace_item(emitted, labels[emitted], wall_s)
                    yield result
                    emitted += 1
        finally:
            _kill_pool(pool)
