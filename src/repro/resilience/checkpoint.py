"""Checkpoint/resume for long sweeps: atomic, integrity-checked JSON.

A 1000-mix Monte Carlo sweep or an 8-set detailed-simulation sweep is hours
of work that a kill -9, OOM or power cut should not erase.  The discipline
here is the standard production one:

* snapshots are **atomic and durable** — written to a temp file in the same
  directory, fsynced, ``os.replace``d over the target, and the containing
  directory is fsynced too, so a crash mid-write leaves either the old
  snapshot or the new one (never a torn file) and a crash right *after* the
  rename cannot roll it back;
* snapshots are **integrity-checked** — a SHA-256 checksum over the
  canonical payload is verified on load, and any parse/schema/checksum
  failure raises :class:`~repro.errors.CheckpointCorrupt` rather
  than silently resuming from garbage;
* snapshots are **keyed by their parameters** — the sweep's defining
  metadata (seed, machine shape, ...) is stored alongside the results, and
  resuming with different parameters is refused, because it would splice
  statistics from two different experiments;
* snapshots keep **one generation of history** — before a snapshot is
  replaced, the previous (verified-at-write-time) one is preserved as a
  ``.bak`` sibling, and :func:`load_checkpoint` falls back to it when the
  primary fails integrity checks.  Atomic replacement already rules out
  torn writes by *this* code; the backup covers everything it cannot —
  filesystem corruption, truncation by other tools, hand edits — at the
  cost of re-running at most one checkpoint interval.

Resumability relies on the sweeps being *prefix-deterministic*: the i-th
work item depends only on the seed (``random_mixes`` draws sequentially), so
completed items can be restored verbatim and the remainder recomputed
bit-identically.
"""

from __future__ import annotations

import hashlib
import json

from repro.errors import CheckpointCorrupt, CheckpointMismatchError, ConfigError
from repro.util.atomic_write import atomic_write_bytes, atomic_write_text

FORMAT = "repro-sweep-checkpoint"
VERSION = 1

#: suffix of the one-generation backup kept beside every snapshot.
BACKUP_SUFFIX = ".bak"


def backup_path(path: str) -> str:
    """The ``.bak`` sibling holding the previous snapshot generation."""
    return f"{path}{BACKUP_SUFFIX}"


def _payload_digest(kind: str, meta: dict, completed: list) -> str:
    canonical = json.dumps(
        {"kind": kind, "meta": meta, "completed": completed},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_checkpoint(path: str, kind: str, meta: dict, completed: list) -> None:
    """Durably write one snapshot (temp + fsync file + replace + fsync dir,
    via :func:`repro.util.atomic_write.atomic_write_text`).

    The snapshot being replaced, if any, is first preserved verbatim as a
    ``.bak`` sibling (also atomically), so there is always a previous
    generation to fall back to when the primary is later found damaged.
    """
    try:
        with open(path, "rb") as fh:
            previous = fh.read()
    except FileNotFoundError:
        previous = None
    if previous is not None:
        atomic_write_bytes(backup_path(path), previous)
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "meta": meta,
        "completed": completed,
        "checksum": _payload_digest(kind, meta, completed),
    }
    atomic_write_text(path, json.dumps(payload))


def load_checkpoint(path: str, kind: str) -> tuple[dict, list]:
    """Load and verify a snapshot; returns ``(meta, completed)``.

    A snapshot that fails parse, schema, version, kind or checksum
    validation is not fatal on its own: the ``.bak`` sibling written by
    :func:`save_checkpoint` (the previous generation, verified when it was
    the primary) is tried next.  :class:`CheckpointCorrupt` is raised only
    when the primary is damaged *and* no intact backup exists.  A missing
    primary raises :class:`FileNotFoundError` — that is a normal "nothing
    to resume", not corruption.
    """
    try:
        return _load_one(path, kind)
    except CheckpointCorrupt as primary_error:
        try:
            meta, completed = _load_one(backup_path(path), kind)
        except FileNotFoundError:
            raise primary_error from None
        except CheckpointCorrupt as backup_error:
            raise CheckpointCorrupt(
                f"{path}: snapshot and its backup are both unreadable "
                f"(primary: {primary_error}; backup: {backup_error})"
            ) from primary_error
        return meta, completed


def _load_one(path: str, kind: str) -> tuple[dict, list]:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorrupt(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise CheckpointCorrupt(f"{path}: not a {FORMAT} file")
    if payload.get("version") != VERSION:
        raise CheckpointCorrupt(
            f"{path}: snapshot version {payload.get('version')!r}, "
            f"this build reads version {VERSION}"
        )
    if payload.get("kind") != kind:
        raise CheckpointCorrupt(
            f"{path}: holds a {payload.get('kind')!r} sweep, expected {kind!r}"
        )
    meta, completed = payload.get("meta"), payload.get("completed")
    if not isinstance(meta, dict) or not isinstance(completed, list):
        raise CheckpointCorrupt(f"{path}: malformed snapshot body")
    if payload.get("checksum") != _payload_digest(kind, meta, completed):
        raise CheckpointCorrupt(f"{path}: checksum mismatch (truncated or edited)")
    return meta, completed


class SweepCheckpoint:
    """Progress store for one resumable sweep.

    ``resume=True`` restores previously completed items when a matching
    snapshot exists; a snapshot whose metadata disagrees with the current
    sweep parameters is refused (:class:`CheckpointCorrupt`), because its
    items belong to a different experiment.
    """

    def __init__(
        self,
        path: str | None,
        kind: str,
        meta: dict,
        *,
        every: int = 25,
        resume: bool = False,
    ) -> None:
        if every < 1:
            raise ConfigError("checkpoint interval must be at least 1 item")
        self.path = path
        self.kind = kind
        self.meta = dict(meta)
        self.every = every
        self.completed: list = []
        if resume and path is not None:
            try:
                meta_on_disk, completed = load_checkpoint(path, kind)
            except FileNotFoundError:
                pass  # nothing to resume — fresh sweep
            else:
                if meta_on_disk != self.meta:
                    keys = sorted(
                        set(meta_on_disk) | set(self.meta)
                    )
                    diff = tuple(
                        k for k in keys
                        if meta_on_disk.get(k) != self.meta.get(k)
                    )
                    detail = "; ".join(
                        f"{k}: snapshot {meta_on_disk.get(k)!r} vs "
                        f"current {self.meta.get(k)!r}"
                        for k in diff
                    )
                    raise CheckpointMismatchError(
                        f"{path}: snapshot belongs to a different "
                        f"experiment ({detail}); refusing to splice",
                        mismatched=diff,
                    )
                self.completed = completed

    def __len__(self) -> int:
        return len(self.completed)

    def record(self, item: dict) -> None:
        """Append one completed work item; snapshots every ``every`` items."""
        self.completed.append(item)
        if self.path is not None and len(self.completed) % self.every == 0:
            self.save()

    def save(self) -> None:
        if self.path is not None:
            save_checkpoint(self.path, self.kind, self.meta, self.completed)
