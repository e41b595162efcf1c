"""Typed errors of the run observatory.

All derive from :class:`~repro.errors.ReproError`, so the CLI's
contained-failure handling (clean message, exit 2) covers them for free.
"""

from __future__ import annotations

from repro.errors import ReproError


class ObsError(ReproError):
    """A run-store, diff, watch or analytics operation failed cleanly."""
