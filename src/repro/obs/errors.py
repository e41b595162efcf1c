"""The one typed error of the observability package.

It derives from :class:`~repro.errors.ReproError`, so the CLI's
contained-failure handling (clean message, exit 2) covers it for free.
"""

from __future__ import annotations

from repro.errors import ReproError


class ObsError(ReproError):
    """An event violates its schema, a trace, manifest or time series is
    malformed, or a run-store, diff or analytics operation failed."""
