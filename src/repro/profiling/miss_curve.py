"""Miss-ratio curves and marginal utility (paper Section III.C).

The MSA histogram projects the miss count of every cache size; the
allocation algorithms consume that projection through *marginal utility*,
the economics concept the paper borrows from von Wieser:

    ``MarginalUtility(n) = (MissRate(c) - MissRate(c + n)) / n``

i.e. the per-way miss reduction of growing an allocation from ``c`` to
``c + n`` ways.  :class:`MissCurve` wraps the projected miss counts and
answers the lookahead query from a per-curve table of plain Python floats,
built lazily and cached, so the partitioning loops stay cheap even inside
the 1000-mix Monte Carlo harness (DESIGN.md section 10.5).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class MissCurve:
    """Projected misses for allocations of 0..K ways of one workload.

    The curve keeps a read-only float64 copy of ``misses`` and the same
    numbers as :attr:`values`, a tuple of Python floats that the
    partitioning loops index directly.  Lookahead rows
    (:meth:`lookahead_row`) are built on first use and cached on the curve.
    """

    name: str
    misses: np.ndarray  #: misses[w] = misses with w dedicated ways
    total_accesses: float

    def __post_init__(self) -> None:
        m = np.array(self.misses, dtype=np.float64)  # a copy: frozen below
        if m.ndim != 1 or len(m) < 2:
            raise ConfigError("need misses for at least sizes 0 and 1")
        if not np.all(np.isfinite(m)):
            raise ConfigError("miss counts must be finite")
        if not math.isfinite(self.total_accesses):
            raise ConfigError("total accesses must be finite")
        if np.any(np.diff(m) > 1e-9):
            raise ConfigError("miss counts must be non-increasing in ways")
        if self.total_accesses < m[0] - 1e-9:
            raise ConfigError("size-0 misses cannot exceed total accesses")
        m.flags.writeable = False
        object.__setattr__(self, "misses", m)
        # derived state, not dataclass fields: equality, repr and pickling
        # see only (name, misses, total_accesses)
        object.__setattr__(self, "_values", tuple(m.tolist()))
        object.__setattr__(self, "_rows", [None] * len(m))

    def __reduce__(self):
        # rebuild through __init__ so an unpickled curve is re-validated,
        # read-only again and starts with an empty row cache
        return (type(self), (self.name, self.misses, self.total_accesses))

    @property
    def max_ways(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> tuple[float, ...]:
        """``misses`` as Python floats: ``values[w]`` is ``misses_at(w)``
        for ``w <= max_ways``."""
        return self._values

    def misses_at(self, ways: int) -> float:
        """Projected misses with ``ways`` dedicated ways (clamped at K —
        an LRU cache larger than the tracked depth cannot miss more)."""
        if ways < 0:
            raise ConfigError("ways must be non-negative")
        values = self._values
        return values[ways] if ways < len(values) else values[-1]

    def miss_ratio_at(self, ways: int) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.misses_at(ways) / self.total_accesses

    def miss_ratio_curve(self) -> np.ndarray:
        if self.total_accesses == 0:
            return np.zeros_like(self.misses)
        return self.misses / self.total_accesses

    # -- marginal utility ----------------------------------------------------

    def marginal_utility(self, current: int, extra: int) -> float:
        """Miss reduction per way of growing from ``current`` by ``extra``."""
        if extra < 1:
            raise ConfigError("extra ways must be positive")
        return (self.misses_at(current) - self.misses_at(current + extra)) / extra

    def lookahead_row(self, current: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """The lookahead table row of an allocation of ``current`` ways.

        Returns ``(mus, extras)``: ``mus[r-1]`` is the best marginal
        utility over 1..r extra ways and ``extras[r-1]`` the smallest
        allocation achieving it, for r = 1..max(K - current, 1).  Beyond
        K - current extra ways the size clamps at K, so the numerator stays
        constant and the utility only shrinks: past the end of the row the
        answer is its last entry (:meth:`best_marginal_utility` covers the
        one exception, a curve that rises within its tolerance).  Rows are
        built on first use and cached (at most K + 1 per curve; every
        current >= K shares one).
        """
        if current < 0:
            raise ConfigError("ways must be non-negative")
        k = len(self._values) - 1
        c = current if current < k else k
        row = self._rows[c]
        if row is None:
            m = self._values
            base = m[c]
            mus: list[float] = []
            extras: list[int] = []
            best_mu = best_n = None
            for n in range(1, max(k - c, 1) + 1):
                mu = (base - m[min(c + n, k)]) / n
                if best_n is None or mu > best_mu:  # first maximum wins
                    best_mu, best_n = mu, n
                mus.append(best_mu)
                extras.append(best_n)
            row = self._rows[c] = (tuple(mus), tuple(extras))
        return row

    def best_marginal_utility(self, current: int, max_extra: int) -> tuple[float, int]:
        """The lookahead step: max marginal utility over 1..max_extra extra
        ways and the (smallest) allocation achieving it."""
        if max_extra < 1:
            raise ConfigError("max_extra must be positive")
        mus, extras = self.lookahead_row(current)
        if max_extra <= len(mus):
            return mus[max_extra - 1], extras[max_extra - 1]
        best_mu, best_n = mus[-1], extras[-1]
        # past the row the numerator is the drop m[current] - m[K]; it is
        # negative only on a curve that rises within the 1e-9 tolerance, and
        # then the utility grows with n, so scan the tail as the row does
        m = self._values
        drop = m[min(current, len(m) - 1)] - m[-1]
        if drop < 0.0:
            for n in range(len(mus) + 1, max_extra + 1):
                if drop / n > best_mu:
                    best_mu, best_n = drop / n, n
        return best_mu, best_n

    @staticmethod
    def from_histogram(
        name: str, histogram: np.ndarray, *, total_accesses: float | None = None
    ) -> "MissCurve":
        """Build a curve from an MSA histogram (K hit counters + miss)."""
        h = np.asarray(histogram, dtype=np.float64)
        if h.ndim != 1 or len(h) < 2:
            raise ConfigError("histogram needs K hit counters plus a miss bin")
        total = float(h.sum()) if total_accesses is None else total_accesses
        hits_cum = np.concatenate(([0.0], np.cumsum(h[:-1])))
        return MissCurve(name, total - hits_cum, total)

    @staticmethod
    def from_profiler(profiler: object, name: str | None = None) -> "MissCurve":
        """Build a curve from any profiler exposing ``histogram``."""
        label = name if name is not None else getattr(profiler, "name", "curve")
        return MissCurve.from_histogram(label, profiler.histogram)


def save_curves(path: str | Path, curves: dict[str, MissCurve]) -> None:
    """Persist a set of miss curves to one ``.npz`` file.

    Profiling the whole suite is the slow step of the analytic experiments;
    cached curves make Monte Carlo sweeps and CLI calls instant.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, curve in curves.items():
        arrays[f"misses:{name}"] = curve.misses
        arrays[f"total:{name}"] = np.array([curve.total_accesses])
    np.savez_compressed(path, **arrays)


def load_curves(path: str | Path) -> dict[str, MissCurve]:
    """Load curves written by :func:`save_curves`.

    A file that is not such an archive, or holds a malformed or invalid
    curve, raises :class:`~repro.errors.ConfigError` naming ``path``.
    """
    invalid = f"{path}: not a valid curve file"
    out: dict[str, MissCurve] = {}
    try:
        data = np.load(path)  # pickled objects stay refused
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{invalid}: not an .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):  # a single .npy array
        raise ConfigError(f"{invalid}: not an .npz archive")
    try:
        with data:
            names = [k.split(":", 1)[1] for k in data.files if k.startswith("misses:")]
            for name in names:
                out[name] = MissCurve(
                    name, data[f"misses:{name}"], float(data[f"total:{name}"][0])
                )
    except (ValueError, TypeError, KeyError, IndexError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{invalid}: {exc}") from exc
    return out
