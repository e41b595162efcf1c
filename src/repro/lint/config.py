"""Configuration of the ``repro lint`` engine (``[tool.repro-lint]``).

The engine is configured from ``pyproject.toml`` so the whole team (and CI)
lints with one source of truth.  All keys are optional; the defaults encode
this repository's layout:

.. code-block:: toml

    [tool.repro-lint]
    exclude = ["tests", "_bootstrap"]        # path fragments to skip

    [tool.repro-lint.rules]                  # rule-specific path scoping
    det001-allow = ["repro/util/rng.py"]     # raw RNG (DET001 and DET003)
    det002-paths = ["repro/sim/", "repro/cache/", "repro/partitioning/"]
    det002-allow = ["repro/telemetry/timing.py"]  # clock chokepoints
    inv001-allow = ["repro/partitioning/", "repro/resilience/guard.py",
                    "repro/cache/partition_map.py"]
    api001-annotation-paths = ["src/"]
    res002-paths = ["repro/"]

Path scoping uses *posix fragment containment*: a file matches a fragment
when the fragment occurs in its ``/``-joined path as given on the command
line (e.g. ``repro/sim/`` matches ``src/repro/sim/controller.py``).  That
keeps the config independent of where the tree is checked out.  An unknown
key, at the top level or in the ``rules`` table, is an error: a misspelt
key must not silently leave a rule at its default scope.

Parsing uses :mod:`tomllib` (Python >= 3.11).  On 3.10, where tomllib does
not exist, the engine silently falls back to the built-in defaults — the
rules still run, only project overrides are unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback, defaults only
    tomllib = None  # type: ignore[assignment]

from repro.errors import ReproError

#: directories never worth descending into.
DEFAULT_EXCLUDE = ("__pycache__", ".git", "_bootstrap", "build", "dist")


class LintConfigError(ReproError, ValueError):
    """``[tool.repro-lint]`` contains an out-of-domain value.

    Inherits :class:`~repro.errors.ReproError` so the CLI
    boundary turns a bad config into a clean exit-2 instead of a traceback
    (the same contract ERR001 enforces on everything else), and
    ``ValueError`` so pre-taxonomy callers keep working.
    """


@dataclass(frozen=True)
class LintConfig:
    """Engine configuration (built-in defaults unless overridden)."""

    exclude: tuple[str, ...] = DEFAULT_EXCLUDE
    #: files allowed to construct raw random streams (DET001, DET003).
    det001_allow: tuple[str, ...] = ("repro/util/rng.py",)
    #: deterministic subsystems where wall-clock reads are forbidden (DET002).
    det002_paths: tuple[str, ...] = (
        "repro/sim/",
        "repro/cache/",
        "repro/partitioning/",
    )
    #: files inside ``det002_paths`` that legitimately read wall time
    #: (clock chokepoints), carved out here instead of inline disables.
    det002_allow: tuple[str, ...] = ()
    #: files allowed to construct PartitionMap directly (INV001).
    inv001_allow: tuple[str, ...] = (
        "repro/partitioning/",
        "repro/resilience/guard.py",
        "repro/cache/partition_map.py",
    )
    #: paths whose public functions must be fully annotated (API001).
    api001_annotation_paths: tuple[str, ...] = ("src/",)
    #: paths where swallow-only broad except handlers are forbidden (RES002).
    res002_paths: tuple[str, ...] = ("repro/",)


#: ``[tool.repro-lint.rules]`` key -> field (``det001-allow`` -> det001_allow).
_RULE_KEYS = {
    f.name.replace("_", "-"): f.name
    for f in fields(LintConfig)
    if f.name != "exclude"
}


def _str_tuple(section: dict, key: str, where: str) -> tuple[str, ...]:
    value = section[key]
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise LintConfigError(f"{where}.{key} must be a list of strings")
    return tuple(value)


def config_from_mapping(data: dict) -> LintConfig:
    """Build a :class:`LintConfig` from a parsed ``[tool.repro-lint]`` table."""
    unknown = set(data) - {"exclude", "rules"}
    if unknown:
        raise LintConfigError(
            f"unknown tool.repro-lint keys: {sorted(unknown)}"
        )
    updates: dict[str, tuple[str, ...]] = {}
    if "exclude" in data:
        updates["exclude"] = _str_tuple(data, "exclude", "tool.repro-lint")
    rules = data.get("rules", {})
    if not isinstance(rules, dict):
        raise LintConfigError("tool.repro-lint.rules must be a table")
    unknown = set(rules) - set(_RULE_KEYS)
    if unknown:
        raise LintConfigError(
            f"unknown tool.repro-lint.rules keys: {sorted(unknown)} "
            f"(known: {sorted(_RULE_KEYS)})"
        )
    for key in rules:
        updates[_RULE_KEYS[key]] = _str_tuple(
            rules, key, "tool.repro-lint.rules"
        )
    return replace(LintConfig(), **updates)


def find_pyproject(start: Path | None = None) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start`` (default: cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Load ``[tool.repro-lint]`` from ``pyproject`` (auto-discovered when
    ``None``); missing file/table/tomllib all yield the built-in defaults."""
    path = pyproject if pyproject is not None else find_pyproject()
    if path is None or tomllib is None:
        return LintConfig()
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"{path}: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintConfigError("tool.repro-lint must be a table")
    return config_from_mapping(table)
