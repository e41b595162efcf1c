"""Configuration of the ``repro lint`` engine (``[tool.repro-lint]``).

The engine is configured from ``pyproject.toml`` so the whole team (and CI)
lints with one source of truth.  All keys are optional; the defaults encode
this repository's layout:

.. code-block:: toml

    [tool.repro-lint]
    exclude = ["tests", "_bootstrap"]        # path fragments to skip
    select = []                              # only these rule ids ([] = all)
    ignore = []                              # rule ids to drop entirely

    [tool.repro-lint.severity]               # per-rule severity overrides
    API001 = "advice"

    [tool.repro-lint.rules]                  # rule-specific path scoping
    det001-allow = ["repro/util/rng.py"]
    det002-paths = ["repro/sim/", "repro/cache/", "repro/partitioning/"]
    det002-allow = ["repro/telemetry/timing.py"]  # clock chokepoints
    inv001-allow = ["repro/partitioning/", "repro/resilience/guard.py",
                    "repro/cache/partition_map.py"]
    api001-annotation-paths = ["src/"]
    res002-paths = ["repro/"]

Path scoping uses *posix fragment containment*: a file matches a fragment
when the fragment occurs in its ``/``-joined path as given on the command
line (e.g. ``repro/sim/`` matches ``src/repro/sim/controller.py``).  That
keeps the config independent of where the tree is checked out.

Parsing uses :mod:`tomllib` (Python >= 3.11).  On 3.10, where tomllib does
not exist, the engine silently falls back to the built-in defaults — the
rules still run, only project overrides are unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback, defaults only
    tomllib = None  # type: ignore[assignment]

from repro.lint.findings import SEVERITIES
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
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    severity: dict[str, str] = field(default_factory=dict)
    #: files allowed to use raw RNG constructors (DET001).
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
    #: files allowed to construct raw numpy generators (DET003, xmod).
    det003_allow: tuple[str, ...] = ("repro/util/rng.py",)
    #: ``module:prefix`` specs naming the CLI roots ERR001 traces from.
    err001_entrypoints: tuple[str, ...] = ("repro.cli:cmd_",)
    #: the taxonomy base every CLI-reachable raise must derive from.
    err001_base: str = "repro.errors.ReproError"
    #: attribute-call names treated as worker submissions (PAR001/PAR002).
    xmod_submit_methods: tuple[str, ...] = ("map_ordered",)
    #: module whose EVENT_SCHEMAS/COMMON_FIELDS TEL001 checks against.
    tel001_events_module: str = "repro.telemetry.events"

    def __post_init__(self) -> None:
        for rule_id, severity in self.severity.items():
            if severity not in SEVERITIES:
                raise LintConfigError(
                    f"severity override for {rule_id} must be one of "
                    f"{SEVERITIES}, got {severity!r}"
                )

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        return not self.select or rule_id in self.select

    def severity_of(self, rule_id: str, default: str) -> str:
        return self.severity.get(rule_id, default)


def _str_tuple(section: dict, key: str, where: str) -> tuple[str, ...] | None:
    if key not in section:
        return None
    value = section[key]
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise LintConfigError(f"{where}.{key} must be a list of strings")
    return tuple(value)


def config_from_mapping(data: dict) -> LintConfig:
    """Build a :class:`LintConfig` from a parsed ``[tool.repro-lint]`` table."""
    cfg = LintConfig()
    updates: dict[str, object] = {}
    for toml_key, attr in (
        ("exclude", "exclude"),
        ("select", "select"),
        ("ignore", "ignore"),
    ):
        value = _str_tuple(data, toml_key, "tool.repro-lint")
        if value is not None:
            updates[attr] = value
    severity = data.get("severity", {})
    if not isinstance(severity, dict):
        raise LintConfigError("tool.repro-lint.severity must be a table")
    if severity:
        updates["severity"] = dict(severity)
    rules = data.get("rules", {})
    if not isinstance(rules, dict):
        raise LintConfigError("tool.repro-lint.rules must be a table")
    for toml_key, attr in (
        ("det001-allow", "det001_allow"),
        ("det002-paths", "det002_paths"),
        ("det002-allow", "det002_allow"),
        ("inv001-allow", "inv001_allow"),
        ("api001-annotation-paths", "api001_annotation_paths"),
        ("res002-paths", "res002_paths"),
        ("det003-allow", "det003_allow"),
        ("err001-entrypoints", "err001_entrypoints"),
        ("xmod-submit-methods", "xmod_submit_methods"),
    ):
        value = _str_tuple(rules, toml_key, "tool.repro-lint.rules")
        if value is not None:
            updates[attr] = value
    for toml_key, attr in (
        ("err001-base", "err001_base"),
        ("tel001-events-module", "tel001_events_module"),
    ):
        if toml_key in rules:
            value = rules[toml_key]
            if not isinstance(value, str):
                raise LintConfigError(
                    f"tool.repro-lint.rules.{toml_key} must be a string"
                )
            updates[attr] = value
    unknown = set(data) - {"exclude", "select", "ignore", "severity", "rules"}
    if unknown:
        raise LintConfigError(
            f"unknown tool.repro-lint keys: {sorted(unknown)}"
        )
    return replace(cfg, **updates) if updates else cfg


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
