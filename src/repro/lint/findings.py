"""Finding and severity model of the ``repro lint`` engine.

A *finding* is one rule violation at one source location.  Severities are
deliberately minimal:

* ``error``  — a violation of a domain invariant the reproduction depends
  on (determinism, partition safety, float comparison discipline).  Any
  error finding makes ``repro lint`` exit nonzero, so CI fails.
* ``advice`` — style/API guidance worth surfacing but not worth breaking a
  build over.  Reported, never fatal.

Each rule declares its severity; every rule in the catalogue is an
``error`` today, and the JSON report keeps the ``advice`` count so its
schema stays stable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import ConfigError

SEVERITIES = ("error", "advice")

#: schema version stamped into the JSON report (bump on breaking changes).
JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location (1-based line, 0-based col)."""

    path: str
    line: int
    column: int
    rule: str
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (stable key set, schema version 1)."""
        return asdict(self)

    def render(self) -> str:
        """The one-line text-reporter form."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"[{self.severity}] {self.rule} {self.message}"
        )


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run over a set of paths."""

    findings: tuple[Finding, ...]
    files_checked: int

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def advice_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "advice")

    @property
    def exit_code(self) -> int:
        """CI contract: 0 = clean (advice allowed), 1 = error findings."""
        return 1 if self.error_count else 0
