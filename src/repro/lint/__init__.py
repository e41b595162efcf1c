"""Domain-aware static analysis for the reproduction (``repro lint``).

A self-contained, stdlib-``ast`` engine that machine-checks the invariants
the paper states but Python cannot enforce.  One pass parses each file once
and runs eleven rules: six per-file ones — seeded randomness only (DET001),
no wall clock in the simulator (DET002), no float equality (FP001),
partition maps built only by the partitioning layer, whose ``decide``
checks every verdict (INV001), API hygiene (API001), no silently
swallowed broad exceptions (RES002) — and five whole-program ones over
the same parsed tree (PAR001, PAR002, DET003, TEL001, ERR001; see
:mod:`repro.lint.xmod`).

Typical use::

    from repro.lint import lint_paths, load_config, render_text
    result = lint_paths(["src", "benchmarks"], load_config())
    print(render_text(result))
    raise SystemExit(result.exit_code)

or from the command line: ``python -m repro lint src benchmarks examples``.
"""

from repro.lint.config import (
    LintConfig,
    LintConfigError,
    config_from_mapping,
    find_pyproject,
    load_config,
)
from repro.lint.engine import PARSE_RULE, lint_paths, lint_source
from repro.lint.findings import JSON_SCHEMA_VERSION, Finding, LintResult
from repro.lint.report import render_json, render_rules, render_text
from repro.lint.rules import RULES, FileContext, Rule
from repro.lint.xmod.symbols import collect_suppressions

__all__ = [
    "Finding",
    "FileContext",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintConfigError",
    "LintResult",
    "PARSE_RULE",
    "RULES",
    "Rule",
    "collect_suppressions",
    "config_from_mapping",
    "find_pyproject",
    "lint_paths",
    "lint_source",
    "load_config",
    "render_json",
    "render_rules",
    "render_text",
]
