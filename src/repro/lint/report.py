"""Reporters for ``repro lint``: human text and machine JSON.

The JSON schema (version 1) is a stable CI contract::

    {
      "version": 1,
      "files_checked": 42,
      "summary": {"error": 2, "advice": 1},
      "findings": [
        {"path": "src/x.py", "line": 10, "column": 4,
         "rule": "DET001", "severity": "error", "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json

from repro.lint.findings import JSON_SCHEMA_VERSION, LintResult
from repro.lint.rules import RULES


def render_text(result: LintResult) -> str:
    """One line per finding plus a summary tail."""
    lines = [finding.render() for finding in result.findings]
    noun = "file" if result.files_checked == 1 else "files"
    lines.append(
        f"{result.files_checked} {noun} checked: "
        f"{result.error_count} error(s), {result.advice_count} advice"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The version-1 JSON report (see module docstring)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "summary": {
            "error": result.error_count,
            "advice": result.advice_count,
        },
        "findings": [finding.to_dict() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rules() -> str:
    """The ``--list-rules`` catalogue: all eleven rules."""
    lines = []
    for rule in RULES.values():
        scope = " [whole-program]" if rule.whole_program else ""
        lines.append(f"{rule.id} [{rule.severity}]{scope} {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)
