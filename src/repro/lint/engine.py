"""The lint engine: one pass over the files, every rule, one filter.

:func:`lint_paths` reads, parses and tokenizes each file once
(:meth:`~repro.lint.xmod.symbols.Project.load`), runs the per-file rules
on each module's tree and the whole-program rules over the same loaded
project, and filters every finding through the inline suppressions::

    rng = np.random.default_rng()  # repro-lint: disable=DET001
    x = compute()                  # repro-lint: disable=FP001,API001
    y = legacy()                   # repro-lint: disable=all

Comments are located with :mod:`tokenize`, so the directive is never
confused with string contents.  A finding is suppressed only by a directive
on its own line — blanket file-level opt-outs are deliberately unsupported;
exclude the file in ``[tool.repro-lint]`` instead if it truly is exempt.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, LintResult
from repro.lint.rules import RULES, FileContext
from repro.lint.xmod.callgraph import build_call_graph
from repro.lint.xmod.rules import XmodContext
from repro.lint.xmod.symbols import Project

#: rule id reserved for files the engine cannot parse.
PARSE_RULE = "PARSE001"


def _check(
    project: Project, config: LintConfig, *, whole_program: bool
) -> list[Finding]:
    """Every rule's findings over ``project``, suppressions applied."""
    hits = []  # (rule, path, line, column, message)
    for info in project.modules.values():
        ctx = FileContext(info.path, config, info.nodes)
        for rule in RULES.values():
            if not rule.whole_program:
                for hit in rule.check(info.tree, ctx):
                    hits.append((rule, info.path, *hit))
    if whole_program:
        xctx = XmodContext(project, build_call_graph(project), config)
        for rule in RULES.values():
            if rule.whole_program:
                hits.extend((rule, *hit) for hit in rule.check(xctx))
    # a set: one callable flowing into several submission sites yields the
    # same finding once per site, and it is reported once
    findings = {
        Finding(path, line, column, PARSE_RULE, "error",
                f"file does not parse: {message}")
        for path, line, column, message in project.parse_failures
    }
    suppressions = {
        info.path: info.suppressions for info in project.modules.values()
    }
    for rule, path, line, column, message in hits:
        active = suppressions[path].get(line, ())
        if rule.id not in active and "all" not in active:
            findings.add(
                Finding(path, line, column, rule.id, rule.severity, message)
            )
    return sorted(findings)


def lint_source(source: str, path: str, config: LintConfig) -> list[Finding]:
    """Run the per-file rules over one source blob (the unit the tests
    target); the whole-program rules need :func:`lint_paths`."""
    project = Project()
    project.add(path, source, Path(path).stem)
    return _check(project, config, whole_program=False)


def _excluded(path: Path, exclude: tuple[str, ...]) -> bool:
    """Does any exclusion fragment match a *path-segment run* of ``path``?

    Fragments are matched against whole ``/``-separated segments, never raw
    substrings: ``obs`` excludes ``repro/obs/store.py`` but not ``jobs.py``,
    and a multi-segment fragment like ``repro/obs`` must appear as a
    contiguous segment run.  (Raw containment used to exclude unintended
    files whose names merely *contained* a fragment.)
    """
    parts = path.as_posix().split("/")
    for fragment in exclude:
        want = [seg for seg in fragment.split("/") if seg]
        if not want:
            continue
        span = len(want)
        if any(
            parts[i : i + span] == want
            for i in range(len(parts) - span + 1)
        ):
            return True
    return False


def iter_python_files(
    paths: list[str], config: LintConfig
) -> list[Path]:
    """Expand the command-line path operands into the files to lint."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root]
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            if _excluded(path, config.exclude):
                continue
            if path not in seen:
                seen.add(path)
                out.append(path)
    return out


def lint_paths(paths: list[str], config: LintConfig) -> LintResult:
    """Lint every Python file under ``paths`` (files or directories) with
    all rules, per-file and whole-program, in one pass."""
    files = iter_python_files(paths, config)
    findings = _check(Project.load(files), config, whole_program=True)
    return LintResult(findings=tuple(findings), files_checked=len(files))

