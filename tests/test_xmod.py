"""Tests of the whole-program rules of ``repro lint``.

Synthetic fixture trees are written under ``tmp_path`` mimicking the
package layout the rules expect (``repro/cli.py`` entry points,
``repro/errors.py`` taxonomy, ``repro/obs/events.py`` schemas), so
every cross-module rule can be exercised positive and suppressed-negative
without touching the real tree.  Each fixture goes through the full
single pass (:func:`~repro.lint.engine.lint_paths`), per-file rules
included.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.engine import PARSE_RULE, iter_python_files, lint_paths
from repro.lint.findings import LintResult
from repro.lint.xmod.callgraph import build_call_graph
from repro.lint.xmod.symbols import Project, module_name_for


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    """Materialise a fixture tree; returns the python files in it."""
    out = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        if path.suffix == ".py":
            out.append(path)
    return sorted(out)


def project_of(root: Path, files: dict[str, str]) -> Project:
    return Project.load(write_tree(root, files))


def rules_of(result: LintResult) -> list[str]:
    return [f.rule for f in result.findings]


def analyze(root: Path, files: dict[str, str]) -> LintResult:
    write_tree(root, files)
    return lint_paths([str(root)], LintConfig())


# ---------------------------------------------------------------------------
# symbol resolution


class TestSymbols:
    def test_module_name_walks_packages(self, tmp_path):
        files = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "x = 1\n",
        })
        assert module_name_for(files[-1]) == "pkg.sub.mod"
        assert module_name_for(files[0]) == "pkg"

    def test_resolve_through_import_alias_chain(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": "def target():\n    return 1\n",
            "pkg/mid.py": "from pkg.base import target as renamed\n",
            "pkg/top.py": "from pkg.mid import renamed as again\n",
        })
        resolved = project.resolve("pkg.top", "again")
        assert resolved is not None
        assert resolved.qualname == "pkg.base.target"
        assert resolved.kind == "function"

    def test_relative_import_anchors_on_package(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": "def target():\n    return 1\n",
            "pkg/user.py": "from .base import target\n",
        })
        resolved = project.resolve("pkg.user", "target")
        assert resolved is not None and resolved.qualname == "pkg.base.target"

    def test_relative_import_in_package_init_anchors_on_itself(self, tmp_path):
        # in ``repro/sub/__init__.py``, ``.errors`` is ``repro.sub.errors``
        project = project_of(tmp_path, {
            "repro/__init__.py": "",
            "repro/sub/__init__.py": "from .errors import SubError\n",
            "repro/sub/errors.py": "class SubError(Exception):\n    pass\n",
            "repro/cli.py": "from repro.sub import SubError\n",
        })
        resolved = project.resolve("repro.cli", "SubError")
        assert resolved is not None
        assert resolved.qualname == "repro.sub.errors.SubError"
        assert resolved.kind == "class"

    def test_external_names_are_tagged_external(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": "import numpy as np\n",
        })
        expr = ast.parse("np.random.default_rng", mode="eval").body
        resolved = project.resolve_expr("pkg.mod", expr)
        assert resolved is not None
        assert resolved.kind == "external"
        assert resolved.qualname == "numpy.random.default_rng"

    def test_import_cycle_does_not_recurse_forever(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "from pkg.b import name\n",
            "pkg/b.py": "from pkg.a import name\n",
        })
        assert project.resolve("pkg.a", "name") is None

    def test_shared_module_name_keeps_every_file(self, tmp_path):
        # two a.py outside any package share the dotted name "a": both are
        # linted (keyed by path), and the shared name itself resolves to
        # nothing rather than to whichever file came last
        source = "import numpy as np\n\nrng = np.random.default_rng()\n"
        result = analyze(tmp_path, {
            "x/a.py": source,
            "y/a.py": source,
            "z/use.py": "from a import rng\n",
        })
        assert result.files_checked == 3
        found = sorted(
            (Path(f.path).parent.name, f.rule) for f in result.findings
        )
        assert found == [
            ("x", "DET001"), ("x", "DET003"),
            ("y", "DET001"), ("y", "DET003"),
        ]
        project = Project.load(sorted(tmp_path.rglob("*.py")))
        assert project.shared_names == {"a"}
        assert project.resolve("use", "rng") is None

    def test_is_subclass_of_follows_bases_across_modules(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/errors.py": (
                "class Base(Exception):\n    pass\n\n"
                "class Mid(Base):\n    pass\n"
            ),
            "pkg/more.py": (
                "from pkg.errors import Mid\n\n"
                "class Leaf(Mid):\n    pass\n"
            ),
        })
        leaf = project.modules["pkg.more"].defs["Leaf"]
        assert project.is_subclass_of("pkg.more", leaf, {"pkg.errors.Base"})
        assert not project.is_subclass_of("pkg.more", leaf, {"pkg.other.X"})


# ---------------------------------------------------------------------------
# call graph


class TestCallGraph:
    def test_direct_and_imported_call_edges(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/b.py": (
                "from pkg.a import helper\n\n"
                "def caller():\n    return helper()\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.a.helper" in graph.edges["pkg.b.caller"]

    def test_class_call_reaches_ctor_methods(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cls.py": (
                "class Thing:\n"
                "    def __init__(self):\n        self.x = 1\n"
                "    def __post_init__(self):\n        pass\n"
            ),
            "pkg/use.py": (
                "from pkg.cls import Thing\n\n"
                "def make():\n    return Thing()\n"
            ),
        })
        graph = build_call_graph(project)
        edges = graph.edges["pkg.use.make"]
        assert "pkg.cls.Thing.__init__" in edges
        assert "pkg.cls.Thing.__post_init__" in edges

    def test_nested_def_reachable_from_parent(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": (
                "def outer():\n"
                "    def inner():\n        return 1\n"
                "    return inner\n"
            ),
        })
        graph = build_call_graph(project)
        inner = "pkg.mod.outer.<locals>.inner"
        assert inner in graph.units
        assert inner in graph.reachable({"pkg.mod.outer"})

    def test_callable_passed_as_argument_creates_edge(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def callback():\n    return 1\n",
            "pkg/b.py": (
                "from pkg.a import callback\n\n"
                "def submitter(ex):\n    ex.submit(callback)\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.a.callback" in graph.edges["pkg.b.submitter"]

    def test_method_defined_in_try_block_is_collected(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": (
                "try:\n"
                "    def maybe():\n        return 1\n"
                "except ImportError:\n"
                "    def maybe():\n        return 2\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.mod.maybe" in graph.units


# ---------------------------------------------------------------------------
# the five rules: one positive + one suppressed negative each


class TestPar001:
    def test_lambda_submission_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    return ex.map_ordered(lambda x: x, items)\n"
            ),
        })
        assert rules_of(result) == ["PAR001"]

    def test_nested_def_submission_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    def inner(x):\n"
                "        return x\n"
                "    return ex.map_ordered(inner, items)\n"
            ),
        })
        assert rules_of(result) == ["PAR001"]

    def test_module_level_function_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def work(x):\n"
                "    return x\n\n"
                "def run(ex, items):\n"
                "    return ex.map_ordered(work, items)\n"
            ),
        })
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    return ex.map_ordered(lambda x: x, items)"
                "  # repro-lint: disable=PAR001\n"
            ),
        })
        assert rules_of(result) == []


class TestPar002:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/work.py": (
            "STATE = []\n\n"
            "def helper(item):\n"
            "    STATE.append(item)\n\n"
            "def worker(item):\n"
            "    helper(item)\n"
            "    return item\n\n"
            "def run(ex, items):\n"
            "    return ex.map_ordered(worker, items)\n"
        ),
    }

    def test_worker_reachable_global_write_flagged(self, tmp_path):
        result = analyze(tmp_path, self.FILES)
        assert rules_of(result) == ["PAR002"]
        assert "helper" in result.findings[0].message

    def test_write_outside_worker_path_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": (
                "STATE = []\n\n"
                "def serial_only(item):\n"
                "    STATE.append(item)\n\n"
                "def worker(item):\n"
                "    return item\n\n"
                "def run(ex, items):\n"
                "    return ex.map_ordered(worker, items)\n"
            ),
        })
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/work.py"] = files["pkg/work.py"].replace(
            "    STATE.append(item)\n",
            "    STATE.append(item)  # repro-lint: disable=PAR002\n",
        )
        result = analyze(tmp_path, files)
        assert rules_of(result) == []


class TestDet003:
    def test_raw_generator_flagged(self, tmp_path):
        # the per-file DET001 sees the ``np.random`` attribute, DET003 the
        # constructor it resolves to: one pass reports both
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim.py": (
                "import numpy as np\n\n"
                "def draw():\n"
                "    return np.random.default_rng().random()\n"
            ),
        })
        assert rules_of(result) == ["DET001", "DET003"]

    def test_import_alias_only_det003_sees(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim.py": (
                "import numpy as n\n\n"
                "def draw():\n"
                "    return n.random.default_rng().random()\n"
            ),
        })
        assert rules_of(result) == ["DET003"]

    def test_rng_stream_chokepoint_is_allowed(self, tmp_path):
        # the sanctioned construction site is carved out by det001-allow
        result = analyze(tmp_path, {
            "repro/__init__.py": "",
            "repro/util/__init__.py": "",
            "repro/util/rng.py": (
                "import numpy as np\n\n"
                "def rng_stream(seed, *keys):\n"
                "    return np.random.default_rng(seed)\n"
            ),
        })
        assert rules_of(result) == []

    def test_generator_flowing_into_fanout_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "repro/__init__.py": "",
            "repro/util/__init__.py": "",
            "repro/util/rng.py": (
                "import numpy as np\n\n"
                "def rng_stream(seed, *keys):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "repro/run.py": (
                "from repro.util.rng import rng_stream\n\n"
                "def sweep(ex, items, seed):\n"
                "    rng = rng_stream(seed)\n"
                "    return ex.map_ordered(work, items, rng)\n\n"
                "def work(item):\n"
                "    return item\n"
            ),
        })
        assert rules_of(result) == ["DET003"]
        assert "scheduling order" in result.findings[0].message

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim.py": (
                "import numpy as n\n\n"
                "def draw():\n"
                "    return n.random.default_rng().random()"
                "  # repro-lint: disable=DET003\n"
            ),
        })
        assert rules_of(result) == []


TELEMETRY_FIXTURE = {
    "repro/__init__.py": "",
    "repro/obs/__init__.py": "",
    "repro/obs/events.py": (
        "class FieldSpec:\n"
        "    def __init__(self, types, required=True, deterministic=True):\n"
        "        self.types = types\n"
        "        self.required = required\n\n"
        "_NUM = FieldSpec((int, float))\n"
        "_OPT_STR = FieldSpec((str,), required=False)\n\n"
        "COMMON_FIELDS = {\n"
        "    'type': FieldSpec((str,)),\n"
        "    'seq': _NUM,\n"
        "}\n\n"
        "EVENT_SCHEMAS = {\n"
        "    'tick': {\n"
        "        'value': _NUM,\n"
        "        'note': _OPT_STR,\n"
        "    },\n"
        "}\n"
    ),
}


class TestTel001:
    def emitter(self, body: str) -> dict[str, str]:
        files = dict(TELEMETRY_FIXTURE)
        files["repro/emit.py"] = body
        return files

    def test_unknown_field_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, legacy=2)\n"
        ))
        assert rules_of(result) == ["TEL001"]
        assert "legacy" in result.findings[0].message

    def test_missing_required_field_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', note='x')\n"
        ))
        assert rules_of(result) == ["TEL001"]
        assert "'value'" in result.findings[0].message

    def test_unknown_event_type_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('boom', value=1)\n"
        ))
        assert rules_of(result) == ["TEL001"]

    def test_conforming_emit_is_clean(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, note='x', seq=3)\n"
        ))
        assert rules_of(result) == []

    def test_splat_skips_completeness_check(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer, record):\n"
            "    tracer.emit('tick', **record)\n"
        ))
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, legacy=2)"
            "  # repro-lint: disable=TEL001\n"
        ))
        assert rules_of(result) == []


ERR_FIXTURE = {
    "repro/__init__.py": "",
    "repro/errors.py": (
        "class ReproError(Exception):\n    pass\n\n"
        "class ConfigError(ReproError, ValueError):\n    pass\n"
    ),
}


class TestErr001:
    def tree(self, helper: str) -> dict[str, str]:
        files = dict(ERR_FIXTURE)
        files["repro/domain.py"] = helper
        files["repro/cli.py"] = (
            "from repro.domain import helper\n\n"
            "def cmd_run(args):\n"
            "    return helper(args)\n"
        )
        return files

    def test_builtin_raise_on_cli_path_flagged(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "def helper(x):\n"
            "    raise ValueError('bad')\n"
        ))
        assert rules_of(result) == ["ERR001"]

    def test_taxonomy_raise_is_clean(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "from repro.errors import ConfigError\n\n"
            "def helper(x):\n"
            "    raise ConfigError('bad')\n"
        ))
        assert rules_of(result) == []

    def test_error_reexported_by_package_init_is_clean(self, tmp_path):
        files = dict(ERR_FIXTURE)
        files["repro/__init__.py"] = "from .errors import ConfigError\n"
        files["repro/cli.py"] = (
            "from repro import ConfigError\n\n"
            "def cmd_run(args):\n"
            "    raise ConfigError('bad')\n"
        )
        result = analyze(tmp_path, files)
        assert rules_of(result) == []

    def test_unreachable_raise_is_clean(self, tmp_path):
        files = dict(ERR_FIXTURE)
        files["repro/domain.py"] = (
            "def not_called_from_cli(x):\n"
            "    raise ValueError('bad')\n"
        )
        files["repro/cli.py"] = "def cmd_run(args):\n    return 0\n"
        result = analyze(tmp_path, files)
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "def helper(x):\n"
            "    raise ValueError('bad')  # repro-lint: disable=ERR001\n"
        ))
        assert rules_of(result) == []


# ---------------------------------------------------------------------------
# the single pass: both kinds of rule, one parse per file


class TestSinglePass:
    def test_one_run_reports_both_kinds_of_rule(self, tmp_path, capsys):
        from repro.cli import main

        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/domain.py": """
                def helper(ratio: float) -> bool:
                    if ratio == 0.5:
                        raise ValueError("bad ratio")
                    return True
            """,
            "repro/cli.py": """
                from repro.domain import helper

                def cmd_run(args):
                    return helper(args.ratio)
            """,
        })
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 3
        found = [(f["path"].rsplit("/", 1)[-1], f["line"], f["rule"])
                 for f in payload["findings"]]
        assert found == [("domain.py", 3, "FP001"), ("domain.py", 4, "ERR001")]

    def test_unparseable_file_is_one_parse_finding(self, tmp_path):
        write_tree(tmp_path, {"bad.py": "def broken(:\n", "ok.py": "x = 1\n"})
        result = lint_paths([str(tmp_path)], LintConfig())
        assert rules_of(result) == [PARSE_RULE]
        assert result.findings[0].line == 1
        assert result.files_checked == 2

    def test_non_utf8_file_is_a_parse_finding(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_bytes(b"x = 1\ny = '\xff'\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 2
        [finding] = payload["findings"]
        assert finding["rule"] == PARSE_RULE
        assert finding["path"].endswith("bad.py") and finding["line"] == 2
        assert "UTF-8" in finding["message"]


# ---------------------------------------------------------------------------
# file discovery (exclusion matching regression)


class TestExclusionMatching:
    def test_fragment_matches_segments_not_substrings(self, tmp_path):
        write_tree(tmp_path, {
            "src/obs/watch.py": "x = 1\n",
            "src/jobs.py": "x = 1\n",  # 'obs' is a substring of 'jobs.py'
        })
        config = LintConfig(exclude=("obs",))
        found = iter_python_files([str(tmp_path / "src")], config)
        names = [p.name for p in found]
        assert "jobs.py" in names
        assert "watch.py" not in names

    def test_multi_segment_fragment_matches_contiguous_run(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/obs/watch.py": "x = 1\n",
            "src/other/obs_tools.py": "x = 1\n",
        })
        config = LintConfig(exclude=("repro/obs",))
        found = iter_python_files([str(tmp_path / "src")], config)
        names = [p.name for p in found]
        assert names == ["obs_tools.py"]
