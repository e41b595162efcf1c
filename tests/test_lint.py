"""Static-analysis engine: every per-file rule positive+negative,
suppressions, configuration, reporters, CLI flags and exit codes (the
whole-program rules and the single pass over both kinds are in
test_xmod.py)."""

import json

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    Finding,
    LintConfig,
    LintConfigError,
    LintResult,
    PARSE_RULE,
    RULES,
    collect_suppressions,
    config_from_mapping,
    lint_paths,
    lint_source,
    load_config,
    render_json,
    render_rules,
    render_text,
)

CFG = LintConfig()


def rules_of(findings):
    return [f.rule for f in findings]


def lint(source, path="src/repro/analysis/example.py", config=CFG):
    return lint_source(source, path, config)


# ---------------------------------------------------------------- DET001


class TestDet001:
    def test_import_random_flagged(self):
        assert "DET001" in rules_of(lint("import random\n"))

    def test_from_random_import_flagged(self):
        assert "DET001" in rules_of(lint("from random import shuffle\n"))

    def test_numpy_default_rng_flagged(self):
        src = "import numpy as np\nr = np.random.default_rng(3)\n"
        assert "DET001" in rules_of(lint(src))

    def test_numpy_random_seed_flagged(self):
        src = "import numpy\nnumpy.random.seed(0)\n"
        assert "DET001" in rules_of(lint(src))

    def test_rng_stream_clean(self):
        src = "from repro.util.rng import rng_stream\nr = rng_stream('x', 1)\n"
        assert "DET001" not in rules_of(lint(src))

    def test_allowed_in_rng_module(self):
        src = "import numpy as np\nr = np.random.default_rng(3)\n"
        findings = lint(src, path="src/repro/util/rng.py")
        assert "DET001" not in rules_of(findings)


# ---------------------------------------------------------------- DET002


class TestDet002:
    def test_wall_clock_in_sim_flagged(self):
        src = "import time\nnow = time.time()\n"
        findings = lint(src, path="src/repro/sim/controller.py")
        assert "DET002" in rules_of(findings)

    def test_datetime_now_in_cache_flagged(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        findings = lint(src, path="src/repro/cache/nuca.py")
        assert "DET002" in rules_of(findings)

    def test_wall_clock_outside_scope_allowed(self):
        src = "import time\nnow = time.time()\n"
        findings = lint(src, path="src/repro/analysis/report.py")
        assert "DET002" not in rules_of(findings)


# ---------------------------------------------------------------- FP001


class TestFp001:
    def test_float_literal_equality_flagged(self):
        assert "FP001" in rules_of(lint("ok = x == 1.5\n"))

    def test_float_call_inequality_flagged(self):
        assert "FP001" in rules_of(lint("bad = float(x) != y\n"))

    def test_arithmetic_over_floats_flagged(self):
        assert "FP001" in rules_of(lint("bad = a == b * 0.5\n"))

    def test_int_equality_clean(self):
        assert "FP001" not in rules_of(lint("ok = x == 1\n"))

    def test_pytest_approx_clean(self):
        src = "import pytest\nok = x == pytest.approx(1.5)\n"
        assert "FP001" not in rules_of(lint(src))

    def test_comparison_operators_clean(self):
        assert "FP001" not in rules_of(lint("ok = x < 1.5 or x >= 0.1\n"))


# ---------------------------------------------------------------- INV001


class TestInv001:
    def test_direct_construction_flagged(self):
        src = (
            "from repro.cache.partition_map import PartitionMap\n"
            "pmap = PartitionMap()\n"
        )
        findings = lint(src, path="src/repro/sim/custom.py")
        assert "INV001" in rules_of(findings)

    def test_allowed_inside_partitioning(self):
        src = (
            "from repro.cache.partition_map import PartitionMap\n"
            "pmap = PartitionMap()\n"
        )
        findings = lint(src, path="src/repro/partitioning/allocation.py")
        assert "INV001" not in rules_of(findings)

    def test_allowed_in_guard(self):
        src = (
            "from repro.cache.partition_map import PartitionMap\n"
            "pmap = PartitionMap()\n"
        )
        findings = lint(src, path="src/repro/resilience/guard.py")
        assert "INV001" not in rules_of(findings)


# ---------------------------------------------------------------- API001


class TestApi001:
    def test_mutable_default_flagged(self):
        src = "def build(items: list | None = []) -> list:\n    return items\n"
        assert "API001" in rules_of(lint(src))

    def test_bare_except_flagged(self):
        src = "try:\n    x = 1\nexcept:\n    pass\n"
        assert "API001" in rules_of(lint(src))

    def test_unannotated_public_function_flagged(self):
        src = "def compute(value):\n    return value\n"
        assert "API001" in rules_of(lint(src))

    def test_missing_return_annotation_flagged(self):
        src = "def compute(value: int):\n    return value\n"
        assert "API001" in rules_of(lint(src))

    def test_annotated_function_clean(self):
        src = "def compute(value: int) -> int:\n    return value\n"
        assert "API001" not in rules_of(lint(src))

    def test_private_function_exempt(self):
        src = "def _helper(value):\n    return value\n"
        assert "API001" not in rules_of(lint(src))

    def test_annotations_not_required_outside_src(self):
        src = "def test_run(benchmark):\n    pass\n\ndef helper(x):\n    pass\n"
        findings = lint(src, path="benchmarks/bench_example.py")
        assert "API001" not in rules_of(findings)


# ---------------------------------------------------------------- RES002


class TestRes002:
    def test_broad_except_pass_flagged(self):
        src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert "RES002" in rules_of(lint(src))

    def test_bare_except_ellipsis_flagged(self):
        src = "try:\n    x = 1\nexcept:\n    ...\n"
        assert "RES002" in rules_of(lint(src))

    def test_base_exception_flagged(self):
        src = "try:\n    x = 1\nexcept BaseException:\n    pass\n"
        assert "RES002" in rules_of(lint(src))

    def test_broad_member_of_tuple_flagged(self):
        src = "try:\n    x = 1\nexcept (ValueError, Exception):\n    pass\n"
        assert "RES002" in rules_of(lint(src))

    def test_narrow_typed_pass_clean(self):
        # the supervisor's kill-pool idiom: a precise catch may swallow
        src = "try:\n    x = 1\nexcept (OSError, ValueError):\n    pass\n"
        assert "RES002" not in rules_of(lint(src))

    def test_broad_except_with_handling_body_clean(self):
        src = "try:\n    x = 1\nexcept Exception:\n    x = None\n"
        assert "RES002" not in rules_of(lint(src))

    def test_scoped_by_res002_paths(self):
        src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        findings = lint(src, path="benchmarks/bench_example.py")
        assert "RES002" not in rules_of(findings)

    def test_res002_paths_configurable(self):
        cfg = config_from_mapping(
            {"rules": {"res002-paths": ["benchmarks/"]}}
        )
        src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        findings = lint(src, path="benchmarks/bench_example.py", config=cfg)
        assert "RES002" in rules_of(findings)


# ---------------------------------------------------------- suppressions


class TestSuppressions:
    def test_collect(self):
        src = "x = 1  # repro-lint: disable=FP001,API001\ny = 2\n"
        assert collect_suppressions(src) == {1: {"FP001", "API001"}}

    def test_suppressed_rule_dropped(self):
        src = "bad = x == 1.5  # repro-lint: disable=FP001\n"
        assert "FP001" not in rules_of(lint(src))

    def test_disable_all(self):
        src = "import random  # repro-lint: disable=all\n"
        assert rules_of(lint(src)) == []

    def test_wrong_rule_does_not_suppress(self):
        src = "bad = x == 1.5  # repro-lint: disable=DET001\n"
        assert "FP001" in rules_of(lint(src))

    def test_other_line_not_suppressed(self):
        src = "# repro-lint: disable=FP001\nbad = x == 1.5\n"
        assert "FP001" in rules_of(lint(src))


# --------------------------------------------------------- configuration


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(LintConfigError):
            config_from_mapping({"sevrity": {}})

    def test_misspelt_rules_key_rejected(self):
        # a typo'd key must not leave DET002 at its default scope
        with pytest.raises(LintConfigError, match="det002-path"):
            config_from_mapping({"rules": {"det002-path": ["repro/noc/"]}})

    @pytest.mark.parametrize("data", [
        {"select": ["DET001"]},
        {"ignore": ["FP001"]},
        {"severity": {"FP001": "advice"}},
        {"rules": {"det003-allow": ["repro/util/rng.py"]}},
        {"rules": {"err001-base": "repro.errors.ReproError"}},
    ])
    def test_retired_keys_rejected(self, data):
        with pytest.raises(LintConfigError):
            config_from_mapping(data)

    def test_rules_value_must_be_string_list(self):
        with pytest.raises(LintConfigError, match="list of strings"):
            config_from_mapping({"rules": {"det001-allow": "rng.py"}})

    def test_load_config_reads_repo_pyproject(self):
        cfg = load_config()
        assert "tests" in cfg.exclude

    def test_rule_scoping_configurable(self):
        cfg = config_from_mapping(
            {"rules": {"det002-paths": ["repro/noc/"]}}
        )
        src = "import time\nnow = time.time()\n"
        assert "DET002" not in rules_of(
            lint(src, path="src/repro/sim/x.py", config=cfg)
        )
        assert "DET002" in rules_of(
            lint(src, path="src/repro/noc/x.py", config=cfg)
        )

    def test_det002_allow_carves_out_harness(self):
        cfg = config_from_mapping(
            {"rules": {
                "det002-paths": ["repro/telemetry/"],
                "det002-allow": ["repro/telemetry/timing.py"],
            }}
        )
        src = "import time\nnow = time.time()\n"
        assert "DET002" in rules_of(
            lint(src, path="src/repro/telemetry/tracer.py", config=cfg)
        )
        assert "DET002" not in rules_of(
            lint(src, path="src/repro/telemetry/timing.py", config=cfg)
        )

    def test_repo_config_scopes_bench_harness(self):
        cfg = load_config()
        assert "repro/telemetry/timing.py" in cfg.det002_allow


# ------------------------------------------------------------- reporters


class TestReporters:
    def _result(self):
        findings = lint("import random\nbad = x == 1.5\n")
        return LintResult(findings=tuple(findings), files_checked=1)

    def test_parse_error_reported(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == [PARSE_RULE]
        assert findings[0].severity == "error"

    def test_text_reporter(self):
        text = render_text(self._result())
        assert "DET001" in text and "FP001" in text
        assert "1 file checked" in text and "2 error(s)" in text

    def test_json_schema(self):
        result = self._result()
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert payload["summary"]["error"] == result.error_count
        assert payload["summary"]["advice"] == result.advice_count
        for item in payload["findings"]:
            assert set(item) == {
                "path", "line", "column", "rule", "severity", "message",
            }

    def test_render_rules_lists_every_rule(self):
        text = render_rules()
        assert len(RULES) == 11
        for rule_id in RULES:
            assert rule_id in text

    def test_exit_codes(self):
        dirty = self._result()
        assert dirty.error_count > 0 and dirty.exit_code == 1
        clean = LintResult(findings=(), files_checked=3)
        assert clean.exit_code == 0
        advice_only = LintResult(
            findings=(
                Finding("p.py", 1, 0, "API001", "advice", "m"),
            ),
            files_checked=1,
        )
        assert advice_only.exit_code == 0


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_lint_paths_missing_operand(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"], CFG)

    def test_cli_clean_file(self, tmp_path):
        from repro.cli import main

        good = tmp_path / "clean.py"
        good.write_text("def fine(x: int) -> int:\n    return x\n")
        assert main(["lint", str(good)]) == 0

    def test_cli_violations_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "dirty.py"
        bad.write_text("import random\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["error"] >= 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "FP001", "INV001", "API001",
                        "RES002", "PAR001", "PAR002", "DET003", "TEL001",
                        "ERR001"):
            assert f"{rule_id} [" in out

    @pytest.mark.parametrize("argv", [
        ["--xmod"],
        ["--baseline", "lint-baseline.json"],
        ["--update-baseline"],
        ["--sarif", "out.sarif"],
        ["--no-cache"],
        ["--cache-path", "cache.json"],
    ])
    def test_removed_flags_are_argparse_errors(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["lint", "--list-rules", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repository_is_clean(self):
        result = lint_paths(["src", "benchmarks", "examples"], load_config())
        assert result.exit_code == 0, render_text(result)

