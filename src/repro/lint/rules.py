"""The rule registry of ``repro lint`` and its six per-file rules.

``RULES`` holds all eleven rules.  The per-file ones, defined here, each
encode an invariant the paper (or this reproduction's architecture)
depends on but Python cannot enforce by itself; the five whole-program
rules register from :mod:`repro.lint.xmod.rules`.

* **DET001 — seeded randomness only.**  Every stochastic component must
  draw from :func:`repro.util.rng.rng_stream`; raw ``random`` /
  ``np.random.default_rng`` / ``np.random.seed`` calls create unkeyed
  streams that silently break Monte Carlo replayability (paper §V).
* **DET002 — no wall clock in the simulator.**  ``repro.sim``, ``cache``
  and ``partitioning`` operate purely in *simulated* cycles; any
  ``time.time`` / ``datetime.now`` read couples results to the host.
* **FP001 — no float equality.**  Miss ratios, weights and utilities are
  floats; ``==``/``!=`` against float expressions is order-of-evaluation
  dependent.  Compare with a tolerance (``math.isclose``/``pytest.approx``)
  or compare the underlying integer counters.
* **INV001 — partition decisions go through the guard.**  Direct
  ``PartitionMap`` construction outside the partitioning algorithms and
  ``resilience/guard.py`` bypasses way conservation, the 9/16 capacity cap
  and Rules 1–3 validation.
* **API001 — API hygiene.**  Mutable default arguments, bare ``except:``
  and (inside the library tree) unannotated public functions.
* **RES002 — no silently swallowed broad exceptions.**  An ``except``
  over ``Exception``/``BaseException`` (or bare) whose body is only
  ``pass``/``...`` hides worker crashes from the fail-fast sweep fabric;
  failures must be wrapped, re-raised, or at least logged.

A per-file rule is a pure function ``(tree, ctx) -> iterator of (line,
col, msg)``; the engine attaches severities, applies suppressions and
sorts.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.lint.config import LintConfig

RawFinding = tuple[int, int, str]


@dataclass(frozen=True)
class FileContext:
    """Everything a per-file rule may consult about the file being linted."""

    path: str  #: posix-joined path exactly as passed on the command line
    config: LintConfig
    #: every node of the file's tree in ``ast.walk`` order, walked once and
    #: shared by all rules.
    nodes: list[ast.AST]

    def matches(self, fragments: tuple[str, ...]) -> bool:
        """Fragment-containment path scoping (see :mod:`repro.lint.config`)."""
        return any(fragment in self.path for fragment in fragments)


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity, severity, and its checker.

    A per-file rule's ``check`` takes ``(tree, FileContext)`` and yields
    ``(line, col, message)``; a whole-program rule's takes the
    :class:`~repro.lint.xmod.rules.XmodContext` and yields ``(path, line,
    col, message)``.
    """

    id: str
    title: str
    severity: str
    rationale: str
    check: Callable
    whole_program: bool = False


RULES: dict[str, Rule] = {}


def register(
    rule_id: str,
    title: str,
    severity: str,
    rationale: str,
    whole_program: bool = False,
) -> Callable[[Callable], Callable]:
    def wrap(fn: Callable) -> Callable:
        RULES[rule_id] = Rule(
            rule_id, title, severity, rationale, fn, whole_program
        )
        return fn

    return wrap


def _loc(node: ast.AST) -> tuple[int, int]:
    return node.lineno, node.col_offset


# -- DET001 ------------------------------------------------------------------

#: module names whose import anywhere outside util/rng.py is a finding.
_RNG_MODULES = ("random", "numpy.random")


def _is_np_random(node: ast.expr) -> bool:
    """True for the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register(
    "DET001",
    "unseeded randomness outside util/rng.py",
    "error",
    "all randomness must derive from repro.util.rng.rng_stream so every "
    "experiment is replayable from (seed, keys)",
)
def _det001(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    if ctx.matches(ctx.config.det001_allow):
        return
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _RNG_MODULES or alias.name.startswith(
                    "numpy.random."
                ):
                    line, col = _loc(node)
                    yield (
                        line, col,
                        f"import of {alias.name!r}: draw from "
                        "repro.util.rng.rng_stream instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            bad = module in _RNG_MODULES or module.startswith("numpy.random.")
            if module == "numpy" and any(
                alias.name == "random" for alias in node.names
            ):
                bad = True
            if bad:
                line, col = _loc(node)
                yield (
                    line, col,
                    f"import from {module!r}: draw from "
                    "repro.util.rng.rng_stream instead",
                )
        elif isinstance(node, ast.Attribute) and _is_np_random(node.value):
            line, col = _loc(node)
            yield (
                line, col,
                f"np.random.{node.attr}: use rng_stream(seed, *keys) so the "
                "stream is keyed and replayable",
            )


# -- DET002 ------------------------------------------------------------------

_WALL_CLOCK_ATTRS = {
    "time": ("time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "localtime", "gmtime"),
    "datetime": ("now", "utcnow", "today"),
}


@register(
    "DET002",
    "wall-clock read inside the deterministic simulator",
    "error",
    "sim/, cache/ and partitioning/ operate in simulated cycles only; "
    "host-clock reads make runs irreproducible",
)
def _det002(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    if not ctx.matches(ctx.config.det002_paths):
        return
    if ctx.matches(ctx.config.det002_allow):
        return  # configured clock chokepoint (e.g. telemetry/timing.py)
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "datetime"):
                    line, col = _loc(node)
                    yield (
                        line, col,
                        f"import of {alias.name!r} in a simulated-time "
                        "subsystem: use simulated cycles, not the host clock",
                    )
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "") in ("time", "datetime"):
                line, col = _loc(node)
                yield (
                    line, col,
                    f"import from {node.module!r} in a simulated-time "
                    "subsystem: use simulated cycles, not the host clock",
                )
        elif isinstance(node, ast.Attribute) and isinstance(
            node.value, (ast.Name, ast.Attribute)
        ):
            base = node.value
            base_name = base.id if isinstance(base, ast.Name) else base.attr
            if node.attr in _WALL_CLOCK_ATTRS.get(base_name, ()):
                line, col = _loc(node)
                yield (
                    line, col,
                    f"{base_name}.{node.attr} is a wall-clock read; the "
                    "simulator must only consume simulated cycles",
                )


# -- FP001 -------------------------------------------------------------------


def _is_float_expr(node: ast.expr) -> bool:
    """Conservative float-typedness: float literals, arithmetic over them,
    and explicit ``float(...)`` conversions.  Anything the checker cannot
    prove float stays unflagged — zero false positives over cleverness."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_float_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_float_expr(node.left) or _is_float_expr(node.right)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and not node.keywords
    )


@register(
    "FP001",
    "equality comparison between float-typed expressions",
    "error",
    "miss ratios and utilities are floats; exact ==/!= depends on "
    "evaluation order — use math.isclose/pytest.approx or compare the "
    "underlying integer counters",
)
def _fp001(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    for node in ctx.nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_float_expr(left) or _is_float_expr(right):
                line, col = _loc(left)
                yield (
                    line, col,
                    "float equality: compare with a tolerance "
                    "(math.isclose / pytest.approx) or compare integer "
                    "counters",
                )


# -- INV001 ------------------------------------------------------------------


@register(
    "INV001",
    "direct PartitionMap construction outside the partitioning layer",
    "error",
    "partition decisions must flow through the partitioning algorithms and "
    "DecisionGuard so way conservation, the 9/16 cap and Rules 1-3 are "
    "validated before installation",
)
def _inv001(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    if ctx.matches(ctx.config.inv001_allow):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "PartitionMap":
            line, col = _loc(node)
            yield (
                line, col,
                "construct partitions via bank_aware_partition/"
                "equal_partition_map (+ DecisionGuard), not PartitionMap() "
                "directly",
            )


# -- API001 ------------------------------------------------------------------

_MUTABLE_CALLS = ("list", "dict", "set", "bytearray")


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _public_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module- and class-level defs (nested helpers are private by nature)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _unannotated(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    missing = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if a.annotation is None and a.arg not in ("self", "cls")
    ]
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    return missing


@register(
    "API001",
    "API hygiene: mutable defaults, bare except, unannotated public API",
    "error",
    "mutable defaults alias state across calls, bare except swallows "
    "KeyboardInterrupt/SystemExit, and the public library surface must be "
    "typed",
)
def _api001(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    for node in ctx.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is not None and _is_mutable_default(default):
                    line, col = _loc(default)
                    yield (
                        line, col,
                        f"mutable default argument in {node.name}(): default "
                        "to None and build inside the function",
                    )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            line, col = _loc(node)
            yield (
                line, col,
                "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                "catch a concrete exception (ReproError for contained "
                "failures)",
            )
    if not ctx.matches(ctx.config.api001_annotation_paths):
        return
    for fn in _public_functions(tree):
        if fn.name.startswith("_") or fn.name.startswith("test_"):
            continue
        missing = _unannotated(fn)
        if missing:
            yield (
                fn.lineno, fn.col_offset,
                f"public function {fn.name}() has unannotated parameters: "
                f"{', '.join(missing)}",
            )
        if fn.returns is None:
            yield (
                fn.lineno, fn.col_offset,
                f"public function {fn.name}() has no return annotation",
            )


# -- RES002 ------------------------------------------------------------------

_BROAD_EXCEPTIONS = ("Exception", "BaseException")


def _is_broad_catch(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:``, ``except Exception``, ``except BaseException``, or
    a tuple containing either — the catches wide enough to hide a worker
    crash.  Narrow typed catches stay RES002-clean."""
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        name = (
            candidate.id
            if isinstance(candidate, ast.Name)
            else candidate.attr if isinstance(candidate, ast.Attribute)
            else None
        )
        if name in _BROAD_EXCEPTIONS:
            return True
    return False


def _swallows_silently(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all: only ``pass`` and/or
    bare ``...`` statements.  A handler that assigns, logs, re-raises, or
    returns a fallback has made a visible decision and is not flagged."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


@register(
    "RES002",
    "broad exception swallowed silently",
    "error",
    "an 'except Exception: pass' (or bare except) hides worker crashes "
    "from the fail-fast sweep fabric; wrap in a typed error, re-raise, or "
    "at minimum record the failure",
)
def _res002(tree: ast.Module, ctx: FileContext) -> Iterator[RawFinding]:
    if not ctx.matches(ctx.config.res002_paths):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _is_broad_catch(node) and _swallows_silently(node):
            line, col = _loc(node)
            caught = "bare except" if node.type is None else "broad except"
            yield (
                line, col,
                f"{caught} with a swallow-only body: handle the failure "
                "(wrap/re-raise/log) or catch the precise "
                "exception instead",
            )
