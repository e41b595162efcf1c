"""The five whole-program rules of ``repro lint``.

Each rule enforces a contract the per-file rules cannot see because it
spans modules:

* **PAR001 — submitted callables must pickle.**  A callable handed to
  ``map_ordered`` (the Supervisor's one fan-out) must resolve to a
  module-level function: lambdas and nested defs capture state that either
  fails to pickle (pool backends) or silently diverges between the serial
  and parallel paths.
* **PAR002 — no global mutation on worker paths.**  Any function
  reachable (via the call graph) from a worker-mapped callable must not
  write module-level mutable state: each pool process has its own copy,
  so the write is lost, unordered, or both — a race against determinism.
* **DET003 — RNG provenance.**  Every numpy ``Generator`` must descend
  from :func:`repro.util.rng.rng_stream` (tracked through import aliasing,
  which the per-file DET001 cannot follow), and a single ``Generator``
  object must not flow into a parallel fan-out (``initargs``/``partial``):
  draw order would depend on scheduling.
* **TEL001 — telemetry schema drift.**  The literal field set of every
  ``tracer.emit("type", field=...)`` call is checked against
  ``obs/events.py``'s declared ``EVENT_SCHEMAS``: unknown event
  types, unknown fields, and missing required fields are all drift that
  runtime validation only catches when the emitting path runs.
* **ERR001 — CLI-reachable raises use the taxonomy.**  Every ``raise``
  reachable from a CLI command handler must resolve to the
  :class:`~repro.errors.ReproError` taxonomy (or an exit/OS
  family the CLI already handles), so users get clean error exits instead
  of tracebacks.

A whole-program rule is a function ``(ctx) -> iterator of RawXFinding``;
the engine attaches severities and applies the same per-line suppressions
as for the per-file rules.
"""

from __future__ import annotations

import ast
import builtins
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.config import LintConfig
from repro.lint.rules import register
from repro.lint.xmod.callgraph import (
    CallGraph,
    FunctionUnit,
    iter_own_nodes,
    resolve_callable,
)
from repro.lint.xmod.dataflow import (
    assignment_origins,
    initargs_exprs,
    module_mutable_globals,
    nonlocal_mutations,
    submission_sites,
    value_atoms,
)
from repro.lint.xmod.symbols import Project

#: (path, line, column, message)
RawXFinding = tuple[str, int, int, str]

#: the RNG chokepoint every Generator must descend from.
RNG_STREAM_QUALNAME = "repro.util.rng.rng_stream"

#: external callables that construct raw numpy generators/streams.
RAW_RNG_QUALNAMES = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.seed",
})

#: ERR001 traces raises from every function of this module named ``cmd_*``.
CLI_MODULE = "repro.cli"
CLI_HANDLER_PREFIX = "cmd_"

#: the taxonomy base every CLI-reachable raise must derive from (ERR001).
ERR001_BASE = "repro.errors.ReproError"

#: the module whose EVENT_SCHEMAS/COMMON_FIELDS TEL001 checks against.
EVENTS_MODULE = "repro.obs.events"

#: raises that are *not* ReproError but are already handled cleanly by the
#: CLI boundary (argparse exits, OS errors, interpreter control flow).
ERR001_EXEMPT = frozenset({
    "SystemExit", "KeyboardInterrupt", "GeneratorExit", "StopIteration",
    "StopAsyncIteration", "NotImplementedError", "AssertionError",
    "OSError", "IOError", "FileNotFoundError", "FileExistsError",
    "PermissionError", "IsADirectoryError", "NotADirectoryError",
    "InterruptedError", "BlockingIOError", "ChildProcessError",
    "ProcessLookupError", "TimeoutError", "ConnectionError",
    "BrokenPipeError", "ConnectionResetError", "ConnectionAbortedError",
    "ConnectionRefusedError", "ArgumentTypeError",
})


@dataclass
class XmodContext:
    """Everything a cross-module rule may consult, built once per run."""

    project: Project
    graph: CallGraph
    config: LintConfig
    #: lazily shared caches
    _sites: list | None = field(default=None, repr=False)
    _worker_roots: set[str] | None = field(default=None, repr=False)

    # -- shared site discovery ----------------------------------------------

    def all_submission_sites(self) -> list:
        if self._sites is None:
            self._sites = [
                site
                for unit in self.graph.units.values()
                for site in submission_sites(unit)
            ]
        return self._sites

    def worker_roots(self) -> set[str]:
        """Unit ids of every resolvable worker-mapped callable."""
        if self._worker_roots is None:
            self._worker_roots = {
                unit_id
                for site in self.all_submission_sites()
                if site.fn_expr is not None
                for atom in self.callable_atoms(site.unit, site.fn_expr)
                for unit_id in self.atom_units(site.unit, atom)
            }
        return self._worker_roots

    def atom_units(self, unit: FunctionUnit, atom: ast.expr) -> list[str]:
        """Unit ids one callable expression may denote.  A bare name the
        symbol table cannot see may still be a nested def of ``unit``."""
        resolved = resolve_callable(self.graph, unit, atom)
        if not resolved and isinstance(atom, ast.Name):
            local_id = f"{unit.unit_id}.<locals>.{atom.id}"
            if local_id in self.graph.units:
                resolved = [local_id]
        return resolved

    def callable_atoms(
        self, unit: FunctionUnit, expr: ast.expr
    ) -> list[ast.expr]:
        """Flatten conditionals and follow single-name local assignments
        (``fn = a if c else b``)."""
        atoms: list[ast.expr] = []
        origins = assignment_origins(unit.node)
        seen: set[str] = set()

        def expand(node: ast.expr) -> None:
            for atom in value_atoms(node):
                if (
                    isinstance(atom, ast.Name)
                    and atom.id in origins
                    and atom.id not in seen
                ):
                    seen.add(atom.id)
                    for assigned in origins[atom.id]:
                        expand(assigned)
                else:
                    atoms.append(atom)

        expand(expr)
        return atoms


# -- PAR001 ------------------------------------------------------------------


@register(
    "PAR001",
    "non-module-level callable submitted to a process fan-out",
    "error",
    "callables handed to Supervisor.map_ordered must be "
    "module-level functions: lambdas and nested defs capture state that "
    "fails to pickle or silently diverges between serial and parallel runs",
    whole_program=True,
)
def _par001(ctx: XmodContext) -> Iterator[RawXFinding]:
    for site in ctx.all_submission_sites():
        if site.fn_expr is None:
            continue
        path = ctx.project.modules[site.unit.module].path
        for atom in ctx.callable_atoms(site.unit, site.fn_expr):
            if isinstance(atom, ast.Lambda):
                yield (
                    path, atom.lineno, atom.col_offset,
                    f"lambda submitted to {site.method}(): workers need a "
                    "picklable module-level function",
                )
                continue
            # call results etc. resolve to no unit: unknown, stay silent
            for unit_id in ctx.atom_units(site.unit, atom):
                callee = ctx.graph.units[unit_id]
                if callee.parent is not None:
                    yield (
                        path, atom.lineno, atom.col_offset,
                        f"{callee.node.name}() submitted to "
                        f"{site.method}() is a nested function: it closes "
                        "over its enclosing frame and cannot pickle; move "
                        "it to module level",
                    )


# -- PAR002 ------------------------------------------------------------------


@register(
    "PAR002",
    "module-level mutable global written on a worker-reachable path",
    "error",
    "a function reachable from a worker-mapped callable that writes a "
    "module-level container races against determinism: each pool process "
    "mutates its own copy in scheduling order, so state diverges from the "
    "serial run",
    whole_program=True,
)
def _par002(ctx: XmodContext) -> Iterator[RawXFinding]:
    reachable = ctx.graph.reachable(ctx.worker_roots())
    for unit_id in sorted(reachable):
        unit = ctx.graph.units[unit_id]
        info = ctx.project.modules[unit.module]
        mutables = module_mutable_globals(info.tree)
        if not mutables:
            continue
        for mutation in nonlocal_mutations(unit.node, set(mutables)):
            yield (
                info.path, mutation.line, mutation.column,
                f"worker-reachable {unit.node.name}() {mutation.detail} "
                f"of module-level global {mutation.name!r} (defined at "
                f"line {mutables[mutation.name]}); pass state through "
                "arguments/results or the executor initializer instead",
            )


# -- DET003 ------------------------------------------------------------------


def _generator_locals(
    ctx: XmodContext, unit: FunctionUnit
) -> dict[str, ast.expr]:
    """Local names bound to an rng_stream() Generator in this unit."""
    out: dict[str, ast.expr] = {}
    for name, values in assignment_origins(unit.node).items():
        for value in values:
            for atom in value_atoms(value):
                if isinstance(atom, ast.Call):
                    resolved = ctx.project.resolve_expr(
                        unit.module, atom.func
                    )
                    if (
                        resolved is not None
                        and resolved.qualname == RNG_STREAM_QUALNAME
                    ):
                        out[name] = atom
    return out


@register(
    "DET003",
    "numpy Generator without rng_stream provenance (or shared across a fan-out)",
    "error",
    "every Generator must be created through repro.util.rng.rng_stream "
    "(keyed, replayable) and derived per work item: one Generator object "
    "flowing into a parallel fan-out draws in scheduling order",
    whole_program=True,
)
def _det003(ctx: XmodContext) -> Iterator[RawXFinding]:
    allow = ctx.config.det001_allow
    # (a) raw generator construction, resolved through import aliases
    for module_name, info in ctx.project.modules.items():
        if any(fragment in info.path for fragment in allow):
            continue
        for node in info.nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.project.resolve_expr(module_name, node.func)
            if resolved is not None and resolved.qualname in RAW_RNG_QUALNAMES:
                yield (
                    info.path, node.lineno, node.col_offset,
                    f"{resolved.qualname} creates an unkeyed random stream; "
                    "derive it from repro.util.rng.rng_stream(seed, *keys) "
                    "so provenance is replayable",
                )
    # (b) one Generator object flowing into a parallel fan-out
    for unit in ctx.graph.units.values():
        rng_locals = _generator_locals(ctx, unit)
        if not rng_locals:
            continue
        info = ctx.project.modules[unit.module]

        def name_hits(expr: ast.expr):
            for node in ast.walk(expr):
                if isinstance(node, ast.Name) and node.id in rng_locals:
                    yield node

        for site in submission_sites(unit):
            for arg in [*site.call.args, *[k.value for k in site.call.keywords]]:
                for hit in name_hits(arg):
                    yield (
                        info.path, hit.lineno, hit.col_offset,
                        f"Generator {hit.id!r} flows into "
                        f"{site.method}(): a single stream drawn from "
                        "multiple work items depends on scheduling order; "
                        "derive a per-item stream with rng_stream(seed, key) "
                        "inside the worker",
                    )
        for initargs in initargs_exprs(unit):
            for hit in name_hits(initargs):
                yield (
                    info.path, hit.lineno, hit.col_offset,
                    f"Generator {hit.id!r} shipped via initargs: every "
                    "worker process receives a copy of the same stream "
                    "state; key per-worker streams with rng_stream instead",
                )


# -- TEL001 ------------------------------------------------------------------


@dataclass(frozen=True)
class EventSchema:
    """Statically extracted shape of one telemetry event type."""

    fields: frozenset[str]
    required: frozenset[str]


def extract_event_schemas(
    project: Project, events_module: str
) -> tuple[dict[str, EventSchema], frozenset[str]] | None:
    """Parse ``EVENT_SCHEMAS``/``COMMON_FIELDS`` out of the events module.

    Returns ``(schemas, common_field_names)`` or ``None`` when the module
    is not part of the analyzed tree (TEL001 then stays silent).
    """
    info = project.modules.get(events_module)
    if info is None:
        return None

    def spec_required(expr: ast.expr) -> bool:
        """Is the FieldSpec this expression denotes required?"""
        node = expr
        if isinstance(node, ast.Name):
            node = info.assigns.get(node.id, node)
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "required" and isinstance(
                    keyword.value, ast.Constant
                ):
                    return bool(keyword.value.value)
            return True
        return True

    def field_table(value: ast.expr) -> dict[str, bool] | None:
        if not isinstance(value, ast.Dict):
            return None
        table: dict[str, bool] = {}
        for key, spec in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                table[key.value] = spec_required(spec)
        return table

    schemas_node = info.assigns.get("EVENT_SCHEMAS")
    common_node = info.assigns.get("COMMON_FIELDS")
    if not isinstance(schemas_node, ast.Dict):
        return None
    schemas: dict[str, EventSchema] = {}
    for key, value in zip(schemas_node.keys, schemas_node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        table = field_table(value)
        if table is None:
            continue
        schemas[key.value] = EventSchema(
            fields=frozenset(table),
            required=frozenset(f for f, req in table.items() if req),
        )
    common = frozenset(field_table(common_node) or {"type", "seq", "scheme"})
    return schemas, common


@register(
    "TEL001",
    "telemetry emission drifts from the declared event schema",
    "error",
    "emit sites must agree with obs/events.py: an unknown event "
    "type, an unknown field, or a missing required field only fails at "
    "runtime when that emitting path happens to execute — CI should not "
    "have to wait for it",
    whole_program=True,
)
def _tel001(ctx: XmodContext) -> Iterator[RawXFinding]:
    extracted = extract_event_schemas(ctx.project, EVENTS_MODULE)
    if extracted is None:
        return
    schemas, common = extracted
    for module_name, info in ctx.project.modules.items():
        for node in info.nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            etype = node.args[0].value
            schema = schemas.get(etype)
            if schema is None:
                yield (
                    info.path, node.lineno, node.col_offset,
                    f"emit of unknown event type {etype!r}: not declared "
                    f"in {EVENTS_MODULE}.EVENT_SCHEMAS",
                )
                continue
            has_splat = any(k.arg is None for k in node.keywords)
            literal_fields = {k.arg for k in node.keywords if k.arg}
            for name in sorted(literal_fields - schema.fields - common):
                yield (
                    info.path, node.lineno, node.col_offset,
                    f"emit of {etype!r} passes field {name!r} that the "
                    "schema does not declare (schema drift: add the field "
                    "to EVENT_SCHEMAS or fix the emitter)",
                )
            if not has_splat:
                for name in sorted(schema.required - literal_fields):
                    yield (
                        info.path, node.lineno, node.col_offset,
                        f"emit of {etype!r} is missing required field "
                        f"{name!r}",
                    )


# -- ERR001 ------------------------------------------------------------------


def _is_builtin_exception(name: str) -> bool:
    """Does ``name`` denote a builtin exception class (ValueError, ...)?"""
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _entrypoint_units(ctx: XmodContext) -> set[str]:
    """Unit ids of the CLI command handlers (module-level ``cmd_*``)."""
    return {
        unit_id
        for unit_id, unit in ctx.graph.units.items()
        if unit.module == CLI_MODULE
        and unit.parent is None
        and unit.owner_class is None
        and unit.node.name.startswith(CLI_HANDLER_PREFIX)
    }


@register(
    "ERR001",
    "CLI-reachable raise outside the ReproError taxonomy",
    "error",
    "the CLI promises clean error exits: every raise reachable from a "
    "command handler must be a ReproError (or an exit/OS-error family the "
    "CLI boundary already catches), not a bare ValueError/RuntimeError "
    "that dumps a traceback at the user",
    whole_program=True,
)
def _err001(ctx: XmodContext) -> Iterator[RawXFinding]:
    reachable = ctx.graph.reachable(_entrypoint_units(ctx))
    for unit_id in sorted(reachable):
        unit = ctx.graph.units[unit_id]
        info = ctx.project.modules[unit.module]
        for node in iter_own_nodes(unit.node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            if not isinstance(target, (ast.Name, ast.Attribute)):
                continue  # raise of a computed value: unknown, stay silent
            resolved = ctx.project.resolve_expr(unit.module, target)
            if resolved is None:
                if (
                    isinstance(target, ast.Name)
                    and _is_builtin_exception(target.id)
                    and target.id not in ERR001_EXEMPT
                ):
                    # raise of a builtin (ValueError, RuntimeError, ...):
                    # the symbol table has no entry, but the name is
                    # unambiguous — it cannot be shadowed by a local here
                    # or resolve_expr would have found the binding
                    yield (
                        info.path, node.lineno, node.col_offset,
                        f"raise of builtin {target.id} in "
                        f"{unit.node.name}() is reachable from a CLI "
                        "command handler; raise a ReproError subclass so "
                        "the CLI exits cleanly instead of printing a "
                        "traceback",
                    )
                # otherwise a local name (e.g. a caught exception being
                # re-raised): stay silent
                continue
            leaf = resolved.qualname.rsplit(".", 1)[-1]
            if resolved.qualname == ERR001_BASE or leaf in ERR001_EXEMPT:
                continue
            if (
                resolved.kind == "class"
                and isinstance(resolved.node, ast.ClassDef)
                and resolved.module is not None
            ):
                if ctx.project.is_subclass_of(
                    resolved.module, resolved.node, {ERR001_BASE}
                ):
                    continue
            elif resolved.kind == "external":
                # builtin / third-party exceptions not in the exempt set
                pass
            else:
                continue  # functions/values: not an exception class
            yield (
                info.path, node.lineno, node.col_offset,
                f"raise of {resolved.qualname} in {unit.node.name}() is "
                "reachable from a CLI command handler but is not a "
                "ReproError: users get a traceback instead of a clean "
                "error exit",
            )


__all__ = [
    "ERR001_EXEMPT",
    "EventSchema",
    "RAW_RNG_QUALNAMES",
    "RNG_STREAM_QUALNAME",
    "RawXFinding",
    "XmodContext",
    "extract_event_schemas",
]
