"""Small, per-function dataflow facts the cross-module rules share.

Nothing here is a fixpoint analysis: these are single-pass syntactic
summaries (local binding sets, assignment origins, mutation sites,
worker-submission sites) that are cheap to compute and precise enough for
the rules' purposes.  The guiding rule is the same as the per-file
engine's: anything the summary cannot prove stays unflagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.xmod.callgraph import FunctionUnit, iter_own_nodes as _own_nodes

#: constructor calls whose result is a mutable container.
MUTABLE_FACTORIES = (
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
)

#: method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "extendleft", "sort", "reverse",
})

#: method names at which a callable + work items are handed to a process
#: fan-out (the supervisor's ``map_ordered``).
SUBMIT_METHODS = ("map_ordered",)


def is_mutable_literal(node: ast.expr) -> bool:
    """Is this expression a mutable-container construction?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_FACTORIES
    )


def module_mutable_globals(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> defining line."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target]
            value = node.value
        else:
            continue
        if value is not None and is_mutable_literal(value):
            for target in targets:
                out[target.id] = node.lineno
    return out


def local_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name the function binds locally (so a Store to anything else
    must be targeting an enclosing scope)."""
    args = fn.args
    names = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names - declared_global


def assignment_origins(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, list[ast.expr]]:
    """Local name -> every expression ever assigned to it in this function
    (conditional branches included; flow order deliberately ignored)."""
    origins: dict[str, list[ast.expr]] = {}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    origins.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ) and node.value is not None:
            origins.setdefault(node.target.id, []).append(node.value)
    return origins


def value_atoms(expr: ast.expr) -> list[ast.expr]:
    """Flatten conditional expressions into their possible values:
    ``a if c else b`` -> atoms of ``a`` + atoms of ``b``; ``(a or b)``
    likewise.  Anything else is its own (single) atom."""
    if isinstance(expr, ast.IfExp):
        return value_atoms(expr.body) + value_atoms(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        out: list[ast.expr] = []
        for value in expr.values:
            out.extend(value_atoms(value))
        return out
    return [expr]


@dataclass
class SubmissionSite:
    """One hand-off of a callable to a process fan-out API."""

    call: ast.Call
    method: str  #: one of SUBMIT_METHODS, e.g. map_ordered
    #: the expression in the callable slot (first positional / ``fn=``).
    fn_expr: ast.expr | None
    #: the enclosing unit the site was found in.
    unit: FunctionUnit


def submission_sites(unit: FunctionUnit) -> list[SubmissionSite]:
    """Worker-submission call sites inside one unit.

    A site is any call whose callee is an attribute named in
    ``SUBMIT_METHODS`` (``supervisor.map_ordered(fn, items)``) — receiver
    type is not checked, which can over-match foreign methods of the same
    name; those are suppressed inline.
    """
    sites: list[SubmissionSite] = []
    for node in _own_nodes(unit.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS
        ):
            continue
        fn_expr = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "fn":
                fn_expr = keyword.value
        sites.append(SubmissionSite(node, func.attr, fn_expr, unit))
    return sites


def initargs_exprs(unit: FunctionUnit) -> list[ast.expr]:
    """The ``initargs=`` values of calls in ``unit`` (what an executor-like
    constructor, the Supervisor or a raw pool, ships to every worker)."""
    return [
        keyword.value
        for node in _own_nodes(unit.node)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "initargs"
    ]


@dataclass
class MutationSite:
    """One write to a name that is not local to the function."""

    name: str
    line: int
    column: int
    detail: str  #: what the write does, for the finding's message


def _base_name(expr: ast.expr) -> str | None:
    """The root Name of a subscript/attribute chain (``X[0].y`` -> X)."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def nonlocal_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    candidates: set[str],
) -> list[MutationSite]:
    """Writes inside ``fn`` that hit a name in ``candidates`` (typically the
    defining module's top-level names) rather than a local binding."""
    locals_ = local_bindings(fn)
    interesting = candidates - locals_
    out: list[MutationSite] = []

    def hit(name: str | None) -> bool:
        return name is not None and name in interesting

    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            # only reachable for names declared ``global``/``nonlocal``
            if hit(node.id):
                out.append(MutationSite(
                    node.id, node.lineno, node.col_offset,
                    "rebinds the module-level name",
                ))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _base_name(target)
                    if hit(name):
                        out.append(MutationSite(
                            name, target.lineno, target.col_offset,
                            "writes into the shared object",
                        ))
        elif isinstance(node, ast.AugAssign):
            name = _base_name(node.target)
            if hit(name):
                out.append(MutationSite(
                    name, node.lineno, node.col_offset,
                    "augments shared state in place",
                ))
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in MUTATING_METHODS:
            name = _base_name(node.func.value)
            if hit(name):
                out.append(MutationSite(
                    name, node.lineno, node.col_offset,
                    f".{node.func.attr}() mutates the shared object",
                ))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = (
                    target.id if isinstance(target, ast.Name)
                    else _base_name(target)
                )
                if hit(name):
                    out.append(MutationSite(
                        name, node.lineno, node.col_offset,
                        "deletes shared state",
                    ))
    return sorted(out, key=lambda m: (m.line, m.column))


__all__ = [
    "MUTABLE_FACTORIES",
    "MUTATING_METHODS",
    "MutationSite",
    "SUBMIT_METHODS",
    "SubmissionSite",
    "assignment_origins",
    "initargs_exprs",
    "is_mutable_literal",
    "local_bindings",
    "module_mutable_globals",
    "nonlocal_mutations",
    "submission_sites",
    "value_atoms",
]
