"""Approximate whole-program call graph over a :class:`~.symbols.Project`.

Function *units* are every ``def`` in the tree — module level, methods,
and nested functions — identified by dotted ids::

    repro.analysis.montecarlo._montecarlo_point
    repro.fabric.supervisor.Supervisor._pool
    repro.analysis.montecarlo.run_monte_carlo.<locals>.note

Call edges are added only where the callee can be *resolved* through the
symbol table:

* plain names (``foo()``), including names that arrived through imports;
* dotted module attributes (``mod.foo()`` where ``mod`` is an imported
  analyzed module);
* ``self.meth()`` / ``cls.meth()``, looked up on the enclosing class and
  its in-tree base classes;
* calls of a class add edges to its ``__init__`` **and** ``__post_init__``
  (the dataclass construction path the taxonomy rules care about);
* a nested ``def`` gets an edge from its enclosing unit (it only exists
  because the parent created it — conservative for reachability).

Receiver-typed method calls (``supervisor.map_ordered(...)`` where
``supervisor`` is a local) are *not* resolved — the pass has no type
inference — which is the documented unsoundness boundary: reachability is
an under-approximation on dynamic dispatch and an over-approximation on
nested defs.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.lint.xmod.symbols import Project, Resolved

#: methods that make a class call "reach" user code on construction.
_CTOR_METHODS = ("__init__", "__post_init__", "__new__")


@dataclass
class FunctionUnit:
    """One analyzed ``def``: identity, location, and lexical context."""

    unit_id: str  #: dotted id, e.g. ``pkg.mod.Class.method``
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: enclosing ClassDef when this unit is a method.
    owner_class: ast.ClassDef | None = None
    #: unit id of the lexically enclosing function (nested defs).
    parent: str | None = None


@dataclass
class CallGraph:
    """Units plus resolved call edges; build with :func:`build_call_graph`."""

    project: Project
    units: dict[str, FunctionUnit] = field(default_factory=dict)
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: def-node identity -> unit, so resolution is O(1) per call site.
    _by_node: dict[int, FunctionUnit] = field(default_factory=dict)

    def add_unit(self, unit: FunctionUnit) -> None:
        self.units[unit.unit_id] = unit
        self._by_node[id(unit.node)] = unit

    def add_edge(self, src: str, dst: str) -> None:
        self.edges.setdefault(src, set()).add(dst)

    def unit_of_def(
        self, module: str, node: ast.AST
    ) -> FunctionUnit | None:
        """The unit wrapping one specific def node (identity match)."""
        unit = self._by_node.get(id(node))
        return unit if unit is not None and unit.module == module else None

    def reachable(self, roots: set[str]) -> set[str]:
        """Every unit id reachable from ``roots`` (roots included)."""
        seen = set(root for root in roots if root in self.units)
        queue = deque(seen)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in seen and callee in self.units:
                    seen.add(callee)
                    queue.append(callee)
        return seen


def _flat_statements(body: list[ast.stmt]):
    """Every statement in ``body``, descending through compound statements
    (if/for/while/with/try, including handlers and else/finally blocks) but
    NOT into def/class bodies — those are walked as their own scopes."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field_name in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(node, field_name, []) or []))
        for handler in getattr(node, "handlers", []) or []:
            stack.extend(reversed(handler.body))


def _collect_units(graph: CallGraph) -> None:
    for module_name, info in graph.project.modules.items():

        def walk(
            body: list[ast.stmt],
            prefix: str,
            owner: ast.ClassDef | None,
            parent: str | None,
        ) -> None:
            for node in _flat_statements(body):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    unit_id = f"{prefix}.{node.name}"
                    graph.add_unit(FunctionUnit(
                        unit_id, module_name, node, owner, parent
                    ))
                    walk(
                        node.body, f"{unit_id}.<locals>", owner=None,
                        parent=unit_id,
                    )
                elif isinstance(node, ast.ClassDef):
                    walk(
                        node.body, f"{prefix}.{node.name}", owner=node,
                        parent=parent,
                    )

        walk(info.tree.body, owner=None, parent=None, prefix=module_name)


def resolve_callable(
    graph: CallGraph, unit: FunctionUnit, expr: ast.expr
) -> list[str]:
    """Unit ids a call/reference expression may land on (empty = unknown).

    Resolving a *class* yields its constructor-path methods, so taxonomy
    rules see ``__post_init__`` validation raises behind ``Cls(...)``.
    """
    project = graph.project
    # self.meth / cls.meth -> enclosing class MRO lookup
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
        and unit.owner_class is not None
    ):
        member = project.class_mro_member(
            unit.module, unit.owner_class, expr.attr
        )
        return _units_for(graph, member)
    resolved = project.resolve_expr(unit.module, expr)
    return _units_for(graph, resolved)


def _units_for(graph: CallGraph, resolved: Resolved | None) -> list[str]:
    if resolved is None or resolved.module is None:
        return []
    if resolved.kind == "function":
        unit = graph.unit_of_def(resolved.module, resolved.node)
        return [unit.unit_id] if unit is not None else []
    if resolved.kind == "class" and isinstance(resolved.node, ast.ClassDef):
        out = []
        for ctor in _CTOR_METHODS:
            member = graph.project.class_mro_member(
                resolved.module, resolved.node, ctor
            )
            if member is not None and member.module is not None:
                unit = graph.unit_of_def(member.module, member.node)
                if unit is not None:
                    out.append(unit.unit_id)
        return out
    return []


def _collect_edges(graph: CallGraph) -> None:
    for unit in graph.units.values():
        # nested defs: conservatively reachable from their parent
        if unit.parent is not None and unit.parent in graph.units:
            graph.add_edge(unit.parent, unit.unit_id)
        for node in iter_own_nodes(unit.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in resolve_callable(graph, unit, node.func):
                graph.add_edge(unit.unit_id, callee)
            # callables passed by reference (decorator-less callbacks,
            # executor submissions) also create reachability
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    for callee in resolve_callable(graph, unit, arg):
                        graph.add_edge(unit.unit_id, callee)


def iter_own_nodes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body, *excluding* nested function bodies (those are
    their own units) but including nested class bodies and lambdas."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def build_call_graph(project: Project) -> CallGraph:
    """Index every unit and resolve every resolvable call edge."""
    graph = CallGraph(project)
    _collect_units(graph)
    _collect_edges(graph)
    return graph


__all__ = [
    "CallGraph",
    "iter_own_nodes",
    "FunctionUnit",
    "build_call_graph",
    "resolve_callable",
]
