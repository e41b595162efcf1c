"""Whole-program symbol table: modules, top-level bindings, import edges.

The per-file rules see one AST at a time; the whole-program rules need to
answer questions like *"what does the name ``mk`` in this module actually
denote?"* when ``mk`` arrived via
``from numpy.random import default_rng as mk``.  :meth:`Project.load`
reads, parses and tokenizes every linted file **once** and builds:

* a module table (module key -> parsed AST + suppressions);
* per-module top-level bindings: function/class definitions, assignments,
  and import aliases;
* a resolver that follows import chains (bounded, cycle-safe) until a name
  lands on a definition inside the tree or escapes to an external dotted
  name (``numpy.random.default_rng``).

Everything is deliberately *approximate but honest*: a name the resolver
cannot pin down resolves to ``None`` and the rules stay silent about it
(no guessing), which keeps the pass low-noise at the cost of documented
unsoundness (see DESIGN.md section 14).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: resolver recursion bound: import chains deeper than this (or cyclic
#: re-exports) resolve to None instead of recursing forever.
MAX_RESOLVE_DEPTH = 16

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+|all)\s*$"
)


def collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled on that line (``{'all'}`` for a
    blanket line suppression)."""
    suppressions: dict[int, set[str]] = {}
    if "repro-lint:" not in source:
        return suppressions  # no directive: skip the (slow) tokenizer
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",")}
            suppressions.setdefault(token.start[0], set()).update(
                i for i in ids if i
            )
    except tokenize.TokenError:
        # Unterminated constructs: the ast parse will report the real error.
        pass
    return suppressions


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, walking up through packages.

    A directory is part of the package path exactly when it contains an
    ``__init__.py``; the walk stops at the first directory that does not,
    which makes the name independent of where the tree is checked out
    (``src/repro/sim/controller.py`` -> ``repro.sim.controller``).
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree."""

    name: str  #: dotted module name (``repro.sim.controller``)
    path: str  #: posix path, exactly as discovered (finding locations)
    tree: ast.Module
    #: every node of ``tree`` in ``ast.walk`` order (walked once, shared).
    nodes: list[ast.AST] = field(default_factory=list)
    #: line -> rule ids disabled on that line (engine suppression format).
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: top-level function/class definitions by name.
    defs: dict[str, ast.AST] = field(default_factory=dict)
    #: top-level plain assignments by name (last binding wins).
    assigns: dict[str, ast.expr] = field(default_factory=dict)
    #: import aliases: local name -> dotted target.  ``import numpy as np``
    #: binds ``np -> numpy``; ``from repro.util.rng import rng_stream``
    #: binds ``rng_stream -> repro.util.rng.rng_stream``.
    imports: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Resolved:
    """Outcome of resolving one name through the import graph.

    ``qualname`` is the full dotted name the symbol denotes; ``kind`` is
    ``function`` / ``class`` / ``value`` (top-level assignment) for
    definitions inside the tree, or ``external`` for anything that leaves
    it.  Internal symbols carry their defining ``module`` and AST ``node``.
    """

    qualname: str
    kind: str
    module: str | None = None
    node: ast.AST | None = None


def _bind_target(info: ModuleInfo, target: ast.expr, value: ast.expr) -> None:
    if isinstance(target, ast.Name):
        info.assigns[target.id] = value


def _index_module(info: ModuleInfo) -> None:
    """Populate the top-level binding tables of one module."""
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            info.defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                _bind_target(info, target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            _bind_target(info, node.target, node.value)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                # ``import a.b.c`` binds the *root* package name ``a``
                target = alias.name if alias.asname else alias.name.split(
                    ".", 1
                )[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: anchor on this package
                base_parts = info.name.split(".")
                drop = node.level
                if Path(info.path).name == "__init__.py":
                    drop -= 1  # a package's __init__ is named for the package
                anchor = base_parts[: len(base_parts) - drop]
                module = ".".join(anchor + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue  # star imports stay unresolved (documented)
                local = alias.asname or alias.name
                info.imports[local] = (
                    f"{module}.{alias.name}" if module else alias.name
                )


class Project:
    """The parsed whole-program view every rule runs against.

    ``modules`` maps a module *key* to its :class:`ModuleInfo`.  The key is
    the dotted module name, except when several files share one (two
    ``a.py`` outside any package): each of those is keyed by its path, and
    the shared name resolves to nothing rather than to a guess.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: (path, line, column, message) of every file that does not parse.
        self.parse_failures: list[tuple[str, int, int, str]] = []
        #: dotted names that more than one file carries.
        self.shared_names: set[str] = set()

    @classmethod
    def load(cls, files: list[Path]) -> "Project":
        """Read, parse and tokenize every file once."""
        project = cls()
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                line = exc.object.count(b"\n", 0, exc.start) + 1
                project.parse_failures.append(
                    (path.as_posix(), line, 0, f"not UTF-8 text: {exc}")
                )
                continue
            project.add(path.as_posix(), source, module_name_for(path))
        return project

    def add(self, path: str, source: str, name: str) -> None:
        """Parse and index one module; a parse failure is recorded instead."""
        try:
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError) as exc:  # ValueError: NUL bytes
            line = getattr(exc, "lineno", None) or 1
            column = (getattr(exc, "offset", None) or 1) - 1
            message = getattr(exc, "msg", None) or str(exc)
            self.parse_failures.append((path, line, column, message))
            return
        info = ModuleInfo(
            name, path, tree,
            nodes=list(ast.walk(tree)),
            suppressions=collect_suppressions(source),
        )
        _index_module(info)
        clash = self.modules.pop(name, None)
        if clash is None and name not in self.shared_names:
            self.modules[name] = info
            return
        self.shared_names.add(name)
        for module in (clash, info):
            if module is not None:
                self.modules[module.path] = module

    # -- resolution ----------------------------------------------------------

    def resolve(self, module: str, name: str, _depth: int = 0) -> Resolved | None:
        """What the top-level name ``name`` in ``module`` denotes."""
        if _depth > MAX_RESOLVE_DEPTH:
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        node = info.defs.get(name)
        if node is not None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            return Resolved(f"{module}.{name}", kind, module, node)
        if name in info.assigns:
            return Resolved(
                f"{module}.{name}", "value", module, info.assigns[name]
            )
        if name in info.imports:
            return self.resolve_dotted(info.imports[name], _depth + 1)
        return None

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Resolved | None:
        """Resolve a dotted name to a definition inside the tree, or tag it
        external.  ``repro.util.rng.rng_stream`` lands on the function def;
        ``numpy.random.default_rng`` is external; a name under a module
        name that several files share is unknown (``None``)."""
        if _depth > MAX_RESOLVE_DEPTH:
            return None
        # longest module prefix first: ``pkg.mod.Class.attr`` -> pkg.mod
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.shared_names:
                return None
            if prefix not in self.modules:
                continue
            if cut == len(parts):
                tree = self.modules[dotted].tree
                return Resolved(dotted, "module", dotted, tree)
            inner = self.resolve(prefix, parts[cut], _depth + 1)
            rest = parts[cut + 1:]
            if inner is None or not rest:
                return inner
            return Resolved(f"{inner.qualname}." + ".".join(rest), "external")
        return Resolved(dotted, "external")

    def resolve_expr(self, module: str, expr: ast.expr) -> Resolved | None:
        """Resolve a ``Name`` or dotted ``Attribute`` expression.

        Anything else (calls, subscripts, locals the symbol table does not
        know) resolves to ``None`` — the rules treat that as "unknown",
        never as a finding.
        """
        dotted = _dotted_of(expr)
        if dotted is None:
            return None
        first, _, rest = dotted.partition(".")
        base = self.resolve(module, first)
        if base is None:
            return None
        if not rest:
            return base
        if base.kind == "module":
            return self.resolve_dotted(f"{base.qualname}.{rest}", 1)
        if base.kind == "external":
            return Resolved(f"{base.qualname}.{rest}", "external")
        if base.kind == "class" and base.module is not None:
            # Class attribute: resolve one method level when possible
            method = _class_member(base.node, rest)
            if method is not None:
                return Resolved(
                    f"{base.qualname}.{rest}", "function", base.module, method
                )
        return None

    def _lineage(
        self, module: str, cls: ast.ClassDef
    ) -> Iterator[tuple[str, str, ast.ClassDef, list[Resolved]]]:
        """``cls``, then its in-tree base classes breadth first, each once,
        as ``(qualname, module, node, its resolvable bases)``."""
        seen: set[str] = set()
        queue: list[tuple[str, ast.ClassDef]] = [(module, cls)]
        while queue:
            mod, node = queue.pop(0)
            key = f"{mod}.{node.name}"
            if key in seen:
                continue
            seen.add(key)
            bases = [
                resolved
                for resolved in (self.resolve_expr(mod, b) for b in node.bases)
                if resolved is not None
            ]
            yield key, mod, node, bases
            queue.extend(
                (base.module, base.node)
                for base in bases
                if base.kind == "class"
                and isinstance(base.node, ast.ClassDef)
                and base.module is not None
            )

    def class_mro_member(
        self, module: str, cls: ast.ClassDef, name: str
    ) -> Resolved | None:
        """Look ``name`` up on ``cls`` and then its in-tree base classes."""
        for key, mod, node, _ in self._lineage(module, cls):
            member = _class_member(node, name)
            if member is not None:
                return Resolved(f"{key}.{name}", "function", mod, member)
        return None

    def is_subclass_of(
        self, module: str, cls: ast.ClassDef, base_qualnames: set[str]
    ) -> bool:
        """Does ``cls`` (transitively, within the tree) derive from any of
        ``base_qualnames`` (full dotted names, e.g.
        ``repro.errors.ReproError``)?"""
        return any(
            key in base_qualnames
            or any(base.qualname in base_qualnames for base in bases)
            for key, _, _, bases in self._lineage(module, cls)
        )


def _dotted_of(expr: ast.expr) -> str | None:
    """``a.b.c`` -> "a.b.c"; anything not a pure Name/Attribute chain -> None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _class_member(
    cls: ast.AST | None, name: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    if not isinstance(cls, ast.ClassDef):
        return None
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name == name:
                return item
    return None


__all__ = [
    "ModuleInfo",
    "Project",
    "Resolved",
    "collect_suppressions",
    "module_name_for",
]
