"""The whole-program index the semantic (cross-module) rules run on.

Where :class:`~repro.analysis.source.SourceModule` gives a rule one
file's AST, a :class:`ProjectIndex` gives it the *program*: every
``repro`` module parsed, names resolved across ``import`` /
``from ... import`` (absolute *and* relative, chasing ``__init__``
re-exports), a class registry with an approximate MRO, and a
conservative call graph with chain-producing reachability.

The index is deliberately an over-approximation where python's dynamism
forces a choice:

* a ``self.m()`` / ``super().m()`` call resolves through the class
  hierarchy (most-derived definition at or above the receiver class,
  plus every override in its descendants — the receiver's runtime type
  may be any of them);
* an ``obj.m()`` call whose receiver cannot be resolved to a project
  symbol falls back to *every* project method named ``m``;
* a call that resolves to a class is an edge to its ``__init__``.

Over-approximation keeps reachability *sound* for the rules built on it
(a kernel entry point that can reach ``time.time()`` is reported even
when the receiver's type is unknown) at the price of occasional extra
edges.  Everything is constructed and iterated in sorted order, so two
runs over the same tree produce byte-identical results.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.source import SourceModule

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: str
    name: str
    node: FuncNode
    cls: Optional[str] = None  #: owning class qualname, if a method


@dataclass
class ClassInfo:
    """One top-level class definition."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()  #: canonical base names, best effort
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One module of the project plus its resolution context."""

    source: SourceModule
    is_package: bool
    #: names bound by imports (absolute and relative) -> dotted targets
    bindings: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.source.module_name


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved as far as statically possible."""

    #: project function qualnames this call may dispatch to (sorted)
    targets: Tuple[str, ...]
    #: dotted text of the callee when the chain resolved (may be
    #: external, e.g. ``time.time``); ``None`` for dynamic callees
    canonical: Optional[str]
    line: int
    col: int


class ProjectIndex:
    """Modules, symbols, classes and calls of one ``repro`` tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> sorted qualnames of every project method so named
        self.methods_by_name: Dict[str, Tuple[str, ...]] = {}
        #: caller qualname -> resolved call sites, in AST order
        self.calls: Dict[str, Tuple[CallSite, ...]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._mro_cache: Dict[str, Tuple[str, ...]] = {}
        self._reach_cache: Dict[
            Tuple[str, ...], Dict[str, Tuple[str, ...]]
        ] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, sources: Iterable[SourceModule]) -> "ProjectIndex":
        """Index ``sources`` (typically every module of one tree)."""
        index = cls()
        ordered = sorted(
            sources, key=lambda s: (s.module_name, s.display_path)
        )
        for source in ordered:
            if source.module_name in index.modules:
                continue  # first (sorted) spelling of a module wins
            index._add_module(source)
        index._resolve_bases()
        names: Dict[str, List[str]] = {}
        for class_info in index.classes.values():
            for method in class_info.methods.values():
                names.setdefault(method.name, []).append(method.qualname)
        index.methods_by_name = {
            name: tuple(sorted(quals)) for name, quals in names.items()
        }
        for qualname in sorted(index.functions):
            index.calls[qualname] = index._resolve_calls(
                index.functions[qualname]
            )
        return index

    def _add_module(self, source: SourceModule) -> None:
        info = ModuleInfo(
            source=source, is_package=source.path.stem == "__init__"
        )
        self.modules[info.name] = info
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        info.bindings[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        info.bindings[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    info.bindings[bound] = f"{base}.{alias.name}"
        for statement in source.tree.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{info.name}.{statement.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=info.name,
                    name=statement.name,
                    node=statement,
                )
            elif isinstance(statement, ast.ClassDef):
                self._add_class(info, statement)

    def _add_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{info.name}.{node.name}"
        class_info = ClassInfo(
            qualname=qualname,
            module=info.name,
            name=node.name,
            node=node,
        )
        for statement in node.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                method_qual = f"{qualname}.{statement.name}"
                method = FunctionInfo(
                    qualname=method_qual,
                    module=info.name,
                    name=statement.name,
                    node=statement,
                    cls=qualname,
                )
                class_info.methods[statement.name] = method
                self.functions[method_qual] = method
        self.classes[qualname] = class_info

    @staticmethod
    def _import_base(
        info: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        """Absolute dotted base of an import-from, resolving relativity."""
        if not node.level:
            return node.module
        package = (
            info.name
            if info.is_package
            else info.name.rsplit(".", 1)[0]
            if "." in info.name
            else None
        )
        for _ in range(node.level - 1):
            if package is None or "." not in package:
                return None
            package = package.rsplit(".", 1)[0]
        if package is None:
            return None
        return f"{package}.{node.module}" if node.module else package

    def _resolve_bases(self) -> None:
        for qualname in sorted(self.classes):
            class_info = self.classes[qualname]
            bases: List[str] = []
            for base_node in class_info.node.bases:
                canonical = self.resolve_expr(
                    class_info.module, base_node
                )
                if canonical is not None:
                    bases.append(canonical)
                    self._subclasses.setdefault(canonical, set()).add(
                        qualname
                    )
            class_info.bases = tuple(bases)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def canonicalize(self, dotted: str) -> str:
        """Chase import re-exports until ``dotted`` stops moving."""
        seen: Set[str] = set()
        while dotted not in seen:
            seen.add(dotted)
            module, rest = self._split_module(dotted)
            if module is None or not rest:
                return dotted
            head, _, tail = rest.partition(".")
            binding = self.modules[module].bindings.get(head)
            if binding is None:
                return dotted
            dotted = f"{binding}.{tail}" if tail else binding
        return dotted

    def _split_module(
        self, dotted: str
    ) -> Tuple[Optional[str], str]:
        """Longest known-module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, ".".join(parts[cut:])
        return None, dotted

    def resolve_expr(
        self, module: str, node: ast.expr
    ) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain in ``module``."""
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        info = self.modules.get(module)
        head = current.id
        if info is not None:
            if head in info.bindings:
                head = info.bindings[head]
            else:
                local = f"{module}.{head}"
                if local in self.functions or local in self.classes:
                    head = local
        dotted = ".".join([head, *reversed(parts)]) if parts else head
        return self.canonicalize(dotted)

    # ------------------------------------------------------------------
    # class hierarchy
    # ------------------------------------------------------------------
    def mro(self, qualname: str) -> Tuple[str, ...]:
        """C3 linearization, as python computes it (a mixin that shares
        a base with its sibling must resolve in python's order, not
        depth-first).  Unknown (external) base names appear in the chain
        too; where python would refuse the hierarchy (inconsistent
        order, inheritance cycle) the first pending base is taken.
        """
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        self._mro_cache[qualname] = (qualname,)  # cuts inheritance cycles
        info = self.classes.get(qualname)
        bases = list(info.bases) if info is not None else []
        pending = [list(self.mro(base)) for base in bases] + [bases]
        out = [qualname]
        while any(pending):
            heads = [chain[0] for chain in pending if chain]
            head = next(
                (
                    head for head in heads
                    if not any(head in chain[1:] for chain in pending)
                ),
                heads[0],
            )
            out.append(head)
            pending = [
                [name for name in chain if name != head]
                for chain in pending
            ]
        result = tuple(out)
        self._mro_cache[qualname] = result
        return result

    def descendants(self, qualname: str) -> Tuple[str, ...]:
        """Transitive subclasses of a class (by canonical name)."""
        seen: Set[str] = set()
        frontier = deque([qualname])
        while frontier:
            current = frontier.popleft()
            for sub in self._subclasses.get(current, ()):
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        return tuple(sorted(seen))

    def find_method(
        self, cls_qualname: str, method: str
    ) -> Optional[str]:
        """Most-derived definition of ``method`` in ``cls``'s MRO."""
        for name in self.mro(cls_qualname):
            info = self.classes.get(name)
            if info is not None and method in info.methods:
                return info.methods[method].qualname
        return None

    def find_method_after(
        self, cls_qualname: str, owner: str, method: str
    ) -> Optional[str]:
        """``super()`` resolution: next definition past ``owner``."""
        chain = self.mro(cls_qualname)
        try:
            start = chain.index(owner) + 1
        except ValueError:
            start = 1
        for name in chain[start:]:
            info = self.classes.get(name)
            if info is not None and method in info.methods:
                return info.methods[method].qualname
        return None

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------
    def _resolve_calls(self, fn: FunctionInfo) -> Tuple[CallSite, ...]:
        sites: List[CallSite] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            site = self._resolve_call(fn, node)
            if site is not None:
                sites.append(site)
        return tuple(sites)

    def _resolve_call(
        self, fn: FunctionInfo, node: ast.Call
    ) -> Optional[CallSite]:
        func = node.func
        targets: Set[str] = set()
        canonical: Optional[str] = None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and fn.cls is not None
            ):
                targets |= self._self_targets(fn.cls, func.attr)
            elif (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
                and fn.cls is not None
            ):
                up = self.find_method_after(fn.cls, fn.cls, func.attr)
                if up is not None:
                    targets.add(up)
            else:
                canonical = self.resolve_expr(fn.module, func)
                internal = self._symbol_targets(canonical)
                if internal:
                    targets |= internal
                else:
                    # unknown receiver: every project method so named
                    targets |= set(
                        self.methods_by_name.get(func.attr, ())
                    )
        elif isinstance(func, ast.Name):
            canonical = self.resolve_expr(fn.module, func)
            targets |= self._symbol_targets(canonical)
        if not targets and canonical is None:
            return None
        return CallSite(
            targets=tuple(sorted(targets)),
            canonical=canonical,
            line=node.lineno,
            col=node.col_offset,
        )

    def _self_targets(self, cls_qualname: str, method: str) -> Set[str]:
        """``self.m()``: the MRO definition plus descendant overrides."""
        targets: Set[str] = set()
        primary = self.find_method(cls_qualname, method)
        if primary is not None:
            targets.add(primary)
        for sub in self.descendants(cls_qualname):
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                targets.add(info.methods[method].qualname)
        if not targets:
            targets |= set(self.methods_by_name.get(method, ()))
        return targets

    def _symbol_targets(self, canonical: Optional[str]) -> Set[str]:
        """Project functions a canonical dotted name denotes."""
        if canonical is None:
            return set()
        if canonical in self.functions:
            return {canonical}
        if canonical in self.classes:
            init = self.find_method(canonical, "__init__")
            return {init} if init is not None else set()
        return set()

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def reachable_from(
        self, entries: Sequence[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure: reached qualname -> shortest chain from an entry.

        Chains start at the entry point and end at the reached function.
        Entries not in the index are ignored.  Deterministic: entries
        are visited sorted and call sites in AST order.
        """
        key = tuple(sorted(set(entries)))
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        chains: Dict[str, Tuple[str, ...]] = {}
        frontier: deque[str] = deque()
        for entry in key:
            if entry in self.functions:
                chains[entry] = (entry,)
                frontier.append(entry)
        while frontier:
            current = frontier.popleft()
            for site in self.calls.get(current, ()):
                for target in site.targets:
                    if target not in chains:
                        chains[target] = chains[current] + (target,)
                        frontier.append(target)
        self._reach_cache[key] = chains
        return chains


def repro_roots(paths: Iterable[Path]) -> List[Path]:
    """Innermost ``repro`` package directories containing ``paths``."""
    roots: Set[Path] = set()
    for path in paths:
        resolved = path.resolve()
        parts = resolved.parts
        anchor = None
        for index, part in enumerate(parts[:-1]):
            if part == "repro":
                anchor = index
        if anchor is not None:
            roots.add(Path(*parts[: anchor + 1]))
    return sorted(roots)
