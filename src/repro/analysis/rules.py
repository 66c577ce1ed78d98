"""The reprolint rule registry and its six invariant rules (codes
REP001-REP014; eight are retired and never reused).

Each rule guards one contract the reproduction's results depend on but
that nothing else enforces at rest (see ``docs/static-analysis.md``):

=======  ==========================================================
REP001   all randomness flows through :mod:`repro.sim.rng`
REP002   wall-clock reads stay out of simulation code
REP003   no ordering-sensitive iteration over unordered collections
REP004   pool-submitted callables are module-level (picklable)
REP013   result-store file I/O flows through the journal module only
REP014   farm process/pipe machinery stays in the transport module
=======  ==========================================================

A rule is a class with a ``code``, a one-line ``summary``, a ``hint``
shown next to each finding, a docstring explaining the invariant, and a
``check`` generator over one :class:`~repro.analysis.source.SourceModule`.
Every rule sees one file at a time: a property of *executions* (a draw
or clock read a run actually reaches) is checked by running the goldens
and the differential sweeps, not by a call graph.
Register new rules with the :func:`register` decorator; the engine and
CLI discover them through :func:`all_rules`.
"""

from __future__ import annotations

import ast
import inspect
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding
from repro.analysis.source import SourceModule

#: packages whose modules run inside the cycle loop; determinism rules
#: (REP002/REP003) apply here
KERNEL_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.switches",
    "repro.network",
    "repro.flits",
    "repro.routing",
    "repro.host",
    "repro.traffic",
    "repro.reference",
)

#: the only modules allowed to read the wall clock (REP002): telemetry
#: and the pool timing layer measure the *process*, never the simulation
WALLCLOCK_ALLOWED: Tuple[str, ...] = (
    "repro.obs",
    "repro.experiments.parallel",
)

#: the one module allowed to touch python's ``random`` machinery (REP001)
RNG_HOME = "repro.sim.rng"

#: the result-store package and its single file-I/O module (REP013):
#: every byte the store persists flows through the journal, keeping the
#: crash-safety story (O_EXCL segment claims, torn-tail recovery)
#: auditable in one place
STORE_PACKAGE = "repro.store"
JOURNAL_HOME = "repro.store.journal"

#: the run-farm package and its single process/pipe module (REP014):
#: every subprocess spawn, pool construction and raw byte moved on the
#: farm's behalf flows through the transport, keeping the worker
#: failure model (EOF, torn frames, closed pipes) auditable in one place
FARM_PACKAGE = "repro.farm"
TRANSPORT_HOME = "repro.farm.transport"


class Rule(ABC):
    """One invariant check over a parsed module."""

    code: str = "REP000"
    summary: str = ""
    hint: str = ""

    @abstractmethod
    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield a :class:`Finding` per violation in ``module``."""

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            code=self.code,
            path=module.display_path,
            line=line,
            col=col,
            message=message,
            hint=self.hint,
            line_text=module.line_text(line),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = rule_class.code
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code!r}")
    _REGISTRY[code] = rule_class
    return rule_class


class UnknownRuleError(ValueError):
    """A ``--select`` list named rule codes that do not exist."""


def all_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instances of every registered rule (or the selected codes).

    Raises :class:`UnknownRuleError` (with the unknown codes *and* the
    available ones in the message) rather than silently linting with a
    partial or empty rule set.
    """
    codes: List[str]
    if select is None:
        codes = sorted(_REGISTRY)
    else:
        unknown = sorted({c for c in select if c not in _REGISTRY})
        if unknown:
            raise UnknownRuleError(
                f"unknown rule code(s): {', '.join(unknown)} "
                f"(available: {', '.join(sorted(_REGISTRY))})"
            )
        codes = list(dict.fromkeys(select))
        if not codes:
            raise UnknownRuleError(
                "empty rule selection (available: "
                + ", ".join(sorted(_REGISTRY))
                + ")"
            )
    return [_REGISTRY[code]() for code in codes]


def rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, summary, docstring)`` of every registered rule."""
    catalog: List[Tuple[str, str, str]] = []
    for code in sorted(_REGISTRY):
        rule_class = _REGISTRY[code]
        catalog.append(
            (
                code,
                rule_class.summary,
                inspect.cleandoc(rule_class.__doc__ or ""),
            )
        )
    return catalog


@register
class NoUnseededRandomness(Rule):
    """REP001 — all stochastic behaviour flows through ``repro.sim.rng``.

    The parallel execution engine's jobs=N == jobs=1 guarantee and the
    golden snapshots both require that every random draw be derived from
    the config seed.  Calling the ``random`` module's global functions
    (hidden shared state), constructing an *unseeded* ``random.Random()``
    (wall-clock entropy), or touching ``numpy.random`` anywhere outside
    :mod:`repro.sim.rng` silently breaks that chain.  Constructing
    ``random.Random(explicit_seed)`` is allowed: it is deterministic and
    is how config-seeded builders (e.g. the irregular topology
    generator) stay reproducible without a simulator handy.
    """

    code = "REP001"
    summary = (
        "random/numpy.random use outside sim/rng.py breaks seeded replay"
    )
    hint = (
        "draw from a named stream of repro.sim.rng.RngStreams (or a "
        "random.Random seeded from explicit config)"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.module_name == RNG_HOME:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in ("Random", "SystemRandom"):
                            yield self.finding(
                                module,
                                node,
                                f"import of global-state random API "
                                f"random.{alias.name}",
                            )
                elif node.module and (
                    node.module == "numpy.random"
                    or node.module.startswith("numpy.random.")
                ):
                    yield self.finding(
                        module, node, "import from numpy.random"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy.random"):
                        yield self.finding(
                            module, node, "import of numpy.random"
                        )
            elif isinstance(node, ast.Call):
                described = self.sink(module, node)
                if described is not None:
                    yield self.finding(module, node, described)

    def sink(
        self, module: SourceModule, node: ast.Call
    ) -> Optional[str]:
        """Describe a banned random-API call, else ``None``."""
        canonical = module.imports.resolve(node.func)
        if canonical is None:
            return None
        if canonical.startswith("numpy.random."):
            return f"call to {canonical}"
        if canonical == "random.SystemRandom":
            return "random.SystemRandom draws OS entropy"
        if canonical == "random.Random" and not (
            node.args or node.keywords
        ):
            return (
                "unseeded random.Random() seeds itself from the "
                "OS / wall clock"
            )
        if (
            canonical.startswith("random.")
            and canonical.count(".") == 1
            and canonical != "random.Random"
        ):
            return f"call to global-state random API {canonical}"
        return None


@register
class NoWallClockInSimulation(Rule):
    """REP002 — simulated time and wall time never mix.

    Simulation results must be a pure function of config and seed.  A
    wall-clock read (``time.time``, ``time.perf_counter``,
    ``datetime.now`` ...) anywhere in the ``repro`` package can leak
    host-machine timing into results or artifacts; only the telemetry
    layer (``repro.obs``) and the pool timing layer
    (``repro.experiments.parallel``), which measure the *process* rather
    than the simulation, may read it.  This subsumes the kernel-path
    packages (``sim/``, ``switches/``, ``network/``, ``flits/``,
    ``routing/``, ``host/``, ``traffic/``), where a wall-clock read
    would additionally perturb cycle accounting.
    """

    code = "REP002"
    summary = "wall-clock read outside repro.obs / experiments.parallel"
    hint = (
        "use simulator cycles for model time; for process timing call "
        "helpers in repro.experiments.parallel or repro.obs"
    )

    #: wall-clock reads, always flagged
    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: flagged only when called with no arguments (zero-arg form reads
    #: the current time; with an explicit argument they are pure)
    BANNED_ZERO_ARG = frozenset(
        {"time.gmtime", "time.localtime", "time.strftime"}
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.module_name.startswith("repro"):
            return
        if module.in_package(*WALLCLOCK_ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            described = self.sink(module, node)
            if described is not None:
                yield self.finding(module, node, described)

    def sink(
        self, module: SourceModule, node: ast.Call
    ) -> Optional[str]:
        """Describe a wall-clock read, else ``None``."""
        canonical = module.imports.resolve(node.func)
        if canonical is None:
            return None
        if canonical in self.BANNED:
            return f"wall-clock call {canonical}()"
        if canonical in self.BANNED_ZERO_ARG and not node.args:
            return f"zero-argument {canonical}() reads the current time"
        return None


def _is_unordered_expr(
    node: ast.expr, module: SourceModule, set_locals: Set[str]
) -> Optional[str]:
    """Describe ``node`` if it evaluates to an unordered collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    if isinstance(node, ast.Call):
        canonical = module.imports.resolve(node.func)
        if canonical in ("set", "frozenset"):
            return f"{canonical}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        ):
            return ".keys()"
    if isinstance(node, ast.Name) and node.id in set_locals:
        return f"the set-typed local {node.id!r}"
    return None


def _set_typed_locals(func: ast.AST) -> Set[str]:
    """Names assigned an (unsorted) set value in this function scope."""
    names: Set[str] = set()

    def scan(parent: ast.AST) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Assign):
                value_is_set = isinstance(
                    child.value, (ast.Set, ast.SetComp)
                ) or (
                    isinstance(child.value, ast.Call)
                    and isinstance(child.value.func, ast.Name)
                    and child.value.func.id in ("set", "frozenset")
                )
                if value_is_set:
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                annotation: ast.expr = child.annotation
                if isinstance(annotation, ast.Subscript):
                    annotation = annotation.value
                if isinstance(annotation, ast.Name) and annotation.id in (
                    "set", "frozenset", "Set", "FrozenSet"
                ):
                    names.add(child.target.id)
            scan(child)

    scan(func)
    return names


@register
class NoUnorderedIteration(Rule):
    """REP003 — no ordering-sensitive iteration over unordered collections.

    Set iteration order depends on element hashes — for strings, on
    ``PYTHONHASHSEED`` — so a ``for`` loop over a bare set in a kernel
    path (arbitration order, replication order, drain order) produces
    results that differ between interpreter invocations even with a
    fixed config seed.  The rule flags, inside the kernel-path packages:
    direct iteration over set literals / ``set()`` / ``.keys()`` calls /
    set-typed locals; materialising them with ``list()`` or ``tuple()``;
    first-element extraction via ``next(iter(...))``; and zero-argument
    ``.pop()`` on a set-typed local.  Order-insensitive folds (``len``,
    ``sum``, ``min``, ``max``, ``any``, ``all``, membership tests) and
    anything wrapped in ``sorted(...)`` are fine.
    """

    code = "REP003"
    summary = "ordering-sensitive iteration over an unordered collection"
    hint = (
        "wrap the collection in sorted(...) (or keep a deterministic "
        "list alongside the set) before iterating in a kernel path"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package(*KERNEL_PACKAGES):
            return
        scope_locals: Dict[int, Set[str]] = {}

        def locals_for(node: ast.AST) -> Set[str]:
            func = module.enclosing_function(node)
            if func is None:
                return set()
            cached = scope_locals.get(id(func))
            if cached is None:
                cached = scope_locals[id(func)] = _set_typed_locals(func)
            return cached

        for node in ast.walk(module.tree):
            iterables: List[ast.expr] = []
            context = ""
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
                context = "for-loop over"
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp),
            ):
                iterables = [gen.iter for gen in node.generators]
                context = "comprehension over"
            elif isinstance(node, ast.Call):
                canonical = module.imports.resolve(node.func)
                if canonical in ("list", "tuple") and len(node.args) == 1:
                    iterables = [node.args[0]]
                    context = f"{canonical}() materialisation of"
                elif (
                    canonical == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Call)
                    and module.imports.resolve(node.args[0].func) == "iter"
                    and node.args[0].args
                ):
                    iterables = [node.args[0].args[0]]
                    context = "first-element extraction from"
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in locals_for(node)
                ):
                    yield self.finding(
                        module,
                        node,
                        f"arbitrary-order .pop() on set-typed local "
                        f"{node.func.value.id!r}",
                    )
                    continue
            for iterable in iterables:
                described = _is_unordered_expr(
                    iterable, module, locals_for(node)
                )
                if described is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{context} {described} iterates in hash order",
                    )


def _local_callable_names(func: ast.AST) -> Set[str]:
    """Names bound to functions defined inside ``func``'s own scope."""
    names: Set[str] = set()

    def scan(parent: ast.AST) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(child.name)
                continue  # nested scope: its own defs are not ours
            if isinstance(child, (ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Lambda
            ):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            scan(child)

    scan(func)
    return names


@register
class PoolCallablesAreModuleLevel(Rule):
    """REP004 — everything submitted to the worker pool must pickle.

    ``multiprocessing`` pickles a :class:`RunSpec`'s ``fn`` *by
    reference*: lambdas and functions defined inside another function
    cannot be pickled, so a plan built from them works with ``--jobs 1``
    and dies (or silently falls back to serial) on a pool.  The rule
    flags ``RunSpec(...)`` constructions and direct ``Pool`` map-family
    submissions whose callable is a lambda or a name bound to a
    function defined in an enclosing local scope, plus lambda values
    inside a ``RunSpec`` ``kwargs`` literal.
    """

    code = "REP004"
    summary = "pool-submitted callable is not module-level (unpicklable)"
    hint = (
        "move the worker to module level and pass parameters through "
        "RunSpec.kwargs"
    )

    POOL_METHODS = frozenset(
        {"map", "map_async", "imap", "imap_unordered", "apply_async",
         "starmap", "starmap_async"}
    )

    def _callable_problem(
        self, module: SourceModule, site: ast.Call, value: ast.expr
    ) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Call):
            # unwrap functools.partial(inner, ...)
            canonical = module.imports.resolve(value.func)
            if canonical in ("functools.partial", "partial") and value.args:
                return self._callable_problem(module, site, value.args[0])
            return None
        if isinstance(value, ast.Name):
            func = module.enclosing_function(site)
            while func is not None:
                if value.id in _local_callable_names(func):
                    return f"the locally-defined function {value.id!r}"
                func = module.enclosing_function(func)
        return None

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = module.imports.resolve(node.func)
            candidates: List[Tuple[ast.expr, str]] = []
            if canonical is not None and (
                canonical == "RunSpec" or canonical.endswith(".RunSpec")
            ):
                fn_value: Optional[ast.expr] = None
                for keyword in node.keywords:
                    if keyword.arg == "fn":
                        fn_value = keyword.value
                    elif keyword.arg == "kwargs":
                        for value in _dict_values(keyword.value):
                            candidates.append(
                                (value, "RunSpec kwargs value")
                            )
                if fn_value is None and len(node.args) >= 2:
                    fn_value = node.args[1]
                if fn_value is not None:
                    candidates.append((fn_value, "RunSpec fn"))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.POOL_METHODS
                and node.args
            ):
                candidates.append(
                    (node.args[0], f"Pool.{node.func.attr} callable")
                )
            for value, role in candidates:
                if role == "RunSpec kwargs value" and not isinstance(
                    value, ast.Lambda
                ):
                    continue
                problem = self._callable_problem(module, node, value)
                if problem is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{role} is {problem}; pool workers cannot "
                        "unpickle it",
                    )


def _dict_values(node: ast.expr) -> List[ast.expr]:
    """Values of a dict literal or ``dict(...)`` call (best effort)."""
    if isinstance(node, ast.Dict):
        return list(node.values)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
        node.func.id == "dict"
    ):
        return [keyword.value for keyword in node.keywords]
    return []


@register
class StoreFilesViaJournal(Rule):
    """REP013 — result-store file I/O flows through the journal only.

    The store's crash-safety guarantees — one writer per segment
    (``O_CREAT | O_EXCL`` claims), newline-terminated records, torn
    final lines recovered not reported, gc that rewrites before it
    removes — all live in :mod:`repro.store.journal`.  A direct
    ``open()`` or ``Path`` write anywhere else under ``repro.store``
    would bypass those rules silently: the file would *work* until the
    first crashed campaign or concurrent farm shard corrupted it.  The
    rule flags direct file calls (``open``, ``io.open``, ``os.open``,
    ``os.fdopen``) and file-mutating method calls (``.write_text``,
    ``.write_bytes``, ``.unlink``, ``.rename``, ``.replace``) in every
    ``repro.store`` module except the journal itself.
    """

    code = "REP013"
    summary = "result-store file I/O outside repro.store.journal"
    hint = (
        "persist through repro.store.journal (claim_segment, "
        "JournalWriter, scan_segment, write_export) so crash "
        "recovery stays correct"
    )

    #: call targets that open file handles directly
    BANNED_CALLS: Tuple[str, ...] = (
        "open", "io.open", "os.open", "os.fdopen"
    )
    #: attribute calls that create, overwrite or remove files
    BANNED_METHODS: Tuple[str, ...] = (
        "write_text", "write_bytes", "unlink", "rename", "replace"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package(STORE_PACKAGE):
            return
        if module.in_package(JOURNAL_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve(node.func)
            if resolved in self.BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"direct file call {resolved}() in "
                    f"{module.module_name}; store bytes flow through "
                    f"{JOURNAL_HOME}",
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.BANNED_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}(...) file write in "
                    f"{module.module_name}; store bytes flow through "
                    f"{JOURNAL_HOME}",
                )


@register
class FarmBytesViaTransport(Rule):
    """REP014 — farm process/pipe machinery stays in the transport.

    The farm's fault-tolerance guarantees — unbuffered pipes so
    ``select`` is truthful, EOF and torn frames mapped to dead workers,
    polite reaping, pool construction with a serial fallback — all live
    in :mod:`repro.farm.transport`.  A direct ``subprocess.Popen``,
    ``multiprocessing.Pool`` or ``open()`` anywhere else under
    ``repro.farm`` would create a worker or a byte stream the failure
    model never audits: the campaign would *work* until the first
    SIGKILLed worker or torn frame hit the unhandled path.  The rule
    flags process-spawning calls (``subprocess.*``, ``os.fork``,
    ``os.popen``, ``os.system``, ``multiprocessing.*``), direct
    ``select`` calls, direct file calls and file-mutating method calls
    in every ``repro.farm`` module except the transport itself —
    mirroring how REP013 confines store file I/O to the journal.
    """

    code = "REP014"
    summary = "farm process/pipe machinery outside repro.farm.transport"
    hint = (
        "spawn and talk to workers through repro.farm.transport "
        "(spawn_worker, write_frame, read_frame, wait_readable, "
        "create_pool, reap) so the worker failure model stays complete"
    )

    #: call targets that spawn processes, open pipes or files directly
    BANNED_CALLS: Tuple[str, ...] = (
        "open", "io.open", "os.open", "os.fdopen",
        "os.fork", "os.popen", "os.system",
        "subprocess.Popen", "subprocess.run", "subprocess.call",
        "subprocess.check_call", "subprocess.check_output",
        "multiprocessing.Pool", "multiprocessing.Process",
        "multiprocessing.get_context",
        "select.select", "select.poll",
    )
    #: attribute calls that create, overwrite or remove files
    BANNED_METHODS: Tuple[str, ...] = (
        "write_text", "write_bytes", "unlink", "rename", "replace"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not module.in_package(FARM_PACKAGE):
            return
        if module.in_package(TRANSPORT_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve(node.func)
            if resolved in self.BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"direct process/pipe call {resolved}() in "
                    f"{module.module_name}; farm bytes and workers "
                    f"flow through {TRANSPORT_HOME}",
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.BANNED_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}(...) file write in "
                    f"{module.module_name}; farm bytes and workers "
                    f"flow through {TRANSPORT_HOME}",
                )
