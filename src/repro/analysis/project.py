"""Project-wide symbol table, call graph, and function summaries.

The per-file rules of PR 2 see one tree at a time; the whole-program
rules added with this layer (DET006 taint, SIM004 leaks, SIM005
process protocol) need three things no single tree can answer:

1. **Who is this call?**  ``self._run_batch(...)`` must resolve to
   ``repro.core.rebuilder.Rebuilder._run_batch`` so a taint summary or
   generator-ness computed there can be consulted here.
2. **Which functions are simulation processes?**  Anything spawned
   with ``sim.spawn(gen())`` — plus everything those processes reach
   via ``yield from`` or by passing a generator function along as a
   callable argument (the Rebuilder passes ``self._flush_extent`` into
   ``_run_batch``, which spawns it).
3. **One level of interprocedural dataflow.**  Per-function summaries
   — "returns a wall-clock/unseeded-random-derived value", "passes
   parameter *k* into a scheduling sink" — let the intra-procedural
   taint rule step across exactly one call edge without a whole-
   program fixpoint per file.

Resolution is deliberately best-effort: a call that cannot be resolved
simply contributes no edge, and the rules err on silence.  Precision
matters less than never lying, because every finding gates CI.
"""

from __future__ import annotations

import ast
import hashlib
import typing

from .dataflow import yields_in_own_scope

#: Calls whose return value is host-dependent (taint *sources*).  The
#: wall-clock list mirrors rules/determinism.py (kept separate so the
#: project layer never imports rule modules — rules import *us*).
TAINT_SOURCE_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today", "os.cpu_count", "os.process_cpu_count",
    "os.sched_getaffinity", "multiprocessing.cpu_count", "uuid.uuid1",
    "uuid.uuid4", "os.urandom", "secrets.token_bytes",
    "secrets.token_hex", "secrets.randbits",
})

#: ``random.<fn>`` global-generator draws are sources too (instances
#: of ``random.Random`` / RandomStreams are seeded and fine).
TAINT_SOURCE_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: ``numpy.random`` attributes that are explicit seedable constructors,
#: not draws from the hidden global generator.
TAINT_NUMPY_OK = frozenset({
    "Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937", "default_rng", "RandomState",
})

#: Method/function names whose argument at the given position is a
#: scheduling *sink*: a nondeterministic value arriving there changes
#: the event order of the run.
SINK_POSITIONS: dict[str, int] = {
    "timeout": 0,
    "_schedule": 1,
    "succeed": 1,
    "fail": 1,
}

#: Digest/state sinks by method name: feeding host-dependent bytes in
#: breaks the golden-digest methodology outright.
DIGEST_SINK_ATTRS = frozenset({"update", "digest_update"})
DIGEST_RECEIVER_HINTS = ("digest", "hash", "hasher", "sha", "md5", "blake")


def module_name_of(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/sim/core.py`` → ``repro.sim.core``;
    ``src/repro/obs/__init__.py`` → ``repro.obs``.
    """
    parts = list(rel_path.replace("\\", "/").split("/"))
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


class FunctionInfo:
    """One function or method, with its whole-program summaries."""

    __slots__ = (
        "qualname", "module", "rel_path", "node", "class_name",
        "is_generator", "is_process", "calls", "param_names",
        "returns_tainted", "sink_params", "nested",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        rel_path: str,
        node: ast.AST,
        class_name: str | None,
    ):
        self.qualname = qualname
        self.module = module
        self.rel_path = rel_path
        self.node = node
        self.class_name = class_name
        self.is_generator = yields_in_own_scope(node)
        #: Set during the process-closure pass.
        self.is_process = False
        #: Resolved callee qualnames (call-graph edges out of here).
        self.calls: set[str] = set()
        self.param_names = tuple(
            arg.arg
            for arg in (
                node.args.posonlyargs + node.args.args
            )
        )
        #: Summary: the return value may derive from a taint source.
        self.returns_tainted = False
        #: Summary: parameter indices that flow into a scheduling or
        #: digest sink inside this function (0-based, *excluding* a
        #: leading ``self``).
        self.sink_params: set[int] = set()
        #: name -> FunctionInfo of functions defined *inside* this one
        #: (the Rebuilder's ``fetch_and_clear`` closure style).
        self.nested: dict[str, "FunctionInfo"] = {}

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    def arg_index(self, position: int) -> int:
        """Map a call-site positional index to a summary param index.

        Methods are summarised with ``self`` stripped, and call sites
        (``obj.meth(a)``) do not pass ``self`` positionally, so the
        mapping is the identity; it exists as a named seam in case a
        later PR resolves unbound calls (``Cls.meth(obj, a)``).
        """
        return position

    def summary_key(self) -> tuple:
        """Semantic fingerprint input (see Project.fingerprint)."""
        return (
            self.qualname,
            self.is_generator,
            self.is_process,
            self.returns_tainted,
            tuple(sorted(self.sink_params)),
            tuple(sorted(self.calls)),
        )


class ModuleInfo:
    """One parsed module and its top-level namespace."""

    def __init__(self, name: str, rel_path: str, tree: ast.Module):
        self.name = name
        self.rel_path = rel_path
        self.tree = tree
        #: local alias -> fully qualified name (imports).
        self.imports: dict[str, str] = {}
        #: top-level function name -> FunctionInfo.
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> {method name -> FunctionInfo}.
        self.classes: dict[str, dict[str, FunctionInfo]] = {}


def _record_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    module.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Relative import: walk up from the containing package.
                parts = module.name.split(".")
                # level=1 is the current package (drop the module leaf),
                # each extra level drops one more component.
                keep = len(parts) - node.level
                if keep < 0:
                    continue
                base_parts = parts[:keep] if keep else []
                if node.module:
                    base_parts.append(node.module)
                base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                module.imports[alias.asname or alias.name] = target


def _collect_functions(module: ModuleInfo) -> typing.Iterator[FunctionInfo]:
    # Nested defs (closures passed around by reference, like the
    # Rebuilder's ``fetch_and_clear``) get their own entries so the
    # process closure can step through them; ``self`` inside one still
    # resolves against the enclosing class.
    def walk_nested(parent: FunctionInfo) -> typing.Iterator[FunctionInfo]:
        for item in _own_scope(parent.node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sub = FunctionInfo(
                    f"{parent.qualname}.<locals>.{item.name}",
                    module.name, module.rel_path, item,
                    parent.class_name,
                )
                parent.nested[item.name] = sub
                yield sub
                yield from walk_nested(sub)

    def top(
        node: ast.AST, qualname: str, class_name: str | None
    ) -> typing.Iterator[FunctionInfo]:
        info = FunctionInfo(
            qualname, module.name, module.rel_path, node, class_name
        )
        yield info
        yield from walk_nested(info)

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            prefix = f"{module.name}." if module.name else ""
            infos = list(top(node, f"{prefix}{node.name}", None))
            module.functions[node.name] = infos[0]
            yield from infos
        elif isinstance(node, ast.ClassDef):
            methods: dict[str, FunctionInfo] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    prefix = f"{module.name}." if module.name else ""
                    infos = list(top(
                        item, f"{prefix}{node.name}.{item.name}", node.name
                    ))
                    methods[item.name] = infos[0]
                    yield from infos
            module.classes[node.name] = methods


class Project:
    """Symbol table + call graph over every parsed module of one run."""

    def __init__(self, modules: typing.Iterable[ModuleInfo]):
        self.modules: dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo, every function in the project.
        self.functions: dict[str, FunctionInfo] = {}
        #: bare (method or function) name -> infos carrying that name.
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for module in modules:
            self.modules[module.name] = module
            _record_imports(module)
            for info in _collect_functions(module):
                self.functions[info.qualname] = info
                self.by_name.setdefault(info.name, []).append(info)
        self._build_call_graph()
        self._close_processes()
        self._summarise_taint()

    # -- call resolution ---------------------------------------------------
    def resolve_call(
        self, call: ast.Call, module: ModuleInfo,
        class_name: str | None = None,
        within: FunctionInfo | None = None,
    ) -> FunctionInfo | None:
        """Best-effort resolution of one call site to a project function."""
        return self._resolve_ref(call.func, module, class_name, within)

    def _resolve_ref(
        self, func: ast.AST, module: ModuleInfo,
        class_name: str | None = None,
        within: FunctionInfo | None = None,
    ) -> FunctionInfo | None:
        if isinstance(func, ast.Name):
            # A plain name: an enclosing function's nested def, a
            # module-local function, or an import.
            if within is not None:
                nested = within.nested.get(func.id)
                if nested is not None:
                    return nested
            info = module.functions.get(func.id)
            if info is not None:
                return info
            imported = module.imports.get(func.id)
            if imported is not None:
                return self.functions.get(imported)
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                owner = func.value.id
                if owner in ("self", "cls") and class_name is not None:
                    methods = module.classes.get(class_name, {})
                    info = methods.get(func.attr)
                    if info is not None:
                        return info
                    return self._sole_method(func.attr)
                # module alias: ``layout.coalesce_subrequests(...)``
                imported = module.imports.get(owner)
                if imported is not None:
                    return self.functions.get(f"{imported}.{func.attr}")
                return self._sole_method(func.attr)
            # Deeper chains (`a.b.c()`): try the textual qualname, then
            # the unique-method fallback.
            parts: list[str] = []
            node: ast.AST = func
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                parts.append(module.imports.get(node.id, node.id))
                qualname = ".".join(reversed(parts))
                info = self.functions.get(qualname)
                if info is not None:
                    return info
            return self._sole_method(func.attr)
        return None

    def _sole_method(self, name: str) -> FunctionInfo | None:
        """The single project function called ``name``, if unambiguous.

        Dunders and ubiquitous protocol names are never resolved this
        way — ``obj.get()``/``obj.read()`` matching some unrelated class
        would invent call edges out of thin air.
        """
        if name.startswith("__") or name in _NEVER_SOLE:
            return None
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- graph construction ------------------------------------------------
    def _build_call_graph(self) -> None:
        for info in self.functions.values():
            module = self.modules[info.module]
            for node in _own_scope(info.node):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(
                        node, module, info.class_name, within=info
                    )
                    if callee is not None:
                        info.calls.add(callee.qualname)

    def _close_processes(self) -> None:
        """Mark the generator functions that run as simulation processes.

        Seeds: the generator calls handed to ``spawn``/``process`` (the
        first argument) and to ``spawn_many``/``gather`` (the calls in
        a list display, list comprehension or generator expression
        passed first).  Closure: a process's
        ``yield from <call>`` targets, and any generator function passed
        *by reference* as an argument at a call site whose callee is a
        project function (the callee will call-and-spawn or yield-from
        it — exactly how the Rebuilder hands ``_flush_extent`` to
        ``_run_batch``).
        """
        worklist: list[FunctionInfo] = []

        def mark(info: FunctionInfo | None) -> None:
            if info is not None and info.is_generator and not info.is_process:
                info.is_process = True
                worklist.append(info)

        for info in self.functions.values():
            module = self.modules[info.module]
            for node in _own_scope(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if _call_name(node.func) in _PROCESS_SEEDS and node.args:
                    for body in _body_calls(node.args[0]):
                        mark(self.resolve_call(
                            body, module, info.class_name, within=info
                        ))

        while worklist:
            proc = worklist.pop()
            module = self.modules[proc.module]
            for node in _own_scope(proc.node):
                if isinstance(node, ast.YieldFrom) and isinstance(
                    node.value, ast.Call
                ):
                    mark(self.resolve_call(
                        node.value, module, proc.class_name, within=proc
                    ))
                elif isinstance(node, ast.Call):
                    callee = self.resolve_call(
                        node, module, proc.class_name, within=proc
                    )
                    if callee is None:
                        continue
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        referenced = self._resolve_ref(
                            arg, module, proc.class_name, within=proc
                        )
                        mark(referenced)

    # -- taint summaries ---------------------------------------------------
    def _summarise_taint(self) -> None:
        """Fixpoint ``returns_tainted`` + one-shot ``sink_params``."""
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                analysis = FunctionTaint(self, info)
                if analysis.returns_tainted and not info.returns_tainted:
                    info.returns_tainted = True
                    changed = True
                if analysis.sink_params - info.sink_params:
                    info.sink_params |= analysis.sink_params
                    changed = True

    # -- fingerprint -------------------------------------------------------
    def fingerprint(self) -> str:
        """Hash of the *semantic* summaries, not of file bytes.

        The incremental cache keys each file's results on this plus its
        own content hash: editing a comment in module A must not dirty
        module B, but flipping A's ``returns_tainted`` must.
        """
        hasher = hashlib.sha256()
        for qualname in sorted(self.functions):
            hasher.update(repr(self.functions[qualname].summary_key())
                          .encode())
        return hasher.hexdigest()


#: Attribute names too generic for the unique-method fallback.
_NEVER_SOLE = frozenset({
    "get", "set", "add", "put", "pop", "read", "write", "open",
    "close", "run", "start", "stop", "update", "append", "extend",
    "remove", "clear", "copy", "items", "keys", "values", "sort",
    "join", "split", "strip", "release", "acquire", "send", "recv",
    "next", "flush", "reset", "register", "lookup",
})


def _own_scope(fn: ast.AST) -> typing.Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: Engine calls whose first argument holds the bodies of new processes.
_PROCESS_SEEDS = frozenset({"spawn", "process", "spawn_many", "gather"})


def _body_calls(arg: ast.AST) -> list[ast.Call]:
    """The generator calls in a process seed's first argument."""
    if isinstance(arg, ast.Call):
        return [arg]
    if isinstance(arg, ast.List):
        return [elt for elt in arg.elts if isinstance(elt, ast.Call)]
    if isinstance(arg, (ast.ListComp, ast.GeneratorExp)) and isinstance(
        arg.elt, ast.Call
    ):
        return [arg.elt]
    return []


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def qualified_name(
    func: ast.AST, imports: dict[str, str]
) -> str | None:
    """Dotted name of ``func`` through an import alias table."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def is_source_call(call: ast.Call, imports: dict[str, str]) -> bool:
    """True when ``call`` reads the host clock / an unseeded generator."""
    qualname = qualified_name(call.func, imports)
    if qualname is None:
        return False
    if qualname in TAINT_SOURCE_CALLS:
        return True
    if qualname.startswith("random."):
        return qualname.split(".", 1)[1] in TAINT_SOURCE_RANDOM
    if qualname.startswith("numpy.random.") or qualname.startswith(
        "np.random."
    ):
        return qualname.rsplit(".", 1)[1] not in TAINT_NUMPY_OK
    return False


class FunctionTaint:
    """Flow-insensitive may-taint of one function's local names.

    Deliberately simple: any name ever assigned from an expression
    containing a source call (or a call to a ``returns_tainted``
    function, or an already-tainted name) is tainted everywhere.  A
    may-analysis overshoots paths but never misses one, which is the
    right polarity for a determinism gate.
    """

    def __init__(self, project: Project, info: FunctionInfo):
        self.project = project
        self.info = info
        self.module = project.modules[info.module]
        self.tainted: set[str] = set()
        self.returns_tainted = False
        self.sink_params: set[int] = set()
        self._propagate()
        self._scan_sinks()

    # -- taint propagation over assignments -------------------------------
    def expr_tainted(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if is_source_call(node, self.module.imports):
                    return True
                callee = self.project.resolve_call(
                    node, self.module, self.info.class_name,
                    within=self.info,
                )
                if callee is not None and callee.returns_tainted:
                    return True
            elif isinstance(node, ast.Name) and node.id in self.tainted:
                return True
        return False

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in _own_scope(self.info.node):
                value: ast.AST | None = None
                targets: list[ast.AST] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AugAssign):
                    value, targets = node.value, [node.target]
                elif isinstance(node, ast.AnnAssign) and node.value:
                    value, targets = node.value, [node.target]
                elif isinstance(node, ast.Return) and node.value:
                    if self.expr_tainted(node.value):
                        self.returns_tainted = True
                    continue
                if value is None or not self.expr_tainted(value):
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            if sub.id not in self.tainted:
                                self.tainted.add(sub.id)
                                changed = True

    # -- sink parameters ---------------------------------------------------
    def _scan_sinks(self) -> None:
        params = [p for p in self.info.param_names if p not in
                  ("self", "cls")]
        index_of = {name: i for i, name in enumerate(params)}
        for node in _own_scope(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            for _position, arg in sink_arguments(node):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in index_of:
                        self.sink_params.add(index_of[sub.id])
            callee = self.project.resolve_call(
                node, self.module, self.info.class_name, within=self.info
            )
            if callee is not None and callee.sink_params:
                for pos, arg in enumerate(node.args):
                    if callee.arg_index(pos) not in callee.sink_params:
                        continue
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id in index_of:
                            self.sink_params.add(index_of[sub.id])


def sink_arguments(
    call: ast.Call,
) -> typing.Iterator[tuple[int, ast.AST]]:
    """The (position, argument) pairs of ``call`` that land in a sink.

    Covers the scheduling-delay table (``timeout``/``succeed``/…) and
    digest updates on receivers whose name betrays a hash
    (``self._digest.update(x)``).
    """
    name = _call_name(call.func)
    if name is None:
        return
    position = SINK_POSITIONS.get(name)
    if position is not None:
        if len(call.args) > position:
            yield position, call.args[position]
        for kw in call.keywords:
            if kw.arg == "delay":
                yield position, kw.value
    if name in DIGEST_SINK_ATTRS and isinstance(call.func, ast.Attribute):
        receiver = call.func.value
        tail = (
            receiver.attr if isinstance(receiver, ast.Attribute)
            else receiver.id if isinstance(receiver, ast.Name)
            else ""
        )
        if any(hint in tail.lower() for hint in DIGEST_RECEIVER_HINTS):
            for pos, arg in enumerate(call.args):
                yield pos, arg


def build_project(
    sources: typing.Iterable[tuple[str, ast.Module]],
) -> Project:
    """Build a :class:`Project` from ``(rel_path, tree)`` pairs."""
    modules = [
        ModuleInfo(module_name_of(rel_path), rel_path, tree)
        for rel_path, tree in sources
    ]
    return Project(modules)
