"""DET rules: hazards that break "same seed, same results".

DET001  wall-clock reads outside sanctioned reporting code
DET002  global ``random`` / ``numpy.random`` default-generator use
DET003  iteration over unordered collections in sim-critical code
DET004  ``id()`` used as a key, membership probe, or sort tie-breaker
DET005  host CPU-count reads (pool-width values must never reach results)
"""

from __future__ import annotations

import ast

from ..registry import Rule, register_rule

#: Functions whose return value depends on the host clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Module-level ``random`` functions that draw from (or reseed) the
#: hidden global Mersenne Twister.  ``random.Random(seed)`` instances
#: are fine — that is exactly what ``sim/rng.py`` hands out.
GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: ``numpy.random`` attributes that construct explicit, seedable
#: generators rather than touching the global one.
NUMPY_RANDOM_OK = frozenset({
    "Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
    "Philox", "SFC64", "MT19937", "default_rng", "RandomState",
})


@register_rule
class WallClockRule(Rule):
    """DET001: wall-clock reads poison simulated timestamps and any
    value derived from them; simulation code must read ``sim.now``."""

    code = "DET001"
    name = "no-wall-clock"
    rationale = (
        "time.time()/perf_counter()/datetime.now() differ across runs; "
        "sim code must use sim.now, reporting code an injected clock"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.qualified(node.func)
        if qualified in WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock call {qualified}() is nondeterministic; "
                "use sim.now (simulation) or an injectable clock "
                "(reporting)",
            )
        self.generic_visit(node)


@register_rule
class GlobalRandomRule(Rule):
    """DET002: the process-global RNG is shared mutable state — any new
    consumer perturbs every existing stream.  All randomness must flow
    through :class:`repro.sim.rng.RandomStreams`."""

    code = "DET002"
    name = "no-global-random"
    rationale = (
        "global random()/np.random draws share hidden state across "
        "components; use RandomStreams named streams (sim/rng.py)"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.qualified(node.func)
        if qualified is not None:
            if qualified.startswith("random."):
                func = qualified.split(".", 1)[1]
                if func in GLOBAL_RANDOM_FUNCS:
                    self.report(
                        node,
                        f"global-generator call {qualified}(); draw from "
                        "a named RandomStreams stream instead",
                    )
            elif qualified.startswith("numpy.random."):
                tail = qualified.rsplit(".", 1)[1]
                if tail not in NUMPY_RANDOM_OK:
                    self.report(
                        node,
                        f"numpy global-generator call {qualified}(); use "
                        "numpy.random.default_rng(seed) or RandomStreams",
                    )
        self.generic_visit(node)


#: Functions whose return value depends on the host's core count or
#: CPU affinity mask — machine shape, not experiment configuration.
CPU_COUNT_CALLS = frozenset({
    "os.cpu_count",
    "os.process_cpu_count",
    "os.sched_getaffinity",
    "multiprocessing.cpu_count",
    "multiprocessing.context.BaseContext.cpu_count",
})


@register_rule
class CpuCountRule(Rule):
    """DET005: the host core count sizes worker pools, nothing else.

    ``--jobs`` only changes wall time — a sweep must produce identical
    bits at any pool width (``repro.parallel`` merges positionally).  A
    ``cpu_count()`` value flowing anywhere near simulation parameters,
    seeds or result payloads silently varies results across machines;
    the sanctioned pool-sizing reads carry an inline disable."""

    code = "DET005"
    name = "no-cpu-count"
    rationale = (
        "os.cpu_count()/sched_getaffinity() differ across hosts; results "
        "must be --jobs-invariant, so core counts may only size worker "
        "pools (repro.parallel.stealing, with an inline disable)"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.qualified(node.func)
        if qualified in CPU_COUNT_CALLS:
            self.report(
                node,
                f"host-shape call {qualified}() is machine-dependent; "
                "use repro.parallel.resolve_jobs for pool sizing and "
                "keep the value out of results",
            )
        self.generic_visit(node)


def _is_unordered(node: ast.AST) -> bool:
    """True for expressions that evaluate to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register_rule
class UnorderedIterationRule(Rule):
    """DET003: set iteration order depends on insertion history and hash
    randomisation of the values involved; in sim-critical code every
    iteration must have a defined order (sort first)."""

    code = "DET003"
    name = "no-unordered-iteration"
    rationale = (
        "iterating a set/frozenset (or materialising one into a list) "
        "has no defined order; wrap in sorted() in sim-critical code"
    )
    sim_only = True

    _MESSAGE = (
        "iteration over an unordered {what} in sim-critical code; "
        "wrap in sorted(...) to fix the order"
    )

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_unordered(iter_node):
            what = "set literal" if isinstance(iter_node, ast.Set) else "set"
            self.report(iter_node, self._MESSAGE.format(what=what))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # list(set(...)) / tuple(set(...)) freeze an arbitrary order.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_unordered(node.args[0])
        ):
            self.report(
                node,
                f"{node.func.id}() over a set materialises an arbitrary "
                "order; use sorted(...)",
            )
        # dict.popitem() pops an arbitrary end of a plain dict; the
        # OrderedDict form popitem(last=...) is explicitly ordered.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
            and not any(kw.arg == "last" for kw in node.keywords)
        ):
            self.report(
                node,
                "dict.popitem() order is an implementation detail; use "
                "an explicit key or OrderedDict.popitem(last=...)",
            )
        self.generic_visit(node)


def _contains_id_call(node: ast.AST) -> ast.Call | None:
    """First ``id(...)`` call anywhere inside ``node``, if any."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None


@register_rule
class IdAsKeyRule(Rule):
    """DET004: CPython ``id()`` is a memory address — stable within a
    run, different across runs.  Keying or ordering anything by it makes
    results depend on allocator behaviour (the exact bug class the PR-1
    determinism test once caught in the event loop)."""

    code = "DET004"
    name = "no-id-keys"
    rationale = (
        "id() is an address: dict keys / sort keys / membership built "
        "on it differ across runs; use a monotonic sequence id"
    )

    _KEYED_METHODS = frozenset(
        {"get", "pop", "setdefault", "add", "discard", "remove"}
    )
    _SORTERS = frozenset({"sorted", "min", "max", "sort"})

    def _flag(self, container: ast.AST, where: str) -> None:
        call = _contains_id_call(container)
        if call is not None:
            self.report(
                call,
                f"id() used as {where}; assign a monotonic sequence id "
                "instead",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._flag(node.slice, "a subscript key")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None:
                self._flag(key, "a dict-literal key")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            self._flag(node.left, "a membership probe")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._KEYED_METHODS
            and node.args
        ):
            self._flag(node.args[0], f"the key of .{func.attr}()")
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name in self._SORTERS:
            for kw in node.keywords:
                if kw.arg == "key":
                    self._flag(kw.value, "a sort key")
        self.generic_visit(node)
