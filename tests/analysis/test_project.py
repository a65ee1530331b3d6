"""Whole-program symbol table, call graph, process closure, taint."""

import ast
import pathlib
import textwrap

from repro.analysis.project import build_project, module_name_of

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _project(**files):
    """Build a project from ``{"pkg/mod.py": source}`` style kwargs."""
    sources = []
    for rel_path, source in files.items():
        sources.append((rel_path, ast.parse(textwrap.dedent(source))))
    return build_project(sources)


def test_module_name_of():
    assert module_name_of("src/repro/sim/core.py") == "repro.sim.core"
    assert module_name_of("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_of("tools/gen.py") == "tools.gen"


def test_symbol_table_contains_methods_and_nested_defs():
    project = _project(**{
        "src/pkg/mod.py": """
        def top():
            def helper():
                return 1
            return helper()

        class Box:
            def get_value(self):
                return 2
        """
    })
    names = set(project.functions)
    assert "pkg.mod.top" in names
    assert "pkg.mod.top.<locals>.helper" in names
    assert "pkg.mod.Box.get_value" in names


def test_call_graph_resolves_across_modules():
    project = _project(**{
        "src/pkg/util.py": """
        def compute():
            return 1
        """,
        "src/pkg/main.py": """
        from .util import compute

        def entry():
            return compute()
        """,
    })
    entry = project.functions["pkg.main.entry"]
    assert "pkg.util.compute" in entry.calls


def test_self_method_resolution():
    project = _project(**{
        "src/pkg/mod.py": """
        class Engine:
            def step(self):
                return self._advance()

            def _advance(self):
                return 1
        """
    })
    step = project.functions["pkg.mod.Engine.step"]
    assert "pkg.mod.Engine._advance" in step.calls


def test_process_closure_spawn_and_yield_from():
    project = _project(**{
        "src/repro/core/mover.py": """
        class Mover:
            def start(self, sim):
                self._proc = sim.spawn(self._run(), name="mover")

            def _run(self):
                while True:
                    yield self.sim.timeout(1)
                    yield from self.cycle()

            def cycle(self):
                yield self.sim.timeout(0)
        """
    })
    assert project.functions["repro.core.mover.Mover._run"].is_process
    # Closure over ``yield from``:
    assert project.functions["repro.core.mover.Mover.cycle"].is_process
    # start() is not a generator, never a process.
    assert not project.functions["repro.core.mover.Mover.start"].is_process


def test_process_closure_generator_passed_by_reference():
    """The Rebuilder pattern: a generator function handed by name to a
    batch runner that spawns it."""
    project = _project(**{
        "src/repro/core/batch.py": """
        class Runner:
            def start(self, sim):
                sim.spawn(self.pass_(), name="runner")

            def pass_(self):
                items = self.pending()
                yield from self.run_batch(self.fetch_one, items)

            def run_batch(self, action, items):
                procs = [self.sim.spawn(action(i)) for i in items]
                yield self.sim.all_of(procs)

            def fetch_one(self, item):
                yield self.client.read(item)
        """
    })
    assert project.functions["repro.core.batch.Runner.fetch_one"].is_process


def test_taint_summary_fixpoint_through_helpers():
    project = _project(**{
        "src/pkg/clock.py": """
        import time

        def stamp():
            return time.time()

        def indirect():
            return stamp()

        def clean():
            return 42
        """
    })
    assert project.functions["pkg.clock.stamp"].returns_tainted
    # One interprocedural hop through the fixpoint:
    assert project.functions["pkg.clock.indirect"].returns_tainted
    assert not project.functions["pkg.clock.clean"].returns_tainted


def test_taint_sink_params():
    project = _project(**{
        "src/pkg/sched.py": """
        def delay_by(sim, amount):
            return sim.timeout(amount)
        """
    })
    info = project.functions["pkg.sched.delay_by"]
    # ``amount`` (param index 1) reaches timeout's delay position.
    assert 1 in info.sink_params


def test_fingerprint_tracks_semantics_not_text():
    base = textwrap.dedent("""
    import time

    def helper():
        return 1
    """)
    commented = base + "\n# a trailing comment changes nothing\n"
    tainted = base.replace("return 1", "return time.time()")
    fp = _project(**{"src/p/m.py": base}).fingerprint()
    assert _project(**{"src/p/m.py": commented}).fingerprint() == fp
    assert _project(**{"src/p/m.py": tainted}).fingerprint() != fp


def test_process_closure_seeds_from_fan_out_collections():
    """``spawn_many``/``gather`` take their bodies in a list display, a
    list comprehension or a generator expression."""
    project = _project(**{
        "src/repro/pfs/fan.py": """
        class Client:
            def listed(self, sim):
                yield from sim.gather([self.one(), self.two()])

            def comprehended(self, sim, subs):
                return (yield from sim.gather(
                    [self.sub(s) for s in subs], name="x"))

            def generated(self, sim, subs):
                sim.spawn_many((self.gen(s) for s in subs))

            def one(self):
                yield self.sim.timeout(1)

            def two(self):
                yield self.sim.timeout(1)

            def sub(self, s):
                yield self.sim.timeout(s)

            def gen(self, s):
                yield self.sim.timeout(s)
        """
    })
    for name in ("one", "two", "sub", "gen"):
        assert project.functions[f"repro.pfs.fan.Client.{name}"].is_process


def test_request_path_flows_are_processes():
    """The request path's fan-out bodies, and what they reach."""
    src = REPO_ROOT / "src"
    project = build_project(
        (path.relative_to(REPO_ROOT).as_posix(), ast.parse(path.read_text()))
        for path in sorted(src.rglob("*.py"))
    )
    for qualname in (
        "repro.pfs.client.PFSClient._sub_flow",
        "repro.pfs.server.FileServer.serve",
        "repro.pfs.server.FileServer._device_op",
    ):
        assert project.functions[qualname].is_process, qualname
