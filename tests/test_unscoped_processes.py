"""Static guard: every unscoped process outside the kernel is audited.

A process a node or engine owns is spawned through its crash scope
(:class:`repro.sim.CrashScope`, ``Node.spawn``), so a crash kills it.  A
direct ``env.process`` call starts one that no crash can reach.  That
is right for a driver (the chaos runner, client arrivals, a control
loop) and for work that outlives a crash by design; anywhere else it is
a process that keeps running on a dead node.  This test reads
``src/repro`` outside ``repro.sim`` and pins every direct
``env.process`` site, by module and enclosing function, with its
reason, so a new one cannot land unaudited.  It never imports the code
it checks.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

DRIVER = "driver: outside every crashable node"
SURVIVES = "survives a crash by design"

#: (module, enclosing function) -> (sites, why it is unscoped)
AUDITED = {
    ("actors/runtime.py", "ActorRuntime.register_reminder"):
        (1, SURVIVES + ": a reminder is durable and re-activates its actor"),
    ("chaos/runner.py", "run_trial"):
        (3, DRIVER + ": scenario setup, client loops and the auditor"),
    ("chaos/runner.py", "run_trial.run_op"):
        (1, DRIVER + ": one client operation under chaos"),
    ("chaos/scenarios.py", "AppScenario.setup"):
        (1, DRIVER + ": the seeded live-migration schedule"),
    ("chaos/scenarios.py", "OverloadScenario._flood"):
        (1, DRIVER + ": one background query of the flood"),
    ("chaos/scenarios.py", "OverloadScenario.setup"):
        (1, DRIVER + ": the background flood"),
    ("chaos/scenarios.py", "bind_engine_to_node.<lambda>"):
        (1, DRIVER + ": waits on the engine's own scoped recovery"),
    ("cluster/rebalancer.py", "Rebalancer.start"):
        (1, DRIVER + ": the rebalancer's control loop"),
    ("db/sharding.py", "_Round.decide"):
        (1, SURVIVES + ": a made 2PC decision outlives its coordinator"),
    ("faas/durable.py", "DurableWorkflows._execute"):
        (1, SURVIVES + ": an activity body runs on a remote worker"),
    ("transactions/choreography.py", "ChoreographyMonitor.__init__"):
        (2, DRIVER + ": observers of the durable broker"),
    ("transactions/choreography.py", "Reactor.start"):
        (1, DRIVER + ": a reactor on the durable broker models no node"),
    ("workloads/arrivals.py", "ClosedLoop.drive"):
        (1, DRIVER + ": closed-loop clients"),
    ("workloads/arrivals.py", "OpenLoop.drive"):
        (1, DRIVER + ": open-loop arrivals"),
    ("workloads/arrivals.py", "PartlyOpenLoop.drive"):
        (1, DRIVER + ": partly-open sessions"),
}


class _Sites(ast.NodeVisitor):
    """Counts ``env.process(...)`` and ``<x>.env.process(...)`` calls by
    enclosing function."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: Counter = Counter()

    def _nested(self, name: str, node: ast.AST) -> None:
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._nested(node.name, node)

    def visit_FunctionDef(self, node):
        self._nested(node.name, node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._nested("<lambda>", node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "process":
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "env") or (
                isinstance(owner, ast.Attribute) and owner.attr == "env"
            ):
                self.found[(self.module, ".".join(self.scope))] += 1
        self.generic_visit(node)


def sites_in(module: str, source: str) -> Counter:
    visitor = _Sites(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def unscoped_sites() -> Counter:
    found: Counter = Counter()
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            path = os.path.join(root, name)
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            if name.endswith(".py") and not module.startswith("sim/"):
                with open(path) as handle:
                    found += sites_in(module, handle.read())
    return found


def test_every_unscoped_process_is_audited():
    expected = Counter({site: count for site, (count, _why) in AUDITED.items()})
    assert unscoped_sites() == expected


def test_the_guard_matches_what_it_forbids():
    source = (
        "class A:\n"
        "    def go(self, env):\n"
        "        env.process(x())\n"
        "        self.env.process(y())\n"
        "        self.node.spawn(z())\n"
        "        f = lambda: db.env.process(w())\n"
    )
    assert sites_in("m.py", source) == Counter(
        {("m.py", "A.go"): 2, ("m.py", "A.go.<lambda>"): 1}
    )
