"""Static reachability guard: every module under ``src/repro/`` earns a
claim, every public symbol in it a caller, every defaulted parameter a
passer and every stored attribute a reader.

The reproduction is defined by its experiments: the ``bench_*.py`` claim
tables, the perf microbenches, the suite workloads, the chaos and perf
scripts and the examples.  A module none of them imports is code without a
claim, so this test walks imports from those roots with :mod:`ast` (it never
imports anything) and fails on any module it cannot reach.  Inside a reached
module, a public class, function or method that no non-test code names is
code only its own unit tests run; the symbol walk fails on those too, the
parameter walk on a defaulted parameter no non-test call passes, and the
state walk on an attribute that no non-test code reads.

Every walk matches by name only, so it errs towards keeping: a dead member
that shares its name with a live one passes unseen (``NetworkStats.as_dict``
counted as used while ``VectorClock.as_dict`` was called).

Rules of the walk:

- **Roots:** every ``.py`` under ``benchmarks/`` (``perf/`` and ``suite/``
  included), ``scripts/`` and ``examples/``.
- **Module imports:** ``import P.m`` and ``from P import m`` where ``m`` is a
  submodule reach ``P.m``; reaching a module walks every import in it.
- **Name imports:** ``from P import name`` reaches the submodule that
  defines ``name``, following ``__init__`` re-exports, not the whole package.
- **Submodule-binding imports:** an import in a package's ``__init__`` that
  binds a submodule (``from repro.apps.core import binders as _binders``,
  which registers the binders) is followed whenever anything is imported
  from or under that package, as Python runs it on every such import.

Package ``__init__`` files only re-export, so they are not themselves
required to be reachable.

Rules of the symbol walk (:class:`_Symbols`):

- **Checked:** every public top-level class or function, and every public
  method of a top-level class, in a reached non-package module.  Dunders
  are exempt.
- **Uses:** a ``Name``, an ``Attribute`` or an identifier string constant
  in ``src/`` outside the symbol's own definition, or anywhere under the
  roots above.  Tests never count.
- **Not uses:** an import, or an entry in ``__all__``.
- **Registered classes:** a class under a registering decorator
  (``@register_binder``) is reached with its module.
- **Methods:** a method is used only through an ``Attribute`` or an
  identifier string, never through a bare ``Name`` (which cannot call it).

Rules of the parameter walk (:class:`_Params`):

- **Checked:** every defaulted parameter (keyword-only ones included) of a
  checked function or method, and of a checked or registered class's own
  ``__init__``, unless the symbol walk already reports or allowlists the
  callable.  Dataclass fields are state, not knobs: the state walk checks
  them.
- **Passed:** by a call in ``src/`` outside the function itself, or under
  the roots, that names the callable (the class, for ``__init__``) and
  passes the parameter by keyword or by position at or past its index;
  through ``super().__init__`` in a subclass; through a subclass without
  its own ``__init__``, or a name bound to the class
  (``group_class = ReplicaGroup``); through a function that hands the
  callable its ``**kwargs`` (keywords only); or as a string key of a dict
  literal or ``dict(...)`` there that reaches a call through ``**``, which
  is how binder and scenario options arrive (:func:`_spread_keys`).  Tests
  never count.

Rules of the state walk (:class:`_State`):

- **Checked:** every attribute a top-level class of a reached non-package
  module stores, private classes and private attributes included: its
  dataclass fields (not ``ClassVar``), its ``__slots__`` entries, and every
  ``self.x`` a method assigns, augments or annotates.  ``NamedTuple``
  fields are not checked: unpacking reads them by position.
- **Read:** an ``Attribute`` load of the name in ``src/`` or under the
  roots, or an identifier string constant there (``getattr(x, "f")``) that
  neither ``__all__`` nor ``__slots__`` lists; and every attribute of a
  class that hands ``self`` to ``asdict``, ``astuple`` or ``vars``.  Tests
  never count.
- **Not reads:** a store, ``x.f += 1`` included, or a ``del``.  Neither is a
  dataclass's generated ``__eq__``, ``__hash__`` or ``__repr__``: before
  deleting a field of a compared, hashed or printed value, check where its
  instances are compared, hashed or printed.
"""

from __future__ import annotations

import ast
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
ROOT_DIRS = ("benchmarks", "scripts", "examples")

#: module -> the ROADMAP item that will give it a consumer.  An entry must
#: name a module that exists and is unreachable; remove it when either stops
#: being true.
ALLOWLIST = {
    "repro.flow.credits": "ROADMAP item 12 (binder ingress credits)",
    "repro.apps.hotel_impl": "ROADMAP item 3 (port hotel to an AppSpec)",
    "repro.workloads.hotel": "ROADMAP item 3 (port hotel to an AppSpec)",
    "repro.apps.core.reference": "ROADMAP item 16 (op-stream driver + differential test)",
}


OBSERVES = "observation surface: tests read a run through it"
SAFETY = "reference or recovery code kept as safety code"

#: ``module:qualname`` -> why it stays although only tests name it.  An
#: entry must name a checked symbol that is unused; remove it when either
#: stops being true.
SYMBOL_ALLOWLIST = {
    "repro.obs.tracer:Tracer.find": OBSERVES,
    "repro.obs.tracer:NullTracer.find": OBSERVES,
    "repro.sim.events:Future.exception": OBSERVES,
    "repro.sim.environment:Environment.pending_events": OBSERVES,
    "repro.db.locks:LockManager.held_by": OBSERVES,
    "repro.db.locks:LockManager.queue_length": OBSERVES,
    "repro.db.engine:Database.version_count": OBSERVES + " (cross-checks the GC gauge)",
    "repro.replication.replica:Replica.force_election": OBSERVES,
    "repro.harness.driver:RunResult.trace_json": OBSERVES,
    "repro.db.locks:combine": SAFETY + " (the lock table the grant path inlines)",
    "repro.db.locks:compatible": SAFETY + " (the lock table the grant path inlines)",
    "repro.db.engine:Database.resolve_in_doubt": SAFETY + " (in-doubt recovery)",
    "repro.db.engine:Database.flush_barrier": SAFETY + " (group-commit durability)",
    "repro.apps.core.spec:CapacityBoundSpec": "ROADMAP item 3 (port hotel to an AppSpec)",
    "repro.net.network:Network.send_local":
        "ROADMAP item 9(c) (benchmarks/suite/layers.py names it as a boundary)",
    "repro.core.metrics:MetricsCollector.latency": OBSERVES,
    "repro.obs.tracer:Span.finished": OBSERVES,
    "repro.storage.wal:WriteAheadLog.records": OBSERVES + " (the durable-format pins)",
    "repro.replication.group:ReplicaGroup.replica_on": OBSERVES + " (one member by node)",
}

SEAM = "seam: tests substitute a fake"

#: ``module:qualname(parameter)`` -> why it stays although no non-test call
#: passes it: safety code, a seam for a test double, or a ROADMAP item.  An
#: entry must name a checked parameter that is not passed; remove it when
#: either stops being true.
PARAM_ALLOWLIST = {
    "repro.sim.environment:Environment(tracer)": SEAM + " (a recording Tracer)",
    "repro.dataflow.txn:TransactionalDataflow(checkpoint_store)":
        SEAM + " (a recording or constant-latency object store)",
    "repro.dataflow.statefun:StatefunRuntime(checkpoint_store)":
        SEAM + " (a constant-latency object store)",
    "repro.net.network:Network.set_loss(src)": "seam: tests lose one direction of one link",
    "repro.net.network:Network.set_loss(dst)": "seam: tests lose one direction of one link",
    "repro.messaging.broker:Broker(max_backlog)":
        "ROADMAP item 12 (bounded partitions, docs/OVERLOAD.md rule 3)",
}

PAYLOAD = "exception payload: "

#: ``module:Class.attribute`` -> why it stays although no non-test code
#: reads it: a test asserts behaviour through it that no other test checks,
#: or an exception carries it to its handler.  An entry must name a checked
#: attribute that is unread; remove it when either stops being true.
STATE_ALLOWLIST = {
    "repro.actors.runtime:ActorRuntimeStats.dropped_calls": OBSERVES,
    "repro.actors.runtime:ActorRuntimeStats.duplicates_dropped": OBSERVES,
    "repro.actors.runtime:StateStorageProvider.saves": OBSERVES,
    "repro.cluster.migration:MigrationStats.started": OBSERVES,
    "repro.core.taxonomy:RuntimeProfile.module": OBSERVES + " (each names an importable module)",
    "repro.dataflow.runtime:DataflowStats.records_processed": OBSERVES,
    "repro.dataflow.txn:TxnDataflowStats.checkpoint_keys": OBSERVES + " (bounded state)",
    "repro.dataflow.txn:TxnDataflowStats.compactions": OBSERVES + " (bounded state)",
    "repro.dataflow.txn:TxnDataflowStats.log_truncated": OBSERVES + " (bounded state)",
    "repro.db.engine:DbStats.live_versions": OBSERVES + " (the GC gauge)",
    "repro.db.errors:DeadlockAbort.cycle": PAYLOAD + "the waits-for cycle the victim closed",
    "repro.db.errors:FencedOut.fence": PAYLOAD + "the fence that rejected the request",
    "repro.db.errors:FencedOut.token": PAYLOAD + "the stale token the request carried",
    "repro.db.locks:LockStats.waited": OBSERVES,
    "repro.db.sharding:ShardedDbStats.single_shard_commits": OBSERVES,
    "repro.messaging.broker:BrokerStats.blocked_publishes": OBSERVES,
    "repro.messaging.idempotency:Deduplicator.accepted": OBSERVES,
    "repro.messaging.outbox:OutboxRelay.published": OBSERVES,
    "repro.messaging.outbox:OutboxRelay.republished": OBSERVES,
    "repro.messaging.rpc:RpcStats.budget_stopped": OBSERVES,
    "repro.messaging.rpc:RpcStats.deduplicated": OBSERVES,
    "repro.messaging.rpc:RpcTimeout.attempts": PAYLOAD + "how many attempts the call made",
    "repro.net.network:NetworkStats.dropped_loss": OBSERVES + " (loss, not a partition)",
    "repro.sim.environment:Interrupted.cause": PAYLOAD + "why the process was interrupted",
    "repro.storage.cache:CacheStats.hits": OBSERVES,
    "repro.storage.cache:CacheStats.misses": OBSERVES,
    "repro.storage.lsm:LsmStats.bloom_skips": OBSERVES,
    "repro.storage.lsm:LsmStats.compactions": OBSERVES,
    "repro.storage.lsm:LsmStats.flushes": OBSERVES,
    "repro.transactions.anomalies:AnomalyReport.unacknowledged_applied": OBSERVES,
    "repro.transactions.sagas:SagaOutcome.failed_step": OBSERVES,
    "repro.transactions.sagas:SagaStuck.step": PAYLOAD + "the step that needs a human",
}


def _source_modules(src: str = SRC) -> dict[str, str]:
    """``dotted name -> path`` for every module and package under ``src``."""
    modules = {}
    for directory, _dirs, files in os.walk(os.path.join(src, "repro")):
        package = os.path.relpath(directory, src).replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py"):
                continue
            stem = name[:-3]
            dotted = package if stem == "__init__" else f"{package}.{stem}"
            modules[dotted] = os.path.join(directory, name)
    return modules


def _roots(repo: str = REPO) -> list[str]:
    paths = []
    for top in ROOT_DIRS:
        for directory, _dirs, files in os.walk(os.path.join(repo, top)):
            paths.extend(os.path.join(directory, name) for name in files if name.endswith(".py"))
    return sorted(paths)


def _imports(tree: ast.Module, package: str) -> list[tuple[str, str | None, str]]:
    """Every import in ``tree`` as ``(module, name or None, bound name)``.

    ``import P.m`` is ``("P.m", None, "P")``; ``from P import n as b`` is
    ``("P", "n", "b")``.  Relative imports are resolved against ``package``.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, None, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            for alias in node.names:
                found.append((base, alias.name, alias.asname or alias.name))
    return found


class _Walk:
    """A static import walk over ``src/repro``; :attr:`reached` grows per root."""

    def __init__(self, repo: str = REPO) -> None:
        self.modules = _source_modules(os.path.join(repo, "src"))
        self.reached: set[str] = set()
        self._touched: set[str] = set()
        self._trees: dict[str, ast.Module] = {}
        self._bindings: dict[str, dict[str, tuple[str, str | None]]] = {}

    def root(self, path: str) -> None:
        self._follow(self._tree(path), "")

    def unreachable(self) -> set[str]:
        """Non-package modules the walk has not reached."""
        return {m for m in self.modules if not self._is_package(m) and m not in self.reached}

    def _is_package(self, module: str) -> bool:
        return self.modules.get(module, "").endswith("__init__.py")

    def _tree(self, path: str) -> ast.Module:
        if path not in self._trees:
            with open(path) as handle:
                self._trees[path] = ast.parse(handle.read(), path)
        return self._trees[path]

    def _init_bindings(self, package: str) -> dict[str, tuple[str, str | None]]:
        """``bound name -> (module, name or None)`` for a package's ``__init__``."""
        if package not in self._bindings:
            bindings = {}
            for module, name, bound in _imports(self._tree(self.modules[package]), package):
                if name is not None and f"{module}.{name}" in self.modules:
                    bindings[bound] = (f"{module}.{name}", None)
                else:
                    bindings[bound] = (module, name)
            self._bindings[package] = bindings
        return self._bindings[package]

    def _follow(self, tree: ast.Module, package: str) -> None:
        for module, name, _bound in _imports(tree, package):
            if module.split(".")[0] != "repro":
                continue
            if name is None:
                self._reach(module)
            else:
                self._resolve(module, name)

    def _resolve(self, module: str, name: str) -> None:
        """``from module import name``: reach what defines ``name``."""
        if not self._is_package(module):
            self._reach(module)
            return
        self._touch(module)
        target = self._init_bindings(module).get(name)
        if target is None:
            self._reach(f"{module}.{name}")  # a submodule the __init__ never binds
        elif target[1] is None:
            self._reach(target[0])
        else:
            self._resolve(*target)

    def _reach(self, module: str) -> None:
        if module in self.reached or module not in self.modules:
            return
        self.reached.add(module)
        parts = module.split(".")
        for depth in range(1, len(parts)):
            self._touch(".".join(parts[:depth]))
        package = module if self._is_package(module) else ".".join(parts[:-1])
        self._follow(self._tree(self.modules[module]), package)

    def _touch(self, package: str) -> None:
        """Follow the submodule-binding imports of ``package``'s ``__init__``."""
        if package in self._touched or not self._is_package(package):
            return
        self._touched.add(package)
        for module, name in self._init_bindings(package).values():
            if name is None and module.startswith(f"{package}."):
                self._reach(module)


#: class decorators that enter the class in a table (``@register_binder``
#: fills the binder registry ``bind()`` reads), so the class is reached
#: along with its module.
REGISTERING_DECORATORS = frozenset({"register_binder"})


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for every public top-level class or function and
    every public method of a top-level class.

    Dunders are private by this rule; a class with a registering decorator
    is left out itself, its methods are not.
    """
    for node in tree.body:
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        registered = isinstance(node, ast.ClassDef) and any(
            _decorator_name(d) in REGISTERING_DECORATORS for d in node.decorator_list
        )
        if not node.name.startswith("_") and not registered:
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not member.name.startswith("_")
                ):
                    yield f"{node.name}.{member.name}", member


def _uses(tree: ast.Module):
    """``(identifier, line, bare)`` for every ``Name``, ``Attribute`` and
    identifier string constant in ``tree``; ``bare`` marks a ``Name``.

    Imports bind names without using them (an ``alias`` is neither node),
    and the strings of an ``__all__`` list only export.
    """
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            yield node.value, node.lineno, False


class _Symbols:
    """The public symbols of the reached modules, and which are unused.

    A symbol is used when its name occurs in non-test code outside its own
    definition: anywhere in ``src/``, ``benchmarks/``, ``scripts/`` or
    ``examples/``.  Matching is by name only, so a use of one ``get``
    counts for every method called ``get``; the walk errs towards keeping.
    """

    def __init__(self, walk: _Walk, repo: str = REPO) -> None:
        uses: dict[str, list[tuple[str, int, bool]]] = {}
        for path in sorted(walk.modules.values()) + _roots(repo):
            for name, line, bare in _uses(walk._tree(path)):
                uses.setdefault(name, []).append((path, line, bare))
        #: ``module:qualname`` for every checked symbol
        self.defined: set[str] = set()
        #: the checked symbols no non-test code names
        self.unused: set[str] = set()
        for module in sorted(walk.reached):
            if walk._is_package(module):
                continue
            path = walk.modules[module]
            for qualname, node in _definitions(walk._tree(path)):
                symbol = f"{module}:{qualname}"
                self.defined.add(symbol)
                inside = range(node.lineno, node.end_lineno + 1)
                method = "." in qualname
                if all(
                    (where == path and line in inside) or (method and bare)
                    for where, line, bare in uses.get(node.name, ())
                ):
                    self.unused.add(symbol)

    def stale(self, allowlist) -> dict[str, str]:
        """Allowlist entries that no longer name an unused symbol."""
        return {
            symbol: "deleted" if symbol not in self.defined else "now reached"
            for symbol in allowlist
            if symbol not in self.unused
        }


def _signatures(tree: ast.Module):
    """``(qualname, callee, function, offset)`` for every callable whose
    defaulted parameters the parameter walk checks.

    A checked class is called by its own name through its ``__init__``
    (``offset`` 1: ``self`` is never written); a checked method is called
    through an attribute by its own name (``offset`` 0 for a
    ``staticmethod``).  A registered class's ``__init__`` is checked too:
    its options arrive through ``bind``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node, 0
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name == "__init__" and not node.name.startswith("_"):
                yield node.name, node.name, member, 1
            elif not member.name.startswith("_"):
                static = any(_decorator_name(d) == "staticmethod" for d in member.decorator_list)
                yield f"{node.name}.{member.name}", member.name, member, 0 if static else 1


def _defaulted(function: ast.FunctionDef, offset: int):
    """``(name, index)`` for every defaulted parameter; ``index`` counts the
    call's positional arguments (``None`` for a keyword-only one)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _callee(call: ast.Call) -> str:
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", "")


class _Calls(ast.NodeVisitor):
    """Every call in one tree as ``callee -> [(line, positional, keywords)]``,
    the names that call something by another name, the expressions spread
    into a call with ``**`` and what every name is bound to (the input of
    :func:`_spread_keys`).

    ``positional`` counts the arguments, or is infinite once a ``*args``
    could fill any position.  ``super().__init__(...)`` inside a class
    calls each of its bases by name.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.calls: dict[str, list[tuple[int, float, set[str]]]] = {}
        #: every ``expr`` of a ``**expr`` call argument
        self.spread: list[ast.expr] = []
        #: ``name -> [(value, iterated)]``: assignments, keyword arguments
        #: and loop targets (``iterated``: the name takes an item of value)
        self.bound: dict[str, list[tuple[ast.expr, bool]]] = {}
        #: ``callee -> names of the functions that hand it their **kwargs``
        self.forwarders: dict[str, set[str]] = {}
        #: ``name -> names that call it``: a name bound to it
        #: (``group_class = ReplicaGroup``) or a subclass without its own
        #: ``__init__``
        self.aliases: dict[str, set[str]] = {}
        self._classes: list[ast.ClassDef] = []
        self._functions: list[ast.FunctionDef] = []
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not any(
            isinstance(member, ast.FunctionDef) and member.name == "__init__"
            for member in node.body
        ):
            for base in node.bases:
                self.aliases.setdefault(_decorator_name(base), set()).add(node.name)
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _bind(self, target: ast.expr, value: ast.expr, iterated: bool) -> None:
        """Bind the names of ``target`` (not a subscript's or attribute's)."""
        if isinstance(target, ast.Name):
            self.bound.setdefault(target.id, []).append((value, iterated))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, value, iterated)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, iterated)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases.setdefault(_decorator_name(node.value), set()).add(target.id)
        for target in node.targets:
            self._bind(target, node.value, False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, node.value, False)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target, node.iter, True)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind(node.target, node.iter, True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee(node)
        for k in node.keywords:
            if k.arg is None:
                self.spread.append(k.value)
            else:
                self.bound.setdefault(k.arg, []).append((k.value, False))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        positional = float("inf") if starred else len(node.args)
        keywords = {k.arg for k in node.keywords if k.arg}
        names = [callee]
        if (
            callee == "__init__"
            and isinstance(node.func.value, ast.Call)
            and _callee(node.func.value) == "super"
            and self._classes
        ):
            names = [_decorator_name(base) for base in self._classes[-1].bases]
        for name in names:
            self.calls.setdefault(name, []).append((node.lineno, positional, keywords))
        function = self._functions[-1] if self._functions else None
        if function is not None and function.args.kwarg is not None and any(
            k.arg is None and getattr(k.value, "id", None) == function.args.kwarg.arg
            for k in node.keywords
        ):
            forwarder = function.name
            if forwarder == "__init__" and self._classes:
                forwarder = self._classes[-1].name
            for name in names:
                self.forwarders.setdefault(name, set()).add(forwarder)
        self.generic_visit(node)


class _Params:
    """The defaulted parameters of the checked callables, and which no
    non-test call passes.

    A parameter is passed when a call in ``src/`` outside the function
    itself, or anywhere under the roots, names the callable (directly or
    through an alias, see :class:`_Calls`) and passes it by keyword or by
    position, when a function that forwards its ``**kwargs`` to the
    callable is called with it by keyword, or when its name is a string key
    of a dict literal or ``dict(...)`` there that reaches some call through
    ``**`` (binder and scenario options arrive as ``**opts``;
    :func:`_spread_keys`).  Matching is by name only, like
    :class:`_Symbols`.
    """

    def __init__(self, walk: _Walk, symbols: _Symbols, repo: str = REPO) -> None:
        calls: dict[str, list[tuple[str, int, float, set[str]]]] = {}
        aliases: dict[str, set[str]] = {}
        forwarders: dict[str, set[str]] = {}
        trees = []
        for path in sorted(walk.modules.values()) + _roots(repo):
            found = _Calls(walk._tree(path))
            trees.append(found)
            for name, sites in found.calls.items():
                calls.setdefault(name, []).extend((path, *site) for site in sites)
            for name, names in found.forwarders.items():
                forwarders.setdefault(name, set()).update(names)
            for name, names in found.aliases.items():
                aliases.setdefault(name, set()).update(names)
        keys = _spread_keys(trees)
        #: ``module:qualname(parameter)`` for every checked parameter
        self.defined: set[str] = set()
        #: the checked parameters no non-test call passes
        self.unpassed: set[str] = set()
        for module in sorted(walk.reached):
            if walk._is_package(module):
                continue
            path = walk.modules[module]
            for qualname, callee, function, offset in _signatures(walk._tree(path)):
                if f"{module}:{qualname}" in symbols.unused:
                    continue
                inside = range(function.lineno, function.end_lineno + 1)
                named = _named(callee, aliases)
                sites = [
                    (positional if name in named else 0, keywords)
                    for name in _named(callee, aliases, forwarders)
                    for where, line, positional, keywords in calls.get(name, ())
                    if not (where == path and line in inside)
                ]
                for param, index in _defaulted(function, offset):
                    entry = f"{module}:{qualname}({param})"
                    self.defined.add(entry)
                    if param not in keys and not any(
                        param in keywords or (index is not None and positional > index)
                        for positional, keywords in sites
                    ):
                        self.unpassed.add(entry)

    def stale(self, allowlist) -> dict[str, str]:
        """Allowlist entries that no longer name an unpassed parameter."""
        return {
            entry: "deleted" if entry not in self.defined else "now passed"
            for entry in allowlist
            if entry not in self.unpassed
        }


def _spread_keys(trees: list[_Calls]) -> set[str]:
    """The string keys of every dict literal or ``dict(...)`` call whose
    value reaches a call as its ``**`` argument.

    The walk starts at every spread expression and follows, by name only,
    what each name is bound to.  It carries the path from the expression
    it has reached to the spread mapping: ``item`` steps into a
    subscripted or iterated container, ``part`` into an attribute.  So
    ``bind(..., **opts)`` after ``opts = DEPLOYMENTS[name].sound`` counts
    the option dicts among the arguments of each ``DEPLOYMENTS`` entry,
    but not the entries' own keys.
    """
    bound: dict[str, list[tuple[ast.expr, bool]]] = {}
    for found in trees:
        for name, values in found.bound.items():
            bound.setdefault(name, []).extend(values)
    keys: set[str] = set()
    todo: list[tuple[ast.expr, tuple]] = [
        (expr, ()) for found in trees for expr in found.spread
    ]
    seen: set[tuple[int, tuple]] = set()
    while todo:
        node, path = todo.pop()
        if (id(node), path) in seen or len(path) > 4:
            continue
        seen.add((id(node), path))
        step, rest = path[:1], path[1:]
        if isinstance(node, ast.Name):
            todo.extend(
                (value, ("item",) + path if iterated else path)
                for value, iterated in bound.get(node.id, ())
            )
        elif isinstance(node, ast.Subscript):
            todo.append((node.value, ("item",) + path))
        elif isinstance(node, ast.Attribute):
            todo.append((node.value, ("part",) + path))
        elif isinstance(node, ast.IfExp):
            todo.extend([(node.body, path), (node.orelse, path)])
        elif isinstance(node, ast.BoolOp):
            todo.extend((value, path) for value in node.values)
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)) and step != ("part",):
            # an item, or one target of a tuple unpacking
            todo.extend((elt, rest) for elt in node.elts)
        elif isinstance(node, ast.Dict) and step == ("item",):
            todo.extend((value, rest) for value in node.values)
        elif isinstance(node, ast.Dict) and not path:
            for key, value in zip(node.keys, node.values):
                if key is None:  # {**other, ...}
                    todo.append((value, ()))
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Call) and not path and _callee(node) == "dict":
            keys.update(k.arg for k in node.keywords if k.arg)
            todo.extend((arg, ()) for arg in node.args)
        elif isinstance(node, ast.Call) and step == ("part",):
            # an object built with the mapping among its arguments
            todo.extend((arg, rest) for arg in node.args)
            todo.extend((k.value, rest) for k in node.keywords)
    return keys


#: calls that read every field of the instance they are handed
WHOLE_READS = frozenset({"asdict", "astuple", "vars"})


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _stored(cls: ast.ClassDef):
    """Every attribute instances of ``cls`` store: its dataclass fields, its
    ``__slots__`` entries and every ``self.x`` a method assigns, augments or
    annotates."""
    dataclass = any(_decorator_name(d) == "dataclass" for d in cls.decorator_list)
    for member in cls.body:
        if (
            dataclass
            and isinstance(member, ast.AnnAssign)
            and isinstance(member.target, ast.Name)
            and "ClassVar" not in ast.unparse(member.annotation)
        ):
            yield member.target.id
        elif isinstance(member, ast.Assign) and any(
            getattr(target, "id", None) == "__slots__" for target in member.targets
        ):
            for node in ast.walk(member.value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield node.value
        elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(member):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and (
                    _is_self(node.value)
                ):
                    yield node.attr


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The attribute names ``tree`` reads, and the classes in it that hand
    ``self`` to a call in :data:`WHOLE_READS`.

    A read is an ``Attribute`` load or an identifier string constant that
    neither ``__all__`` nor ``__slots__`` lists; ``x.f += 1`` stores.
    """
    listed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) in ("__all__", "__slots__") for target in node.targets
        ):
            listed.update(map(id, ast.walk(node.value)))
    names, whole = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in listed
        ):
            names.add(node.value)
        elif isinstance(node, ast.ClassDef) and any(
            isinstance(call, ast.Call)
            and _callee(call) in WHOLE_READS
            and any(_is_self(arg) for arg in call.args)
            for call in ast.walk(node)
        ):
            whole.add(node.name)
    return names, whole


class _State:
    """The attributes the classes of the reached modules store, and which
    no non-test code reads.

    Every top-level class of a reached non-package module is checked,
    private ones and private attributes included.  An attribute is read
    when an ``Attribute`` load or identifier string of its name occurs in
    ``src/`` or under the roots, or when its class hands ``self`` to
    ``asdict``/``astuple``/``vars``.  Matching is by name only, like
    :class:`_Symbols`.
    """

    def __init__(self, walk: _Walk, repo: str = REPO) -> None:
        read: set[str] = set()
        whole: set[str] = set()
        for path in sorted(walk.modules.values()) + _roots(repo):
            names, classes = _reads(walk._tree(path))
            read |= names
            whole |= classes
        #: ``module:Class.attribute`` for every checked attribute
        self.defined: set[str] = set()
        #: the checked attributes no non-test code reads
        self.unread: set[str] = set()
        for module in sorted(walk.reached):
            if walk._is_package(module):
                continue
            for cls in walk._tree(walk.modules[module]).body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for attribute in _stored(cls):
                    entry = f"{module}:{cls.name}.{attribute}"
                    self.defined.add(entry)
                    if attribute not in read and cls.name not in whole:
                        self.unread.add(entry)

    def stale(self, allowlist) -> dict[str, str]:
        """Allowlist entries that no longer name an unread attribute."""
        return {
            entry: "deleted" if entry not in self.defined else "now read"
            for entry in allowlist
            if entry not in self.unread
        }


def _named(callee: str, *edges: dict[str, set[str]]) -> set[str]:
    """``callee`` and every name that reaches it along ``edges``."""
    names, todo = set(), [callee]
    while todo:
        name = todo.pop()
        if name not in names:
            names.add(name)
            for edge in edges:
                todo.extend(edge.get(name, ()))
    return names


def _walk_from_roots(repo: str = REPO) -> _Walk:
    walk = _Walk(repo)
    for path in _roots(repo):
        walk.root(path)
    return walk


@pytest.fixture(scope="module")
def walk() -> _Walk:
    return _walk_from_roots()


@pytest.fixture(scope="module")
def symbols(walk) -> _Symbols:
    return _Symbols(walk)


@pytest.fixture(scope="module")
def params(walk, symbols) -> _Params:
    return _Params(walk, symbols)


@pytest.fixture(scope="module")
def state(walk) -> _State:
    return _State(walk)


def test_every_module_is_reachable_from_an_experiment(walk):
    unexpected = sorted(walk.unreachable() - set(ALLOWLIST))
    assert not unexpected, (
        "no benchmark, script or example imports these modules; give each a "
        "measured consumer or delete it:\n" + "\n".join(unexpected)
    )


def test_allowlist_names_existing_unreachable_modules(walk):
    orphans = walk.unreachable()
    stale = {
        module: "deleted" if module not in walk.modules else "now reachable"
        for module in ALLOWLIST
        if module not in orphans
    }
    assert not stale, f"drop these allowlist entries: {stale}"


def test_name_import_reaches_the_defining_module_only():
    # Guard the guard: a name imported through a package's re-exports
    # reaches its defining module, not every sibling the __init__ imports.
    walk = _Walk()
    walk._resolve("repro.transactions", "SagaOrchestrator")
    assert "repro.transactions.sagas" in walk.reached
    assert "repro.transactions.causal" not in walk.reached


def test_submodule_binding_import_reaches_the_binders():
    walk = _Walk()
    walk._resolve("repro.apps.core", "AppSpec")
    assert "repro.apps.core.spec" in walk.reached
    assert "repro.apps.core.binders.micro" in walk.reached


def test_every_public_symbol_has_a_caller(symbols):
    unexpected = sorted(symbols.unused - set(SYMBOL_ALLOWLIST))
    assert not unexpected, (
        "only tests name these symbols; give each a caller outside tests or "
        "delete it:\n" + "\n".join(unexpected)
    )


def test_symbol_allowlist_names_existing_unused_symbols(symbols):
    stale = symbols.stale(SYMBOL_ALLOWLIST)
    assert not stale, f"drop these symbol allowlist entries: {stale}"


def test_every_defaulted_parameter_is_passed(params):
    unexpected = sorted(params.unpassed - set(PARAM_ALLOWLIST))
    assert not unexpected, (
        "no non-test call passes these parameters; fold each into a module "
        "constant beside its use or delete it with its branch:\n"
        + "\n".join(unexpected)
    )


def test_param_allowlist_names_existing_unpassed_parameters(params):
    stale = params.stale(PARAM_ALLOWLIST)
    assert not stale, f"drop these parameter allowlist entries: {stale}"
    assert all(PARAM_ALLOWLIST.values()), "every entry needs its reason"


def test_every_stored_attribute_is_read(state):
    unexpected = sorted(state.unread - set(STATE_ALLOWLIST))
    assert not unexpected, (
        "no non-test code reads these attributes; delete each with every "
        "write, its __slots__ entry and its constructor argument:\n"
        + "\n".join(unexpected)
    )


def test_state_allowlist_names_existing_unread_attributes(state):
    stale = state.stale(STATE_ALLOWLIST)
    assert not stale, f"drop these state allowlist entries: {stale}"
    assert all(STATE_ALLOWLIST.values()), "every entry needs its reason"


# -- the symbol walk on synthetic trees ----------------------------------------


def _tree(root, files: dict[str, str]) -> str:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(root)


def _symbols_of(repo: str) -> _Symbols:
    return _Symbols(_walk_from_roots(repo), repo)


def test_a_function_only_a_test_uses_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/m.py": "def used():\n    pass\n\n\ndef tested():\n    pass\n",
        "benchmarks/bench.py": "from repro.m import used\n\nused()\n",
        "tests/test_m.py": "from repro.m import tested\n\ntested()\n",
    })
    symbols = _symbols_of(repo)
    assert symbols.defined == {"repro.m:used", "repro.m:tested"}
    assert symbols.unused == {"repro.m:tested"}


def test_all_and_imports_are_not_uses(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.m import exported, used\n\n"
            "__all__ = [\"exported\", \"used\"]\n"
        ),
        "src/repro/pkg/m.py": (
            "def exported():\n    pass\n\n\n"
            "def used():\n    pass\n"
        ),
        "scripts/run.py": "from repro.pkg import exported, used\n\nused()\n",
    })
    assert _symbols_of(repo).unused == {"repro.pkg.m:exported"}


def test_a_use_inside_its_own_definition_does_not_count(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/m.py": (
            "class Node:\n"
            "    def walk(self):\n        return self.walk()\n\n"
            "    def size(self):\n        return 1\n\n\n"
            "def main():\n    return Node().size()\n"
        ),
        "examples/demo.py": "from repro.m import main\n\nmain()\n",
    })
    assert _symbols_of(repo).unused == {"repro.m:Node.walk"}


def test_a_registered_class_is_reached(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/binders.py": (
            "REGISTRY = {}\n\n\n"
            "def register_binder(cls):\n    REGISTRY[cls.__name__] = cls\n"
            "    return cls\n\n\n"
            "@register_binder\nclass Registered:\n    pass\n\n\n"
            "class Unregistered:\n    pass\n\n\n"
            "def bind():\n    return [cls() for cls in REGISTRY.values()]\n"
        ),
        "benchmarks/bench.py": "from repro.binders import bind\n\nbind()\n",
    })
    symbols = _symbols_of(repo)
    assert "repro.binders:Registered" not in symbols.defined
    assert symbols.unused == {"repro.binders:Unregistered"}


def test_a_stale_symbol_allowlist_entry_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/m.py": "def kept():\n    pass\n\n\ndef called():\n    pass\n",
        "benchmarks/bench.py": "from repro.m import called\n\ncalled()\n",
    })
    symbols = _symbols_of(repo)
    allowlist = {"repro.m:kept": "", "repro.m:called": "", "repro.m:gone": ""}
    assert symbols.stale(allowlist) == {
        "repro.m:called": "now reached",
        "repro.m:gone": "deleted",
    }


def test_a_method_named_only_by_a_bare_name_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/m.py": (
            "class Store:\n"
            "    def scan(self):\n        return []\n\n"
            "    def get(self):\n        return 1\n\n\n"
            "def scan():\n    return Store().get()\n"
        ),
        "examples/demo.py": "from repro.m import scan\n\nscan()\n",
    })
    assert _symbols_of(repo).unused == {"repro.m:Store.scan"}


# -- the parameter walk on synthetic trees -------------------------------------


def _params_of(repo: str) -> _Params:
    walk = _walk_from_roots(repo)
    return _Params(walk, _Symbols(walk, repo), repo)


_LIB = (
    "class Base:\n"
    "    def __init__(self, env, size=1, name='b'):\n"
    "        self.size = size\n\n"
    "    def read(self, key, fresh=False, *, limit=None):\n"
    "        return key\n\n\n"
    "class Child(Base):\n"
    "    def __init__(self, env):\n"
    "        super().__init__(env, 2)\n\n\n"
    "def make(env, depth=0, spare=None):\n"
    "    return make(env, depth + 1, spare=spare) if depth else Child(env)\n"
)


def test_an_unpassed_parameter_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": _LIB,
        "benchmarks/bench.py": (
            "from repro.lib import make\n\n"
            "make(None).read('k', True)\n"
        ),
    })
    params = _params_of(repo)
    assert params.defined == {
        "repro.lib:Base(size)", "repro.lib:Base(name)",
        "repro.lib:Base.read(fresh)", "repro.lib:Base.read(limit)",
        "repro.lib:make(depth)", "repro.lib:make(spare)",
    }
    # ``size`` arrives through super().__init__, ``fresh`` by position; a
    # call inside ``make`` itself does not pass ``depth`` or ``spare``
    assert params.unpassed == {
        "repro.lib:Base(name)", "repro.lib:Base.read(limit)",
        "repro.lib:make(depth)", "repro.lib:make(spare)",
    }


def test_keyword_position_and_options_dict_pass_a_parameter(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": _LIB,
        "src/repro/deploy.py": (
            "from repro.lib import Base\n\n"
            "OPTIONS = {'name': 'x'}\n\n\n"
            "def deploy(env, **opts):\n    return Base(env, **opts)\n"
        ),
        "scripts/run.py": (
            "from repro.deploy import OPTIONS, deploy\n"
            "from repro.lib import make\n\n"
            "deploy(None, **OPTIONS).read('k', limit=3)\n"
            "deploy(None, size=4)\n"
            "make(None, 1, spare=None)\n"
        ),
    })
    params = _params_of(repo)
    # ``name`` by an options dict, ``size`` through a **kwargs forwarder,
    # ``limit`` by keyword, ``depth`` by position, ``spare`` by keyword
    assert params.unpassed == {"repro.lib:Base.read(fresh)"}


def test_only_a_dict_that_reaches_a_spread_passes_a_parameter(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": (
            "class Pool:\n"
            "    def __init__(self, size=1, name='p', label=''):\n"
            "        self.size = size\n"
        ),
        "src/repro/deploy.py": (
            "from repro.lib import Pool\n\n"
            "DEPLOYMENTS = {'label': Deployment({'size': 2})}\n"
            "ROW = {'name': 'x'}\n\n\n"
            "def deploy(which):\n"
            "    deployment = DEPLOYMENTS[which]\n"
            "    return Pool(**deployment.opts)\n"
        ),
        "scripts/run.py": (
            "from repro.deploy import ROW, deploy\n\n"
            "print(ROW)\n"
            "deploy('label')\n"
        ),
    })
    # ``size`` arrives in a deployment's options; ``name`` is only a key of
    # a dict that reaches no call, ``label`` only the registry's own key
    assert _params_of(repo).unpassed == {
        "repro.lib:Pool(name)", "repro.lib:Pool(label)",
    }


def test_a_positional_argument_before_the_index_does_not_pass(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": (
            "def fetch(key, retries=1, timeout=2.0):\n    return key\n\n\n"
            "class Pool:\n"
            "    def __init__(self, size=1, name='p'):\n"
            "        self.size = size\n"
        ),
        "examples/demo.py": (
            "from repro.lib import Pool, fetch\n\n"
            "fetch('k', 3)\n"
            "pool_class = Pool\n"
            "pool_class(4)\n"
        ),
    })
    # ``size`` arrives through a name bound to the class
    assert _params_of(repo).unpassed == {
        "repro.lib:fetch(timeout)", "repro.lib:Pool(name)",
    }


def test_a_stale_param_allowlist_entry_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": _LIB,
        "benchmarks/bench.py": (
            "from repro.lib import make\n\n"
            "make(None).read('k', True)\n"
        ),
    })
    allowlist = {
        "repro.lib:Base(name)": "seam",
        "repro.lib:Base.read(fresh)": "seam",
        "repro.lib:Base(gone)": "seam",
    }
    assert _params_of(repo).stale(allowlist) == {
        "repro.lib:Base.read(fresh)": "now passed",
        "repro.lib:Base(gone)": "deleted",
    }


# -- the state walk on synthetic trees -----------------------------------------


def _state_of(repo: str) -> _State:
    return _State(_walk_from_roots(repo), repo)


_STORE = (
    "from dataclasses import asdict, dataclass\n\n\n"
    "@dataclass\n"
    "class Stats:\n"
    "    hits: int = 0\n"
    "    misses: int = 0\n\n\n"
    "@dataclass\n"
    "class Row:\n"
    "    key: str\n"
    "    size: int = 0\n\n"
    "    def dump(self):\n        return asdict(self)\n\n\n"
    "class Store:\n"
    "    __slots__ = ('stats', '_data', 'label')\n\n"
    "    def __init__(self):\n"
    "        self.stats = Stats()\n"
    "        self._data = {}\n"
    "        self.label = 'store'\n\n"
    "    def get(self, key):\n"
    "        self.stats.hits += 1\n"
    "        return self._data.get(key)\n"
)


def test_a_write_only_attribute_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "benchmarks/bench.py": (
            "from repro.store import Row, Store\n\n"
            "print(Store().get('k'), Store().stats.misses, Row('k').dump())\n"
        ),
    })
    state = _state_of(repo)
    assert {"repro.store:Stats.hits", "repro.store:Store.label"} <= state.defined
    # ``hits`` is only augmented, ``label`` only assigned and listed in
    # ``__slots__``; ``misses`` is read by the bench, ``_data`` by ``get``
    assert state.unread == {"repro.store:Stats.hits", "repro.store:Store.label"}


def test_an_augmented_assignment_alone_is_not_a_read(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "scripts/run.py": (
            "from repro.store import Store\n\n"
            "store = Store()\nstore.stats.misses += 1\nstore.label = 'x'\n"
        ),
    })
    unread = _state_of(repo).unread
    assert {"repro.store:Stats.misses", "repro.store:Store.label"} <= unread


def test_an_identifier_string_is_a_read(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "examples/demo.py": (
            "from repro.store import Store\n\n"
            "store = Store()\n"
            "print(getattr(store.stats, 'hits'), store.stats.misses)\n"
            "print(getattr(store, 'label'))\n"
        ),
    })
    assert _state_of(repo).unread == set()


def test_asdict_of_self_reads_every_field(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "benchmarks/bench.py": "from repro.store import Row\n\nRow('k')\n",
    })
    unread = _state_of(repo).unread
    # ``Row.dump`` hands ``self`` to ``asdict``: ``key`` and ``size`` are
    # read although no code names them
    assert not {e for e in unread if e.startswith("repro.store:Row.")}
    assert "repro.store:Stats.misses" in unread


def test_a_test_only_read_does_not_count(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "benchmarks/bench.py": "from repro.store import Store\n\nStore().get('k')\n",
        "tests/test_store.py": (
            "from repro.store import Store\n\n"
            "assert Store().stats.misses == 0 and Store().label\n"
        ),
    })
    unread = _state_of(repo).unread
    assert {"repro.store:Stats.misses", "repro.store:Store.label"} <= unread


def test_a_stale_state_allowlist_entry_is_reported(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/store.py": _STORE,
        "benchmarks/bench.py": "from repro.store import Store\n\nStore().stats.misses\n",
    })
    allowlist = {
        "repro.store:Stats.hits": "reason",
        "repro.store:Stats.misses": "reason",
        "repro.store:Stats.gone": "reason",
    }
    assert _state_of(repo).stale(allowlist) == {
        "repro.store:Stats.misses": "now read",
        "repro.store:Stats.gone": "deleted",
    }


if __name__ == "__main__":
    # One line per walk: what it checks, what it flags before its
    # allowlist, and how many allowlist entries it has.
    found = _walk_from_roots()
    found_symbols = _Symbols(found)
    found_params = _Params(found, found_symbols)
    found_state = _State(found)
    modules = [m for m in found.modules if not found._is_package(m)]
    for name, checked, flagged, allowlist in (
        ("modules", modules, found.unreachable(), ALLOWLIST),
        ("symbols", found_symbols.defined, found_symbols.unused, SYMBOL_ALLOWLIST),
        ("params", found_params.defined, found_params.unpassed, PARAM_ALLOWLIST),
        ("state", found_state.defined, found_state.unread, STATE_ALLOWLIST),
    ):
        print(
            f"{name:<8} checked {len(checked):>5}  flagged {len(flagged):>4}"
            f"  allowlisted {len(allowlist):>3}"
        )
