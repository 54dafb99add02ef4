"""Static reachability guard: every module under ``src/repro/`` earns a claim.

The reproduction is defined by its experiments: the ``bench_*.py`` claim
tables, the perf microbenches, the suite workloads, the chaos and perf
scripts and the examples.  A module none of them imports is code without a
claim, so this test walks imports from those roots with :mod:`ast` (it never
imports anything) and fails on any module it cannot reach.

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


def _source_modules() -> dict[str, str]:
    """``dotted name -> path`` for every module and package under ``src/``."""
    modules = {}
    for directory, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        package = os.path.relpath(directory, SRC).replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py"):
                continue
            stem = name[:-3]
            dotted = package if stem == "__init__" else f"{package}.{stem}"
            modules[dotted] = os.path.join(directory, name)
    return modules


def _roots() -> list[str]:
    paths = []
    for top in ROOT_DIRS:
        for directory, _dirs, files in os.walk(os.path.join(REPO, top)):
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

    def __init__(self) -> None:
        self.modules = _source_modules()
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


@pytest.fixture(scope="module")
def walk() -> _Walk:
    walk = _Walk()
    for path in _roots():
        walk.root(path)
    return walk


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
