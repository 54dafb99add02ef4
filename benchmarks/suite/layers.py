"""Per-layer host-time attribution from one cProfile run.

A *layer* is a top-level package under ``src/repro/``; the suite's own
files are ``bench`` and everything else (stdlib, packages not listed) is
``other``.  A Python function's self time is its ``inlinetime`` plus the
``inlinetime`` of the C builtins it calls directly, so the layer self
times sum to the profiled total.  ``calls`` counts profiled frame entries
of the layer's Python functions: a generator counts once per resume.

Boundary counts are taken from outside the program: plain functions by
the identity of their code object in the profile, generator functions
(whose profile entry counts resumes, not invocations) through a counting
shim installed for the traced pass only.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

LAYERS = (
    "sim", "net", "messaging", "db", "storage", "replication", "transactions",
    "cluster", "actors", "dataflow", "microservices", "apps", "harness",
    "workloads", "obs", "flow", "core", "bench", "other",
)

#: metric -> the public functions whose invocations it counts
BOUNDARIES = {
    "sim.futures_per_txn": ("repro.sim.events:Future.__init__",),
    "sim.resumes_per_txn": ("repro.sim.environment:Process._resume",),
    "db.branch_begins_per_txn": ("repro.db.engine:Database.begin",),
    "db.lock_acquires_per_txn": (
        "repro.db.locks:LockManager.acquire",
        "repro.db.locks:LockManager.release_all",
    ),
    "storage.wal_appends_per_txn": ("repro.storage.wal:WriteAheadLog.append",),
    "storage.wal_flushes_per_txn": ("repro.storage.wal:WriteAheadLog.flush",),
    "net.sends_per_txn": (
        "repro.net.network:Network.send",
        "repro.net.network:Network.send_local",
    ),
    "messaging.rpc_calls_per_txn": ("repro.messaging.rpc:RpcClient.call",),
    "replication.replicate_calls_per_txn": (
        "repro.replication.group:ReplicaGroup.replicate",
    ),
}
#: inclusive host time of the same functions as ``db.lock_acquires_per_txn``
LOCK_INCLUSIVE = "db.lock_incl_us_per_txn"

_SUITE_DIR = os.path.dirname(os.path.abspath(__file__))


def _resolve(path: str):
    """``(owner, attribute, function)`` for ``module:Class.method``, or None."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attribute, getattr(owner, attribute)
    except (ImportError, AttributeError):
        print(f"warning: boundary function {path} no longer exists", file=sys.stderr)
        return None


class Boundaries:
    """Resolve the boundary functions; shim the generators among them."""

    def __init__(self, extra: dict) -> None:
        """``extra`` adds workload-specific ``metric -> paths`` boundaries.

        Construct before the workload is built, so that a bound method the
        program caches at construction is already the counted one.
        """
        self.codes: dict[str, list] = {}
        self.shim_counts: dict[str, list] = {}
        self.missing: set[str] = set()
        for name, paths in {**BOUNDARIES, **extra}.items():
            self.codes[name] = []
            for path in paths:
                target = _resolve(path)
                if target is None:
                    self.missing.add(name)
                    continue
                owner, attribute, function = target
                if inspect.isgeneratorfunction(function):
                    self._shim(name, owner, attribute, function)
                else:
                    self.codes[name].append(function.__code__)

    def _shim(self, name: str, owner, attribute: str, function) -> None:
        count = self.shim_counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            count[0] += 1
            return function(*args, **kwargs)

        setattr(owner, attribute, counted)

    def counts(self, entries: dict) -> dict:
        """``metric -> (invocations, inclusive seconds)``; None when missing."""
        result = {}
        for name, codes in self.codes.items():
            if name in self.missing:
                result[name] = None
                continue
            found = [entries[code] for code in codes if code in entries]
            calls = sum(entry.callcount for entry in found)
            calls += self.shim_counts.get(name, [0])[0]
            result[name] = (calls, sum(entry.totaltime for entry in found))
        return result


def _layer_of(filename: str, package_dir: str) -> str:
    if filename.startswith(package_dir + os.sep):
        head, sep, _rest = filename[len(package_dir) + 1:].partition(os.sep)
        return head if sep and head in LAYERS else "other"
    if filename.startswith(_SUITE_DIR + os.sep):
        return "bench"
    return "other"


def attribute(stats: list, package_dir: str) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into per-layer self time and calls.

    Returns ``{"total_s", "attributed_s", "layers": {layer: [self_s, calls]}}``.
    ``total_s`` sums every entry's inline time; ``attributed_s`` is what the
    layers received (a builtin with no profiled Python caller, such as the
    profiler's own ``disable``, is the difference).
    """
    layers: dict[str, list] = {}
    total = 0.0
    for entry in stats:
        total += entry.inlinetime
        if isinstance(entry.code, str):
            continue  # a C builtin: charged to its direct Python callers below
        self_s = entry.inlinetime + sum(
            sub.inlinetime for sub in entry.calls or () if isinstance(sub.code, str)
        )
        bucket = layers.setdefault(_layer_of(entry.code.co_filename, package_dir), [0.0, 0])
        bucket[0] += self_s
        bucket[1] += entry.callcount
    return {
        "total_s": total,
        "attributed_s": sum(self_s for self_s, _calls in layers.values()),
        "layers": layers,
    }
