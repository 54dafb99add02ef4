"""``repro.apps.core`` — the runtime-agnostic application kernel.

One app definition (:class:`AppSpec`: entities + generator stored
procedures with declared key sets + first-class invariants), five
runtime binders (monolith DB, microservices, actors, transactional
dataflow, FaaS workflows), and an oracle compiler that turns every
invariant into a chaos oracle.  See ``docs/APPS.md``.
"""

from repro.apps.core.base import (
    AppFailure,
    AppUncertain,
    Binder,
    KernelApp,
    KernelContext,
    UndeclaredAccess,
    bind,
    register_binder,
    registered_runtimes,
    storage_key,
)
from repro.apps.core.oracles import AppliedExactlyOracle, SpecOracle, compile_oracles
from repro.apps.core.retry import with_prepared_txn, with_txn
from repro.apps.core.spec import (
    AppSpec,
    CapacityBoundSpec,
    CausalAuditSpec,
    ConservationSpec,
    DoubleEntrySpec,
    EntitySpec,
    GapFreeSequenceSpec,
    HandlerSpec,
    InvariantSpec,
    KeyRef,
    OpAccess,
)

# Importing the binder modules registers the generic binders.
from repro.apps.core import binders as _binders  # noqa: E402,F401

__all__ = [
    "AppFailure",
    "AppSpec",
    "AppUncertain",
    "AppliedExactlyOracle",
    "Binder",
    "CapacityBoundSpec",
    "CausalAuditSpec",
    "ConservationSpec",
    "DoubleEntrySpec",
    "EntitySpec",
    "GapFreeSequenceSpec",
    "HandlerSpec",
    "InvariantSpec",
    "KernelApp",
    "KernelContext",
    "KeyRef",
    "OpAccess",
    "SpecOracle",
    "UndeclaredAccess",
    "bind",
    "compile_oracles",
    "register_binder",
    "registered_runtimes",
    "storage_key",
    "with_prepared_txn",
    "with_txn",
]
