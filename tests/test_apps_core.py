"""Binder conformance for the `repro.apps.core` kernel.

Every (app × binder) pair must satisfy the adapter protocol, run a smoke
workload fault-free, and pass the spec's invariants — the contract that
makes one app definition portable across every runtime.  Plus the
regression the oracle layer exists for: a deliberately gapped allocator
(commit the counter, die before the insert) must be caught by the
gap-free sequence invariant, and the compiled history oracles must flag
effect/outcome mismatches.
"""

import pytest

from repro.apps.core import (
    AppSpec,
    EntitySpec,
    GapFreeSequenceSpec,
    HandlerSpec,
    UndeclaredAccess,
    bind,
    compile_oracles,
    registered_runtimes,
)
from repro.apps.invoicing import invoicing_spec
from repro.apps.ledger import ledger_spec
from repro.chaos import History
from repro.sim import Environment
from repro.workloads.invoicing import InvoiceOp, InvoicingWorkload
from repro.workloads.transfers import TransferWorkload

OPS = 12


def make_app(app):
    if app == "ledger":
        workload = TransferWorkload(num_accounts=8, initial_balance=100, amount=10)
        return ledger_spec(workload), workload
    workload = InvoicingWorkload()
    return invoicing_spec(workload), workload


def drive(env, binder, ops):
    done = []

    def one(op):
        result = yield from binder.execute(op)
        done.append((op.op_id, result))

    def main():
        pending = []
        for op in ops:
            yield env.timeout(2.0)
            pending.append(env.process(one(op)))
        for proc in pending:
            yield proc

    env.run_until(env.process(binder.setup()))
    env.run_until(env.process(main()))
    return done


@pytest.mark.parametrize("app", ["ledger", "invoicing"])
@pytest.mark.parametrize("runtime", registered_runtimes())
def test_binder_conformance(app, runtime):
    """Adapter surface + fault-free smoke workload + clean invariants."""
    env = Environment(seed=5)
    spec, workload = make_app(app)
    binder = bind(runtime, env, spec)

    assert binder.runtime == runtime
    assert binder.sound  # default construction is always the sound variant
    assert binder.spec is spec

    ops = list(workload.operations(env.stream("ops"), OPS))
    done = drive(env, binder, ops)
    assert len(done) == OPS

    state = binder.snapshot()
    assert set(state) == set(spec.entities)
    for invariant in binder.invariants():
        assert invariant.check(state) == [], (runtime, app, invariant.name)

    oracles = binder.oracles()
    assert oracles, "every spec compiles to at least one oracle"
    names = {oracle.name for oracle in oracles}
    assert f"applied_exactly({spec.effect_entity})" in names


def test_unknown_runtime_rejected():
    env = Environment(seed=1)
    spec, _ = make_app("invoicing")
    with pytest.raises(KeyError):
        bind("mainframe", env, spec)


@pytest.mark.parametrize("runtime", registered_runtimes())
def test_access_sets_are_evaluated_once_per_execute(runtime):
    """``reads``/``writes`` run once per op, however many contexts it needs."""
    spec, workload = make_app("ledger")
    handler = spec.handlers["posting"]
    calls = {"reads": 0, "writes": 0}

    def counted(name, fn):
        def wrapper(op):
            calls[name] += 1
            return fn(op)
        return wrapper

    spec.handlers["posting"] = HandlerSpec(
        handler.name, handler.body,
        counted("reads", handler.reads), counted("writes", handler.writes),
    )
    env = Environment(seed=5)
    binder = bind(runtime, env, spec)
    done = drive(env, binder, list(workload.operations(env.stream("ops"), OPS)))
    assert len(done) == OPS
    assert calls == {"reads": OPS, "writes": OPS}


@pytest.mark.parametrize("runtime", registered_runtimes())
def test_op_with_no_declared_keys_returns_its_result(runtime):
    """An empty declared key set conflicts with nothing; the body still runs."""

    def body(ctx, op):
        return f"pong {op.op_id}"
        yield  # pragma: no cover

    spec = AppSpec(
        name="ping",
        entities=[EntitySpec("rows")],
        handlers=[HandlerSpec("ping", body, lambda op: [], lambda op: [])],
        kind="ping",
    )
    env = Environment(seed=4)
    binder = bind(runtime, env, spec)
    ops = [InvoiceOp(f"p-{i}", "c", 1) for i in range(2)]
    assert drive(env, binder, ops) == [("p-0", "pong p-0"), ("p-1", "pong p-1")]


def test_undeclared_access_rejected():
    """The kernel refuses reads/writes outside the declared key sets."""

    def body(ctx, op):
        row = yield from ctx.get("invoices", "someone-elses-invoice")
        return row

    spec, workload = make_app("invoicing")
    sneaky = AppSpec(
        name="sneaky",
        entities=[EntitySpec("invoices"), EntitySpec("counters")],
        handlers=[
            HandlerSpec(
                "invoice", body,
                reads=lambda op: [("counters", "invoice")],
                writes=lambda op: [("invoices", op.op_id)],
            )
        ],
        initial_rows=workload.initial_rows(),
        kind="invoice",
    )
    for runtime in registered_runtimes():
        env = Environment(seed=2)
        binder = bind(runtime, env, sneaky)
        op = next(iter(workload.operations(env.stream("ops"), 1)))
        failures = []

        def run():
            try:
                yield from binder.execute(op)
            except Exception as exc:  # noqa: BLE001 - the actor binder wraps it
                while exc is not None and not isinstance(exc, UndeclaredAccess):
                    exc = exc.__cause__
                failures.append(exc)

        env.run_until(env.process(binder.setup()))
        env.run_until(env.process(run()))
        assert failures and failures[0] is not None, (
            f"{runtime}: undeclared read must raise UndeclaredAccess"
        )


def _gapped_spec(poison_op_id):
    """An allocator that commits the counter, then dies before the insert."""

    def allocate(ctx, op):
        counter = yield from ctx.get("counters", "invoice")
        number = counter["next"]
        yield from ctx.put("counters", "invoice", {"id": "invoice", "next": number + 1})
        ctx.scratch["number"] = number
        return number

    def insert(ctx, op):
        if op.op_id == poison_op_id:
            raise RuntimeError("app process died between the two transactions")
        yield from ctx.put("invoices", op.op_id, {
            "id": op.op_id, "number": ctx.scratch["number"],
        })

    def atomic(ctx, op):
        number = yield from allocate(ctx, op)
        yield from insert(ctx, op)
        return number

    return AppSpec(
        name="gapped",
        entities=[EntitySpec("invoices"), EntitySpec("counters")],
        handlers=[
            HandlerSpec(
                "invoice", atomic,
                reads=lambda op: [("counters", "invoice")],
                writes=lambda op: [("counters", "invoice"), ("invoices", op.op_id)],
                steps=(allocate, insert),
            )
        ],
        invariants=[GapFreeSequenceSpec("invoices", "number", "counters", "invoice")],
        initial_rows={"counters": [{"id": "invoice", "next": 1}]},
        kind="invoice",
        effect_entity="invoices",
    )


def _issue_invoices(binder, env, poison_op_id):
    ops = [InvoiceOp(f"inv-{i:03d}", f"cust-{i}", 10) for i in range(6)]
    issued = []

    def one(op):
        try:
            yield from binder.execute(op)
            issued.append(op.op_id)
        except RuntimeError:
            pass  # the poisoned op's app process "died"

    def main():
        for op in ops:
            yield from one(op)

    env.run_until(env.process(binder.setup()))
    env.run_until(env.process(main()))
    assert poison_op_id not in issued


def test_gap_free_invariant_catches_gapped_allocator():
    """The split allocator burns a number; the compiled invariant sees it."""
    env = Environment(seed=3)
    spec = _gapped_spec("inv-002")
    binder = bind("db", env, spec, transaction_per_step=True)
    assert not binder.sound
    _issue_invoices(binder, env, "inv-002")

    state = binder.snapshot()
    violations = [
        violation
        for invariant in binder.invariants()
        for violation in invariant.check(state)
    ]
    assert violations, "gap-free invariant must flag the burned number"
    assert any("gap" in v.detail or "missing" in v.detail for v in violations)


def test_atomic_allocator_survives_the_same_death():
    """Control: one-transaction execution of the same handler stays clean."""
    env = Environment(seed=3)
    spec = _gapped_spec("inv-002")
    binder = bind("db", env, spec)  # atomic body, same poisoned insert
    assert binder.sound
    _issue_invoices(binder, env, "inv-002")

    state = binder.snapshot()
    for invariant in binder.invariants():
        assert invariant.check(state) == []


def test_compiled_oracles_flag_effect_mismatches():
    """The history-aware applied-exactly oracle judges ok/fail outcomes."""
    spec, _ = make_app("invoicing")
    oracles = compile_oracles(spec)
    applied = next(o for o in oracles if o.name.startswith("applied_exactly"))

    history = History()
    history.invoke(0.0, "c0", "inv-0", "invoice")
    history.ok(1.0, "inv-0")
    history.invoke(2.0, "c0", "inv-1", "invoice")
    history.fail(3.0, "inv-1")
    history.invoke(4.0, "c0", "inv-2", "invoice")
    history.info(5.0, "inv-2")

    # inv-0 acknowledged but missing; inv-1 failed but present; inv-2
    # unknown, so either world is fine.
    final_state = {"invoices": [
        {"id": "inv-1", "number": 1},
        {"id": "inv-2", "number": 2},
    ]}
    violations = applied.check(history, final_state)
    details = "\n".join(v.detail for v in violations)
    assert len(violations) == 2
    assert "inv-0" in details and "inv-1" in details and "inv-2" not in details

    # The happy world: every ok op present, every failed op absent.
    final_state = {"invoices": [
        {"id": "inv-0", "number": 1},
    ]}
    assert applied.check(history, final_state) == []
