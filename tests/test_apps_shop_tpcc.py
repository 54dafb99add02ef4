"""Integration tests: marketplace checkout modes and TPC-C implementations."""

import pytest

from repro.apps import DbTpcc, MicroserviceShop, StyxTpcc, WorkflowTpcc
from repro.sim import Environment
from repro.transactions import SagaStuck
from repro.workloads import MarketplaceWorkload, TpccLite


@pytest.fixture
def env():
    return Environment(seed=101)


def run(env, gen):
    return env.run_until(env.process(gen))


def check(workload, state):
    violations = []
    for invariant in workload.invariants():
        violations.extend(invariant.check(state))
    return violations


class TestShopSaga:
    @pytest.fixture
    def workload(self):
        return MarketplaceWorkload(
            num_products=10, initial_stock=50, payment_failure_rate=0.3
        )

    def test_successful_checkout_creates_order_and_payment(self, env, workload):
        shop = MicroserviceShop(env, workload, mode="saga")
        ops = [op for op in workload.operations(env.stream("ops"), 10)
               if not op.payment_fails][:3]

        def flow():
            for op in ops:
                yield from shop.execute(op)

        run(env, flow())
        state = shop.final_state()
        assert len(state["orders"]) == 3
        assert len(state["payments"]) == 3
        assert check(workload, state) == []

    def test_failed_payment_compensates_cleanly(self, env, workload):
        shop = MicroserviceShop(env, workload, mode="saga")
        op = next(op for op in workload.operations(env.stream("ops"), 20)
                  if op.payment_fails)

        def flow():
            try:
                yield from shop.execute(op)
            except Exception:
                pass

        run(env, flow())
        state = shop.final_state()
        assert state["orders"] == []
        assert state["payments"] == []
        assert check(workload, state) == []  # reservations released

    def test_finalize_never_compensates_past_the_charge(self, env, workload):
        """The charge is the pivot: with the orders service down for good,
        finalizing runs out of retries and the checkout is unknown
        (``SagaStuck``), with its charge and reservation left in place."""
        shop = MicroserviceShop(env, workload, mode="saga")
        op = next(op for op in workload.operations(env.stream("ops"), 10)
                  if not op.payment_fails)
        shop.app.crash_service("orders")

        def flow():
            try:
                yield from shop.execute(op)
            except Exception as exc:  # noqa: BLE001 - asserted below
                return exc

        error = run(env, flow())
        assert isinstance(error, SagaStuck) and error.step == "finalize"
        assert shop.orchestrator.outcomes[-1].status == "completed"
        state = shop.final_state()
        assert [p["order_id"] for p in state["payments"]] == [op.op_id]
        assert state["orders"] == []

    def test_concurrent_checkouts_keep_invariants(self, env, workload):
        shop = MicroserviceShop(env, workload, mode="saga")
        ops = list(workload.operations(env.stream("ops"), 30))

        def one(op):
            try:
                yield from shop.execute(op)
            except Exception:
                pass

        for op in ops:
            env.process(one(op))
        env.run()
        assert check(workload, shop.final_state()) == []


class TestShopUncoordinated:
    def test_failure_leaves_orphan_reservations(self, env):
        workload = MarketplaceWorkload(
            num_products=10, initial_stock=50, payment_failure_rate=1.0
        )
        shop = MicroserviceShop(env, workload, mode="none")
        ops = list(workload.operations(env.stream("ops"), 5))

        def one(op):
            try:
                yield from shop.execute(op)
            except Exception:
                pass

        for op in ops:
            env.process(one(op))
        env.run()
        violations = check(workload, shop.final_state())
        assert violations  # orphan reservations persist
        assert any("orphan" in v.invariant for v in violations)


class TestShop2pc:
    @pytest.fixture
    def workload(self):
        return MarketplaceWorkload(
            num_products=10, initial_stock=50, payment_failure_rate=0.2
        )

    def test_checkouts_atomic(self, env, workload):
        shop = MicroserviceShop(env, workload, mode="2pc")
        ops = list(workload.operations(env.stream("ops"), 20))
        completed = []

        def one(op):
            try:
                yield from shop.execute(op)
                completed.append(op.op_id)
            except Exception:
                pass

        for op in ops:
            env.process(one(op))
        env.run()
        state = shop.final_state()
        assert check(workload, state) == []
        assert len(state["orders"]) == len(completed)
        assert len(state["payments"]) == len(completed)

    def test_invalid_mode(self, env, workload):
        with pytest.raises(ValueError):
            MicroserviceShop(env, workload, mode="hope")


class TpccChecks:
    """Shared assertions for all three TPC-C builds."""

    def run_ops(self, env, impl, workload, count=40, concurrent=True):
        ops = list(workload.operations(env.stream("ops"), count))

        def one(op):
            try:
                yield from impl.execute(op)
            except Exception:
                pass

        if concurrent:
            for op in ops:
                env.process(one(op))
            env.run(until=100_000)
        else:
            def serial():
                for op in ops:
                    yield from one(op)

            run(env, serial())
        return ops


class TestDbTpcc(TpccChecks):
    def test_consistency_conditions_hold(self, env):
        workload = TpccLite(warehouses=2)
        impl = DbTpcc(env, workload)
        self.run_ops(env, impl, workload)
        assert check(workload, impl.final_state()) == []

    def test_orders_have_increasing_ids_per_district(self, env):
        workload = TpccLite(warehouses=1)
        impl = DbTpcc(env, workload)
        self.run_ops(env, impl, workload, count=30)
        state = impl.final_state()
        per_district = {}
        for order in state["orders"]:
            w, d, number = order["id"].split(":")
            per_district.setdefault((w, d), []).append(int(number))
        for numbers in per_district.values():
            assert sorted(numbers) == list(range(1, len(numbers) + 1))


class TestWorkflowTpcc(TpccChecks):
    def test_consistency_conditions_hold(self, env):
        workload = TpccLite(warehouses=2)
        impl = WorkflowTpcc(env, workload)
        self.run_ops(env, impl, workload)
        assert check(workload, impl.final_state()) == []

    def test_contention_causes_occ_conflicts(self, env):
        workload = TpccLite(warehouses=1)  # everything on one warehouse
        impl = WorkflowTpcc(env, workload)
        self.run_ops(env, impl, workload, count=60)
        assert impl.engine.stats.conflicts > 0


class TestStyxTpcc(TpccChecks):
    def test_consistency_conditions_hold(self, env):
        workload = TpccLite(warehouses=2)
        impl = StyxTpcc(env, workload)
        self.run_ops(env, impl, workload)
        assert check(workload, impl.final_state()) == []

    def test_no_aborts_under_contention(self, env):
        """Deterministic execution: conflicts serialize, never abort."""
        workload = TpccLite(warehouses=1)
        impl = StyxTpcc(env, workload)
        self.run_ops(env, impl, workload, count=60)
        assert impl.engine.stats.aborted == 0
        assert impl.engine.stats.committed >= 50
