"""Tests for the microservice framework: deployment, calls, state, sagas."""

import pytest

from repro.db import IsolationLevel
from repro.microservices import Microservice, MicroserviceApp
from repro.sim import Environment
from repro.transactions import Saga, SagaOrchestrator, SagaStep

RC = IsolationLevel.READ_COMMITTED


@pytest.fixture
def env():
    return Environment(seed=21)


def run(env, gen):
    return env.run_until(env.process(gen))


def make_inventory_service():
    def init_db(db):
        db.create_table("stock", primary_key="item")
        db.load("stock", [{"item": "widget", "quantity": 10}])

    service = Microservice("inventory", init_db=init_db)

    @service.handler("reserve")
    def reserve(ctx, payload):
        txn = yield from ctx.db.begin(IsolationLevel.SERIALIZABLE)
        row = yield from ctx.db.get(txn, "stock", payload["item"])
        if row is None or row["quantity"] < payload["qty"]:
            yield from ctx.db.abort(txn)
            raise ValueError("insufficient stock")
        yield from ctx.db.update(
            txn, "stock", payload["item"], {"quantity": row["quantity"] - payload["qty"]}
        )
        yield from ctx.db.commit(txn)
        return {"reserved": payload["qty"]}

    @service.handler("release")
    def release(ctx, payload):
        txn = yield from ctx.db.begin(IsolationLevel.SERIALIZABLE)
        row = yield from ctx.db.get(txn, "stock", payload["item"])
        yield from ctx.db.update(
            txn, "stock", payload["item"], {"quantity": row["quantity"] + payload["qty"]}
        )
        yield from ctx.db.commit(txn)
        return {"released": payload["qty"]}

    @service.handler("peek")
    def peek(ctx, payload):
        txn = yield from ctx.db.begin(RC)
        row = yield from ctx.db.get(txn, "stock", payload["item"])
        yield from ctx.db.commit(txn)
        return row

    return service


def make_order_service():
    def init_db(db):
        db.create_table("orders", primary_key="order_id")

    service = Microservice("orders", init_db=init_db)

    @service.handler("place")
    def place(ctx, payload):
        # Cross-service call, then local state change (the §4.2 pattern).
        reservation = yield from ctx.call(
            "inventory", "reserve", {"item": payload["item"], "qty": payload["qty"]}
        )
        txn = yield from ctx.db.begin(IsolationLevel.SERIALIZABLE)
        yield from ctx.db.insert(
            txn, "orders",
            {"order_id": payload["order_id"], "item": payload["item"],
             "qty": payload["qty"]},
        )
        yield from ctx.db.commit(txn)
        return {"order_id": payload["order_id"], **reservation}

    return service


@pytest.fixture
def app(env):
    application = MicroserviceApp(env)
    application.add_service(make_inventory_service())
    application.add_service(make_order_service())
    return application


class TestDeployment:
    def test_duplicate_service_rejected(self, env, app):
        with pytest.raises(ValueError):
            app.add_service(make_inventory_service())

    def test_db_per_service_by_default(self, env, app):
        assert app.database_of("inventory") is not app.database_of("orders")

    def test_duplicate_handler_rejected(self):
        service = Microservice("x")

        @service.handler("m")
        def handler_a(ctx, payload):
            yield

        with pytest.raises(ValueError):
            @service.handler("m")
            def handler_b(ctx, payload):
                yield


class TestRequests:
    def test_client_request_roundtrip(self, env, app):
        result = run(env, app.request("inventory", "peek", {"item": "widget"}))
        assert result["quantity"] == 10

    def test_cross_service_call(self, env, app):
        result = run(
            env,
            app.request("orders", "place",
                        {"order_id": "o1", "item": "widget", "qty": 3}),
        )
        assert result == {"order_id": "o1", "reserved": 3}
        stock = run(env, app.request("inventory", "peek", {"item": "widget"}))
        assert stock["quantity"] == 7

    def test_business_error_propagates(self, env, app):
        from repro.messaging import RpcRemoteError

        def flow():
            yield from app.request(
                "orders", "place", {"order_id": "o1", "item": "widget", "qty": 999}
            )

        with pytest.raises(RpcRemoteError, match="insufficient stock"):
            run(env, flow())

    def test_stateless_recovery(self, env, app):
        """§4.1: crash the service node; state survives in its database."""
        run(env, app.request("orders", "place",
                             {"order_id": "o1", "item": "widget", "qty": 3}))
        app.crash_service("inventory")
        app.restart_service("inventory")
        stock = run(env, app.request("inventory", "peek", {"item": "widget"}))
        assert stock["quantity"] == 7

    def test_request_dedup_when_enabled(self, env):
        application = MicroserviceApp(env, dedup_requests=True)
        application.add_service(make_inventory_service())

        def flow():
            first = yield from application.request(
                "inventory", "reserve", {"item": "widget", "qty": 1},
                idempotency_key="req-1",
            )
            again = yield from application.request(
                "inventory", "reserve", {"item": "widget", "qty": 1},
                idempotency_key="req-1",
            )
            stock = yield from application.request(
                "inventory", "peek", {"item": "widget"}
            )
            return first, again, stock

        first, again, stock = run(env, flow())
        assert first == again == {"reserved": 1}
        assert stock["quantity"] == 9  # reserved once, not twice


class TestSagaIntegration:
    def test_saga_over_services_compensates(self, env, app):
        """Reserve stock, fail payment, verify stock is restored."""

        def reserve(ctx_dict):
            result = yield from app.context("orders").call(
                "inventory", "reserve", {"item": "widget", "qty": 5}
            )
            return result

        def unreserve(ctx_dict):
            yield from app.context("orders").call(
                "inventory", "release", {"item": "widget", "qty": 5}
            )

        def pay(ctx_dict):
            yield env.timeout(1)
            raise RuntimeError("payment declined")

        saga = Saga("checkout", [SagaStep("reserve", reserve, unreserve),
                                 SagaStep("pay", pay)])
        outcome = run(env, SagaOrchestrator(env).execute(saga))
        assert outcome.status == "compensated"
        stock = run(env, app.request("inventory", "peek", {"item": "widget"}))
        assert stock["quantity"] == 10
