"""The marketplace checkout as a microservice application.

Three coordination modes for the multi-service checkout (stock → payment →
order), matching the §4.2 spectrum:

- ``"none"`` — fire the steps and hope: a mid-flight failure leaves
  orphan reservations and the invariants catch it;
- ``"saga"`` — orchestrated saga with compensations (release stock,
  refund payment) up to its pivot, the charge; past it the checkout
  only goes forward: eventually consistent, non-blocking;
- ``"2pc"`` — atomic commit across the services: each service exposes
  ``prepare_*``/``commit_txn``/``abort_txn`` RPC endpoints over its own
  database's XA interface, and the checkout coordinator drives them.
  This is precisely the §4.2 pain: "using language-specific libraries and
  implementing the protocol phases in each microservice, a complex and
  error-prone task" — and every participant holds its locks from prepare
  until the decision round trip arrives.

Each service owns its database (database-per-service, §3.3).  All requests
carry idempotency keys and services deduplicate them (the §3.2 discipline —
benchmark C5 shows what happens without it), and each service retries its
*local* transaction on serialization failures, as production DB clients do.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.core import KernelApp
from repro.apps.core.retry import with_prepared_txn, with_txn
from repro.db import IsolationLevel
from repro.messaging.rpc import RpcError, RpcRemoteError
from repro.microservices import Microservice, MicroserviceApp
from repro.sim import Environment
from repro.transactions import Saga, SagaOrchestrator, SagaStep, SagaStuck
from repro.workloads.marketplace import CheckoutOp, MarketplaceWorkload

SER = IsolationLevel.SERIALIZABLE


class PaymentDeclined(Exception):
    """Business failure injected by the workload."""


def _register_decision_handlers(service: Microservice, prepared: dict) -> None:
    """Give a service the 2PC decision endpoints over its prepared txns."""

    @service.handler("commit_txn")
    def commit_txn(ctx, payload):
        txn = prepared.pop(payload["order_id"], None)
        if txn is not None:
            yield from ctx.db.commit_prepared(txn)
        return "committed"

    @service.handler("abort_txn")
    def abort_txn(ctx, payload):
        txn = prepared.pop(payload["order_id"], None)
        if txn is not None:
            yield from ctx.db.abort_prepared(txn)
        return "aborted"


class MicroserviceShop(KernelApp):
    """The deployed application plus per-mode checkout executors."""

    def __init__(
        self,
        env: Environment,
        workload: MarketplaceWorkload,
        mode: str = "saga",
        request_timeout: float = 400.0,
        compensation_retries: int = 3,
    ) -> None:
        if mode not in ("none", "saga", "2pc"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env)
        self.workload = workload
        self.mode = mode
        self.request_timeout = request_timeout
        self.app = MicroserviceApp(env, dedup_requests=True)
        self.app.add_service(self._stock_service())
        self.app.add_service(self._payment_service())
        self.app.add_service(self._order_service())
        self.orchestrator = SagaOrchestrator(
            env, compensation_retries=compensation_retries
        )

    def _call(self, service: str, method: str, payload: dict, key: str) -> Generator:
        """An idempotent service request (the §3.2 discipline)."""
        result = yield from self.app.request(
            service, method, payload,
            timeout=self.request_timeout, retries=2, idempotency_key=key,
        )
        return result

    # -- services ------------------------------------------------------------------

    def _stock_service(self) -> Microservice:
        workload = self.workload

        def init_db(db):
            db.create_table("products", primary_key="id")
            db.create_table("reservations", primary_key="rid")
            db.load("products", workload.initial_products())

        service = Microservice("stock", init_db=init_db)

        @service.handler("reserve")
        def reserve(ctx, payload):
            def body(txn):
                for product, quantity in payload["items"]:
                    row = yield from ctx.db.get(txn, "products", product)
                    if row["stock"] - row["reserved"] < quantity:
                        raise ValueError(f"out of stock: {product}")
                    yield from ctx.db.update(
                        txn, "products", product,
                        {"reserved": row["reserved"] + quantity},
                    )
                    yield from ctx.db.insert(
                        txn, "reservations",
                        {"rid": f"{payload['order_id']}/{product}",
                         "order_id": payload["order_id"],
                         "product": product, "quantity": quantity},
                    )
                return "reserved"

            result = yield from with_txn(ctx, body)
            return result

        @service.handler("confirm")
        def confirm(ctx, payload):
            def body(txn):
                for product, quantity in payload["items"]:
                    row = yield from ctx.db.get(txn, "products", product)
                    yield from ctx.db.update(
                        txn, "products", product,
                        {"stock": row["stock"] - quantity,
                         "reserved": row["reserved"] - quantity},
                    )
                    yield from ctx.db.delete(
                        txn, "reservations", f"{payload['order_id']}/{product}"
                    )
                return "confirmed"

            result = yield from with_txn(ctx, body)
            return result

        @service.handler("release")
        def release(ctx, payload):
            def body(txn):
                for product, quantity in payload["items"]:
                    reservation = yield from ctx.db.get(
                        txn, "reservations", f"{payload['order_id']}/{product}"
                    )
                    if reservation is None:
                        continue  # idempotent release
                    row = yield from ctx.db.get(txn, "products", product)
                    yield from ctx.db.update(
                        txn, "products", product,
                        {"reserved": row["reserved"] - quantity},
                    )
                    yield from ctx.db.delete(
                        txn, "reservations", f"{payload['order_id']}/{product}"
                    )
                return "released"

            result = yield from with_txn(ctx, body)
            return result

        prepared: dict[str, object] = {}

        @service.handler("prepare_deduct")
        def prepare_deduct(ctx, payload):
            def body(txn):
                for product, quantity in payload["items"]:
                    row = yield from ctx.db.get(txn, "products", product)
                    if row["stock"] < quantity:
                        raise ValueError(f"out of stock: {product}")
                    yield from ctx.db.update(
                        txn, "products", product,
                        {"stock": row["stock"] - quantity},
                    )

            txn = yield from with_prepared_txn(ctx, body)
            prepared[payload["order_id"]] = txn
            return "prepared"

        _register_decision_handlers(service, prepared)
        return service

    def _refund(self, ctx, txn, order_id: str) -> Generator:
        """Mark the payment refunded.  With nothing charged yet, leave a
        refunded tombstone, so a late *zombie* charge is rejected rather
        than resurrected (the mutant ``shop.zombie_refunds`` in
        :mod:`repro.chaos.mutants` deletes the row instead)."""
        existing = yield from ctx.db.get(txn, "payments", order_id)
        if existing is None:
            yield from ctx.db.insert(
                txn, "payments", {"order_id": order_id, "amount": 0, "refunded": True},
            )
        else:
            yield from ctx.db.update(txn, "payments", order_id, {"refunded": True})

    def _payment_service(self) -> Microservice:
        def init_db(db):
            db.create_table("payments", primary_key="order_id")

        service = Microservice("payment", init_db=init_db)

        @service.handler("charge")
        def charge(ctx, payload):
            if payload.get("fail"):
                raise PaymentDeclined(payload["order_id"])

            def body(txn):
                existing = yield from ctx.db.get(txn, "payments", payload["order_id"])
                if existing is not None and existing.get("refunded"):
                    # A compensation tombstone: this checkout was already
                    # cancelled.  Without this check, a *zombie* charge —
                    # a timed-out request still in flight when the saga
                    # compensated — would land after the refund and leave
                    # a payment no order explains (found by chaos testing).
                    raise ValueError(f"{payload['order_id']} already cancelled")
                if existing is not None:
                    return "charged"  # idempotent replay
                yield from ctx.db.insert(
                    txn, "payments",
                    {"order_id": payload["order_id"], "amount": payload["amount"],
                     "refunded": False},
                )
                return "charged"

            result = yield from with_txn(ctx, body)
            return result

        @service.handler("refund")
        def refund(ctx, payload):
            def body(txn):
                yield from self._refund(ctx, txn, payload["order_id"])
                return "refunded"

            result = yield from with_txn(ctx, body)
            return result

        prepared: dict[str, object] = {}

        @service.handler("prepare_charge")
        def prepare_charge(ctx, payload):
            if payload.get("fail"):
                raise PaymentDeclined(payload["order_id"])

            def body(txn):
                yield from ctx.db.insert(
                    txn, "payments",
                    {"order_id": payload["order_id"], "amount": payload["amount"]},
                )

            txn = yield from with_prepared_txn(ctx, body)
            prepared[payload["order_id"]] = txn
            return "prepared"

        _register_decision_handlers(service, prepared)
        return service

    def _order_service(self) -> Microservice:
        def init_db(db):
            db.create_table("orders", primary_key="id")

        service = Microservice("orders", init_db=init_db)

        @service.handler("create")
        def create(ctx, payload):
            def body(txn):
                yield from ctx.db.insert(
                    txn, "orders",
                    {"id": payload["order_id"], "items": payload["items"]},
                )
                return "created"

            result = yield from with_txn(ctx, body)
            return result

        prepared: dict[str, object] = {}

        @service.handler("prepare_create")
        def prepare_create(ctx, payload):
            def body(txn):
                yield from ctx.db.insert(
                    txn, "orders",
                    {"id": payload["order_id"], "items": payload["items"]},
                )

            txn = yield from with_prepared_txn(ctx, body)
            prepared[payload["order_id"]] = txn
            return "prepared"

        _register_decision_handlers(service, prepared)
        return service

    # -- checkout executors -----------------------------------------------------------

    def execute(self, op: CheckoutOp) -> Generator:
        if self.mode == "none":
            yield from self._checkout_uncoordinated(op)
        elif self.mode == "saga":
            yield from self._checkout_saga(op)
        else:
            yield from self._checkout_2pc(op)
        self.ledger.apply(op.op_id)

    def _checkout_uncoordinated(self, op: CheckoutOp) -> Generator:
        """Sequential calls, no cleanup on failure (the anti-pattern)."""
        items = list(op.cart)
        yield from self._call("stock", "reserve",
                              {"order_id": op.op_id, "items": items},
                              f"{op.op_id}/reserve")
        yield from self._call(
            "payment", "charge",
            {"order_id": op.op_id, "amount": self._amount(op),
             "fail": op.payment_fails},
            f"{op.op_id}/charge",
        )
        yield from self._call("stock", "confirm",
                              {"order_id": op.op_id, "items": items},
                              f"{op.op_id}/confirm")
        yield from self._call("orders", "create",
                              {"order_id": op.op_id, "items": items},
                              f"{op.op_id}/create")

    def _checkout_saga(self, op: CheckoutOp) -> Generator:
        items = list(op.cart)

        def reserve(ctx):
            result = yield from self._call(
                "stock", "reserve", {"order_id": op.op_id, "items": items},
                f"{op.op_id}/reserve",
            )
            return result

        def release(ctx):
            yield from self._call(
                "stock", "release", {"order_id": op.op_id, "items": items},
                f"{op.op_id}/release",
            )

        def charge(ctx):
            result = yield from self._call(
                "payment", "charge",
                {"order_id": op.op_id, "amount": self._amount(op),
                 "fail": op.payment_fails},
                f"{op.op_id}/charge",
            )
            return result

        def refund(ctx):
            yield from self._call(
                "payment", "refund", {"order_id": op.op_id},
                f"{op.op_id}/refund",
            )

        saga = Saga(
            f"checkout-{op.op_id}",
            [
                SagaStep("reserve", reserve, release),
                SagaStep("charge", charge, refund),
            ],
        )
        outcome = yield from self.orchestrator.execute(saga)
        if outcome.status != "completed":
            raise RpcRemoteError("saga", "checkout", outcome.error or "compensated")
        # The charge is the pivot: once it committed, the checkout only
        # goes forward.  Finalizing is never compensated (an order row
        # may already have landed behind a timeout); it retries with the
        # same idempotency keys, as often as a compensation may, and if
        # it still fails the checkout's outcome is unknown, not failed.
        for attempt in range(1, self.orchestrator.compensation_retries + 2):
            try:
                yield from self._call(
                    "stock", "confirm", {"order_id": op.op_id, "items": items},
                    f"{op.op_id}/confirm",
                )
                yield from self._call(
                    "orders", "create", {"order_id": op.op_id, "items": items},
                    f"{op.op_id}/create",
                )
                return
            except RpcError:
                yield self.env.timeout(2.0 * attempt)  # backoff
        raise SagaStuck(saga.name, "finalize")

    def _checkout_2pc(self, op: CheckoutOp) -> Generator:
        """2PC with the three services as participants, over RPC.

        Phase 1 calls each service's ``prepare_*`` endpoint (the service
        validates, writes, and durably prepares its local transaction —
        locks now held); phase 2 delivers the decision.  Every phase-1/2
        message is a service round trip: the §4.2 blocking cost is the
        time contended rows stay locked across all of them.
        """
        items = list(op.cart)
        prepared: list[str] = []
        try:
            yield from self._call(
                "stock", "prepare_deduct",
                {"order_id": op.op_id, "items": items},
                f"{op.op_id}/p-stock",
            )
            prepared.append("stock")
            yield from self._call(
                "payment", "prepare_charge",
                {"order_id": op.op_id, "amount": self._amount(op),
                 "fail": op.payment_fails},
                f"{op.op_id}/p-payment",
            )
            prepared.append("payment")
            yield from self._call(
                "orders", "prepare_create",
                {"order_id": op.op_id, "items": items},
                f"{op.op_id}/p-orders",
            )
            prepared.append("orders")
        except Exception:
            for service in prepared:
                yield from self._call(
                    service, "abort_txn", {"order_id": op.op_id},
                    f"{op.op_id}/abort-{service}",
                )
            raise
        for service in prepared:
            yield from self._call(
                service, "commit_txn", {"order_id": op.op_id},
                f"{op.op_id}/commit-{service}",
            )

    def _amount(self, op: CheckoutOp) -> int:
        return sum(quantity for _product, quantity in op.cart)

    # -- final state for invariants ------------------------------------------------------

    def final_state(self) -> dict:
        payments = self.app.database_of("payment").engine.all_rows("payments")
        return {
            "products": self.app.database_of("stock").engine.all_rows("products"),
            "orders": self.app.database_of("orders").engine.all_rows("orders"),
            # Refund tombstones are cancelled charges, not live payments.
            "payments": [p for p in payments if not p.get("refunded")],
        }
