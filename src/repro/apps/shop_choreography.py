"""The marketplace checkout as a *choreographed* saga.

The §4.2 alternative to :class:`repro.apps.shop.MicroserviceShop`'s
orchestrated saga: no coordinator exists.  Each service runs a
:class:`~repro.transactions.choreography.Reactor` on the broker:

    checkout-requested ──▶ stock (reserve) ──▶ stock-reserved
    stock-reserved     ──▶ payment (charge) ─▶ payment-ok / payment-failed
    payment-ok         ──▶ orders (finalize) ▶ checkout-completed
    payment-failed     ──▶ stock (release)  ─▶ checkout-compensated

The trade-offs this makes measurable against orchestration:

- latency includes broker hops and consumer poll intervals per step;
- outcome observability requires watching terminal topics (the
  :class:`ChoreographyMonitor`) — nobody can simply be asked;
- coupling is minimal: services know only their input/output topics.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.core import KernelApp
from repro.apps.core.retry import with_txn
from repro.db import DatabaseServer, IsolationLevel
from repro.messaging import Broker
from repro.sim import Environment
from repro.transactions.choreography import ChoreographyMonitor, Reactor
from repro.workloads.marketplace import CheckoutOp, MarketplaceWorkload

SER = IsolationLevel.SERIALIZABLE
#: how often a checkout looks for its terminal event
POLL_INTERVAL_MS = 2.0

TOPICS = (
    "checkout-requested",
    "stock-reserved",
    "payment-ok",
    "payment-failed",
    "checkout-completed",
    "checkout-compensated",
)


class _DbCtx:
    """Adapter giving :func:`~repro.apps.core.retry.with_txn` what it expects (db + env)."""

    def __init__(self, env: Environment, db: DatabaseServer) -> None:
        self.env = env
        self.db = db


class ChoreographedShop(KernelApp):
    """The event-driven checkout deployment."""

    def __init__(self, env: Environment, workload: MarketplaceWorkload) -> None:
        super().__init__(env)
        self.workload = workload
        self.broker = Broker(env)
        for topic in TOPICS:
            self.broker.create_topic(topic)

        self.stock_db = DatabaseServer(env, name="stock-db")
        self.stock_db.create_table("products", primary_key="id")
        self.stock_db.create_table("reservations", primary_key="rid")
        self.stock_db.load("products", workload.initial_products())
        self.payment_db = DatabaseServer(env, name="payment-db")
        self.payment_db.create_table("payments", primary_key="order_id")
        self.order_db = DatabaseServer(env, name="order-db")
        self.order_db.create_table("orders", primary_key="id")

        self.monitor = ChoreographyMonitor(
            env, self.broker, "checkout-completed", "checkout-compensated"
        )
        self._reactors = [
            Reactor(env, self.broker, "stock-svc", "checkout-requested",
                    self._reserve_stock),
            Reactor(env, self.broker, "payment-svc", "stock-reserved",
                    self._charge),
            Reactor(env, self.broker, "order-svc", "payment-ok",
                    self._finalize),
            Reactor(env, self.broker, "stock-compensator", "payment-failed",
                    self._release_stock),
        ]
        for reactor in self._reactors:
            reactor.start()

    # -- reactions ------------------------------------------------------------------

    def _reserve_stock(self, event: dict) -> Generator:
        ctx = _DbCtx(self.env, self.stock_db)

        def body(txn):
            for product, quantity in event["items"]:
                row = yield from ctx.db.get(txn, "products", product)
                if row["stock"] - row["reserved"] < quantity:
                    raise ValueError(f"out of stock: {product}")
                yield from ctx.db.update(
                    txn, "products", product,
                    {"reserved": row["reserved"] + quantity},
                )
                yield from ctx.db.insert(
                    txn, "reservations",
                    {"rid": f"{event['saga_id']}/{product}",
                     "order_id": event["saga_id"],
                     "product": product, "quantity": quantity},
                )

        try:
            yield from with_txn(ctx, body)
        except ValueError:
            # Business rejection before any state change: terminal event.
            return [("checkout-compensated", event["saga_id"], {})]
        return [("stock-reserved", event["saga_id"],
                 {"items": event["items"], "amount": event["amount"],
                  "fail": event["fail"]})]

    def _charge(self, event: dict) -> Generator:
        if event["fail"]:
            yield self.env.timeout(0.5)
            return [("payment-failed", event["saga_id"],
                     {"items": event["items"]})]
        ctx = _DbCtx(self.env, self.payment_db)

        def body(txn):
            yield from ctx.db.insert(
                txn, "payments",
                {"order_id": event["saga_id"], "amount": event["amount"]},
            )

        yield from with_txn(ctx, body)
        return [("payment-ok", event["saga_id"], {"items": event["items"]})]

    def _finalize(self, event: dict) -> Generator:
        stock_ctx = _DbCtx(self.env, self.stock_db)

        def confirm(txn):
            for product, quantity in event["items"]:
                row = yield from stock_ctx.db.get(txn, "products", product)
                yield from stock_ctx.db.update(
                    txn, "products", product,
                    {"stock": row["stock"] - quantity,
                     "reserved": row["reserved"] - quantity},
                )
                yield from stock_ctx.db.delete(
                    txn, "reservations", f"{event['saga_id']}/{product}"
                )

        yield from with_txn(stock_ctx, confirm)
        order_ctx = _DbCtx(self.env, self.order_db)

        def create(txn):
            yield from order_ctx.db.insert(
                txn, "orders", {"id": event["saga_id"], "items": event["items"]}
            )

        yield from with_txn(order_ctx, create)
        return [("checkout-completed", event["saga_id"], {})]

    def _release_stock(self, event: dict) -> Generator:
        ctx = _DbCtx(self.env, self.stock_db)

        def body(txn):
            for product, quantity in event["items"]:
                reservation = yield from ctx.db.get(
                    txn, "reservations", f"{event['saga_id']}/{product}"
                )
                if reservation is None:
                    continue
                row = yield from ctx.db.get(txn, "products", product)
                yield from ctx.db.update(
                    txn, "products", product,
                    {"reserved": row["reserved"] - quantity},
                )
                yield from ctx.db.delete(
                    txn, "reservations", f"{event['saga_id']}/{product}"
                )

        yield from with_txn(ctx, body)
        return [("checkout-compensated", event["saga_id"], {})]

    # -- client --------------------------------------------------------------------------

    def execute(self, op: CheckoutOp) -> Generator:
        """Kick off a checkout and await its terminal event."""
        yield from self.broker.publish(
            "checkout-requested", op.op_id,
            {"saga_id": op.op_id, "event_id": f"{op.op_id}/request",
             "items": list(op.cart), "amount": sum(q for _p, q in op.cart),
             "fail": op.payment_fails},
        )
        while self.monitor.outcome_of(op.op_id) is None:
            yield self.env.timeout(POLL_INTERVAL_MS)
        if self.monitor.outcome_of(op.op_id) != "completed":
            raise RuntimeError(f"checkout {op.op_id} compensated")
        self.ledger.apply(op.op_id)

    def final_state(self) -> dict:
        return {
            "products": self.stock_db.engine.all_rows("products"),
            "orders": self.order_db.engine.all_rows("orders"),
            "payments": self.payment_db.engine.all_rows("payments"),
        }
