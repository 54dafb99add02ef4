"""TPC-C-lite on three runtimes: monolithic DB, Beldi FaaS, Styx dataflow.

Benchmark C10's subjects.  All three implement the same three transactions
(:class:`~repro.workloads.tpcc.NewOrderOp`, ``PaymentOp``,
``OrderStatusOp``) against the same logical schema, so the TPC-C
consistency conditions apply to each verbatim:

- :class:`DbTpcc` — the monolith: one serializable database;
- :class:`WorkflowTpcc` — Beldi-style OCC workflows over a shared KV: a
  NewOrder touches 7-17 keys, so aborts grow quickly with contention (the
  "TPC-C challenges state-of-the-art SFaaS" finding of ref [52]);
- :class:`StyxTpcc` — deterministic transactional dataflow: conflicting
  NewOrders serialize in waves without aborts or lock round trips.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.core import KernelApp
from repro.dataflow import TransactionalDataflow
from repro.db import DatabaseServer, IsolationLevel
from repro.db.errors import TransactionAborted
from repro.faas import SharedKv, TransactionalWorkflows, WorkflowAborted
from repro.net.latency import Latency
from repro.sim import Environment
from repro.workloads.tpcc import (
    NewOrderOp,
    OrderStatusOp,
    PaymentOp,
    TpccLite,
)

SER = IsolationLevel.SERIALIZABLE
#: serializable attempts per op on the database
DB_ATTEMPTS = 8
#: OCC workflow attempts per op on the shared KV
WORKFLOW_ATTEMPTS = 24


class DbTpcc(KernelApp):
    """TPC-C-lite on the monolithic serializable database."""

    def __init__(self, env: Environment, workload: TpccLite) -> None:
        super().__init__(env)
        self.workload = workload
        self.server = DatabaseServer(env, name="tpcc-db")
        for table in ("warehouses", "districts", "customers", "items",
                      "stock", "orders", "order_lines"):
            self.server.create_table(table, primary_key="id")
        self.server.load("warehouses", workload.initial_warehouses())
        self.server.load("districts", workload.initial_districts())
        self.server.load("customers", workload.initial_customers())
        self.server.load("items", workload.initial_items())
        self.server.load("stock", workload.initial_stock())

    def execute(self, op) -> Generator:
        for attempt in range(DB_ATTEMPTS):
            txn = yield from self.server.begin(SER)
            try:
                if isinstance(op, NewOrderOp):
                    yield from self._new_order(txn, op)
                elif isinstance(op, PaymentOp):
                    yield from self._payment(txn, op)
                else:
                    yield from self._order_status(txn, op)
                yield from self.server.commit(txn)
                self.ledger.apply(op.op_id)
                return
            except TransactionAborted:
                yield from self.server.abort(txn)
                yield self.env.timeout(1.0 + attempt)
        raise RuntimeError(f"{op.op_id}: retries exhausted")

    def _new_order(self, txn, op: NewOrderOp) -> Generator:
        district_id = f"{op.warehouse}:{op.district}"
        district = yield from self.server.get(txn, "districts", district_id)
        order_number = district["next_o_id"]
        yield from self.server.update(
            txn, "districts", district_id, {"next_o_id": order_number + 1}
        )
        order_id = f"{district_id}:{order_number}"
        for item, supply, quantity in op.lines:
            stock_id = f"{supply}:{item}"
            stock = yield from self.server.get(txn, "stock", stock_id)
            new_quantity = stock["quantity"] - quantity
            if new_quantity < 0:
                new_quantity += 1000  # TPC-C style restock, never negative
            yield from self.server.update(
                txn, "stock", stock_id, {"quantity": new_quantity}
            )
            yield from self.server.insert(
                txn, "order_lines",
                {"id": f"{order_id}:{item}", "order_id": order_id,
                 "item": item, "quantity": quantity},
            )
        yield from self.server.insert(
            txn, "orders",
            {"id": order_id, "customer": f"{district_id}:{op.customer}",
             "ol_cnt": len(op.lines)},
        )
        customer_id = f"{district_id}:{op.customer}"
        yield from self.server.update(
            txn, "customers", customer_id, {"last_order": order_id}
        )

    def _payment(self, txn, op: PaymentOp) -> Generator:
        warehouse = yield from self.server.get(txn, "warehouses", op.warehouse)
        yield from self.server.update(
            txn, "warehouses", op.warehouse, {"ytd": warehouse["ytd"] + op.amount}
        )
        district_id = f"{op.warehouse}:{op.district}"
        district = yield from self.server.get(txn, "districts", district_id)
        yield from self.server.update(
            txn, "districts", district_id, {"ytd": district["ytd"] + op.amount}
        )
        customer_id = f"{op.customer_warehouse}:{op.district}:{op.customer}"
        customer = yield from self.server.get(txn, "customers", customer_id)
        yield from self.server.update(
            txn, "customers", customer_id,
            {"balance": customer["balance"] - op.amount,
             "payment_cnt": customer["payment_cnt"] + 1},
        )

    def _order_status(self, txn, op: OrderStatusOp) -> Generator:
        customer_id = f"{op.warehouse}:{op.district}:{op.customer}"
        customer = yield from self.server.get(txn, "customers", customer_id)
        last_order = customer.get("last_order")
        if last_order is not None:
            yield from self.server.get(txn, "orders", last_order)

    def final_state(self) -> dict:
        engine = self.server.engine
        return {
            "warehouses": engine.all_rows("warehouses"),
            "districts": engine.all_rows("districts"),
            "customers": engine.all_rows("customers"),
            "stock": engine.all_rows("stock"),
            "orders": engine.all_rows("orders"),
            "order_lines": engine.all_rows("order_lines"),
        }


class _KvTpccCommon(KernelApp):
    """Shared key naming + final-state assembly for KV-based builds."""

    workload: TpccLite

    @staticmethod
    def k_warehouse(w: int) -> str:
        return f"w:{w}"

    @staticmethod
    def k_district(w: int, d: int) -> str:
        return f"d:{w}:{d}"

    @staticmethod
    def k_customer(w: int, d: int, c: int) -> str:
        return f"c:{w}:{d}:{c}"

    @staticmethod
    def k_stock(w: int, i: int) -> str:
        return f"s:{w}:{i}"

    def seed_items(self) -> dict:
        data = {}
        for row in self.workload.initial_warehouses():
            data[self.k_warehouse(row["id"])] = {"ytd": 0}
        for row in self.workload.initial_districts():
            data[self.k_district(row["warehouse"], int(row["id"].split(":")[1]))] = {
                "ytd": 0, "next_o_id": 1,
            }
        for row in self.workload.initial_customers():
            data[self.k_customer(row["warehouse"], row["district"],
                                 int(row["id"].split(":")[2]))] = {
                "balance": 0, "payment_cnt": 0, "last_order": None,
            }
        for row in self.workload.initial_stock():
            data[self.k_stock(row["warehouse"], row["item"])] = {
                "quantity": row["quantity"],
            }
        return data

    def assemble_state(self, read) -> dict:
        """Build the invariant snapshot via a ``read(key) -> value`` fn."""
        warehouses, districts, customers, stock = [], [], [], []
        orders, order_lines = [], []
        for row in self.workload.initial_warehouses():
            value = read(self.k_warehouse(row["id"])) or {"ytd": 0}
            warehouses.append({"id": row["id"], "ytd": value["ytd"]})
        for row in self.workload.initial_districts():
            d = int(row["id"].split(":")[1])
            value = read(self.k_district(row["warehouse"], d)) or {"ytd": 0}
            districts.append(
                {"id": row["id"], "warehouse": row["warehouse"], "ytd": value["ytd"]}
            )
        for row in self.workload.initial_customers():
            c = int(row["id"].split(":")[2])
            value = read(self.k_customer(row["warehouse"], row["district"], c)) or {}
            customers.append({"id": row["id"], **value})
            for order in value.get("orders", []):
                orders.append(order)
                for line in order.get("lines", []):
                    order_lines.append({"order_id": order["id"], **line})
        for row in self.workload.initial_stock():
            value = read(self.k_stock(row["warehouse"], row["item"])) or {
                "quantity": row["quantity"]
            }
            stock.append({"id": row["id"], "quantity": value["quantity"]})
        return {
            "warehouses": warehouses,
            "districts": districts,
            "customers": customers,
            "stock": stock,
            "orders": orders,
            "order_lines": order_lines,
        }


class WorkflowTpcc(_KvTpccCommon):
    """TPC-C-lite as Beldi-style OCC workflows over the shared KV."""

    def __init__(self, env: Environment, workload: TpccLite) -> None:
        super().__init__(env)
        self.workload = workload
        self.kv = SharedKv(env, rtt=Latency.intra_zone())
        for key, value in self.seed_items().items():
            self.kv.store.put(key, value)
        self.engine = TransactionalWorkflows(env, kv=self.kv, max_retries=WORKFLOW_ATTEMPTS)
        self.engine.register("new_order", self._new_order)
        self.engine.register("payment", self._payment)
        self.engine.register("order_status", self._order_status)

    def execute(self, op) -> Generator:
        if isinstance(op, NewOrderOp):
            name = "new_order"
        elif isinstance(op, PaymentOp):
            name = "payment"
        else:
            name = "order_status"
        yield from self.engine.run(name, op, workflow_id=op.op_id)
        self.ledger.apply(op.op_id)

    def _new_order(self, ctx, op: NewOrderOp):
        district_key = self.k_district(op.warehouse, op.district)
        district = yield from ctx.read(district_key)
        order_number = district["next_o_id"]
        ctx.write(district_key, {**district, "next_o_id": order_number + 1})
        order_id = f"{op.warehouse}:{op.district}:{order_number}"
        lines = []
        for item, supply, quantity in op.lines:
            stock_key = self.k_stock(supply, item)
            stock = yield from ctx.read(stock_key)
            new_quantity = stock["quantity"] - quantity
            if new_quantity < 0:
                new_quantity += 1000
            ctx.write(stock_key, {"quantity": new_quantity})
            lines.append({"item": item, "quantity": quantity})
        customer_key = self.k_customer(op.warehouse, op.district, op.customer)
        customer = yield from ctx.read(customer_key)
        orders = list(customer.get("orders", []))
        orders.append({"id": order_id, "ol_cnt": len(op.lines), "lines": lines})
        ctx.write(
            customer_key,
            {**customer, "orders": orders, "last_order": order_id},
        )
        return order_id

    def _payment(self, ctx, op: PaymentOp):
        warehouse_key = self.k_warehouse(op.warehouse)
        warehouse = yield from ctx.read(warehouse_key)
        ctx.write(warehouse_key, {"ytd": warehouse["ytd"] + op.amount})
        district_key = self.k_district(op.warehouse, op.district)
        district = yield from ctx.read(district_key)
        ctx.write(district_key, {**district, "ytd": district["ytd"] + op.amount})
        customer_key = self.k_customer(op.customer_warehouse, op.district, op.customer)
        customer = yield from ctx.read(customer_key)
        ctx.write(
            customer_key,
            {**customer,
             "balance": customer["balance"] - op.amount,
             "payment_cnt": customer["payment_cnt"] + 1},
        )
        return True

    def _order_status(self, ctx, op: OrderStatusOp):
        customer_key = self.k_customer(op.warehouse, op.district, op.customer)
        customer = yield from ctx.read(customer_key)
        return customer.get("last_order")

    def final_state(self) -> dict:
        return self.assemble_state(lambda key: self.kv.store.get(key))


class StyxTpcc(_KvTpccCommon):
    """TPC-C-lite on the deterministic transactional dataflow."""

    def __init__(self, env: Environment, workload: TpccLite, **engine_kwargs) -> None:
        super().__init__(env)
        self.workload = workload
        engine_kwargs.setdefault("epoch_interval", 5.0)
        self.engine = TransactionalDataflow(env, **engine_kwargs)
        self.engine.register("new_order", self._new_order)
        self.engine.register("payment", self._payment)
        self.engine.register("order_status", self._order_status)
        for key, value in self.seed_items().items():
            self.engine._state[self.engine._partition(key)][key] = value
        self.engine.start()

    def keys_of(self, op) -> list[str]:
        """The declared key set enabling conflict-free waves."""
        if isinstance(op, NewOrderOp):
            keys = [self.k_district(op.warehouse, op.district),
                    self.k_customer(op.warehouse, op.district, op.customer)]
            keys.extend(self.k_stock(supply, item) for item, supply, _q in op.lines)
            return keys
        if isinstance(op, PaymentOp):
            return [
                self.k_warehouse(op.warehouse),
                self.k_district(op.warehouse, op.district),
                self.k_customer(op.customer_warehouse, op.district, op.customer),
            ]
        return [self.k_customer(op.warehouse, op.district, op.customer)]

    def execute(self, op) -> Generator:
        if isinstance(op, NewOrderOp):
            name = "new_order"
        elif isinstance(op, PaymentOp):
            name = "payment"
        else:
            name = "order_status"
        future = self.engine.submit(name, self.keys_of(op)[0], op, keys=self.keys_of(op))
        yield future
        self.ledger.apply(op.op_id)

    def _new_order(self, ctx, key, op: NewOrderOp):
        district_key = self.k_district(op.warehouse, op.district)
        district = ctx.get(district_key)
        order_number = district["next_o_id"]
        ctx.put(district_key, {**district, "next_o_id": order_number + 1})
        order_id = f"{op.warehouse}:{op.district}:{order_number}"
        lines = []
        for item, supply, quantity in op.lines:
            stock_key = self.k_stock(supply, item)
            stock = ctx.get(stock_key)
            new_quantity = stock["quantity"] - quantity
            if new_quantity < 0:
                new_quantity += 1000
            ctx.put(stock_key, {"quantity": new_quantity})
            lines.append({"item": item, "quantity": quantity})
        customer_key = self.k_customer(op.warehouse, op.district, op.customer)
        customer = ctx.get(customer_key)
        orders = list(customer.get("orders", []))
        orders.append({"id": order_id, "ol_cnt": len(op.lines), "lines": lines})
        ctx.put(customer_key, {**customer, "orders": orders, "last_order": order_id})
        return order_id
        yield  # pragma: no cover

    def _payment(self, ctx, key, op: PaymentOp):
        warehouse_key = self.k_warehouse(op.warehouse)
        warehouse = ctx.get(warehouse_key)
        ctx.put(warehouse_key, {"ytd": warehouse["ytd"] + op.amount})
        district_key = self.k_district(op.warehouse, op.district)
        district = ctx.get(district_key)
        ctx.put(district_key, {**district, "ytd": district["ytd"] + op.amount})
        customer_key = self.k_customer(op.customer_warehouse, op.district, op.customer)
        customer = ctx.get(customer_key)
        ctx.put(
            customer_key,
            {**customer,
             "balance": customer["balance"] - op.amount,
             "payment_cnt": customer["payment_cnt"] + 1},
        )
        return True
        yield  # pragma: no cover

    def _order_status(self, ctx, key, op: OrderStatusOp):
        customer = ctx.get(self.k_customer(op.warehouse, op.district, op.customer))
        return customer.get("last_order")
        yield  # pragma: no cover

    def final_state(self) -> dict:
        return self.assemble_state(lambda key: self.engine.state_of(key))
