"""Tests for workload generators, arrival processes, and invariants."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hotel import hotel_spec
from repro.sim import Environment
from repro.workloads import (
    ClosedLoop,
    HotelWorkload,
    MarketplaceWorkload,
    OpenLoop,
    TpccLite,
    TransferWorkload,
    YcsbWorkload,
    ZipfianGenerator,
)
from repro.workloads.tpcc import NewOrderOp, OrderStatusOp, PaymentOp


class TestZipfian:
    def test_values_in_range(self):
        gen = ZipfianGenerator(100, theta=0.99)
        rng = random.Random(1)
        for _ in range(1000):
            assert 0 <= gen.next(rng) < 100

    def test_skew_favours_low_indexes(self):
        gen = ZipfianGenerator(1000, theta=0.99)
        rng = random.Random(1)
        samples = [gen.next(rng) for _ in range(5000)]
        head = sum(1 for s in samples if s < 10)
        assert head > len(samples) * 0.3  # top-1% of keys get >30% of hits

    def test_low_theta_is_flatter(self):
        rng = random.Random(1)
        skewed = ZipfianGenerator(1000, theta=0.99)
        flat = ZipfianGenerator(1000, theta=0.01)
        skewed_head = sum(1 for _ in range(3000) if skewed.next(rng) < 10)
        flat_head = sum(1 for _ in range(3000) if flat.next(rng) < 10)
        assert skewed_head > 5 * max(1, flat_head)

    def test_sample_distinct(self):
        gen = ZipfianGenerator(50, theta=0.5)
        rng = random.Random(2)
        sample = gen.sample_distinct(rng, 5)
        assert len(set(sample)) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(3).sample_distinct(random.Random(0), 10)


class TestYcsb:
    def test_mix_fractions_respected(self):
        workload = YcsbWorkload(record_count=100, mix="B")
        rng = random.Random(3)
        ops = list(workload.operations(rng, 2000))
        reads = sum(1 for op in ops if op.kind == "read")
        assert 0.9 < reads / len(ops) < 0.99

    def test_read_only_mix(self):
        workload = YcsbWorkload(record_count=10, mix="C")
        ops = list(workload.operations(random.Random(0), 100))
        assert all(op.kind == "read" for op in ops)

    def test_inserts_use_fresh_keys(self):
        workload = YcsbWorkload(record_count=10, mix="D")
        initial_keys = {row["id"] for row in workload.initial_rows()}
        ops = list(workload.operations(random.Random(0), 500))
        inserted = {op.key for op in ops if op.kind == "insert"}
        assert inserted
        assert not (inserted & initial_keys)

    def test_custom_mix(self):
        workload = YcsbWorkload(record_count=10, mix={"read": 0.7, "update": 0.3})
        ops = list(workload.operations(random.Random(0), 100))
        assert {op.kind for op in ops} <= {"read", "update"}

    def test_invalid_mix(self):
        with pytest.raises(ValueError):
            YcsbWorkload(mix="Z")
        with pytest.raises(ValueError):
            YcsbWorkload(mix={"read": 0.5})

    def test_initial_rows_count(self):
        assert len(YcsbWorkload(record_count=42).initial_rows()) == 42


class TestTransfers:
    def test_ops_have_distinct_endpoints(self):
        workload = TransferWorkload(num_accounts=10)
        for op in workload.operations(random.Random(1), 200):
            assert op.src != op.dst

    def test_conservation_invariant_checks_total(self):
        workload = TransferWorkload(num_accounts=3, initial_balance=10)
        invariant = workload.invariants()[0]
        good = [{"balance": 10}, {"balance": 5}, {"balance": 15}]
        assert invariant.check(good) == []
        bad = [{"balance": 10}, {"balance": 5}, {"balance": 16}]
        assert len(invariant.check(bad)) == 1

    def test_op_ids_unique(self):
        workload = TransferWorkload(num_accounts=5)
        ops = list(workload.operations(random.Random(0), 100))
        assert len({op.op_id for op in ops}) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferWorkload(num_accounts=1)


#: sha256 over the repr of the first 10,000 ops, taken from the generators
#: before their per-op constants were hoisted: the benchmark suite's op
#: lists, and with them every deterministic metric, hang on these streams.
OP_STREAMS = {
    "ycsb-C": lambda: YcsbWorkload(record_count=10_000, mix="C", theta=0.9),
    "ycsb-rmw": lambda: YcsbWorkload(record_count=100, mix={"rmw": 1.0}, theta=0.9),
    "ycsb-A": lambda: YcsbWorkload(record_count=1_000, mix="A"),
    "transfers": lambda: TransferWorkload(
        num_accounts=1_000, initial_balance=10**6, amount=1, theta=0.7
    ),
}
OP_STREAM_DIGESTS = {
    ("ycsb-C", 3): "db25b1d0ce335a34fec8999ab00fc5e625167625e92d1ef15d23cec52928a7a2",
    ("ycsb-C", 11): "4d26874f1bec814b778938874b2e48770be3207a20ced6376896f3721ad1b9ce",
    ("ycsb-rmw", 3): "f39fc92a4f238d4e101041ab113925d9f63c20fa2e55eb622bd2a4337641b8d6",
    ("ycsb-rmw", 11): "28b3d5fa6829fcf84866d93a8db3b79e9a74a7d29ea708c69cbfe8edc0c09188",
    ("ycsb-A", 3): "7184afb23ccba45cf582915af0e1184c4578598f93ea57e3a668f3d5dfc70136",
    ("ycsb-A", 11): "50a8de1968a847bc4a85446dda0c8345e7095327ed6c010a8d57880512b390db",
    ("transfers", 3): "050bffb1d8ca76bd7181e4cd2d3cb4b9126fe0ce6a67ae0bd7babc8760acc007",
    ("transfers", 11): "1f42d56706feccb989f01b25115cb02437a81a258bb596f89a60e62fc02a49de",
}


@pytest.mark.parametrize("name,seed", sorted(OP_STREAM_DIGESTS))
def test_op_stream_is_pinned(name, seed):
    ops = OP_STREAMS[name]().operations(random.Random(seed), 10_000)
    digest = hashlib.sha256("\n".join(map(repr, ops)).encode()).hexdigest()
    assert digest == OP_STREAM_DIGESTS[(name, seed)]


class TestTpcc:
    def test_mix_of_transaction_types(self):
        workload = TpccLite(warehouses=2)
        ops = list(workload.operations(random.Random(4), 1000))
        kinds = {type(op) for op in ops}
        assert kinds == {NewOrderOp, PaymentOp, OrderStatusOp}
        new_orders = sum(1 for op in ops if isinstance(op, NewOrderOp))
        assert 0.35 < new_orders / len(ops) < 0.55

    def test_new_order_line_counts(self):
        workload = TpccLite(warehouses=1)
        for op in workload.operations(random.Random(5), 200):
            if isinstance(op, NewOrderOp):
                assert 5 <= len(op.lines) <= 15

    def test_remote_lines_only_with_multiple_warehouses(self):
        workload = TpccLite(warehouses=1)
        for op in workload.operations(random.Random(6), 200):
            if isinstance(op, NewOrderOp):
                assert all(supply == op.warehouse for _i, supply, _q in op.lines)

    def test_initial_data_shapes(self):
        workload = TpccLite(warehouses=2)
        assert len(workload.initial_warehouses()) == 2
        assert len(workload.initial_districts()) == 8
        assert len(workload.initial_stock()) == 2 * 100

    def test_warehouse_ytd_invariant(self):
        workload = TpccLite(warehouses=1)
        invariant = workload.invariants()[0]
        state = {
            "warehouses": [{"id": 0, "ytd": 30}],
            "districts": [
                {"id": "0:0", "warehouse": 0, "ytd": 10},
                {"id": "0:1", "warehouse": 0, "ytd": 20},
            ],
        }
        assert invariant.check(state) == []
        state["warehouses"][0]["ytd"] = 31
        assert len(invariant.check(state)) == 1

    def test_order_line_invariant(self):
        invariant = TpccLite().invariants()[1]
        state = {
            "orders": [{"id": "o1", "ol_cnt": 2}],
            "order_lines": [{"order_id": "o1"}, {"order_id": "o1"}],
        }
        assert invariant.check(state) == []
        state["order_lines"].pop()
        assert len(invariant.check(state)) == 1


class TestMarketplace:
    def test_cart_products_distinct(self):
        workload = MarketplaceWorkload(num_products=20)
        for op in workload.operations(random.Random(7), 200):
            products = [p for p, _q in op.cart]
            assert len(products) == len(set(products))

    def test_payment_failures_injected(self):
        workload = MarketplaceWorkload(payment_failure_rate=0.5)
        ops = list(workload.operations(random.Random(8), 400))
        failures = sum(1 for op in ops if op.payment_fails)
        assert 100 < failures < 300

    def test_oversell_invariant(self):
        workload = MarketplaceWorkload(num_products=1, initial_stock=10)
        invariant = workload.invariants()[0]
        state = {
            "products": [{"id": "prod-0000", "stock": 7, "reserved": 0}],
            "orders": [{"id": "o1", "items": [("prod-0000", 3)]}],
        }
        assert invariant.check(state) == []
        state["orders"].append({"id": "o2", "items": [("prod-0000", 5)]})
        assert len(invariant.check(state)) == 1  # 7 + 8 > 10

    def test_charge_exactly_once_invariant(self):
        invariant = MarketplaceWorkload().invariants()[1]
        state = {
            "orders": [{"id": "o1", "items": []}],
            "payments": [{"order_id": "o1"}],
            "products": [],
        }
        assert invariant.check(state) == []
        state["payments"].append({"order_id": "o1"})
        assert len(invariant.check(state)) == 1

    def test_orphan_reservation_invariant(self):
        invariant = MarketplaceWorkload().invariants()[2]
        state = {"products": [{"id": "p", "stock": 5, "reserved": 2}]}
        assert len(invariant.check(state)) == 1


class TestHotel:
    def test_mix(self):
        workload = HotelWorkload(reserve_fraction=0.4)
        ops = list(workload.operations(random.Random(9), 500))
        from repro.workloads.hotel import ReserveOp

        reserves = sum(1 for op in ops if isinstance(op, ReserveOp))
        assert 120 < reserves < 280

    def test_capacity_invariant(self):
        capacity, booked = hotel_spec(HotelWorkload()).state_invariants()
        state = {
            "hotels": [{"id": "h", "capacity": 2, "reserved": 2}],
            "reservations": [
                {"hotel": "h", "status": "confirmed"},
                {"hotel": "h", "status": "confirmed"},
                {"hotel": "h", "status": "declined"},
            ],
        }
        assert capacity.check(state) == booked.check(state) == []
        state["hotels"][0]["reserved"] = 3  # one room sold twice
        assert capacity.check(state) and booked.check(state)
        state["hotels"][0]["reserved"] = -1
        assert capacity.check(state) and booked.check(state)


class TestArrivalProcesses:
    def _measure(self, env, arrival, service_time=1.0):
        issued = []

        def issue(op_index):
            issued.append((op_index, env.now))
            yield env.timeout(service_time)

        done = env.process(arrival.drive(env, issue))
        env.run_until(done)
        return issued

    def test_open_loop_issues_all_ops(self):
        env = Environment(seed=71)
        issued = self._measure(env, OpenLoop(rate_per_s=1000.0, total_ops=50))
        assert len(issued) == 50

    def test_open_loop_does_not_wait_for_completions(self):
        """Arrivals keep coming even when service is slow (open model)."""
        env = Environment(seed=71)
        issued = self._measure(
            env, OpenLoop(rate_per_s=1000.0, total_ops=20), service_time=1000.0
        )
        arrival_span = issued[-1][1] - issued[0][1]
        assert arrival_span < 1000.0  # all arrived before the first finished

    def test_closed_loop_gates_on_completion(self):
        env = Environment(seed=72)
        issued = self._measure(
            env, ClosedLoop(clients=1, ops_per_client=5, think_time_ms=0.0),
            service_time=10.0,
        )
        gaps = [b[1] - a[1] for a, b in zip(issued, issued[1:])]
        assert all(gap >= 10.0 for gap in gaps)

    def test_closed_loop_total(self):
        env = Environment(seed=73)
        issued = self._measure(env, ClosedLoop(clients=3, ops_per_client=4))
        assert len(issued) == 12

    def test_closed_loop_tolerates_op_failures(self):
        env = Environment(seed=75)
        attempts = []

        def issue(op_index):
            attempts.append(op_index)
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        arrival = ClosedLoop(clients=2, ops_per_client=3, think_time_ms=1.0)
        env.run_until(env.process(arrival.drive(env, issue)))
        assert len(attempts) == 6  # failures do not kill the client loop

    def test_validation(self):
        env = Environment(seed=76)
        with pytest.raises(ValueError):
            env.run_until(env.process(OpenLoop(0, 5).drive(env, lambda i: iter(()))))
