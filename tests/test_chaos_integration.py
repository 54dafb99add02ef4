"""Chaos integration: the full marketplace under faults stays consistent.

The end-to-end claim of the whole stack: with the §3.2 disciplines in
place (idempotency keys, request dedup, saga compensations, local txn
retries), the application's cross-service invariants survive message loss,
message duplication, *and* a mid-run service crash — correctness comes
from the protocols, not from the absence of failures.
"""

import pytest

from repro.apps import MicroserviceShop
from repro.chaos.mutants import MUTANTS
from repro.core import FaultPlan
from repro.sim import Environment
from repro.workloads import MarketplaceWorkload


def check(workload, state):
    violations = []
    for invariant in workload.invariants():
        violations.extend(invariant.check(state))
    return violations


class TestShopChaos:
    def _run(self, seed, loss, duplication, crash_stock=True, shop_class=MicroserviceShop):
        env = Environment(seed=seed)
        workload = MarketplaceWorkload(
            num_products=6, initial_stock=500, payment_failure_rate=0.1
        )
        shop = shop_class(env, workload, mode="saga",
                          request_timeout=150.0,
                          compensation_retries=10)
        shop.app.net.set_loss(loss)
        shop.app.net.set_duplication(duplication)
        if crash_stock:
            plan = FaultPlan().crash_restart("stock", at=200.0, downtime=60.0)
            plan.apply(env, shop.app.net)
        ops = list(workload.operations(env.stream("ops"), 40))
        outcomes = {"ok": 0, "failed": 0}

        def one(op):
            try:
                yield from shop.execute(op)
                outcomes["ok"] += 1
            except Exception:
                outcomes["failed"] += 1

        def driver():
            for op in ops:
                yield env.timeout(12.0)
                env.process(one(op))

        env.process(driver())
        env.run(until=60_000)
        return shop, workload, outcomes

    def test_invariants_hold_under_loss_and_duplication(self):
        shop, workload, outcomes = self._run(
            seed=261, loss=0.05, duplication=0.05, crash_stock=False
        )
        assert outcomes["ok"] > 0
        assert check(workload, shop.final_state()) == []

    def test_invariants_hold_across_service_crash(self):
        shop, workload, outcomes = self._run(
            seed=262, loss=0.03, duplication=0.03, crash_stock=True
        )
        assert outcomes["ok"] + outcomes["failed"] == 40
        assert outcomes["ok"] > 10  # the system made real progress
        state = shop.final_state()
        assert check(workload, state) == []
        # Completed checkouts are exactly the orders+payments on record.
        assert len(state["orders"]) == len(state["payments"])

    def test_zombie_charge_anomaly_without_tombstones(self):
        """Regression of the bug chaos testing found: the naive refund
        (delete the payment row) lets a timed-out-but-in-flight charge
        land *after* the compensation — a payment no order explains."""
        dirty = 0
        for seed in (261, 301, 472, 533, 601):
            shop, workload, _outcomes = self._run(
                seed=seed, loss=0.05, duplication=0.05,
                crash_stock=False, shop_class=MUTANTS["shop.zombie_refunds"],
            )
            if check(workload, shop.final_state()):
                dirty += 1
        assert dirty > 0  # the anomaly is reproducible...

        shop, workload, _outcomes = self._run(
            seed=261, loss=0.05, duplication=0.05,
            crash_stock=False,
        )
        assert check(workload, shop.final_state()) == []  # ...and fixed

    def test_clean_run_baseline(self):
        shop, workload, outcomes = self._run(
            seed=263, loss=0.0, duplication=0.0, crash_stock=False
        )
        state = shop.final_state()
        assert check(workload, state) == []
        # Only business failures (payment declined / out of stock) fail.
        assert outcomes["failed"] <= 12
