"""Durable orchestration: code that survives its own engine crashing.

Run:  python examples/durable_workflow.py

A checkout orchestration written as plain-looking code runs activities,
the engine crashes mid-workflow, and after recovery the workflow resumes
*exactly where it left off* — completed activities replay from history
instead of re-executing (Azure Durable Functions / Temporal semantics,
paper refs [14, 15]).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.faas import DurableWorkflows
from repro.sim import Environment


def main():
    env = Environment(seed=23)
    engine = DurableWorkflows(env, activity_latency=1.0)
    side_effects = []

    @engine.activity("reserve_stock")
    def reserve_stock(item):
        yield env.timeout(5.0)
        side_effects.append(f"reserved {item}")
        return f"res-{item}"

    @engine.activity("charge_card")
    def charge_card(amount):
        yield env.timeout(5.0)
        side_effects.append(f"charged {amount}")
        return f"receipt-{amount}"

    @engine.activity("ship")
    def ship(reservation, receipt):
        yield env.timeout(5.0)
        side_effects.append(f"shipped {reservation} with {receipt}")
        return "tracking-42"

    @engine.workflow("checkout")
    def checkout(ctx, order):
        reservation = yield ctx.activity("reserve_stock", order["item"])
        yield ctx.timer(10.0)  # a durable delay (fraud-check window)
        receipt = yield ctx.activity("charge_card", order["amount"])
        tracking = yield ctx.activity("ship", reservation, receipt)
        return {"tracking": tracking}

    engine.start("order-1", "checkout", {"item": "book", "amount": 30})
    env.run(until=8.0)
    print(f"t={env.now:.0f}: side effects so far: {side_effects}")
    print(f"t={env.now:.0f}: history: {engine.history_of('order-1')}")

    print("\n!!! engine crashes (in-flight timers and activities lost)\n")
    engine.crash()
    engine.recover()
    result = env.run_until(engine.wait("order-1"))

    print(f"t={env.now:.0f}: workflow completed: {result}")
    print(f"final history: {engine.history_of('order-1')}")
    print(f"all side effects: {side_effects}")
    reserved = sum(1 for s in side_effects if s.startswith("reserved"))
    print(f"\n'reserve_stock' executed {reserved} time(s) despite the crash —")
    print("its completion was already in the history, so replay skipped it.")
    print(f"workflow replays: {engine.stats.replays}")


if __name__ == "__main__":
    main()
