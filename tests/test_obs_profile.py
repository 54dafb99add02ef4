"""The deterministic profiling layer: counts, reports, accounting."""

from repro.db import IsolationLevel
from repro.db.engine import Database
from repro.obs import CallCountProfiler, events_per_txn
from repro.sim import Environment


def _tiny_workload():
    env = Environment(seed=9)
    db = Database(env)
    db.create_table("kv")

    def writer(env):
        for i in range(10):
            txn = db.begin(IsolationLevel.SERIALIZABLE)
            yield from db.put(txn, "kv", i, {"id": i, "value": i})
            yield from db.commit(txn)
            yield env.timeout(1.0)

    env.run_until(env.process(writer(env)))
    return env, db


class TestCallCountProfiler:
    def test_counts_restricted_to_repro_code(self):
        with CallCountProfiler() as prof:
            _tiny_workload()
        rows = prof.counts()
        assert rows, "expected repro-code calls to be recorded"
        for subsystem, label, calls in rows:
            assert calls > 0
            assert "/" not in label and "\\" not in label  # no paths leak
        subsystems = {row[0] for row in rows}
        assert "sim" in subsystems and "db" in subsystems

    def test_counts_deterministic_across_runs(self):
        with CallCountProfiler() as first:
            _tiny_workload()
        with CallCountProfiler() as second:
            _tiny_workload()
        assert first.counts() == second.counts()

    def test_report_is_stable_text(self):
        with CallCountProfiler() as prof:
            _tiny_workload()
        report = prof.report(top=5, scenario="tiny")
        assert "# scenario: tiny" in report
        assert "calls by subsystem:" in report
        assert "top 5 functions by calls:" in report
        # Regenerating the report from the same profile is byte-stable.
        assert report == prof.report(top=5, scenario="tiny")

    def test_by_subsystem_sums_to_total(self):
        with CallCountProfiler() as prof:
            _tiny_workload()
        total = sum(calls for _subsystem, _label, calls in prof.counts())
        assert sum(prof.by_subsystem().values()) == total


class TestEventsPerTxn:
    def test_rounding(self):
        assert events_per_txn(2404, 240) == 10.02

    def test_zero_transactions_is_zero(self):
        assert events_per_txn(100, 0) == 0.0

    def test_matches_manual_division(self):
        env, _db = _tiny_workload()
        value = events_per_txn(env.events_executed, 10)
        assert value == round(env.events_executed / 10, 2)
