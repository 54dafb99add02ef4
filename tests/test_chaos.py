"""Tests for the repro.chaos fuzzing subsystem.

Unit coverage for the budget/nemesis/history/oracle layers, pinned-seed
smoke trials across every runtime (the determinism contract), the
broken-config detection + shrink + replay acceptance path, and an opt-in
``chaos``-marked fuzz sweep that stays out of tier-1.
"""

import pytest

from repro.apps.core import compile_oracles
from repro.apps.ledger import ledger_spec
from repro.chaos import (
    CONTROL_RUNTIMES,
    ChaosConfig,
    Episode,
    History,
    Nemesis,
    ReproArtifact,
    RUNTIMES,
    SagaAtomicityOracle,
    SnapshotAuditOracle,
    compile_plan,
    run_trial,
    shrink,
)
from repro.core.faults import FaultPlanError
from repro.sim import Environment
from repro.workloads.transfers import TransferOp, TransferWorkload

SMOKE_SEED = 11


class TestChaosConfig:
    def test_defaults_valid(self):
        config = ChaosConfig()
        assert config.episodes == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0},
            {"settle": -1},
            {"episodes": -1},
            {"fault_classes": ("crash", "meteor")},
            {"max_concurrent_faults": 0},
            {"min_heal_window": -5},
            {"downtime": (50, 20)},
            {"loss_rate": (-0.1, 0.2)},
            {"partitionable": ("only-one",)},
        ],
    )
    def test_invalid_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)

    def test_effective_classes_drops_untargetable_kinds(self):
        config = ChaosConfig(crashable=(), partitionable=())
        assert config.effective_classes() == ("loss", "duplication", "delay")
        config = ChaosConfig(crashable=("a",), partitionable=("a", "b"))
        assert config.effective_classes() == (
            "crash", "partition", "loss", "duplication", "delay"
        )
        config = ChaosConfig(
            crashable=("a",), partitionable=("a", "b"), leader_groups=("g0",)
        )
        assert config.effective_classes() == ChaosConfig.__dataclass_fields__[
            "fault_classes"
        ].default

    def test_dict_roundtrip(self):
        config = ChaosConfig(crashable=("x", "y"), episodes=2)
        assert ChaosConfig.from_dict(config.to_dict()) == config


class TestNemesis:
    def _budget(self, **kwargs):
        kwargs.setdefault("crashable", ("a", "b"))
        kwargs.setdefault("partitionable", ("a", "b", "c"))
        return ChaosConfig(**kwargs)

    def test_same_seed_same_schedule(self):
        config = self._budget(episodes=6)
        one = Nemesis(config).generate(Environment(seed=7).stream("nemesis"))
        two = Nemesis(config).generate(Environment(seed=7).stream("nemesis"))
        assert one == two and one  # identical and non-empty

    def test_episodes_respect_budget(self):
        config = self._budget(episodes=6, max_concurrent_faults=1)
        episodes = Nemesis(config).generate(Environment(seed=3).stream("nemesis"))
        assert 0 < len(episodes) <= config.episodes
        for episode in episodes:
            assert 0 <= episode.start and episode.end <= config.horizon
            assert episode.kind in config.effective_classes()
        # max_concurrent_faults=1: no two episodes may overlap at all.
        for i, a in enumerate(episodes):
            for b in episodes[i + 1:]:
                assert not a.overlaps(b)

    def test_same_kind_episodes_serialized_with_heal_window(self):
        config = self._budget(episodes=8, max_concurrent_faults=3)
        episodes = Nemesis(config).generate(Environment(seed=5).stream("nemesis"))
        by_kind: dict = {}
        for episode in episodes:
            by_kind.setdefault(episode.kind, []).append(episode)
        for kind, group in by_kind.items():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    if kind == "crash" and a.target != b.target:
                        continue
                    assert not a.overlaps(b, gap=config.min_heal_window)

    def test_empty_budget_yields_no_episodes(self):
        config = ChaosConfig(fault_classes=("crash",), crashable=())
        assert Nemesis(config).generate(Environment(seed=1).stream("n")) == []

    def test_episode_dict_roundtrip(self):
        episode = Episode(kind="partition", start=10.0, duration=40.0,
                          group_a=("a",), group_b=("b", "c"))
        assert Episode.from_dict(episode.to_dict()) == episode


class TestCompilePlan:
    def test_event_shapes(self):
        plan = compile_plan([
            Episode(kind="crash", start=10.0, duration=30.0, target="n1"),
            Episode(kind="partition", start=60.0, duration=40.0,
                    group_a=("n1",), group_b=("n2",)),
            Episode(kind="loss", start=120.0, duration=20.0, rate=0.2),
        ])
        kinds = [e.kind for e in plan.events]
        # crash -> crash+restart, partition -> partition+heal, burst -> one
        # event whose restore happens at apply time.
        assert kinds == ["crash", "restart", "partition", "heal", "loss"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            compile_plan([Episode(kind="meteor", start=0.0, duration=1.0)])

    def test_invalid_compiled_plan_rejected(self):
        # Validation runs at compile time, not at apply time.
        with pytest.raises(FaultPlanError):
            compile_plan([Episode(kind="loss", start=5.0, duration=10.0, rate=7.5)])


class TestHistory:
    def test_invoke_complete_pairing(self):
        history = History()
        history.invoke(1.0, "c0", "op-1", "transfer")
        with pytest.raises(ValueError):
            history.invoke(2.0, "c0", "op-1", "transfer")
        history.ok(3.0, "op-1", value=42)
        with pytest.raises(ValueError):
            history.fail(4.0, "op-1")  # already completed
        assert history.ok_ops("transfer") == ["op-1"]

    def test_close_pending_marks_info(self):
        history = History()
        history.invoke(1.0, "c0", "op-1", "transfer")
        history.invoke(2.0, "c1", "op-2", "transfer")
        history.ok(3.0, "op-2")
        assert history.close_pending(10.0) == 1
        assert [e.op_id for e in history.completions("info")] == ["op-1"]
        assert history.counts() == {"invoke": 2, "ok": 1, "fail": 0, "info": 1}

    def test_digest_is_content_sensitive(self):
        def build(value):
            history = History()
            history.invoke(1.0, "c0", "op-1", "transfer")
            history.ok(2.0, "op-1", value=value)
            return history

        assert build(10).digest() == build(10).digest()
        assert build(10).digest() != build(11).digest()


class TestOracles:
    """The ledger spec's compiled oracles judge each posting's outcome
    against the final state: the exactly-once contract (``ok`` applied
    once, ``fail`` never, ``info`` at most once) read off the op-keyed
    posting rows, with no search over unknown outcomes."""

    WORKLOAD = TransferWorkload(num_accounts=3, initial_balance=100)
    A, B, C = (TransferWorkload.account(i) for i in range(3))
    OPS = {
        "t1": TransferOp("t1", A, B, 10),
        "t2": TransferOp("t2", B, C, 7),
        "t3": TransferOp("t3", C, A, 3),
    }

    def _state(self, applied=(), torn=()):
        """Postings in ``applied`` land whole (a repeat lands twice);
        those in ``torn`` land their debit leg alone."""
        balances = {row["id"]: row["balance"]
                    for row in self.WORKLOAD.initial_rows()}
        postings = {}
        for op_id in applied:
            op = self.OPS[op_id]
            balances[op.src] -= op.amount
            balances[op.dst] += op.amount
            postings[op_id] = {"id": op_id, "src": op.src, "dst": op.dst,
                               "amount": op.amount}
        for op_id in torn:
            balances[self.OPS[op_id].src] -= self.OPS[op_id].amount
        return {
            "accounts": [{"id": a, "balance": b} for a, b in balances.items()],
            "postings": list(postings.values()),
            "audit": [dict(row) for row in postings.values()],
        }

    def _flagged(self, outcomes, state):
        history = History()
        for op_id, outcome in outcomes.items():
            history.invoke(1.0, "c0", op_id, "posting")
            getattr(history, outcome)(2.0, op_id)
        oracles = compile_oracles(ledger_spec(self.WORKLOAD))
        return sorted({v.invariant for oracle in oracles
                       for v in oracle.check(history, state)})

    def test_conservation(self):
        # A torn posting: the debit landed, the credit and the row did not.
        assert self._flagged({"t1": "ok"}, self._state(["t1"])) == []
        flagged = self._flagged({"t1": "ok", "t2": "info"},
                                self._state(["t1"], torn=["t2"]))
        assert "conservation(accounts.balance)" in flagged

    def test_exactly_once_ok_must_apply(self):
        assert self._flagged({"t1": "ok"}, self._state(["t1"])) == []
        # acknowledged but lost
        assert self._flagged({"t1": "ok"}, self._state()) == [
            "applied_exactly(postings)"
        ]

    def test_exactly_once_fail_must_not_apply(self):
        assert self._flagged({"t1": "fail"}, self._state()) == []
        # reported failed, yet its posting row committed
        assert self._flagged({"t1": "fail"}, self._state(["t1"])) == [
            "applied_exactly(postings)"
        ]

    def test_exactly_once_info_may_go_either_way(self):
        assert self._flagged({"t1": "info"}, self._state(["t1"])) == []
        assert self._flagged({"t1": "info"}, self._state()) == []
        # applied twice: balances moved twice under one posting row
        assert self._flagged({"t1": "info"}, self._state(["t1", "t1"])) == [
            "double_entry(accounts<-postings)"
        ]

    def test_exactly_once_subset_search(self):
        # Which unknown-outcome postings applied is read off the posting
        # rows: t2 did, t3 did not, and nothing needs a subset search.
        outcomes = {"t1": "ok", "t2": "info", "t3": "info"}
        assert self._flagged(outcomes, self._state(["t1", "t2"])) == []
        assert self._flagged(outcomes, self._state(["t2"])) == [
            "applied_exactly(postings)"
        ]

    def test_snapshot_audit(self):
        oracle = SnapshotAuditOracle(1200)
        history = History()
        history.invoke(1.0, "auditor", "audit-001", "audit")
        history.ok(2.0, "audit-001", value=1200)
        history.invoke(3.0, "auditor", "audit-002", "audit")
        history.ok(4.0, "audit-002", value=1190)
        violations = oracle.check(history, None)
        assert len(violations) == 1 and "audit-002" in violations[0].detail

    def test_saga_atomicity_cross_checks_history(self):
        class StubWorkload:
            def invariants(self):
                return []

        oracle = SagaAtomicityOracle(StubWorkload())
        history = History()
        history.invoke(1.0, "c0", "ok-no-row", "checkout")
        history.ok(2.0, "ok-no-row")
        history.invoke(3.0, "c0", "fail-with-row", "checkout")
        history.fail(4.0, "fail-with-row")
        state = {"orders": [{"id": "fail-with-row"}]}
        details = [v.detail for v in oracle.check(history, state)]
        assert len(details) == 2
        assert any("acknowledged checkout has no order row" in d for d in details)
        assert any("failed checkout left an order row" in d for d in details)


class TestTrials:
    """Pinned-seed integration: the acceptance contract of the subsystem."""

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError):
            run_trial("mainframe", 1)

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_smoke_clean_and_deterministic(self, runtime):
        first = run_trial(runtime, SMOKE_SEED)
        second = run_trial(runtime, SMOKE_SEED)
        assert first.violations == [], first.summary()
        assert first.plan.events, "nemesis produced an empty schedule"
        assert first.history.counts()["invoke"] > 0
        # Same seed, same build: byte-identical schedule and history.
        assert first.plan_json == second.plan_json
        assert first.history_digest == second.history_digest
        if first.scenario.audit_interval is not None:
            assert first.history.ok_ops("audit"), "no mid-run audit succeeded"

    def test_golden_equivalence_fast_path(self):
        # The kernel fast path must not change a chaos trial's observable
        # behavior: same schedule, same history, same verdicts.
        fast = run_trial("actor", SMOKE_SEED, fast_path=True)
        slow = run_trial("actor", SMOKE_SEED, fast_path=False)
        assert fast.plan_json == slow.plan_json
        assert fast.history_digest == slow.history_digest
        assert fast.violations == slow.violations == []

    def test_broken_config_detected_shrunk_and_replayable(self):
        # ActorBank in plain (non-transactional) mode loses money under
        # message-level faults; the detector must catch it, the shrinker
        # must minimize the schedule, and the artifact must replay exactly.
        seed = 1
        result = run_trial("actor", seed, broken=True)
        assert result.violations, "broken actor config went undetected"
        report = shrink("actor", seed, result.episodes, broken=True)
        assert report.final_events <= 3
        assert report.final_events <= report.initial_events
        assert report.result.violations
        artifact = ReproArtifact.from_result(report.result)
        restored = ReproArtifact.from_json(artifact.to_json())
        assert restored == artifact
        replayed = restored.replay()
        assert restored.matches(replayed), replayed.summary()

    @pytest.mark.parametrize("runtime", ["dataflow", "faas"])
    def test_broken_refused_without_an_unsound_control(self, runtime):
        # Running the sound config under --broken would report a detector
        # miss that is no miss at all: refuse, naming the runtimes that can.
        assert runtime not in CONTROL_RUNTIMES
        with pytest.raises(ValueError, match="no unsound control") as info:
            run_trial(runtime, SMOKE_SEED, broken=True)
        assert all(name in str(info.value) for name in CONTROL_RUNTIMES)

    def test_chaoscheck_broken_runs_only_control_runtimes(self, monkeypatch):
        import importlib.util
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                            "chaoscheck.py")
        spec = importlib.util.spec_from_file_location("chaoscheck", path)
        chaoscheck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(chaoscheck)
        fuzzed = []
        monkeypatch.setattr(
            chaoscheck, "fuzz", lambda runtime, *args: fuzzed.append(runtime) or 0
        )
        assert chaoscheck.main(["--broken"]) == 0
        assert fuzzed == list(CONTROL_RUNTIMES)
        assert set(RUNTIMES) - set(CONTROL_RUNTIMES) == {"dataflow", "faas"}
        with pytest.raises(SystemExit) as usage:
            chaoscheck.main(["--broken", "--runtime", "dataflow"])
        assert usage.value.code == 2
        assert fuzzed == list(CONTROL_RUNTIMES)  # nothing ran

    def test_saga_checkout_is_not_compensated_past_its_pivot(self):
        """Seed 341 times out ``orders.create`` after the create landed.
        The charge is the checkout's pivot, so finalizing retries forward
        instead of refunding a charge whose order row stays."""
        result = run_trial("microservice", 341)
        assert result.violations == [], result.summary()
        outcomes = {
            event.action for event in result.history.events
            if event.op_id == "order-000001"
        }
        assert outcomes == {"invoke", "ok"}

    def test_artifact_version_gate(self):
        artifact = ReproArtifact(runtime="actor", seed=1, broken=True,
                                 fast_path=True, plan={"events": []})
        bad = artifact.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            ReproArtifact.from_json(bad)


@pytest.mark.chaos
class TestFuzzSweep:
    """Long randomized sweep; opt in with ``-m chaos``."""

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_correct_configs_survive_many_seeds(self, runtime):
        for seed in range(1, 13):
            result = run_trial(runtime, seed)
            assert result.violations == [], (runtime, seed, result.summary())
