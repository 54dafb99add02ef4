"""The microservice binder's three-round 2PC.

What the conformance suite (``test_apps_core``) cannot see: how many
sequential rounds a commit takes, that parallel prepare is deadlock-free
by construction rather than by timeout, that claims never leak, and that
a decision reaches every reachable participant.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.apps.core import AppSpec, EntitySpec, HandlerSpec, bind
from repro.apps.core.retry import with_shipped_txn, with_txn
from repro.apps.ledger import ledger_spec
from repro.chaos import Episode, run_trial
from repro.db.errors import TransactionAborted
from repro.db.server import DatabaseServer
from repro.messaging import RpcRemoteError, RpcTimeout
from repro.net import Latency
from repro.obs import Tracer
from repro.sim import Environment, SimulationError
from repro.workloads.transfers import TransferOp, TransferWorkload

SERVICES = ("accounts", "postings", "audit")


def ledger_binder(env, **opts):
    workload = TransferWorkload(num_accounts=4, initial_balance=100, amount=10)
    return bind("microservice", env, ledger_spec(workload), **opts)


def transfer(index, src=0, dst=1):
    account = TransferWorkload.account
    return TransferOp(f"xfer-{index}", account(src), account(dst), 10)


def run(env, gen):
    return env.run_until(env.process(gen))


def constant_latencies(binder, net_ms=1.0, db_ms=0.25):
    """Pin every sampler on the request path (the binder has no knob for
    them, and a test of exact round structure wants exact times)."""
    binder.app.net.default_latency = Latency.constant(net_ms)
    for db in binder.app.databases.values():
        db._rtt = Latency.constant(db_ms)
        db._service = Latency.constant(0.0)


def assert_nothing_held(binder, services=SERVICES):
    for service in services:
        assert binder.claims[service] == {}, service
        assert binder.prepared[service] == {}, service


# -- (a) round count ---------------------------------------------------------


def test_uncontended_transfer_takes_exactly_three_rounds():
    env = Environment(seed=3, tracer=Tracer())
    binder = ledger_binder(env)
    constant_latencies(binder)
    run(env, binder.setup())
    begun = env.now
    run(env, binder.execute(transfer(0)))

    rounds: dict[float, list] = {}
    for span in env.tracer.find("rpc.call"):
        rounds.setdefault(span.start, []).append(span)
    assert [sorted(s.tags["method"] for s in spans) for spans in rounds.values()] == [
        ["read", "read"],
        ["prepare", "prepare", "prepare"],
        ["commit_txn", "commit_txn", "commit_txn"],
    ]
    # Each round starts the instant the slowest call of the one before it
    # returns, and the commit is acknowledged when the last round is in.
    starts = list(rounds)
    ends = [max(span.end for span in spans) for spans in rounds.values()]
    assert starts == [begun, ends[0], ends[1]]
    assert env.now == ends[2]
    sequential = sum(s.duration for spans in rounds.values() for s in spans)
    assert env.now - begun < 0.5 * sequential


def test_prepare_reuses_the_versions_it_validated():
    """A written key that was also read costs no second read in prepare."""
    env = Environment(seed=3, tracer=Tracer())
    binder = ledger_binder(env)
    run(env, binder.setup())
    run(env, binder.execute(transfer(0)))
    gets = [s for s in env.tracer.find("db.get") if s.tags["db"] == "accounts-db"]
    assert len(gets) == 4  # two in the read round, two validations
    assert binder.snapshot()["accounts"][0]["balance"] == 90


# -- (b) deadlock freedom ----------------------------------------------------


@dataclass(frozen=True)
class PairOp:
    op_id: str
    left: int
    right: int


def two_hot_entities_spec():
    """Every op reads and writes one of two keys on each of two services:
    with parallel prepare, the shape on which two transactions each win one
    service and need the other."""

    def bump(ctx, op):
        left = yield from ctx.get("left", op.left)
        right = yield from ctx.get("right", op.right)
        yield from ctx.put("left", op.left, {"id": op.left, "n": left["n"] + 1})
        yield from ctx.put("right", op.right, {"id": op.right, "n": right["n"] + 1})
        return True

    def keys(op):
        return [("left", op.left), ("right", op.right)]

    rows = [{"id": 0, "n": 0}, {"id": 1, "n": 0}]
    return AppSpec(
        name="two-hot",
        entities=[EntitySpec("left"), EntitySpec("right")],
        handlers=[HandlerSpec("bump", bump, keys, keys)],
        initial_rows={"left": rows, "right": [dict(row) for row in rows]},
    )


def run_two_hot_entities(seed, clients=8, ops_per_client=40):
    env = Environment(seed=seed)
    binder = bind("microservice", env, two_hot_entities_spec())
    rng = env.stream("two-hot-ops")
    outcomes = {"committed": 0, "exhausted": 0, "other": []}

    def client(index):
        for i in range(ops_per_client):
            op = PairOp(f"c{index}-{i}", rng.randrange(2), rng.randrange(2))
            try:
                yield from binder.execute(op)
                outcomes["committed"] += 1
            except RuntimeError as exc:
                assert "validation retries exhausted" in str(exc)
                outcomes["exhausted"] += 1
            except Exception as exc:  # noqa: BLE001 - the test reports it
                outcomes["other"].append(repr(exc))

    def main():
        procs = [env.process(client(index)) for index in range(clients)]
        for proc in procs:
            yield proc

    run(env, binder.setup())
    run(env, main())
    return binder, outcomes


def check_two_hot_entities(seed):
    binder, outcomes = run_two_hot_entities(seed)
    assert outcomes["other"] == []  # in particular: no RpcTimeout
    assert outcomes["committed"] + outcomes["exhausted"] == 8 * 40
    assert outcomes["committed"] >= 0.9 * 8 * 40
    # No request was ever sent twice, so none waited out its timeout: no
    # conflict between two healthy transactions was resolved by one.
    for server in binder.app.rpc_servers.values():
        assert server.stats.deduplicated == 0
        assert server.stats.duplicate_executions == 0
    state = binder.snapshot()
    for entity in ("left", "right"):
        assert sum(row["n"] for row in state[entity]) == outcomes["committed"]
    assert_nothing_held(binder, ("left", "right"))


def test_parallel_prepare_is_deadlock_free_on_two_hot_entities():
    check_two_hot_entities(seed=7)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(1, 11))
def test_parallel_prepare_is_deadlock_free_seed_sweep(seed):
    check_two_hot_entities(seed)


# -- (c) claims never leak ---------------------------------------------------


def prepare_payload(txn_id, key="k", version=0, value=1):
    return {"txn_id": txn_id, "reads": [[key, version]],
            "writes": [[key, {"id": key, "balance": value}]]}


class TestClaims:
    def setup_method(self):
        self.env = Environment(seed=9)
        self.binder = ledger_binder(self.env, request_timeout=30.0)
        run(self.env, self.binder.setup())
        self.sent = 0

    def send(self, method, payload, service="accounts", retries=2):
        """One request with a fresh idempotency key (so a repeat executes)."""
        self.sent += 1
        return run(self.env, self.binder.request(
            service, method, payload, f"test-{self.sent}", retries=retries
        ))

    def assert_fresh_transaction_prepares(self, key="k"):
        assert_nothing_held(self.binder)
        version = self.send("read", {"key": key})["version"]
        payload = prepare_payload("fresh", key, version)
        assert self.send("prepare", payload) == "prepared"
        assert self.send("abort_txn", {"txn_id": "fresh"}) == "aborted"
        assert_nothing_held(self.binder)

    def test_claim_is_held_from_prepare_to_decision(self):
        assert self.send("prepare", prepare_payload("t1")) == "prepared"
        assert self.binder.claims["accounts"] == {"k": "t1"}
        # no-wait: a second transaction on the key is refused at once
        begun = self.env.now
        assert self.send("prepare", prepare_payload("t2")) == "conflict"
        assert self.env.now - begun < 5.0
        assert self.binder.claims["accounts"] == {"k": "t1"}
        assert self.send("commit_txn", {"txn_id": "t1"}) == "committed"
        self.assert_fresh_transaction_prepares()

    def test_released_on_abort(self):
        assert self.send("prepare", prepare_payload("t1")) == "prepared"
        assert self.send("abort_txn", {"txn_id": "t1"}) == "aborted"
        self.assert_fresh_transaction_prepares()

    def test_released_on_version_conflict(self):
        assert self.send("prepare", prepare_payload("t1", version=5)) == "conflict"
        self.assert_fresh_transaction_prepares()

    def test_released_when_the_prepare_body_raises(self):
        payload = prepare_payload("t1")
        payload["writes"] = [["k", {"balance": 1}], ["j", "not a row"]]
        with pytest.raises(RpcRemoteError):
            self.send("prepare", payload)
        self.assert_fresh_transaction_prepares()

    def test_redelivered_prepare_keeps_one_claim(self):
        assert self.send("prepare", prepare_payload("t1")) == "prepared"
        assert self.send("prepare", prepare_payload("t1")) == "prepared"
        assert self.binder.claims["accounts"] == {"k": "t1"}
        assert len(self.binder.prepared["accounts"]) == 1
        assert self.send("abort_txn", {"txn_id": "t1"}) == "aborted"
        self.assert_fresh_transaction_prepares()

    def test_decision_for_an_unknown_transaction_releases_nothing(self):
        assert self.send("prepare", prepare_payload("t1")) == "prepared"
        assert self.send("abort_txn", {"txn_id": "someone-else"}) == "aborted"
        assert self.binder.claims["accounts"] == {"k": "t1"}
        assert self.send("abort_txn", {"txn_id": "t1"}) == "aborted"
        assert_nothing_held(self.binder)

    def test_released_when_the_service_crashes_mid_prepare(self):
        app = self.binder.app
        self.env.schedule(1.5, app.crash_service, "accounts")  # mid local txn
        self.env.schedule(20.0, app.restart_service, "accounts")
        with pytest.raises(RpcTimeout):
            self.send("prepare", prepare_payload("t1"), retries=0)
        assert self.binder.claims["accounts"] == {}  # died with its prepare
        self.env.run(until=25.0)
        assert self.send("abort_txn", {"txn_id": "t1"}) == "aborted"
        self.assert_fresh_transaction_prepares()

    def test_nothing_held_after_contended_transfers(self):
        """End to end: conflicts, retries and commits leave no residue."""
        env, binder = self.env, self.binder
        ops = [transfer(i, src=i % 2, dst=1 - i % 2) for i in range(12)]

        def main():
            procs = [env.process(binder.execute(op)) for op in ops]
            for proc in procs:
                yield proc

        run(env, main())
        assert_nothing_held(binder)
        state = binder.snapshot()
        assert len(state["postings"]) == 12
        for invariant in binder.invariants():
            assert invariant.check(state) == []


# -- the decision reaches every reachable participant -------------------------


def test_abort_reaches_the_other_participants_when_one_is_unreachable():
    env = Environment(seed=4)
    binder = ledger_binder(env, request_timeout=20.0)
    net = binder.app.net
    run(env, binder.setup())
    op = transfer(0)

    def cut_accounts_once_prepared():
        while not binder.prepared["accounts"]:
            yield env.timeout(0.05)
        # its "prepared" reply, and every later message, is lost
        net.partition(["edge-client"], ["accounts"])

    env.process(cut_accounts_once_prepared())
    with pytest.raises(RpcTimeout) as excinfo:
        run(env, binder.execute(op))
    # the phase-1 failure, not the abort's delivery failure that followed it
    assert excinfo.value.method == "prepare" and excinfo.value.dst == "accounts"

    # The unreachable participant is still prepared; the reachable ones
    # heard the abort although accounts came first in the round.
    assert len(binder.prepared["accounts"]) == 1
    assert_nothing_held(binder, ("postings", "audit"))
    for service in ("postings", "audit"):
        reply = run(env, binder.request(
            service, "read", {"key": op.op_id}, f"after/{service}", retries=0
        ))
        assert reply == {"row": None, "version": 0}
    assert binder.ledger.applied_count == 0


def test_a_crash_mid_decision_does_not_acknowledge_an_uninstalled_commit():
    """The sound ledger chaos scenario at seed 26, shrunk to its one fault:
    accounts crashes for 10.6 ms while a ``commit_txn`` handler awaits its
    db round trip.  The redelivered decision must find the transaction
    still prepared and install it, not answer "committed" with the db
    branch left prepared while postings and audit installed."""
    crash = Episode(kind="crash", start=98.444, duration=10.626, target="accounts")
    result = run_trial("ledger", 26, episodes=[crash])
    assert result.violations == []


# -- one database round trip per local transaction ---------------------------

RTT, SERVICE = 1.0, 0.25


def pin_db_costs(server):
    server._rtt = Latency.constant(RTT)
    server._service = Latency.constant(SERVICE)


class TestOneRoundTripPerLocalTransaction:
    """A service ships each local transaction to its database whole
    (``DatabaseServer.ship``): ``network_rtt`` once per attempt, then each
    statement's service time; interactive clients still pay per statement."""

    def setup_method(self):
        self.env = Environment(seed=9, tracer=Tracer())
        self.binder = ledger_binder(self.env)
        for server in self.binder.app.databases.values():
            pin_db_costs(server)
        run(self.env, self.binder.setup())

    def handled(self, method, payload):
        """The handler time of one request to the accounts service."""
        reply = run(self.env, self.binder.request(
            "accounts", method, payload, f"test-{method}"
        ))
        (span,) = [s for s in self.env.tracer.find("rpc.handle")
                   if s.tags["method"] == method]
        return reply, span.duration

    def test_read_is_one_round_trip_and_three_statements(self):
        reply, took = self.handled("read", {"key": "k"})
        assert reply == {"row": None, "version": 0}
        assert took == pytest.approx(RTT + 3 * SERVICE)  # begin, get, commit

    @pytest.mark.parametrize("keys", [1, 2, 3])
    def test_prepare_is_one_round_trip_whatever_its_statement_count(self, keys):
        names = [f"k{i}" for i in range(keys)]
        payload = {"txn_id": "t1", "reads": [[k, 0] for k in names],
                   "writes": [[k, {"id": k, "balance": 1}] for k in names]}
        reply, took = self.handled("prepare", payload)
        assert reply == "prepared"
        # begin, a get and a put per key, prepare
        assert took == pytest.approx(RTT + (2 + 2 * keys) * SERVICE)


def shipped_ctx(env):
    server = DatabaseServer(env, name="d")
    pin_db_costs(server)
    server.create_table("t")
    server.load("t", [{"id": 1, "n": 0}])
    return SimpleNamespace(env=env, db=server)


def test_a_retried_shipped_attempt_pays_the_round_trip_again():
    env = Environment(seed=1)
    ctx = shipped_ctx(env)
    attempts = []

    def body(request):
        attempts.append(env.now)
        row = yield from request.get("t", 1)
        if len(attempts) == 1:
            raise TransactionAborted(0, "injected")
        return row["n"]

    assert run(env, with_shipped_txn(ctx, body)) == 0
    # begin | get, abort | backoff 1 ms | begin | get, commit
    first = RTT + 3 * SERVICE
    assert attempts == [RTT + SERVICE, first + 1.0 + RTT + SERVICE]
    assert env.now == pytest.approx(first + 1.0 + RTT + 3 * SERVICE)
    with pytest.raises(SimulationError):  # both attempts gave their connection back
        ctx.db._pool.release()


def test_an_interactive_transaction_still_pays_a_round_trip_per_statement():
    env = Environment(seed=1)
    ctx = shipped_ctx(env)

    def body(txn):
        row = yield from ctx.db.get(txn, "t", 1)
        yield from ctx.db.put(txn, "t", 1, dict(row, n=1))

    run(env, with_txn(ctx, body))
    assert env.now == pytest.approx(4 * (RTT + SERVICE))  # begin, get, put, commit
