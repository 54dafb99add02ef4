"""Tests for the Styx-like deterministic transactional dataflow."""

import pytest

from repro.dataflow import TransactionalDataflow, TxnAbort
from repro.net.latency import Latency
from repro.sim import Environment
from repro.storage.object_store import ObjectStore, ObjectStoreServer


@pytest.fixture
def env():
    return Environment(seed=61)


def make_engine(env, **kwargs):
    kwargs.setdefault("epoch_interval", 5.0)
    kwargs.setdefault("checkpoint_every", 3)
    kwargs.setdefault(
        "checkpoint_store",
        ObjectStoreServer(env, ObjectStore(), latency=Latency.constant(2.0)),
    )
    engine = TransactionalDataflow(env, **kwargs)

    @engine.function("deposit")
    def deposit(ctx, key, amount):
        balance = ctx.get(key, 0)
        ctx.put(key, balance + amount)
        return balance + amount
        yield  # pragma: no cover

    @engine.function("transfer")
    def transfer(ctx, key, payload):
        # key = source account; payload names the destination.
        src_balance = ctx.get(key, 0)
        if src_balance < payload["amount"]:
            raise TxnAbort("insufficient funds")
        ctx.put(key, src_balance - payload["amount"])
        result = yield from ctx.call("deposit", payload["dst"], payload["amount"])
        return result

    @engine.function("read")
    def read(ctx, key, _payload):
        return ctx.get(key, 0)
        yield  # pragma: no cover

    return engine


def run(env, gen):
    return env.run_until(env.process(gen))


class TestBasics:
    def test_submit_and_commit(self, env):
        engine = make_engine(env)
        engine.start()
        fut = engine.submit("deposit", "a", 100, keys=["a"])
        env.run(until=50)
        assert fut.result() == 100
        assert engine.state_of("a") == 100

    def test_results_released_at_epoch_commit_not_before(self, env):
        engine = make_engine(env, epoch_interval=20.0)
        engine.start()
        fut = engine.submit("deposit", "a", 1, keys=["a"])
        env.run(until=10)
        assert not fut.done  # executed-or-not, nothing visible pre-epoch
        env.run(until=50)
        assert fut.done

    def test_unknown_function_rejected(self, env):
        engine = make_engine(env)
        with pytest.raises(KeyError):
            engine.submit("nope", "k")

    def test_duplicate_registration_rejected(self, env):
        engine = make_engine(env)
        with pytest.raises(ValueError):
            engine.register("deposit", lambda ctx, k, p: iter(()))

    def test_double_start_rejected(self, env):
        engine = make_engine(env)
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()


class TestTransactions:
    def test_cross_key_transfer_atomic(self, env):
        engine = make_engine(env)
        engine.start()
        engine.submit("deposit", "a", 100, keys=["a"])
        env.run(until=20)
        fut = engine.submit("transfer", "a", {"dst": "b", "amount": 30}, keys=["a", "b"])
        env.run(until=50)
        assert fut.result() == 30
        assert engine.state_of("a") == 70
        assert engine.state_of("b") == 30

    def test_abort_rolls_back_everything(self, env):
        engine = make_engine(env)
        engine.start()
        engine.submit("deposit", "a", 10, keys=["a"])
        env.run(until=20)
        fut = engine.submit(
            "transfer", "a", {"dst": "b", "amount": 999}, keys=["a", "b"]
        )
        env.run(until=50)
        assert fut.failed
        assert isinstance(fut.exception(), TxnAbort)
        assert engine.state_of("a") == 10
        assert engine.state_of("b") is None
        assert engine.stats.aborted == 1

    def test_conservation_under_many_concurrent_transfers(self, env):
        engine = make_engine(env)
        engine.start()
        accounts = [f"acct-{i}" for i in range(10)]
        for account in accounts:
            engine.submit("deposit", account, 100, keys=[account])
        env.run(until=20)
        rng = env.stream("test")
        futures = []
        for _ in range(50):
            src, dst = rng.sample(accounts, 2)
            futures.append(
                engine.submit(
                    "transfer", src, {"dst": dst, "amount": 10}, keys=[src, dst]
                )
            )
        env.run(until=400)
        assert all(f.done for f in futures)
        total = sum(engine.state_of(a) or 0 for a in accounts)
        assert total == 1000  # serializable: money conserved exactly

    def test_deterministic_order_equals_tid_order(self, env):
        """Conflicting txns apply in submission (TID) order."""
        engine = make_engine(env, epoch_interval=5.0)

        @engine.function("append")
        def append(ctx, key, value):
            log = ctx.get(key, [])
            ctx.put(key, log + [value])
            return None
            yield  # pragma: no cover

        engine.start()
        for i in range(5):
            engine.submit("append", "log", i, keys=["log"])
        env.run(until=100)
        assert engine.state_of("log") == [0, 1, 2, 3, 4]

    def test_non_conflicting_txns_share_waves(self, env):
        engine = make_engine(env)
        engine.start()
        for i in range(8):
            engine.submit("deposit", f"k{i}", 1, keys=[f"k{i}"])
        env.run(until=50)
        # 8 disjoint txns in one epoch -> one wave, not eight.
        assert engine.stats.waves <= 2
        assert engine.stats.committed == 8

    def test_undeclared_keys_serialize(self, env):
        engine = make_engine(env)
        engine.start()
        engine.submit("deposit", "a", 1, keys=["a"])
        engine.submit("deposit", "b", 1)  # undeclared: solo group
        engine.submit("deposit", "c", 1, keys=["c"])
        env.run(until=50)
        assert engine.stats.committed == 3
        assert engine.stats.waves >= 3


class TestExactlyOnceRecovery:
    def test_crash_recover_replays_to_identical_state(self, env):
        engine = make_engine(env, epoch_interval=5.0, checkpoint_every=2)
        engine.start()
        for i in range(10):
            env.schedule(
                8.0 * i, engine.submit, "deposit", f"k{i % 3}", 10, [f"k{i % 3}"]
            )
        env.run(until=150)
        state_before = engine.all_state()
        assert engine.stats.checkpoints >= 1
        engine.crash()
        run(env, engine.recover())
        env.run(until=200)
        assert engine.all_state() == state_before
        assert engine.stats.recoveries == 1

    def test_unreleased_futures_resolve_after_recovery(self, env):
        engine = make_engine(env, epoch_interval=50.0)
        engine.start()
        fut = engine.submit("deposit", "a", 5, keys=["a"])
        env.run(until=10)  # crash before the first epoch commit
        engine.crash()
        assert not fut.done
        run(env, engine.recover())
        env.run(until=20)
        assert fut.done
        assert fut.result() == 5
        assert engine.state_of("a") == 5

    def test_replay_does_not_double_apply(self, env):
        engine = make_engine(env, epoch_interval=5.0, checkpoint_every=100)
        engine.start()
        engine.submit("deposit", "a", 10, keys=["a"])
        env.run(until=50)  # committed, but never checkpointed
        assert engine.state_of("a") == 10
        engine.crash()
        run(env, engine.recover())
        env.run(until=100)
        assert engine.state_of("a") == 10  # exactly once, not 20

    def test_recovery_without_checkpoint_replays_full_log(self, env):
        engine = make_engine(env, epoch_interval=5.0, checkpoint_every=1000)
        engine.start()
        for i in range(5):
            engine.submit("deposit", "k", 1, keys=["k"])
        env.run(until=50)
        engine.crash()
        run(env, engine.recover())
        assert engine.state_of("k") == 5
        assert engine.stats.replayed == 5

    def test_submit_during_downtime_applies_once(self, env):
        # A submit while the engine is down lands in the durable input log
        # *and* the volatile pending queue; recovery replays the log, so the
        # pending copy must be dropped or the effect applies twice.
        engine = make_engine(env, epoch_interval=5.0, checkpoint_every=1000)
        engine.start()
        engine.submit("deposit", "a", 10, keys=["a"])
        env.run(until=50)
        engine.crash()
        fut = engine.submit("deposit", "a", 10, keys=["a"])  # during downtime
        run(env, engine.recover())
        env.run(until=100)
        assert fut.done and fut.result() == 20
        assert engine.state_of("a") == 20  # exactly once, not 30

    def test_recovered_engine_never_reissues_committed_tids(self, env):
        # A recovered instance whose env lost the tid counter must seed it
        # past the recovered result log, or the exactly-once dedup would
        # swallow the release of a fresh transaction.
        engine = make_engine(env, epoch_interval=5.0, checkpoint_every=1)
        engine.start()
        for _ in range(3):
            engine.submit("deposit", "a", 10, keys=["a"])
        env.run(until=50)
        engine.crash()
        # Simulate a fresh-process recovery: the counter state is gone.
        issued_before = env._counters.pop("dataflow-tid")
        assert issued_before == 3
        run(env, engine.recover())
        fut = engine.submit("deposit", "b", 7, keys=["b"])
        env.run(until=100)
        # Released, applied once, and numbered above every recovered tid.
        assert fut.done and fut.result() == 7
        assert engine.state_of("b") == 7
        assert engine.state_of("a") == 30
        assert env._counters["dataflow-tid"] > issued_before


class TestCosts:
    def test_cross_partition_calls_counted_and_charged(self, env):
        engine = make_engine(env)
        engine.start()
        # Find two keys on different partitions.
        keys = [f"k{i}" for i in range(20)]
        src = keys[0]
        dst = next(k for k in keys if engine._partition(k) != engine._partition(src))
        engine.submit("deposit", src, 100, keys=[src])
        env.run(until=20)
        engine.submit("transfer", src, {"dst": dst, "amount": 5}, keys=[src, dst])
        env.run(until=60)
        assert engine.stats.cross_partition_calls == 1

    def test_epoch_batching_amortizes_commit(self, env):
        """Many txns per epoch: commits (epochs) far fewer than txns."""
        engine = make_engine(env, epoch_interval=20.0)
        engine.start()
        for i in range(40):
            engine.submit("deposit", f"k{i}", 1, keys=[f"k{i}"])
        env.run(until=100)
        assert engine.stats.committed == 40
        assert engine.stats.epochs <= 3


# -- bounded state: delta checkpoints, log truncation, compaction -------------


class RecordingStore(ObjectStore):
    """Remembers what was written and deleted, and when (virtual time)."""

    def __init__(self, env):
        super().__init__()
        self.env = env
        self.puts = []  # (time, key, size)
        self.deletes = []  # (time, key)

    def put(self, bucket, key, obj, size=1):
        super().put(bucket, key, obj, size=size)
        self.puts.append((self.env.now, key, size))

    def delete(self, bucket, key):
        self.deletes.append((self.env.now, key))
        return super().delete(bucket, key)

    def delta_sizes(self, since=0.0):
        return [
            size for at, key, size in self.puts
            if key.startswith("delta-") and at >= since
        ]

    def longest_gap(self):
        """Longest virtual time between two delta uploads landing."""
        times = [0.0] + [at for at, key, _ in self.puts if key.startswith("delta-")]
        return max(later - earlier for earlier, later in zip(times, times[1:]))

    def interval_submits(self):
        """Postings arriving in the longest gap between two delta uploads."""
        return submits_within(self.longest_gap())

    def durable_position(self):
        """Highest input-log position any stored checkpoint object covers."""
        return max(
            (int(key.rpartition("-")[2]) for key in self.list("txn-dataflow")),
            default=0,
        )


PER_EPOCH = 4  # postings submitted per epoch interval
CHECKPOINT_EVERY = 3
KEYS_PER_POSTING = 4  # src, dst, the posting row, one deleted posting row


def submits_within(span):
    """Most postings ``submit_postings`` makes in any ``span`` ms."""
    return PER_EPOCH * (int(span / 5.0) + 1)


def ledger_engine(seed=61, checkpoint_every=CHECKPOINT_EVERY, store_latency=2.0):
    """An engine whose state grows by one key per transaction, like the ledger."""
    env = Environment(seed=seed)
    store = RecordingStore(env)
    engine = make_engine(
        env,
        checkpoint_every=checkpoint_every,
        checkpoint_store=ObjectStoreServer(
            env, store, latency=Latency.constant(store_latency)
        ),
    )

    @engine.function("post")
    def post(ctx, key, payload):
        balance = ctx.get(key, 0)
        if balance < payload["amount"]:
            raise TxnAbort("insufficient funds")
        ctx.put(key, balance - payload["amount"])
        yield from ctx.call("deposit", payload["dst"], payload["amount"])
        ctx.put(f"posting/{payload['n']}", dict(payload))
        if payload["n"] % 7 == 0:
            ctx.delete(f"posting/{payload['n'] - 5}")
        return payload["n"]

    return env, store, engine


def submit_time(n):
    return 1.0 + 5.0 * (n // PER_EPOCH)


def quiesce(env, count):
    """Run until every one of ``count`` postings has long since committed."""
    env.run(until=submit_time(count) + 300.0)


def submit_postings(env, engine, count):
    """``PER_EPOCH`` postings per epoch interval from t=1; returns the futures."""
    accounts = [f"acct-{i}" for i in range(6)]
    futures = []

    def submit(n):
        src, dst = accounts[n % 6], accounts[(n * 5 + 1) % 6]
        amount = 10_000 if n % 12 == 5 else 3  # every twelfth aborts
        futures.append(engine.submit(
            "post", src, {"n": n, "dst": dst, "amount": amount},
            keys=[src, dst, f"posting/{n}", f"posting/{n - 5}"],
        ))

    for account in accounts[:5]:
        engine.submit("deposit", account, 50, keys=[account])
    for n in range(count):
        env.schedule(submit_time(n), submit, n)
    return futures


def outcomes(futures):
    return [
        repr(future.exception()) if future.failed else future.result()
        for future in futures
    ]


class TestBoundedState:
    def test_checkpoint_bytes_and_log_are_flat_in_history(self):
        env, store, engine = ledger_engine()
        engine.start()
        n = 200
        futures = submit_postings(env, engine, 8 * n)
        env.run(until=submit_time(n))
        # One checkpoint interval's submits bound the upload and the log
        # (which also holds the epoch in flight), whatever the history.
        interval = store.interval_submits()
        bound = KEYS_PER_POSTING * interval + 1
        assert engine.stats.committed + engine.stats.aborted > n - 2 * interval
        early = store.delta_sizes()
        assert early and max(early) <= bound
        assert len(engine._input_log) <= 2 * interval
        mark, early_state = env.now, len(engine.all_state())
        quiesce(env, 8 * n)
        assert all(future.done for future in futures)
        late = store.delta_sizes(since=mark)
        # Eight times the history, several times the state, the same upload.
        assert len(engine.all_state()) > 5 * early_state > bound
        assert len(late) > 4 * len(early)
        assert store.interval_submits() == interval
        assert max(late) <= bound
        assert len(engine._input_log) <= 2 * interval
        stats = engine.stats
        assert stats.checkpoint_keys == sum(store.delta_sizes()) - stats.checkpoints
        assert stats.log_truncated + len(engine._input_log) == stats.submitted

    @pytest.mark.parametrize("store_latency", [2.0, 12.0])
    def test_log_peak_spans_one_interval_and_one_upload(self, store_latency):
        env, store, engine = ledger_engine(store_latency=store_latency)
        engine.start()
        submit_postings(env, engine, 480)
        quiesce(env, 480)
        stats = engine.stats
        # The store keeps up: one delta in flight at a time, none waiting.
        assert stats.peak_uploads_queued == 1
        # The log holds the deltas' interval (``checkpoint_every`` epochs),
        # the epoch being collected and what arrives while a delta uploads.
        gap = store.longest_gap()
        epoch = gap / CHECKPOINT_EVERY
        upload = store_latency + 0.01 * max(store.delta_sizes())
        assert stats.peak_log_length <= submits_within(gap + epoch + upload)
        # Nothing is truncated before a delta covering a whole interval lands.
        assert stats.peak_log_length >= PER_EPOCH * CHECKPOINT_EVERY

    def test_compaction_bounds_the_delta_chain(self):
        env, store, engine = ledger_engine()
        engine.start()
        submit_postings(env, engine, 1200)
        quiesce(env, 1200)
        assert engine.stats.compactions >= 3
        names = store.list("txn-dataflow")
        assert len([name for name in names if name.startswith("base-")]) == 1
        deltas = [name for name in names if name.startswith("delta-")]
        assert len(deltas) < engine.stats.checkpoints / 3
        # A base is durable before anything it covers is deleted.
        base_put = {key: at for at, key, _size in store.puts if key.startswith("base-")}
        for at, key in store.deletes:
            covered_by = [
                put_at for base, put_at in base_put.items()
                if int(base.rpartition("-")[2]) >= int(key.rpartition("-")[2])
            ]
            assert covered_by and min(covered_by) <= at


class TestRecoveryEquivalence:
    COUNT = 480
    DOWNTIME = 12.0

    def reference(self):
        env, store, engine = ledger_engine()
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        quiesce(env, self.COUNT)
        return store, engine.all_state(), outcomes(futures)

    def crashed_run(self, crash_at):
        env, store, engine = ledger_engine()
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        seen = {}

        def crash():
            engine.crash()
            seen["durable"] = store.durable_position()

        def recover():
            yield from engine.recover()
            seen["submitted"] = engine.stats.submitted

        env.schedule(crash_at, crash)
        env.schedule(crash_at + self.DOWNTIME, lambda: env.process(recover()))
        quiesce(env, self.COUNT)
        return engine, futures, seen

    def test_crash_at_any_instant_recovers_the_uncrashed_run(self):
        store, state, released = self.reference()
        first_delta = min(at for at, key, _ in store.puts if key.startswith("delta-"))
        first_base = min(at for at, key, _ in store.puts if key.startswith("base-"))
        ninth_delta = sorted(
            at for at, key, _ in store.puts if key.startswith("delta-")
        )[8]
        last_submit = submit_time(self.COUNT)
        instants = {
            "before the first checkpoint": first_delta - 3.0,
            "upload in flight": first_delta - 0.5,
            "mid-epoch": 6.05,
            "between deltas": first_delta + 4.0,
            "compactor reading": ninth_delta + 7.0,
            "base upload in flight": first_base - 0.5,
            "base durable, deltas not yet deleted": first_base + 1.0,
            "late in the run": last_submit - 40.0,
        }
        assert first_delta - 3.0 > 1.0 and first_base > ninth_delta + 7.0
        for label, crash_at in instants.items():
            engine, futures, seen = self.crashed_run(crash_at)
            assert engine.all_state() == state, label
            assert outcomes(futures) == released, label
            assert engine.stats.recoveries == 1
            # Replay covers only what no durable checkpoint does ...
            assert engine.stats.replayed <= seen["submitted"] - seen["durable"], label
        # ... which late in a run is one checkpoint interval plus the
        # downtime's submits, not the history.
        downtime_submits = PER_EPOCH * (int(self.DOWNTIME / 5.0) + 1)
        assert engine.stats.replayed <= 2 * store.interval_submits() + downtime_submits
        assert seen["durable"] > self.COUNT / 2

    #: Tier-1 crashes at every STRIDE-th kernel event; ``-m chaos`` covers
    #: the other residues, so together they crash at every event.
    STRIDE = 97

    def crash_after_events(self, events):
        """Crash once ``events`` kernel events have run; recover after DOWNTIME."""
        env, store, engine = ledger_engine()
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        for _ in range(events):
            assert env.step()
        engine.crash()
        durable = store.durable_position()
        submitted = engine.stats.submitted
        env.schedule(self.DOWNTIME, lambda: env.process(engine.recover()))
        # A crash late in the run still gets its recovery and replay.
        env.run(until=max(submit_time(self.COUNT), env.now + self.DOWNTIME) + 300.0)
        return engine, futures, durable, submitted

    def check_crashes_at_events(self, offset):
        store, state, released = self.reference()
        env, _store, engine = ledger_engine()
        engine.start()
        submit_postings(env, engine, self.COUNT)
        quiesce(env, self.COUNT)
        total = env.events_executed
        for events in range(offset, total, self.STRIDE):
            engine, futures, durable, submitted = self.crash_after_events(events)
            assert engine.all_state() == state, events
            assert outcomes(futures) == released, events
            assert engine.stats.recoveries == 1, events
            # Submits during the downtime replay too; none below a durable delta.
            assert engine.stats.replayed <= engine.stats.submitted - durable, events

    def test_crash_at_every_strided_kernel_event(self):
        self.check_crashes_at_events(0)

    @pytest.mark.chaos
    @pytest.mark.parametrize("offset", range(1, STRIDE))
    def test_crash_at_every_kernel_event(self, offset):
        self.check_crashes_at_events(offset)

    def test_delta_put_in_flight_at_crash_lands_and_is_folded(self):
        _store, state, released = self.reference()
        env, store, engine = ledger_engine()
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        while not engine._uploads:
            assert env.step()
        position = engine._uploads[0][0]
        env.run(until=env.now + 1.0)  # the put takes 2 ms and more
        assert store.durable_position() < position  # the put is in flight
        engine.crash()
        env.run(until=env.now + self.DOWNTIME)
        assert store.durable_position() == position  # ... and landed anyway
        env.run_until(env.process(engine.recover()))
        # Recovery folded the delta and replays only the log above it.
        assert engine._chain == [position] and engine._log_base == position
        quiesce(env, self.COUNT)
        assert engine.all_state() == state
        assert outcomes(futures) == released

    def test_second_crash_during_recovery(self):
        _store, state, released = self.reference()
        env, store, engine = ledger_engine()
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        for at in (150.0, 153.0):  # the second lands mid-restore of the first
            env.schedule(at, engine.crash)
            env.schedule(at + 1.0, lambda: env.process(engine.recover()))
        quiesce(env, self.COUNT)
        assert engine.all_state() == state
        assert outcomes(futures) == released
        assert engine.stats.recoveries == 2


class TestQueuedUploads:
    """Deltas cut faster than the store takes them wait for one uploader."""

    COUNT = 240
    SLOW = 12.0  # object-store latency, longer than the 5 ms epoch interval
    DOWNTIME = 12.0

    def run_postings(self, crash_after=None):
        env, store, engine = ledger_engine(checkpoint_every=1, store_latency=self.SLOW)
        engine.start()
        futures = submit_postings(env, engine, self.COUNT)
        seen = {}

        def crash_with_uploads_queued():
            yield env.timeout(crash_after)
            while len(engine._uploads) < 2:
                yield env.timeout(0.25)
            seen["queued"] = [position for position, _, _ in engine._uploads]
            seen["landed"] = store.durable_position()
            seen["chain"] = list(engine._chain)
            seen["log"] = (engine._log_base, len(engine._input_log))
            seen["submitted"] = engine.stats.submitted
            engine.crash()
            yield env.timeout(self.DOWNTIME)
            yield from engine.recover()

        if crash_after is not None:
            env.process(crash_with_uploads_queued())
        quiesce(env, self.COUNT)
        return store, engine, futures, seen

    @pytest.mark.parametrize("crash_after", [20.0, 90.0, 250.0])
    def test_crash_with_two_uploads_queued_recovers_the_uncrashed_run(
        self, crash_after
    ):
        _store, reference, reference_futures, _seen = self.run_postings()
        store, engine, futures, seen = self.run_postings(crash_after)
        assert reference.stats.peak_uploads_queued >= 2
        assert engine.all_state() == reference.all_state()
        assert outcomes(futures) == outcomes(reference_futures)
        assert engine.stats.recoveries == 1
        # Before the crash: the chain was in position order and every
        # queued delta sat above it, none of them yet in the store ...
        queued, chain = seen["queued"], seen["chain"]
        assert len(queued) >= 2
        assert chain == sorted(set(chain)) and queued == sorted(set(queued))
        assert not chain or chain[-1] < queued[0]
        assert seen["landed"] < queued[0]
        # ... and the log held every entry above the newest landed delta.
        log_base, log_length = seen["log"]
        assert log_base <= seen["landed"]
        assert log_base + log_length == seen["submitted"]
        # The queue died with the crash: only the delta in flight could
        # still land, and none waiting behind it ever did.
        put = {key for _at, key, _size in store.puts}
        assert not any(f"delta-{position:012d}" in put for position in queued[1:])
        # The recovered engine's own deltas did not wait behind dead ones.
        assert not engine._uploads
        assert engine._chain == sorted(set(engine._chain))
