"""Unit tests for the hierarchical lock manager and deadlock detection."""

import hashlib
import random

import pytest

from repro.db.errors import DeadlockAbort
from repro.db.locks import (
    _COMBINE,
    _COMPATIBLE,
    LockManager,
    LockMode,
    combine,
    compatible,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=1)


@pytest.fixture
def lm(env):
    return LockManager(env)


class TestCompatibility:
    def test_shared_locks_coexist(self):
        assert compatible(LockMode.S, LockMode.S)

    def test_exclusive_conflicts_with_everything(self):
        for mode in LockMode:
            assert not compatible(LockMode.X, mode)

    def test_intention_locks_coexist(self):
        assert compatible(LockMode.IS, LockMode.IX)
        assert compatible(LockMode.IX, LockMode.IX)

    def test_table_scan_conflicts_with_writer_intent(self):
        assert not compatible(LockMode.S, LockMode.IX)

    def test_combine_upgrades(self):
        assert combine(LockMode.S, LockMode.X) is LockMode.X
        assert combine(LockMode.IS, LockMode.S) is LockMode.S
        assert combine(LockMode.IX, LockMode.S) is LockMode.X
        assert combine(LockMode.S, LockMode.S) is LockMode.S

    def test_mode_tables_match_the_matrices(self):
        for a in LockMode:
            for b in LockMode:
                assert compatible(a, b) is _COMPATIBLE[(a, b)]
                expected = a if a is b else (
                    _COMBINE.get((a, b)) or _COMBINE.get((b, a)) or LockMode.X
                )
                assert combine(a, b) is expected


class TestGrants:
    def test_immediate_grant_when_free(self, env, lm):
        fut = lm.acquire(1, "r", LockMode.X)
        assert fut.done

    def test_shared_granted_concurrently(self, env, lm):
        assert lm.acquire(1, "r", LockMode.S).done
        assert lm.acquire(2, "r", LockMode.S).done
        assert lm.holders("r") == {1: LockMode.S, 2: LockMode.S}

    def test_exclusive_blocks_second(self, env, lm):
        assert lm.acquire(1, "r", LockMode.X).done
        fut = lm.acquire(2, "r", LockMode.X)
        assert not fut.done
        lm.release_all(1)
        env.run()
        assert fut.done

    def test_reacquire_same_mode_is_noop(self, env, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.S).done

    def test_fifo_no_overtaking(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        waiter_x = lm.acquire(2, "r", LockMode.X)
        waiter_s = lm.acquire(3, "r", LockMode.S)
        lm.release_all(1)
        env.run()
        assert waiter_x.done
        assert not waiter_s.done  # S must wait behind the earlier X
        lm.release_all(2)
        env.run()
        assert waiter_s.done

    def test_upgrade_succeeds_when_sole_holder(self, env, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.X).done
        assert lm.holders("r")[1] is LockMode.X

    def test_upgrade_waits_for_other_sharers(self, env, lm):
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        upgrade = lm.acquire(1, "r", LockMode.X)
        assert not upgrade.done
        lm.release_all(2)
        env.run()
        assert upgrade.done

    def test_upgrade_jumps_queue(self, env, lm):
        lm.acquire(1, "r", LockMode.S)
        newcomer = lm.acquire(2, "r", LockMode.X)  # queued
        upgrade = lm.acquire(1, "r", LockMode.X)  # should go in front
        lm.release_all(1)
        env.run()
        assert newcomer.done  # after 1 fully released, 2 gets the lock
        # The key property: upgrade did not deadlock behind the newcomer.
        assert upgrade.done or upgrade.failed


class TestRelease:
    def test_release_wakes_waiters(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        fut_a = lm.acquire(2, "r", LockMode.S)
        fut_b = lm.acquire(3, "r", LockMode.S)
        lm.release_all(1)
        env.run()
        assert fut_a.done and fut_b.done  # both sharers granted together

    def test_release_removes_queued_requests(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(2, "r", LockMode.X)
        lm.release_all(2)  # 2 gives up while still queued
        lm.release_all(1)
        env.run()
        assert lm.holders("r") == {}

    def test_release_unknown_txn_is_noop(self, lm):
        lm.release_all(999)


class TestDeadlocks:
    def test_two_txn_cycle_detected(self, env, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        fut1 = lm.acquire(1, "b", LockMode.X)  # 1 waits on 2
        fut2 = lm.acquire(2, "a", LockMode.X)  # closes the cycle
        env.run()
        assert fut2.failed
        assert isinstance(fut2.exception(), DeadlockAbort)
        assert not fut1.done  # 1 still waiting (until 2 releases)
        lm.release_all(2)
        env.run()
        assert fut1.done

    def test_three_txn_cycle_detected(self, env, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        lm.acquire(3, "c", LockMode.X)
        assert not lm.acquire(1, "b", LockMode.X).done
        assert not lm.acquire(2, "c", LockMode.X).done
        victim = lm.acquire(3, "a", LockMode.X)
        env.run()
        assert victim.failed
        assert lm.stats.deadlocks == 1

    def test_upgrade_deadlock_detected(self, env, lm):
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        up1 = lm.acquire(1, "r", LockMode.X)
        up2 = lm.acquire(2, "r", LockMode.X)
        env.run()
        assert up2.failed or up1.failed
        assert lm.stats.deadlocks >= 1

    def test_no_false_deadlock_on_plain_contention(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        futs = [lm.acquire(tid, "r", LockMode.X) for tid in (2, 3, 4)]
        env.run()
        assert not any(f.failed for f in futs)
        assert lm.stats.deadlocks == 0

    def test_cycle_through_queue_order_detected(self, env, lm):
        # T2 queued behind T3's incompatible request; T3 waits on T2's lock.
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        fut3 = lm.acquire(3, "a", LockMode.X)  # 3 waits on 1
        fut2 = lm.acquire(2, "a", LockMode.X)  # 2 waits on 1 and (queue) 3
        fut3b = lm.acquire(3, "b", LockMode.X)  # 3 waits on 2 -> cycle 2->3->2
        env.run()
        assert fut3b.failed or fut2.failed


class TestIntrospection:
    def test_held_by(self, lm):
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(1, "b", LockMode.X)
        assert lm.held_by(1) == {"a", "b"}

    def test_queue_length(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(2, "r", LockMode.X)
        lm.acquire(3, "r", LockMode.X)
        assert lm.queue_length("r") == 2


class TestIndexes:
    """The per-txn held/waiting indexes behind O(locks-touched) release."""

    def test_release_does_not_scan_unrelated_locks(self, env, lm):
        # A large standing population of other txns' locks must not be
        # visited when an unrelated txn commits.
        for tid in range(100, 600):
            lm.acquire(tid, ("row", "t", tid), LockMode.X)
        lm.acquire(1, "mine", LockMode.X)
        lm.release_all(1)
        env.run()
        assert lm.held_by(1) == set()
        # Standing locks are untouched.
        assert lm.holders(("row", "t", 100)) == {100: LockMode.X}

    def test_waiting_index_cleared_on_grant(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        fut = lm.acquire(2, "r", LockMode.X)
        assert "r" in lm._waiting_by_txn.get(2, {})
        lm.release_all(1)
        env.run()
        assert fut.done
        assert 2 not in lm._waiting_by_txn
        assert "r" in lm._held_by_txn[2]

    def test_waiting_index_cleared_on_deadlock_abort(self, env, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        lm.acquire(1, "b", LockMode.X)
        victim = lm.acquire(2, "a", LockMode.X)
        env.run()
        assert victim.failed
        assert "a" not in lm._waiting_by_txn.get(2, {})

    def test_release_while_queued_clears_waiting_index(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(2, "r", LockMode.X)
        lm.release_all(2)
        assert 2 not in lm._waiting_by_txn
        lm.release_all(1)
        env.run()
        assert lm.holders("r") == {}

    def test_held_index_insertion_ordered(self, env, lm):
        # Wake order on release follows acquisition order — deterministic
        # regardless of PYTHONHASHSEED (the C2 stability fix).
        resources = [("row", "t", k) for k in ("zebra", "apple", "mango")]
        for resource in resources:
            lm.acquire(1, resource, LockMode.X)
        assert list(lm._held_by_txn[1]) == resources


class TestIncrementalDetection:
    """Tail enqueues compute only the new waiter's edges, one DFS."""

    def test_enqueue_sets_edges_to_holders_and_waiters_ahead(self, env, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(2, "r", LockMode.X)
        lm.acquire(3, "r", LockMode.X)
        assert lm._waits_for[2] == {1}
        assert lm._waits_for[3] == {1, 2}

    def test_victim_is_the_requester_that_closed_the_cycle(self, env, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        fut1 = lm.acquire(1, "b", LockMode.X)
        fut2 = lm.acquire(2, "a", LockMode.X)  # closes the cycle -> victim
        env.run()
        assert fut2.failed and not fut1.done
        assert lm.stats.deadlocks == 1

    def test_detection_matches_across_many_random_schedules(self, env):
        # The incremental edges must find exactly the deadlocks the full
        # rebuild would: replay random acquire/release interleavings and
        # check the books stay consistent.
        import random

        rng = random.Random(42)
        lm = LockManager(env)
        live = set()
        for step in range(400):
            tid = rng.randrange(8)
            if tid in live and rng.random() < 0.3:
                lm.release_all(tid)
                live.discard(tid)
            else:
                resource = ("row", "t", rng.randrange(4))
                mode = rng.choice([LockMode.S, LockMode.X])
                lm.acquire(tid, resource, mode)
                live.add(tid)
            env.run()
        for tid in list(live):
            lm.release_all(tid)
        env.run()
        assert lm._locks == {}
        assert lm._waiting_by_txn == {}
        assert lm._waits_for == {}


def _random_script(seed, steps=300, tids=6, resources=3):
    """Random acquire/``release_all`` steps over all four modes; with few
    resources, re-acquires and upgrades by the same tid come up often."""
    rng = random.Random(seed)
    modes = list(LockMode)
    for _ in range(steps):
        tid = rng.randrange(tids)
        if rng.random() < 0.25:
            yield ("release", tid, None, None)
        else:
            yield ("acquire", tid, ("row", "t", rng.randrange(resources)), rng.choice(modes))


def _check_lock_table(lm):
    for resource, state in lm._locks.items():
        assert state.holders or state.queue, f"empty state kept for {resource}"
        held = list(state.holders.items())
        for i, (tid_a, mode_a) in enumerate(held):
            for tid_b, mode_b in held[i + 1:]:
                assert compatible(mode_a, mode_b), (resource, tid_a, mode_a, tid_b, mode_b)
        for tid in state.holders:
            assert resource in lm._held_by_txn.get(tid, {}), (tid, resource)
    for tid, resources in lm._held_by_txn.items():
        for resource in resources:
            assert tid in lm._locks[resource].holders, (tid, resource)


class TestLockTableInvariants:
    """Random scripts over IS/IX/S/X, checked after every step.

    Each tid behaves like a transaction process: it issues no request
    while one of its own is pending, and a deadlock victim releases
    everything before it acquires again.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_hold_after_every_step(self, seed):
        env = Environment(seed=1)
        lm = LockManager(env)
        pending: dict[int, object] = {}
        for op, tid, resource, mode in _random_script(seed):
            fut = pending.get(tid)
            if fut is not None and fut.failed:
                op = "release"  # a deadlock victim aborts
            if op == "release":
                lm.release_all(tid)
                pending.pop(tid, None)
            elif fut is None or fut.done:
                state = lm._locks.get(resource)
                queued = state is not None and bool(state.queue)
                holder = state is not None and tid in state.holders
                fut = lm.acquire(tid, resource, mode)
                pending[tid] = fut
                if queued and not holder:
                    # FIFO: a newcomer never overtakes a non-empty queue.
                    assert not fut.done or fut.failed
                    state = lm._locks.get(resource)
                    assert state is None or tid not in state.holders
            env.run()
            _check_lock_table(lm)
        for tid in list(pending):
            lm.release_all(tid)
        env.run()
        _check_lock_table(lm)
        assert lm._locks == {}
        assert lm._held_by_txn == {}
        assert lm._waiting_by_txn == {}
        assert lm._waits_for == {}


#: every victim ``(step, tid, cycle)`` of a sequential script, seeds 0-11,
#: as an unconditional search found them
_SEQUENTIAL_VICTIMS = {
    0: [
        (45, 4, (4, 2)), (131, 1, (1, 3)), (137, 0, (0, 4, 3)),
        (198, 1, (1, 5)), (205, 2, (2, 0, 4)), (227, 5, (5, 0)),
        (290, 2, (2, 5)),
    ],
    1: [
        (12, 1, (1, 0)), (23, 3, (3, 0)), (87, 4, (4, 1)),
        (160, 0, (0, 3, 4, 2)), (187, 1, (1, 3, 4, 2)), (228, 5, (5, 3, 1)),
        (238, 1, (1, 4, 3)), (294, 3, (3, 4)),
    ],
    2: [
        (29, 5, (5, 1)), (130, 2, (2, 0, 3)), (174, 0, (0, 4, 2)),
        (183, 1, (1, 4, 5)), (214, 2, (2, 3, 5)),
    ],
    3: [
        (17, 2, (2, 3, 1)), (119, 1, (1, 3, 2)), (178, 5, (5, 2, 3, 4, 0)),
        (184, 0, (0, 1, 2, 4)), (233, 2, (2, 0, 4)),
    ],
    4: [
        (51, 3, (3, 0)), (110, 4, (4, 2, 3, 1)), (140, 1, (1, 2, 4, 0)),
        (153, 3, (3, 4)), (233, 2, (2, 4, 1, 3)), (288, 0, (0, 5)),
    ],
    5: [
        (61, 4, (4, 3)), (84, 0, (0, 2)), (111, 1, (1, 2)),
        (170, 4, (4, 2, 3)), (243, 3, (3, 2, 0)),
    ],
    6: [
        (36, 2, (2, 3, 0, 1)), (94, 5, (5, 4, 0)), (146, 3, (3, 0, 1, 5)),
        (220, 0, (0, 4)), (239, 3, (3, 4, 1)),
    ],
    7: [
        (168, 5, (5, 1, 2)), (183, 2, (2, 0)), (212, 1, (1, 0)),
        (223, 3, (3, 2, 0)),
    ],
    8: [
        (74, 1, (1, 0, 5)), (76, 4, (4, 0, 5)), (77, 3, (3, 0, 5)),
        (135, 1, (1, 5, 3)), (163, 3, (3, 4)), (195, 1, (1, 0)),
        (228, 5, (5, 0)), (285, 3, (3, 1)), (299, 2, (2, 1)),
    ],
    9: [
        (31, 1, (1, 0, 4)), (53, 1, (1, 3)), (113, 1, (1, 3)),
        (290, 0, (0, 4, 5)),
    ],
    10: [
        (16, 0, (0, 1)), (46, 0, (0, 3)), (178, 2, (2, 5)),
        (237, 4, (4, 2, 3)),
    ],
    11: [
        (192, 3, (3, 1)), (214, 1, (1, 0)),
    ],
}
#: ``(deadlocks, sha256(repr(victims))[:16])`` of an unruly script, seeds 0-11
_UNRULY_VICTIMS = {
    0: (38, "8b3d79a16d3c2f47"),
    1: (46, "3a2b8a17e93978a7"),
    2: (22, "60552092cc9a7eab"),
    3: (34, "51257280dd179ce7"),
    4: (27, "3f7351b7870812dd"),
    5: (31, "ea74631ac9c9889f"),
    6: (42, "4f7f6cbb136a7919"),
    7: (30, "9b98e2ed5bf452ff"),
    8: (48, "cb262c9c87bdbc1d"),
    9: (28, "3f9499a0e6778f21"),
    10: (22, "3cd9ba183a8b49c2"),
    11: (27, "831b28c536d24ddb"),
}


def _victims(seed, sequential):
    """Replay :func:`_random_script`; return every deadlock victim as
    ``(step, tid, cycle)`` and the final ``stats.deadlocks``.

    A *sequential* tid behaves like a transaction process (no request
    while one of its own is pending; a victim releases before it acquires
    again).  An *unruly* tid requests regardless, so it can wait in two
    queues at once, or twice in one.
    """
    env = Environment(seed=1)
    lm = LockManager(env)
    pending: dict[int, object] = {}
    waiting: list[tuple[int, object]] = []
    victims = []
    for step, (op, tid, resource, mode) in enumerate(_random_script(seed)):
        fut = pending.get(tid)
        if sequential and fut is not None and fut.failed:
            op = "release"
        if op == "release":
            lm.release_all(tid)
            pending.pop(tid, None)
        elif not sequential or fut is None or fut.done:
            fut = pending[tid] = lm.acquire(tid, resource, mode)
            if fut is not lm.granted:
                waiting.append((tid, fut))
        env.run()
        for entry in [entry for entry in waiting if entry[1].done]:
            waiting.remove(entry)
            if entry[1].failed:
                victims.append((step, entry[0], tuple(entry[1].exception().cycle)))
    return victims, lm.stats.deadlocks


class TestDetectionOnlyWhereACycleCanClose:
    """Skipping the search where no cycle can close leaves every victim,
    its cycle and the deadlock count exactly as an unconditional search
    found them (the pins were recorded with one)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sequential_victims_are_pinned(self, seed):
        victims, deadlocks = _victims(seed, sequential=True)
        assert victims == _SEQUENTIAL_VICTIMS[seed]
        assert deadlocks == len(victims)

    @pytest.mark.parametrize("seed", range(12))
    def test_unruly_victims_are_pinned(self, seed):
        """Double waits are where the skip conditions are subtle: a tid
        queued twice, or a victim still queued elsewhere."""
        victims, deadlocks = _victims(seed, sequential=False)
        digest = hashlib.sha256(repr(victims).encode()).hexdigest()[:16]
        assert (deadlocks, digest) == _UNRULY_VICTIMS[seed]

    def test_a_wait_nothing_can_reach_runs_no_search(self, env, lm, monkeypatch):
        searched = []
        find_cycle = lm._find_cycle
        monkeypatch.setattr(lm, "_find_cycle", lambda tid: searched.append(tid) or find_cycle(tid))
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "a", LockMode.X)  # 2 holds nothing: no edge can reach it
        lm.acquire(3, "b", LockMode.X)
        lm.acquire(3, "c", LockMode.X)
        lm.acquire(4, "b", LockMode.X)  # 4 holds nothing either
        lm.release_all(1)  # wakes 2; holder 2 waits nowhere else
        assert searched == []
        lm.acquire(2, "b", LockMode.X)  # 2 holds "a", which has no queue
        assert searched == []
        lm.acquire(5, "a", LockMode.X)
        lm.acquire(3, "a", LockMode.X)  # 3 holds "b", where 4 and 2 queue
        # 3 closes 3 -> 2 -> 3 and is the victim; re-driving "a" then
        # searches from its waiter 5, since its holder 2 waits on "b"
        assert searched == [3, 5]
        env.run()
        assert lm.stats.deadlocks == 1


class TestUncontendedPath:
    """Requests that need no wait are granted in place, in O(1)."""

    def test_grants_in_place_return_the_shared_future(self, env, lm):
        lm.acquire(9, "other", LockMode.X)
        lm.acquire(8, "other", LockMode.X)  # a waiter elsewhere
        edges = {tid: set(e) for tid, e in lm._waits_for.items()}
        assert lm.acquire(1, "r", LockMode.IS) is lm.granted  # idle resource
        assert lm.acquire(2, "r", LockMode.IX) is lm.granted  # compatible holder
        assert lm.acquire(1, "r", LockMode.IS) is lm.granted  # already covered
        assert lm.acquire(2, "r", LockMode.X) is not lm.granted  # blocked upgrade
        lm.release_all(2)
        assert lm.acquire(1, "r", LockMode.X) is lm.granted  # unblocked upgrade
        assert lm._waits_for == edges
        assert lm.granted.done and not lm.granted.failed

    def test_release_drops_idle_resources_at_once(self, env, lm):
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(2, "a", LockMode.S)
        lm.acquire(1, "b", LockMode.X)
        lm.release_all(1)
        assert set(lm._locks) == {"a"}
        assert lm.holders("a") == {2: LockMode.S}
        lm.release_all(2)
        assert lm._locks == {}

    @pytest.mark.parametrize("seed", range(4))
    def test_mode_summary_tracks_holders(self, seed):
        env = Environment(seed=1)
        lm = LockManager(env)
        for op, tid, resource, mode in _random_script(seed):
            if op == "release":
                lm.release_all(tid)
            else:
                lm.acquire(tid, resource, mode)
            env.run()
            for state in lm._locks.values():
                held = list(state.holders.values())
                assert state.counts == [held.count(m) for m in LockMode]
                assert state.mask == sum({m.bit for m in held})

    def test_mode_of_reads_one_holder(self, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.mode_of(1, "r") is LockMode.S
        assert lm.mode_of(2, "r") is None
        assert lm.mode_of(1, "missing") is None
