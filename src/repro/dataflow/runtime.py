"""The dataflow runtime: tasks, channels, checkpoints, recovery.

Execution model: every stage instance (source, operator task, sink) is a
simulation process on a worker node.  Records travel between tasks over
FIFO channels (constant per-hop latency preserves order — a requirement of
barrier alignment).  Checkpointing is the aligned Chandy-Lamport variant
used by Flink:

1. the coordinator asks each source to checkpoint;
2. sources snapshot their replay offset and broadcast a barrier;
3. an operator receiving a barrier on one input blocks that input until
   barriers arrived on all inputs, snapshots its embedded state to the
   durable checkpoint store, forwards the barrier, and acknowledges;
4. when every task acknowledged, the checkpoint is *complete*: exactly-once
   sinks flush the output buffer belonging to it.

Recovery restores every task's state from the last complete checkpoint and
rewinds sources to its offsets; everything after it replays.  State effects
are therefore exactly-once; sink effects are exactly-once only for
transactional ("exactly_once") sinks — at-least-once sinks re-emit replayed
records, which benchmark C5/C4 count as duplicates.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.cluster import shard_of, stable_hash_text
from repro.dataflow.graph import JobGraph, TaskState
from repro.net.latency import Latency
from repro.net.network import Network
from repro.sim import CrashScope, Environment, Future
from repro.storage.lsm import LsmStore
from repro.storage.object_store import ObjectStore, ObjectStoreServer


@dataclass(frozen=True)
class _Barrier:
    checkpoint_id: int


@dataclass
class DataflowStats:
    records_processed: int = 0
    checkpoints_completed: int = 0
    recoveries: int = 0
    replayed_records: int = 0


class _InputGate:
    """Per-task input: one FIFO queue per upstream task, with blocking."""

    def __init__(self, env: Environment, upstreams: list[str], label: str) -> None:
        self.env = env
        self.upstreams = list(upstreams)
        self.queues: dict[str, deque] = {u: deque() for u in upstreams}
        self.blocked: set[str] = set()
        self._waiter: Optional[Future] = None
        self._rr = 0  # round-robin cursor for fairness
        self.label = label

    def push(self, upstream: str, item: Any) -> None:
        queue = self.queues.get(upstream)
        if queue is None:
            return  # stale delivery from before a recovery
        queue.append(item)
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done:
            self._waiter.succeed(None)
        self._waiter = None

    def poll(self) -> Optional[tuple[str, Any]]:
        """Next (upstream, item) from an unblocked queue, else ``None``."""
        order = self.upstreams[self._rr:] + self.upstreams[:self._rr]
        self._rr = (self._rr + 1) % max(1, len(self.upstreams))
        for upstream in order:
            if upstream in self.blocked:
                continue
            queue = self.queues[upstream]
            if queue:
                return upstream, queue.popleft()
        return None

    def wait(self) -> Future:
        self._waiter = self.env.future(label=f"{self.label}.gate")
        return self._waiter

    def block(self, upstream: str) -> None:
        self.blocked.add(upstream)

    def unblock_all(self) -> None:
        self.blocked.clear()
        self._wake()


class _SourceTask:
    """Reads a durable log (survives crashes) and feeds the graph."""

    def __init__(self, runtime: "DataflowRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.task_id = f"{name}#0"
        self.spec = runtime.graph.sources[name]
        self.log: list[tuple[Any, Any]] = []  # durable, broker-like
        self.position = 0
        self._pending_checkpoints: deque[int] = deque()
        self._wake: Optional[Future] = None

    def push(self, key: Any, value: Any) -> None:
        """External ingestion (appended durably)."""
        self.log.append((key, value))
        self._wake_up()

    def request_checkpoint(self, checkpoint_id: int) -> None:
        self._pending_checkpoints.append(checkpoint_id)
        self._wake_up()

    def _wake_up(self) -> None:
        if self._wake is not None and not self._wake.done:
            self._wake.succeed(None)
        self._wake = None

    def run(self) -> Generator:
        env = self.runtime.env
        while True:
            if self._pending_checkpoints:
                checkpoint_id = self._pending_checkpoints.popleft()
                self.runtime._broadcast_barrier(
                    self.task_id, self.name, _Barrier(checkpoint_id)
                )
                self.runtime._coordinator.ack(
                    checkpoint_id, self.task_id, {"offset": self.position}
                )
                continue
            if self.position < len(self.log):
                key, value = self.log[self.position]
                self.position += 1
                if self.spec.emit_interval > 0:
                    yield env.timeout(self.spec.emit_interval)
                else:
                    yield env.timeout(0)
                self.runtime._route(self.task_id, self.name, key, value)
                continue
            self._wake = env.future(label=f"{self.task_id}.idle")
            yield self._wake


class _OperatorTask:
    """One parallel instance of an operator, with embedded keyed state."""

    def __init__(self, runtime: "DataflowRuntime", name: str, index: int) -> None:
        self.runtime = runtime
        self.name = name
        self.index = index
        self.task_id = f"{name}#{index}"
        self.spec = runtime.graph.operators[name]
        self.store = LsmStore(memtable_limit=256)
        upstream_tasks = runtime._upstream_task_ids(name)
        self.gate = _InputGate(runtime.env, upstream_tasks, self.task_id)
        self._barrier_acks: dict[int, set[str]] = {}
        self._emitted: list[tuple[Any, Any]] = []

    def _emit(self, key: Any, value: Any) -> None:
        self._emitted.append((key, value))

    def run(self) -> Generator:
        env = self.runtime.env
        state = TaskState(self.store)
        while True:
            entry = self.gate.poll()
            if entry is None:
                yield self.gate.wait()
                continue
            upstream, item = entry
            if isinstance(item, _Barrier):
                yield from self._on_barrier(upstream, item)
                continue
            key, value = item
            if self.spec.work_ms > 0:
                yield env.timeout(self.spec.work_ms)
            self.spec.fn(state, key, value, self._emit)
            self.runtime.stats.records_processed += 1
            emitted, self._emitted = self._emitted, []
            for out_key, out_value in emitted:
                self.runtime._route(self.task_id, self.name, out_key, out_value)

    def _on_barrier(self, upstream: str, barrier: _Barrier) -> Generator:
        received = self._barrier_acks.setdefault(barrier.checkpoint_id, set())
        received.add(upstream)
        self.gate.block(upstream)
        if received != set(self.gate.upstreams):
            return
        # Aligned: snapshot embedded state to the durable checkpoint store.
        snapshot = self.store.snapshot()
        yield from self.runtime.checkpoint_store.put(
            "checkpoints",
            self.runtime._snapshot_key(barrier.checkpoint_id, self.task_id),
            snapshot,
            size=max(1, len(snapshot)),
        )
        self.runtime._broadcast_barrier(self.task_id, self.name, barrier)
        self.runtime._coordinator.ack(barrier.checkpoint_id, self.task_id, {})
        del self._barrier_acks[barrier.checkpoint_id]
        self.gate.unblock_all()


class _SinkTask:
    """Terminal stage: surfaces outputs per its delivery mode."""

    def __init__(self, runtime: "DataflowRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.task_id = f"{name}#0"
        self.spec = runtime.graph.sinks[name]
        upstream_tasks = runtime._upstream_task_ids(name)
        self.gate = _InputGate(runtime.env, upstream_tasks, self.task_id)
        self._barrier_acks: dict[int, set[str]] = {}
        self._current_buffer: list[tuple[Any, Any, float]] = []
        self._pending: dict[int, list[tuple[Any, Any, float]]] = {}

    def run(self) -> Generator:
        env = self.runtime.env
        while True:
            entry = self.gate.poll()
            if entry is None:
                yield self.gate.wait()
                continue
            upstream, item = entry
            if isinstance(item, _Barrier):
                self._on_barrier(upstream, item)
                continue
            key, value = item
            if self.spec.mode == "at_least_once":
                self.runtime._deliver_output(self.name, key, value)
            else:
                self._current_buffer.append((key, value, env.now))

    def _on_barrier(self, upstream: str, barrier: _Barrier) -> None:
        received = self._barrier_acks.setdefault(barrier.checkpoint_id, set())
        received.add(upstream)
        self.gate.block(upstream)
        if received != set(self.gate.upstreams):
            return
        if self.spec.mode == "exactly_once":
            self._pending[barrier.checkpoint_id] = self._current_buffer
            self._current_buffer = []
        self.runtime._coordinator.ack(barrier.checkpoint_id, self.task_id, {})
        del self._barrier_acks[barrier.checkpoint_id]
        self.gate.unblock_all()

    def on_checkpoint_complete(self, checkpoint_id: int) -> None:
        """Transactional flush: the checkpoint's outputs become visible."""
        for key, value, _buffered_at in self._pending.pop(checkpoint_id, []):
            self.runtime._deliver_output(self.name, key, value)


class _Coordinator:
    """Triggers checkpoints, collects acks, tracks completed snapshots."""

    def __init__(self, runtime: "DataflowRuntime", interval: float) -> None:
        self.runtime = runtime
        self.interval = interval
        self._ids = itertools.count(1)
        self._inflight: Optional[int] = None
        self._acks: dict[str, dict] = {}
        self._expected: set[str] = set()
        #: checkpoint_id -> {"offsets": {source_task: offset}}
        self.completed: list[tuple[int, dict]] = []
        self._inflight_meta: dict = {}

    def trigger(self) -> int:
        checkpoint_id = next(self._ids)
        self._inflight = checkpoint_id
        self._acks = {}
        self._inflight_meta = {"offsets": {}}
        self._expected = set(self.runtime._all_task_ids())
        for source in self.runtime._sources.values():
            source.request_checkpoint(checkpoint_id)
        return checkpoint_id

    def ack(self, checkpoint_id: int, task_id: str, meta: dict) -> None:
        if checkpoint_id != self._inflight:
            return  # ack for an abandoned checkpoint
        self._acks[task_id] = meta
        if "offset" in meta:
            self._inflight_meta["offsets"][task_id] = meta["offset"]
        if set(self._acks) == self._expected:
            self.completed.append((checkpoint_id, self._inflight_meta))
            self._inflight = None
            self.runtime.stats.checkpoints_completed += 1
            for sink in self.runtime._sinks.values():
                sink.on_checkpoint_complete(checkpoint_id)

    def abandon_inflight(self) -> None:
        self._inflight = None

    def last_completed(self) -> Optional[tuple[int, dict]]:
        return self.completed[-1] if self.completed else None


#: worker nodes the tasks are spread over
NUM_WORKERS = 2
#: one hop between tasks
HOP_LATENCY_MS = 0.5


class DataflowRuntime:
    """Deploys a :class:`~repro.dataflow.graph.JobGraph` and runs it."""

    def __init__(
        self,
        env: Environment,
        graph: JobGraph,
        checkpoint_interval: float = 200.0,
        checkpoint_store: Optional[ObjectStoreServer] = None,
    ) -> None:
        graph.validate()
        self.env = env
        self.graph = graph
        self.net = Network(env, default_latency=Latency.constant(HOP_LATENCY_MS))
        self.checkpoint_store = checkpoint_store or ObjectStoreServer(
            env, ObjectStore(), latency=Latency.object_store(),
        )
        self._workers = [self.net.add_node(f"df-worker-{i}") for i in range(NUM_WORKERS)]
        self._coordinator = _Coordinator(self, checkpoint_interval)
        self._sources: dict[str, _SourceTask] = {}
        self._operators: dict[str, list[_OperatorTask]] = {}
        self._sinks: dict[str, _SinkTask] = {}
        self._outputs: dict[str, list[tuple[Any, Any, float]]] = {
            name: [] for name in graph.sinks
        }
        self.stats = DataflowStats()
        self.running = False
        #: the job's coordinator loop and in-flight hops; task processes
        #: live in their worker nodes' scopes
        self._scope = CrashScope(env)
        self._build_tasks()

    # -- construction -------------------------------------------------------------

    def _build_tasks(self) -> None:
        self._sources = {name: _SourceTask(self, name) for name in self.graph.sources}
        self._operators = {
            name: [_OperatorTask(self, name, i) for i in range(spec.parallelism)]
            for name, spec in self.graph.operators.items()
        }
        self._sinks = {name: _SinkTask(self, name) for name in self.graph.sinks}

    def _all_task_ids(self) -> list[str]:
        ids = [s.task_id for s in self._sources.values()]
        for tasks in self._operators.values():
            ids.extend(t.task_id for t in tasks)
        ids.extend(s.task_id for s in self._sinks.values())
        return ids

    def _upstream_task_ids(self, stage: str) -> list[str]:
        ids: list[str] = []
        for upstream in self.graph.upstream_of(stage):
            if upstream in self.graph.sources:
                ids.append(f"{upstream}#0")
            else:
                spec = self.graph.operators[upstream]
                ids.extend(f"{upstream}#{i}" for i in range(spec.parallelism))
        return ids

    def _worker_for(self, task_id: str) -> "Node":  # noqa: F821
        index = stable_hash_text(task_id) % len(self._workers)
        return self._workers[index]

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn every task process and the checkpoint coordinator."""
        if self.running:
            raise RuntimeError("job already running")
        self._launch()

    def _launch(self) -> None:
        self.running = True
        for source in self._sources.values():
            self._spawn(source.task_id, source.run())
        for tasks in self._operators.values():
            for task in tasks:
                self._spawn(task.task_id, task.run())
        for sink in self._sinks.values():
            self._spawn(sink.task_id, sink.run())
        # The coordinator models a durable job manager: not tied to workers.
        self._scope.spawn(self._coordinator_loop(), f"{self.graph.name}.coord")

    def _coordinator_loop(self) -> Generator:
        while True:
            yield self.env.timeout(self._coordinator.interval)
            if self._coordinator._inflight is None:
                self._coordinator.trigger()

    def _spawn(self, task_id: str, generator: Generator) -> None:
        node = self._worker_for(task_id)
        if not node.alive:
            return  # will be (re)spawned at recovery
        node.spawn(generator, label=task_id)

    def stop(self) -> None:
        """Halt all processing (tasks die; durable logs/snapshots remain)."""
        self.running = False
        self._scope.crash("job-stop")
        for node in self._workers:
            node.crash("job-stop")
            node.restart()

    # -- ingestion / outputs ------------------------------------------------------------

    def send(self, source: str, key: Any, value: Any) -> None:
        """Append a record to a source's durable log."""
        self._sources[source].push(key, value)

    def _deliver_output(self, sink: str, key: Any, value: Any) -> None:
        self._outputs[sink].append((key, value, self.env.now))

    def sink_outputs(self, sink: str) -> list[tuple[Any, Any, float]]:
        """Externally visible outputs: ``(key, value, emitted_at)``."""
        return list(self._outputs[sink])

    # -- routing --------------------------------------------------------------------------

    def _route(self, producer_task: str, producer_stage: str, key: Any, value: Any) -> None:
        for downstream in self.graph.downstream_of(producer_stage):
            target = self._target_task(downstream, key)
            self._scope.schedule(
                HOP_LATENCY_MS, target.gate.push, producer_task, (key, value)
            )

    def _target_task(self, stage: str, key: Any):
        if stage in self._sinks:
            return self._sinks[stage]
        tasks = self._operators[stage]
        return tasks[shard_of(key, len(tasks))]

    def _broadcast_barrier(self, producer_task: str, producer_stage: str, barrier: _Barrier) -> None:
        """Send this task's barrier to every task of every downstream stage."""
        for downstream in self.graph.downstream_of(producer_stage):
            if downstream in self._sinks:
                targets = [self._sinks[downstream]]
            else:
                targets = self._operators[downstream]
            for target in targets:
                self._scope.schedule(
                    HOP_LATENCY_MS, target.gate.push, producer_task, barrier
                )

    def _snapshot_key(self, checkpoint_id: int, task_id: str) -> str:
        return f"{self.graph.name}/{checkpoint_id}/{task_id}"

    # -- failure and recovery ------------------------------------------------------------

    def crash_worker(self, index: int) -> None:
        """Kill one worker node (its tasks die mid-flight)."""
        self._workers[index].crash("injected-fault")

    def recover(self) -> Generator:
        """Global restart from the last completed checkpoint.

        A generator: restoring state charges checkpoint-store reads, so the
        caller can measure recovery time.  Replays everything after the
        restored offsets.
        """
        self.running = False
        self._scope.crash("recovery")
        self._coordinator.abandon_inflight()
        # Tear down whatever survives, keep durable artifacts.
        source_logs = {name: task.log for name, task in self._sources.items()}
        for node in self._workers:
            node.crash("recovery")
            node.restart()
        self._build_tasks()
        for name, log in source_logs.items():
            self._sources[name].log = log
        last = self._coordinator.last_completed()
        if last is not None:
            checkpoint_id, meta = last
            for tasks in self._operators.values():
                for task in tasks:
                    snapshot = yield from self.checkpoint_store.get(
                        "checkpoints", self._snapshot_key(checkpoint_id, task.task_id)
                    )
                    task.store.restore(snapshot)
            for task_id, offset in meta["offsets"].items():
                source_name = task_id.split("#")[0]
                replayed = len(self._sources[source_name].log) - offset
                self.stats.replayed_records += max(0, replayed)
                self._sources[source_name].position = offset
        else:
            # No checkpoint ever completed: the whole log replays.
            self.stats.replayed_records += sum(
                len(source.log) for source in self._sources.values()
            )
        self.stats.recoveries += 1
        self._launch()
