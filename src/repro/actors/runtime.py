"""The actor runtime: silos, directory, activation, migration.

Placement uses rendezvous hashing over the *alive* silos, giving both
location transparency and automatic migration: when a silo dies, each of
its actors deterministically maps to a surviving silo and is re-activated
there on its next call, state loaded from the storage provider (§4.1
"failure transparency by migrating actors across nodes").

Message delivery is at-most-once by default (§4.2: "with at-most-once
messaging delivery guarantees by default, weak consistency ... is a
popular design choice"); per-call retries opt into at-least-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Type

from repro.actors.actor import Actor, ActorError
from repro.cluster import PlacementDirectory, rendezvous_owner
from repro.messaging.rpc import RpcCall, RpcClient, RpcError, RpcServer, RpcTimeout
from repro.net.latency import Latency
from repro.net.network import Network
from repro.sim import Environment, Lock


#: one network hop between the client edge and a silo, or between silos
NETWORK_LATENCY = Latency.intra_zone()
#: one round trip to the external actor-state store
STORE_LATENCY = Latency.intra_zone()


def _payload(actor_type: str, key: str, method: str, args: tuple) -> dict:
    """The ``invoke`` request a silo serves."""
    return {"actor_type": actor_type, "key": key, "method": method, "args": list(args)}


class StateStorageProvider:
    """External durable actor-state store (a DB table, §3.3/§4.1).

    Latency-charged on both load and save; contents survive silo crashes
    by construction.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._latency = STORE_LATENCY
        self._rng = env.stream("actor-state-store")
        self._data: dict[tuple[str, str], dict] = {}
        self.loads = 0
        self.saves = 0

    def save(self, actor_type: str, key: str, state: dict) -> Generator:
        yield from self.save_many([(actor_type, key, state)])

    def save_many(self, items: list[tuple[str, str, dict]]) -> Generator:
        """``(actor_type, key, state)`` writes issued concurrently.

        One latency draw per item, in item order, then one wait of the
        slowest: the batch costs one provider round trip, not one each.
        """
        if not items:
            return
        latency, rng = self._latency, self._rng
        yield self.env.timeout(max([latency(rng) for _ in items]))
        for actor_type, key, state in items:
            self._data[(actor_type, key)] = dict(state)
        self.saves += len(items)

    def load(self, actor_type: str, key: str) -> Generator:
        yield self.env.timeout(self._latency(self._rng))
        self.loads += 1
        state = self._data.get((actor_type, key))
        return dict(state) if state is not None else None

    def delete(self, actor_type: str, key: str) -> Generator:
        """Remove a record (e.g. a consumed transaction prepare record)."""
        yield self.env.timeout(self._latency(self._rng))
        self._data.pop((actor_type, key), None)

    def peek(self, actor_type: str, key: str) -> Optional[dict]:
        """Zero-latency read for tests and invariant checks."""
        state = self._data.get((actor_type, key))
        return dict(state) if state is not None else None


@dataclass
class ActorRuntimeStats:
    activations: int = 0
    migrations: int = 0
    calls: int = 0
    dropped_calls: int = 0
    duplicates_dropped: int = 0


class _Silo:
    """One cluster member hosting activations."""

    def __init__(self, runtime: "ActorRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.node = runtime.net.add_node(name)
        self.activations: dict[tuple[str, str], Actor] = {}
        self.turn_locks: dict[tuple[str, str], Lock] = {}
        self.rpc = RpcServer(runtime.net, self.node, service="actors")
        self.rpc.register("invoke", self._invoke)
        self.node.on_restart(lambda _node: self._on_restart())

    def _on_restart(self) -> None:
        # Memory is gone: fresh activation tables; RPC re-registered by its
        # own restart hook, so only our maps need resetting.
        self.activations = {}
        self.turn_locks = {}

    def _invoke(self, payload: dict) -> Generator:
        actor_type = payload["actor_type"]
        key = payload["key"]
        ident = (actor_type, key)
        lock = self.turn_locks.get(ident)
        if lock is None:
            lock = Lock(self.runtime.env, label=f"turn:{ident}")
            self.turn_locks[ident] = lock
        yield lock.acquire()  # turn-based concurrency (covers activation too)
        try:
            actor = self.activations.get(ident)
            if actor is not None and self.runtime.directory.last_host(ident) != self.name:
                # The directory says another silo activated this actor after
                # us — placement moved away (we were presumed dead) and has
                # now moved back.  Our cached activation missed every write
                # the other activation committed, so serving from it would
                # resurrect stale state.  Drop the duplicate and re-activate
                # from the provider.
                self.activations.pop(ident, None)
                self.runtime.stats.duplicates_dropped += 1
                actor = None
            if actor is None:
                actor = yield from self._activate(actor_type, key)
            method = getattr(actor, payload["method"])
            result = yield from method(*payload["args"])
            return result
        finally:
            lock.release()

    def _activate(self, actor_type: str, key: str) -> Generator:
        cls = self.runtime.actor_class(actor_type)
        actor = cls(key)
        actor._runtime = self.runtime
        saved = yield from self.runtime.provider.load(actor_type, key)
        if saved is not None:
            actor.state = saved
        ident = (actor_type, key)
        previous_host = self.runtime.directory.record_activation(ident, self.name)
        if previous_host is not None and previous_host != self.name:
            self.runtime.stats.migrations += 1
        self.activations[ident] = actor
        self.runtime.stats.activations += 1
        yield from actor.on_activate()
        return actor


class ActorRef:
    """Location-transparent handle to one actor."""

    def __init__(self, runtime: "ActorRuntime", actor_type: str, key: str) -> None:
        self.runtime = runtime
        self.actor_type = actor_type
        self.key = key

    def call(
        self,
        method: str,
        *args: Any,
        timeout: float = 30.0,
        retries: int = 0,
    ) -> Generator:
        """Invoke a method; ``retries=0`` is Orleans-default at-most-once."""
        result = yield from self.runtime._dispatch(
            self.actor_type, self.key, method, args, timeout, retries
        )
        return result

    def __repr__(self) -> str:
        return f"<ActorRef {self.actor_type}/{self.key}>"


class ActorRuntime:
    """The cluster: silos + directory + client edge."""

    def __init__(
        self,
        env: Environment,
        num_silos: int = 3,
    ) -> None:
        if num_silos <= 0:
            raise ValueError("num_silos must be positive")
        self.env = env
        self.net = Network(env, default_latency=NETWORK_LATENCY)
        self.provider = StateStorageProvider(env)
        self._classes: dict[str, Type[Actor]] = {}
        self.silos = [_Silo(self, f"silo-{i}") for i in range(num_silos)]
        #: the cluster-wide activation registry (which silo last activated
        #: each actor) — the same PlacementDirectory that backs shard
        #: ownership in the storage and dataflow layers.
        self.directory = PlacementDirectory(env)
        client_node = self.net.add_node("actor-client")
        self._client_rpc = RpcClient(self.net, client_node, service="actors")
        self.stats = ActorRuntimeStats()

    # -- registration / addressing ---------------------------------------------

    def register(self, cls: Type[Actor]) -> None:
        """Make an actor class instantiable by name."""
        self._classes[cls.__name__] = cls

    def actor_class(self, name: str) -> Type[Actor]:
        try:
            return self._classes[name]
        except KeyError:
            raise ActorError(f"actor type {name!r} is not registered") from None

    def ref(self, actor_type: str, key: str) -> ActorRef:
        if actor_type not in self._classes:
            raise ActorError(f"actor type {actor_type!r} is not registered")
        return ActorRef(self, actor_type, key)

    # -- placement -----------------------------------------------------------------

    def place(self, actor_type: str, key: str) -> _Silo:
        """Rendezvous-hash the actor onto the alive silos (repro.cluster)."""
        alive = {silo.name: silo for silo in self.silos if silo.node.alive}
        if not alive:
            raise ActorError("no silo is alive")
        owner = rendezvous_owner(list(alive), f"{actor_type}|{key}")
        return alive[owner]

    # -- dispatch ---------------------------------------------------------------------

    def _dispatch(
        self,
        actor_type: str,
        key: str,
        method: str,
        args: tuple,
        timeout: float,
        retries: int,
    ) -> Generator:
        self.stats.calls += 1
        result = yield from self._deliver(
            _payload(actor_type, key, method, args), timeout, retries
        )
        return result

    def _deliver(self, payload: dict, timeout: float, retries: int) -> Generator:
        """Place and invoke ``payload``, re-placing after each timeout."""
        attempts = 0
        while True:
            silo = self.place(payload["actor_type"], payload["key"])
            try:
                result = yield from self._client_rpc.call(
                    silo.node.name, "invoke", payload,
                    timeout=timeout, retries=0,
                )
                return result
            except RpcTimeout:
                attempts += 1
                if attempts > retries:
                    self.stats.dropped_calls += 1
                    raise
                # Re-resolve placement: the silo may have died; the actor
                # will be re-activated elsewhere (failure transparency).

    def gather(self, requests: list[tuple[str, str, str, tuple]], timeout: float,
               retries: int) -> Generator:
        """One round: ``(actor_type, key, method, args)`` calls sent at once.

        Every first attempt leaves before any reply is awaited
        (:meth:`RpcClient.gather <repro.messaging.rpc.RpcClient.gather>`),
        so N calls to N actors cost one round trip.  A call whose first
        attempt times out gets its remaining ``retries`` through the same
        re-placing loop as a single call.  Returns one
        :class:`~repro.messaging.rpc.RpcOutcome` per request, in request
        order; a failed call (``RpcError``, or ``ActorError`` once no silo
        is alive) never hides the others.  Raises ``ActorError`` without
        sending anything when no silo is alive at the start.
        """
        self.stats.calls += len(requests)
        rpc = self._client_rpc
        payloads = [_payload(*request) for request in requests]
        outcomes = yield from rpc.gather([
            RpcCall(self.place(payload["actor_type"], payload["key"]).node.name,
                    "invoke", payload, timeout, 0)
            for payload in payloads
        ])
        for payload, outcome in zip(payloads, outcomes):
            if not isinstance(outcome.error, RpcTimeout):
                continue
            if retries == 0:
                self.stats.dropped_calls += 1
                continue
            try:
                outcome.value = yield from self._deliver(payload, timeout, retries - 1)
                outcome.error = None
            except (RpcError, ActorError) as exc:
                outcome.error = exc
        return outcomes

    # -- operations ----------------------------------------------------------------------

    def crash_silo(self, index: int) -> None:
        self.silos[index].node.crash()
        self.silos[index].activations = {}
        self.silos[index].turn_locks = {}

    def restart_silo(self, index: int) -> None:
        self.silos[index].node.restart()

    def host_of(self, actor_type: str, key: str) -> Optional[str]:
        """The silo that most recently activated this actor (tests)."""
        return self.directory.last_host((actor_type, key))
