"""Simulated machines: processes, ports, crash and restart.

A :class:`Node` is where runtime components (service hosts, actor silos,
FaaS containers, dataflow tasks, database servers) execute.  Crashing a node
interrupts every process running on it and discards all in-memory state —
the substrate for the paper's fault-tolerance discussion (§4.1).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim import Channel, CrashScope, Environment, Process


class NodeCrashed(Exception):
    """Raised by operations attempted on a crashed node."""


class Node:
    """A simulated machine identified by a unique name.

    Components bind *ports* (named mailboxes) to receive messages from the
    network, and spawn processes into the node's :class:`CrashScope`, which
    kills them when the node crashes.
    """

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        self.alive = True
        self.incarnation = 0
        self._ports: dict[str, Channel] = {}
        self._scope = CrashScope(env)
        self._crash_hooks: list[Callable[["Node"], None]] = []
        self._restart_hooks: list[Callable[["Node"], None]] = []

    # -- ports ---------------------------------------------------------------

    def bind(self, port: str) -> Channel:
        """Create (or return) the mailbox for ``port``."""
        if port not in self._ports:
            self._ports[port] = Channel(self.env, label=f"{self.name}:{port}")
        return self._ports[port]

    def deliver(self, port: str, item: Any) -> bool:
        """Deliver ``item`` to ``port``; dropped if dead or port unbound."""
        if not self.alive:
            return False
        channel = self._ports.get(port)
        if channel is None or channel.closed:
            return False
        channel.put(item)
        return True

    # -- processes -----------------------------------------------------------

    def spawn(self, generator: Generator[Any, Any, Any], label: str = "") -> Process:
        """Run a process on this node; it dies if the node crashes."""
        if not self.alive:
            raise NodeCrashed(self.name)
        return self._scope.spawn(generator, label or f"{self.name}.proc")

    # -- lifecycle -----------------------------------------------------------

    def crash(self, cause: Any = "crash") -> None:
        """Kill the node: kill all processes, fire crash hooks, drop mailboxes."""
        if not self.alive:
            return
        self.alive = False
        self._scope.crash(cause)
        for hook in list(self._crash_hooks):
            hook(self)
        ports, self._ports = self._ports, {}
        for channel in ports.values():
            channel.close()

    def restart(self) -> None:
        """Bring the node back up (empty memory) and fire restart hooks."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        for hook in list(self._restart_hooks):
            hook(self)

    def on_crash(self, hook: Callable[["Node"], None]) -> None:
        """Register a hook invoked on each crash, after its processes died."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook: Callable[["Node"], None]) -> None:
        """Register a hook invoked after each restart (e.g. recovery)."""
        self._restart_hooks.append(hook)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.name} {state} inc={self.incarnation}>"
