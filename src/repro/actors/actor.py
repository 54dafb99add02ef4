"""The actor base class: private state, turns, explicit persistence."""

from __future__ import annotations

from typing import Any, Generator


class ActorError(Exception):
    """Raised for actor protocol misuse."""


class Actor:
    """Base class for user-defined actors.

    Subclasses define generator methods operating on ``self.state`` (a
    plain dict).  The runtime guarantees turn-based execution: at most one
    method of a given activation runs at a time.

    Durability is *explicit*: mutations live in silo memory until the actor
    calls ``yield from self.save_state()`` (§3.3: "some actor frameworks
    offer state management APIs that allow developers to store memory-
    resident states in durable storage").  A crash between mutation and
    save loses the delta — a behaviour the tests assert rather than hide.
    """

    #: Default state for fresh activations; subclasses override.
    initial_state: dict[str, Any] = {}

    def __init__(self, key: str) -> None:
        self.key = key
        self.state: dict[str, Any] = dict(type(self).initial_state)
        self._runtime = None  # wired by the silo at activation

    # -- lifecycle (overridable) ----------------------------------------------

    def on_activate(self) -> Generator:
        """Called after state is loaded, before the first turn."""
        return
        yield  # pragma: no cover

    # -- runtime services -------------------------------------------------------

    def save_state(self) -> Generator:
        """Persist ``self.state`` to the storage provider (a round trip)."""
        if self._runtime is None:
            raise ActorError("actor is not activated")
        yield from self._runtime.provider.save(
            type(self).__name__, self.key, self.state
        )

    @property
    def env(self):
        if self._runtime is None:
            raise ActorError("actor is not activated")
        return self._runtime.env
