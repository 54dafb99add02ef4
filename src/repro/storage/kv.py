"""A versioned in-memory key-value store with snapshots.

This is the simple *external state* building block: FaaS shared state,
actor persistence providers, and idempotency stores are built on it.  Every
write bumps a per-key version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class Versioned:
    """A value paired with its monotonically increasing version."""

    value: Any
    version: int


class KeyValueStore:
    """Dictionary semantics plus versions and scans.

    Deletion is a real write: it bumps the version and leaves a tombstone
    version counter, so a re-inserted key never reuses an old version.
    """

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}
        self._versions: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the current value, or ``default``."""
        return self._data.get(key, default)

    def get_versioned(self, key: Any) -> Optional[Versioned]:
        """Return the value with its version, or ``None`` if absent."""
        if key not in self._data:
            return None
        return Versioned(self._data[key], self._versions[key])

    def version(self, key: Any) -> int:
        """Current version of ``key`` (0 if never written)."""
        return self._versions.get(key, 0)

    def put(self, key: Any, value: Any) -> int:
        """Write unconditionally; returns the new version."""
        new_version = self._versions.get(key, 0) + 1
        self._data[key] = value
        self._versions[key] = new_version
        return new_version

    def update(self, key: Any, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Read-modify-write in one step; returns the new value."""
        new_value = fn(self._data.get(key, default))
        self.put(key, new_value)
        return new_value

    def delete(self, key: Any) -> bool:
        """Remove the key; the version counter survives as a tombstone."""
        if key not in self._data:
            return False
        del self._data[key]
        self._versions[key] = self._versions.get(key, 0) + 1
        return True

    def keys(self) -> Iterator[Any]:
        return iter(list(self._data.keys()))

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(list(self._data.items()))

    def scan(self, prefix: str) -> list[tuple[Any, Any]]:
        """All ``(key, value)`` pairs whose string key starts with ``prefix``."""
        return sorted(
            (k, v)
            for k, v in self._data.items()
            if isinstance(k, str) and k.startswith(prefix)
        )

    def snapshot(self) -> dict[Any, Any]:
        """A shallow copy of the current contents (checkpointing)."""
        return dict(self._data)

    def restore(self, snapshot: dict[Any, Any]) -> None:
        """Replace contents with a snapshot (recovery)."""
        self._data = dict(snapshot)
        for key in self._data:
            self._versions[key] = self._versions.get(key, 0) + 1

    def clear(self) -> None:
        self._data.clear()
        self._versions.clear()
