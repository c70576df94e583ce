"""Bounded process-wide memos for immutable compile inputs.

Grid geometry and plaquette sets depend only on their shape, so every
compile in a process can share them.  Each memo holds at most
``capacity`` entries and drops its oldest when full; both are emptied by
``MemoryExperiment.clear_compile_cache()``, so a benchmark iteration (or a
fresh process) pays every first build again.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["BoundedMemo"]

V = TypeVar("V")


class BoundedMemo(Generic[V]):
    """Key -> value memo holding at most ``capacity`` entries (oldest dropped first)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("a memo needs room for at least one entry")
        self.capacity = capacity
        self._items: dict[Hashable, V] = {}

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value under ``key``, built by ``build()`` on a miss."""
        value = self._items.get(key)
        if value is None:
            value = build()
            if len(self._items) >= self.capacity:
                del self._items[next(iter(self._items))]
            self._items[key] = value
        return value

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)
