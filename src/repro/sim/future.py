"""Futures: single-assignment result slots, and a FIFO of them.

Memory ops complete through a continuation (``CoherenceProtocol.issue``'s
``done``); a :class:`Future` is the result slot ``issue`` returns when
called without one, as tests do.
"""

from __future__ import annotations

from typing import Any, Callable, List


class Future:
    """A single-assignment result slot with completion callbacks."""

    __slots__ = ("done", "value", "_callbacks")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Invoke ``fn(value)`` when resolved (immediately if already done)."""
        if self.done:
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def resolve(self, value: Any = None) -> None:
        """Complete the future. Resolving twice is a protocol bug."""
        if self.done:
            raise RuntimeError("future resolved twice")
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)

    @staticmethod
    def resolved(value: Any = None) -> "Future":
        """A future that is already complete."""
        f = Future()
        f.done = True
        f.value = value
        return f


class WaitQueue:
    """FIFO of futures used by controllers to serialize conflicting work.

    E.g. an LLC bank MSHR lock for atomics: while an RMW holds the word,
    later operations park their wakeup future here and are drained in
    arrival order when the lock is released.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Future] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def park(self) -> Future:
        f = Future()
        self._items.append(f)
        return f

    def wake_one(self, value: Any = None) -> bool:
        """Resolve the oldest parked future. Returns False if empty."""
        if not self._items:
            return False
        self._items.pop(0).resolve(value)
        return True

    def wake_all(self, value: Any = None) -> int:
        """Resolve every parked future, in FIFO order. Returns the count."""
        items, self._items = self._items, []
        for f in items:
            f.resolve(value)
        return len(items)
