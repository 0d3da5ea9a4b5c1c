"""Helpers for driving protocol operations directly in tests."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.machine import Machine
from repro.protocols import ops


class Result:
    """One op's result slot: pass :meth:`resolve` as ``issue``'s
    ``done``. A second completion is a protocol bug and raises."""

    __slots__ = ("done", "value", "then")

    def __init__(self, then: Optional[Callable[[Any], None]] = None) -> None:
        self.done = False
        self.value: Any = None
        #: Called with the value once the slot is filled, if set.
        self.then = then

    def resolve(self, value: Any = None) -> None:
        if self.done:
            raise RuntimeError("result resolved twice")
        self.done = True
        self.value = value
        if self.then is not None:
            self.then(value)


def start(machine: Machine, core: int, op: ops.Op) -> Result:
    """Issue one op without running the engine; returns its result slot."""
    result = Result()
    machine.protocol.issue(core, op, result.resolve)
    return result


def issue(machine: Machine, core: int, op: ops.Op):
    """Issue one op, run the engine to quiescence, return the result."""
    result = start(machine, core, op)
    machine.engine.run()
    assert result.done, f"{op!r} did not complete"
    return result.value


def issue_pending(machine: Machine, core: int, op: ops.Op) -> Result:
    """Issue one op and drain events WITHOUT requiring completion.

    Used for callback reads expected to block in the directory.
    """
    result = start(machine, core, op)
    machine.engine.run()
    return result


def msgs(machine: Machine, kind: str) -> int:
    return machine.stats.msg_kinds.get(kind, 0)
