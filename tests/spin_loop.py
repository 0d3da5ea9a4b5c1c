"""The thread-side back-off loop that ``SpinThrough`` replaced.

:func:`expand_spins` wraps a thread generator and turns every yielded
:class:`~repro.protocols.ops.SpinThrough` back into the hand-written
BackOff-N loop the synchronization library used to yield::

    attempt = 0
    while True:
        value = yield LoadThrough(addr)
        if pred(value):
            break
        yield BackoffWait(attempt)
        attempt += 1

It is the reference the core-run spin is checked against, and it lets
encoding tests keep asserting the loop's op sequence.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.protocols import ops


def expand_spins(gen: Generator) -> Generator:
    """Yield ``gen``'s ops with each ``SpinThrough`` expanded into its
    ``LoadThrough`` / ``BackoffWait(attempt)`` loop."""
    value: Any = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if not isinstance(op, ops.SpinThrough):
            value = yield op
            continue
        attempt = 0
        while True:
            value = yield ops.LoadThrough(op.addr)
            if op.pred(value):
                break
            yield ops.BackoffWait(attempt)
            attempt += 1
