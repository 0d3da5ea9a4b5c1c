"""Memory-operation trace recording.

Attach a :class:`TraceRecorder` to a machine *before* spawning threads
and every operation the cores issue is appended to an in-memory trace
(and optionally streamed to a JSONL file). Traces feed the analysis in
:mod:`repro.trace.analysis` — most interestingly the measurement behind
the paper's directory-sizing argument (Section 2.2): how many addresses
are ever racing at the same time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, List, Optional

from repro.core.machine import Machine
from repro.protocols import ops

#: Op-class tags recorded in the trace.
RACY_KINDS = {"ld_through", "ld_cb", "st_through", "st_cb1", "st_cb0",
              "atomic"}

#: Zero-weight events derived from a composite op (the two halves of an
#: Atomic). They follow their composite "atomic" event in the trace so
#: happens-before analysis sees the read and the write separately;
#: aggregate metrics and replay skip them.
DERIVED_KINDS = {"atomic.ld", "atomic.st"}


@dataclass
class TraceEvent:
    """One issued operation.

    ``weight`` is the number of individual accesses the operation stands
    for — 1 for everything except a :class:`~repro.protocols.ops.DataBurst`,
    which batches many data accesses into one op.
    """

    time: int
    core: int
    kind: str
    addr: int
    weight: int = 1
    #: Written value for stores; [kind_name, *operands] for atomics;
    #: None otherwise. Enables replay (repro.trace.replay).
    detail: Optional[list] = None

    @property
    def is_racy(self) -> bool:
        return self.kind in RACY_KINDS


_KIND_OF = {
    ops.Load: "ld",
    ops.Store: "st",
    ops.LoadThrough: "ld_through",
    ops.LoadCB: "ld_cb",
    ops.StoreThrough: "st_through",
    ops.StoreCB1: "st_cb1",
    ops.StoreCB0: "st_cb0",
    ops.Atomic: "atomic",
    ops.Fence: "fence",
    ops.SpinUntil: "spin",
}


def _classify(op: ops.Op) -> Optional[TraceEvent]:
    if isinstance(op, ops.DataBurst):
        weight = len(op.accesses) + op.extra_hits
        return TraceEvent(time=0, core=0, kind="data", addr=-1,
                          weight=max(1, weight))
    kind = _KIND_OF.get(type(op))
    if kind is None:
        return None
    addr = getattr(op, "addr", -1)
    detail = None
    if isinstance(op, ops.Atomic):
        detail = [op.kind.name, op.ld.name, op.st.name,
                  list(op.operands)]
    elif isinstance(op, (ops.Store, *ops.RACY_STORES)):
        detail = [op.value]
    elif isinstance(op, ops.Fence):
        detail = [op.kind.name]
    return TraceEvent(time=0, core=0, kind=kind, addr=addr, detail=detail)


def _atomic_halves(op: ops.Atomic) -> List[TraceEvent]:
    """The derived read/write events of one Atomic.

    The ``atomic.ld`` half carries the LdKind name, the ``atomic.st``
    half the StKind name. The store half is the *potential* write: for
    conditional RMWs (T&S, CAS, T&D) the recorder cannot know success at
    issue time, so the half is always emitted and consumers must treat
    it conservatively.
    """
    return [
        TraceEvent(time=0, core=0, kind="atomic.ld", addr=op.addr,
                   weight=0, detail=[op.ld.name]),
        TraceEvent(time=0, core=0, kind="atomic.st", addr=op.addr,
                   weight=0, detail=[op.st.name]),
    ]


class TraceRecorder:
    """Wraps a machine's protocol to log every issued operation.

    The probes of a :class:`~repro.protocols.ops.SpinThrough` never pass
    through ``issue``; the protocol's ``probe_hook`` logs each one as an
    ``ld_through`` at the cycle it is sent, as if the thread had issued it.
    """

    def __init__(self, machine: Machine,
                 stream: Optional[IO[str]] = None) -> None:
        self.machine = machine
        self.events: List[TraceEvent] = []
        self._stream = stream
        protocol = machine.protocol
        self._original_issue = protocol.issue
        self._original_probe_hook = protocol.probe_hook
        protocol.issue = self._issue  # type: ignore[method-assign]
        protocol.probe_hook = self._probe

    def _record(self, core: int, event: TraceEvent) -> None:
        event.time = self.machine.engine.now
        event.core = core
        self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(asdict(event)) + "\n")

    def _issue(self, core: int, op: ops.Op, done=None):
        event = _classify(op)
        if event is not None:
            self._record(core, event)
            if isinstance(op, ops.Atomic):
                for half in _atomic_halves(op):
                    self._record(core, half)
        return self._original_issue(core, op, done)

    def _probe(self, core: int, addr: int) -> None:
        self._record(core, TraceEvent(time=0, core=0, kind="ld_through",
                                      addr=addr))
        if self._original_probe_hook is not None:
            self._original_probe_hook(core, addr)

    def detach(self) -> List[TraceEvent]:
        """Stop recording; returns the trace."""
        protocol = self.machine.protocol
        protocol.issue = self._original_issue  # type: ignore
        protocol.probe_hook = self._original_probe_hook
        return self.events


def load_trace(stream: IO[str]) -> List[TraceEvent]:
    """Read a JSONL trace written by :class:`TraceRecorder`."""
    events = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        events.append(TraceEvent(**json.loads(line)))
    return events
