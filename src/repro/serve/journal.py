"""The queue's crash-safe append-only journal.

Every state transition the queue must survive a crash with — submit,
lease, requeue, commit, fail, cancel — is one JSON line in
``<root>/journal.jsonl``. On startup the queue replays the journal to
rebuild its state; leases found open at replay are requeued (the
processes holding them died with the previous service instance, and
their tokens are fenced off by the generation bump the next lease
performs).

Durability is tiered: entries that *are* the system of record —
submissions and terminal outcomes (:data:`DURABLE_OPS`) — are fsynced
before the call returns, so an acknowledged submission or result can
never be lost to a power cut; scheduling chatter (lease, requeue) is
flushed to the OS but not synced, because replay reconstructs it
conservatively anyway (an unjournaled lease simply gets requeued).

Batch appends (:meth:`Journal.append_many`) amortize one fsync over a
whole sweep submission — the difference between 1000 fsyncs and one
when a tenant submits a 1000-point sweep.

The journal is a system-of-record :class:`repro.ioutil.AppendLog`
(format, reader and error rule: the :mod:`repro.ioutil` docstring):
every failed write or fsync, ``ENOSPC`` or not, raises to the caller.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List

from repro.ioutil import AppendLog

#: Ops that must hit the platter before the call returns.
DURABLE_OPS = frozenset({"submit", "commit", "fail", "cancel"})


class Journal(AppendLog):
    """One append-only JSONL journal file with tiered durability. Its
    :attr:`fsync_us` is the service's write-side latency floor, exposed
    on ``GET /metrics``."""

    def __init__(self, path: str,
                 durable_ops: "frozenset[str]" = DURABLE_OPS) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        super().__init__(path, fault_sites=True)
        #: Which ops fsync before returning (the fleet supervisor's
        #: ``fleet.jsonl`` passes its own vocabulary).
        self.durable_ops = durable_ops

    def append(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Append one entry; durable (fsynced) for :data:`DURABLE_OPS`."""
        (entry,) = self.append_many([{"op": op, **fields}])
        return entry

    def append_many(self,
                    entries: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """One write, one flush, and one fsync if any entry is durable."""
        batch = [dict(entry) for entry in entries]
        self.write(batch, durable=any(entry.get("op") in self.durable_ops
                                      for entry in batch))
        return batch


def journal_path(root: str) -> str:
    return os.path.join(root, "journal.jsonl")
