"""The result-chained ``DataBurst`` step that the burst record replaced.

Each line access built an ``ops.Load`` / ``ops.Store``, ran it through
the protocol's ``_op_load`` / ``_op_store`` handler into a fresh result
slot, and chained the next access onto that slot with a
``functools.partial``; the last access completed the burst after the
bulk hits. :func:`install` puts this chain in place of a protocol's
``_op_data_burst``, as the reference the shipped burst record is
checked against.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List

from repro.protocols import ops

from tests.protocol_utils import Result


def chained_burst(protocol: Any, core: int, op: ops.DataBurst,
                  done: Callable[[Any], None]) -> None:
    """An ``_op_data_burst`` handler: the accesses of ``op`` chained
    through one result slot each, then ``done``."""
    _burst_step(protocol, core, list(op.accesses), op.extra_hits,
                Result(then=done))


def _burst_step(protocol: Any, core: int, accesses: List[ops.LineAccess],
                extra_hits: int, result: Result, _value: object = None
                ) -> None:
    if not accesses:
        if extra_hits:
            protocol.stats.l1_accesses += extra_hits
            protocol.stats.l1_hits += extra_hits
        protocol.resolve_later(result.resolve, max(1, extra_hits))
        return
    access = accesses.pop(0)
    inner = Result(then=partial(_burst_step, protocol, core, accesses,
                                extra_hits, result))
    if access.write:
        protocol._op_store(core, ops.Store(access.addr), inner.resolve)
    else:
        protocol._op_load(core, ops.Load(access.addr), inner.resolve)


def install(protocol: Any) -> None:
    """Run ``protocol``'s ``DataBurst`` ops through :func:`chained_burst`
    (this instance only; the per-class handler map is left alone)."""
    protocol._handlers = {**protocol._handlers,
                          ops.DataBurst: chained_burst}
