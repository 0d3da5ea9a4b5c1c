"""In-order core model: a trampoline that drives one thread generator.

The core has one outstanding memory operation at a time (blocking loads
and stores, as in the paper's 64 in-order cores). It pulls the next op
from the thread generator, hands memory ops to the protocol with
:meth:`Core._resume` as their continuation, turns
``Compute`` into a scheduled delay and ``BackoffWait`` into the
configuration's exponential back-off delay, and resumes the generator
with each op's result.

``SpinThrough`` (the BackOff-N spin) is handed to the protocol, which
re-probes and books each back-off pause (retiring one op per failed
probe and per pause, through :meth:`Core._backoff` when a fault hook or
telemetry is attached) without resuming the generator, which sees only
the satisfying value.

All resumptions are mediated by the engine (ops take >= 1 cycle), so the
trampoline never recurses.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Tuple

from repro.config import SystemConfig
from repro.protocols import ops
from repro.protocols.base import CoherenceProtocol
from repro.sim.engine import Engine
from repro.sim.stats import Stats


#: :meth:`Core._dispatch` branches: ops the core runs itself, in test
#: order (branch = index + 1), and everything else, handed to the
#: protocol's ``issue``.
_BRANCH_OPS = (ops.Compute, ops.SpinThrough, ops.BackoffWait)
_ISSUE, _COMPUTE, _SPIN_THROUGH, _BACKOFF = range(4)

#: ``{core class: {op class: (spin, branch)}}``, filled by
#: :meth:`Core._op_plan`.
_OP_PLANS: Dict[type, Dict[type, Tuple[bool, int]]] = {}


class Core:
    """One in-order core executing one thread generator."""

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        engine: Engine,
        protocol: CoherenceProtocol,
        stats: Stats,
        on_done: Callable[[int], None],
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.engine = engine
        self.protocol = protocol
        self.stats = stats
        self.on_done = on_done
        self.done = False
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        self._gen: Optional[Generator] = None
        #: Telemetry probe bus (set when a Telemetry attaches), else None.
        self.obs = None
        #: Ops this core's thread has retired (SimulationTimeout's
        #: progress map counts everything).
        self.ops_retired = 0
        #: Retired ops excluding spin-class ones (racy re-reads, back-off
        #: pauses, spin watches, fences) — the liveness watchdog's
        #: forward-progress signal. A spinning core retires ops forever
        #: without this count moving, which is what makes a livelock
        #: distinguishable from a healthy run.
        self.useful_ops = 0
        self._in_spin_op = False
        # An op (or the start) is outstanding; resuming without one raises.
        self._outstanding = False
        #: Cycle the ``Compute`` in flight ends at (-1 before the first):
        #: a computing core is making progress, which the watchdog must
        #: see although it retires no op until the compute ends.
        self.computing_until = -1
        #: Fault-injection hook on back-off timers: when set, called as
        #: ``hook(core_id, attempt, delay) -> delay`` (repro.resilience).
        self.fault_hook: Optional[Callable[[int, int, int], int]] = None
        self._plans = _OP_PLANS.setdefault(type(self), {})

    def start(self, gen: Generator) -> None:
        """Begin executing ``gen`` at the current cycle."""
        if self._gen is not None:
            raise RuntimeError(f"core {self.core_id} already has a thread")
        self._gen = gen
        self.start_cycle = self.engine.now
        self._outstanding = True
        self.engine.schedule(0, lambda: self._resume(None), "core.start")

    #: Op classes whose retirement is not evidence of forward progress:
    #: a thread can execute these in a loop forever without its program
    #: state advancing (spin probes, back-off pauses, ordering fences).
    SPIN_OPS = (ops.LoadThrough, ops.LoadCB, ops.BackoffWait, ops.SpinUntil,
                ops.SpinThrough, ops.Fence)

    def _resume(self, value) -> None:
        if not self._outstanding:
            raise RuntimeError(
                f"core {self.core_id} resumed with no op outstanding")
        self._outstanding = False
        self.ops_retired += 1
        if not self._in_spin_op:
            self.useful_ops += 1
        try:
            op = self._gen.send(value)
        except StopIteration:
            self.done = True
            self.finish_cycle = self.engine.now
            self.on_done(self.core_id)
            return
        self._dispatch(op)

    def ckpt_state(self) -> dict:
        """Execution position of this core's thread (checkpoint capture).

        The generator itself cannot be serialized; what *can* be pinned
        is every observable consequence of how far it has run — retired
        ops, spin classification of the op in flight, and the lifecycle
        cycles — which deterministic re-execution must reproduce
        exactly."""
        return {"done": self.done, "ops_retired": self.ops_retired,
                "useful_ops": self.useful_ops,
                "start_cycle": self.start_cycle,
                "finish_cycle": self.finish_cycle,
                "in_spin_op": self._in_spin_op}

    #: Cycles of computation per (bulk-accounted) L1 data access. An
    #: in-order core touches its L1 every few cycles while computing;
    #: without this baseline, spin-loop L1 accesses would be essentially
    #: the *only* L1 activity and Figure 22's L1 energy share would be
    #: wildly exaggerated for the Invalidation configuration.
    COMPUTE_CYCLES_PER_L1_ACCESS = 7

    def _op_plan(self, op_type: type) -> Tuple[bool, int]:
        """``(spin, branch)`` of an op class: whether it is a spin op
        (:attr:`SPIN_OPS`) and which :meth:`_dispatch` branch runs it.
        Resolved once per class (by subclass test, so subclasses of an
        op follow it) into the per-core-class table ``_plans``."""
        for branch, base in enumerate(_BRANCH_OPS, 1):
            if issubclass(op_type, base):
                break
        else:
            branch = _ISSUE
        plan = self._plans[op_type] = (issubclass(op_type, self.SPIN_OPS),
                                       branch)
        return plan

    def _dispatch(self, op: ops.Op) -> None:
        self._outstanding = True
        plan = self._plans.get(type(op))
        if plan is None:
            plan = self._op_plan(type(op))
        self._in_spin_op, branch = plan
        if branch == _ISSUE:
            self.protocol.issue(self.core_id, op, self._resume)
        elif branch == _COMPUTE:
            accesses = op.cycles // self.COMPUTE_CYCLES_PER_L1_ACCESS
            self.stats.l1_accesses += accesses
            self.stats.l1_hits += accesses
            delay = op.cycles if op.cycles > 1 else 1
            self.computing_until = self.engine.now + delay
            self.engine.schedule(delay, lambda: self._resume(None),
                                 "core.resume")
        elif branch == _SPIN_THROUGH:
            self.protocol.spin_through(self, op)
        else:
            delay = self._backoff(op.attempt)
            self.engine.schedule(delay if delay > 1 else 1,
                                 lambda: self._resume(None), "core.resume")

    def _backoff(self, attempt: int) -> int:
        """Book one back-off pause before retry ``attempt``; returns its
        delay (after the fault hook, if any)."""
        delay = self.config.backoff_delay(attempt)
        if self.fault_hook is not None:
            delay = self.fault_hook(self.core_id, attempt, delay)
        self.stats.backoff_cycles += delay
        if self.obs is not None:
            self.obs.emit("spin.backoff", core=self.core_id,
                          attempt=attempt, delay=delay)
        return delay
