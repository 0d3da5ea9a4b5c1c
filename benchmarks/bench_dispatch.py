"""Op-dispatch cost on the ``issue()`` hot path: cached map vs getattr.

Every memory operation a core performs goes through
:meth:`repro.protocols.base.CoherenceProtocol.issue` — it is the hottest
call site in the simulator after the event loop itself. The dispatch
used to be ``getattr(self, _DISPATCH[type(op)])`` per call, paying an
attribute lookup plus a bound-method allocation for every op; it is now
a per-class handler map resolved once in ``_resolve_handlers``. These
benches pin the win and guard against regressing back to per-call
resolution:

* the micro ratio times both strategies over a realistic op mix
  (cached resolution is the one ``issue()`` ships with);
* the cache-identity test asserts the per-class map really is built
  once and shared across instances;
* the end-to-end bench times a lock microbenchmark whose inner loop is
  dispatch-bound, so a regression shows up in wall clock too.
"""

import time

import pytest

from benchmarks.conftest import BENCH_CORES, BENCH_ITERS
from repro.config import config_for
from repro.core.machine import Machine
from repro.harness.runner import run_workload
from repro.protocols import ops
from repro.protocols.base import _DISPATCH
from repro.workloads.microbench import LockMicrobench

#: Dispatch resolutions per timing round (pure lookups, so keep it big).
LOOKUPS = 200_000
#: Best-of rounds for the micro ratio (sheds scheduler noise).
ROUNDS = 5


def _protocol():
    machine = Machine(config_for("CB-One", num_cores=BENCH_CORES))
    return machine.protocol


def _op_mix():
    """A realistic op-type mix: loads dominate, stores and annotated
    ops follow (the lock microbench's steady-state ratio)."""
    return [ops.Load(0), ops.Load(8), ops.Store(0, 1), ops.LoadThrough(0),
            ops.LoadCB(0), ops.StoreThrough(0, 1), ops.Load(16)]


def _time_cached(protocol, mix, lookups=LOOKUPS):
    handlers = protocol._handlers
    start = time.perf_counter()
    for _ in range(lookups // len(mix)):
        for op in mix:
            handler = handlers.get(type(op))
            assert handler is not None
    return time.perf_counter() - start


def _time_getattr(protocol, mix, lookups=LOOKUPS):
    """The legacy strategy: resolve the handler name through the
    instance on every call (attribute lookup + bound-method build)."""
    start = time.perf_counter()
    for _ in range(lookups // len(mix)):
        for op in mix:
            handler = getattr(protocol, _DISPATCH[type(op)])
            assert handler is not None
    return time.perf_counter() - start


def _best_of(fn, *args, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        best = min(best, fn(*args))
    return best


def test_cached_dispatch_not_slower():
    """Cached-map resolution must beat (or at worst match) per-call
    getattr; 1.2x is the flake guard, locally it sits well under 1.0x."""
    protocol = _protocol()
    mix = _op_mix()
    cached = _best_of(_time_cached, protocol, mix)
    legacy = _best_of(_time_getattr, protocol, mix)
    ratio = cached / legacy
    print(f"\ncached {cached * 1e3:.2f} ms, getattr {legacy * 1e3:.2f} ms "
          f"for {LOOKUPS} lookups — ratio {ratio:.3f}x")
    assert ratio < 1.2


def test_handler_map_resolved_once_per_class():
    """Two instances of one protocol class share one handler map, and
    the map covers the full op vocabulary."""
    first, second = _protocol(), _protocol()
    assert first._handlers is second._handlers
    assert set(first._handlers) == set(_DISPATCH)


def test_dispatch_rejects_unknown_ops():
    """The cached path preserves the legacy TypeError contract."""
    protocol = _protocol()
    with pytest.raises(TypeError, match="cannot execute"):
        protocol.issue(0, object(), lambda _value: None)


def test_issue_heavy_run(benchmark):
    """End-to-end: a dispatch-bound lock microbenchmark (wall clock)."""
    def run():
        return run_workload(config_for("CB-One", num_cores=BENCH_CORES),
                            LockMicrobench("ttas", iterations=BENCH_ITERS))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.cycles > 0
