"""State capture and fingerprints: the snapshottability contract.

Simulated threads are Python generators — continuations that cannot be
serialized. What *can* be captured, canonically and completely, is every
observable consequence of how far the simulation has run. Each mutable
component therefore implements ``ckpt_state()`` returning plain
JSON-able data (sorted, canonical, object-id-free), and
:meth:`~repro.core.machine.Machine.ckpt_state` aggregates them:

====================  ====================================================
component             capture
====================  ====================================================
Engine                clock + live event queue as (time, callback name)
WordStore             word values and version counters
Stats                 every counter, message-kind count, episode sample
Network               link occupancy still relevant now-or-later
CoherenceProtocol     bank ports, LLC residency, page classifier, plus
                      per-protocol state: L1 arrays (MESI or VIPS
                      payloads), directory entries, spin watches, MSHR
                      locks, callback-directory F/E + CB + A/O bits and
                      parked waiters, RNG stream digests
Core                  retirement counts, lifecycle cycles, spin flag
====================  ====================================================

Two machines with equal captures behave identically from that point on;
the capture's SHA-256 is the checkpoint **fingerprint**. A second,
weaker digest — the **functional fingerprint**, SHA-256 over the word
store's non-zero values only (the digest the fault campaigns use,
:func:`repro.mem.store.functional_fingerprint`) — survives
attachments that legitimately perturb the full capture (telemetry wraps
network handlers, changing queued-callback names).

Captures deliberately exclude daemon events and raw event sequence
numbers, making the fingerprint invariant under observers (telemetry
ticks, watchdog checks, audit timers) — the repo-wide "observers never
change results" contract, now mechanically checkable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.ioutil import sha256_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine

__all__ = ["capture_state", "state_fingerprint", "diff_captures"]


def capture_state(machine: "Machine") -> Dict[str, Any]:
    """The machine's full canonical capture (see module docstring)."""
    return machine.ckpt_state()


def state_fingerprint(state: Dict[str, Any]) -> str:
    """SHA-256 hex over a capture's canonical JSON form."""
    return sha256_of(state)


def diff_captures(expected: Dict[str, Any],
                  actual: Dict[str, Any]) -> Dict[str, str]:
    """Which top-level components diverge between two captures.

    Maps component name to ``"expected-digest != actual-digest"`` (12
    hex chars each) for every differing entry — what a
    :class:`~repro.ckpt.checkpoint.CheckpointMismatchError` reports so
    a divergence names the subsystem responsible, not just "mismatch".
    """
    out: Dict[str, str] = {}
    for key in sorted(set(expected) | set(actual)):
        # Compare canonical digests, not raw dicts: a JSON round-trip
        # coerces int keys to strings without changing the fingerprint.
        want = sha256_of(expected.get(key))
        got = sha256_of(actual.get(key))
        if want != got:
            out[key] = f"{want[:12]} != {got[:12]}"
    return out
