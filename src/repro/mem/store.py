"""Global word-granular value store.

Synchronization correctness (locks actually excluding, barriers actually
releasing) requires real values, so the machine keeps one authoritative
word store representing the content of the LLC/memory. Data-race-free
application data is simulated for timing/traffic only and never reads this
store.

The store also keeps a per-word version counter, a cheap "a write
happened since" test. MESI L1 lines hold no values: every L1 read of a
synchronization word returns the store's current value.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple


class WordStore:
    """Authoritative values of all words, default 0."""

    def __init__(self, word_bytes: int = 8) -> None:
        self._word_bytes = word_bytes
        self._values: Dict[int, int] = {}
        self._versions: Dict[int, int] = {}

    def _key(self, addr: int) -> int:
        return addr // self._word_bytes

    def read(self, addr: int) -> int:
        return self._values.get(addr // self._word_bytes, 0)

    def write(self, addr: int, value: int) -> None:
        key = self._key(addr)
        self._values[key] = value
        self._versions[key] = self._versions.get(key, 0) + 1

    def snapshot(self) -> Dict[int, int]:
        """Non-zero word values keyed by word index. Zero-valued entries
        are dropped so a written-then-cleared word compares equal to a
        never-written one — this is the functional state the resilience
        campaigns fingerprint to prove faults left results intact."""
        return {key: value for key, value in self._values.items() if value}

    def ckpt_state(self) -> Dict[str, Dict[int, int]]:
        """Values *and* versions (checkpoint fingerprints need both: the
        version counters are what protocols compare snapshots against,
        so a restored run must resume with identical ones)."""
        return {"values": self.snapshot(),
                "versions": dict(sorted(self._versions.items()))}

    def version(self, addr: int) -> int:
        return self._versions.get(self._key(addr), 0)

    def fetch_add(self, addr: int, delta: int) -> int:
        """Atomic add; returns the *old* value (fetch&add semantics)."""
        old = self.read(addr)
        self.write(addr, old + delta)
        return old

    def swap(self, addr: int, value: int) -> int:
        """Atomic exchange; returns the old value (fetch&store)."""
        old = self.read(addr)
        self.write(addr, value)
        return old

    def test_and_set(self, addr: int, test: int, set_value: int) -> Tuple[int, bool]:
        """T&S: if current == ``test``, write ``set_value``.

        Returns ``(old_value, wrote)``.
        """
        old = self.read(addr)
        if old == test:
            self.write(addr, set_value)
            return old, True
        return old, False

    def compare_and_swap(self, addr: int, expect: int, new: int) -> Tuple[int, bool]:
        old = self.read(addr)
        if old == expect:
            self.write(addr, new)
            return old, True
        return old, False


def functional_fingerprint(store: WordStore) -> str:
    """SHA-256 over the store's non-zero word values: the digest fault
    campaigns compare against their fault-free baseline and checkpoints
    verify telemetered restores against."""
    snapshot = store.snapshot()
    blob = json.dumps(sorted(snapshot.items()),
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
