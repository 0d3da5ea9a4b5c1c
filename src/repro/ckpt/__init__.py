"""Deterministic checkpoint/restore with crash-safe storage.

* :mod:`~repro.ckpt.state` — the snapshottability contract: every
  mutable component's ``ckpt_state()`` capture, aggregated by
  :meth:`~repro.core.machine.Machine.ckpt_state`, and the fingerprint
  taken over it.
* :mod:`~repro.ckpt.checkpoint` — re-execution checkpoints: replay
  recipe + boundary + verified capture; :class:`Checkpointer` drives
  checkpointed, resumable runs and the failure black box. Restores
  rebuild through :func:`repro.orchestrate.jobspec.build_machine`.
* :mod:`~repro.ckpt.store` — :class:`CheckpointStore`: atomic
  temp+fsync+rename blobs with embedded checksums, an fsynced journal,
  and corrupt-blob quarantine with fallback to older checkpoints.
* :mod:`~repro.ckpt.cli` — the ``repro-ckpt`` command
  (save/restore/verify/replay/gc).

The orchestrator threads a ``_checkpoint`` payload through job specs so
pool workers checkpoint as they run and crashed/timed-out jobs resume
from the newest valid checkpoint instead of scratch (see
:mod:`repro.orchestrate.scheduler`).
"""

from repro.ckpt.checkpoint import (Checkpoint, CheckpointMismatchError,
                                   Checkpointer, restore_checkpoint,
                                   take_checkpoint)
from repro.ckpt.state import capture_state, state_fingerprint
from repro.ckpt.store import CheckpointStore

__all__ = [
    "Checkpoint", "CheckpointMismatchError", "Checkpointer",
    "CheckpointStore", "restore_checkpoint", "take_checkpoint",
    "capture_state", "state_fingerprint",
]
