"""Crash-safe, content-addressed checkpoint storage.

Layout (everything under one root directory)::

    <root>/manifest.jsonl                     append-only journal
    <root>/<kk>/<job_key>/0000001024.json     boundary checkpoint blobs
    <root>/<kk>/<job_key>/blackbox.json       failure flight recorder
    <root>/<kk>/<job_key>/*.corrupt           quarantined damage

``<kk>`` is the first two hex chars of the 64-char job key (the result
cache's fan-out convention). Every blob is published atomically
(temp + fsync + rename, :mod:`repro.ioutil`) and embeds a SHA-256
checksum over its own canonical form; the journal records each save,
quarantine, and GC with an fsynced append, so the manifest survives the
same crash the blobs do and ``repro-ckpt verify`` can audit a store
against its own history.

A blob that fails parsing or its checksum is **quarantined** — renamed
``*.corrupt``, journaled, and treated as absent — so :meth:`latest`
silently falls back to the newest *valid* checkpoint and a torn write
can never poison a resume.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.ckpt.checkpoint import Checkpoint
from repro.ioutil import (AppendLog, CorruptArtifactError, atomic_write_json,
                          fsync_dir, quarantine, read_checked_json,
                          read_events, sha256_of)

__all__ = ["CheckpointStore"]

#: Blob filename for a boundary: zero-padded so lexical == numeric order.
_CYCLE_WIDTH = 10


class CheckpointStore:
    """One checkpoint root directory; see the module docstring."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------- paths

    def _job_dir(self, job_key: str) -> str:
        return os.path.join(self.root, job_key[:2], job_key)

    def _blob_path(self, job_key: str, boundary: int) -> str:
        return os.path.join(self._job_dir(job_key),
                            f"{boundary:0{_CYCLE_WIDTH}d}.json")

    def _blackbox_path(self, job_key: str) -> str:
        return os.path.join(self._job_dir(job_key), "blackbox.json")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.jsonl")

    # ----------------------------------------------------------- journal

    def _journal(self, event: str, job_key: str, **fields: Any) -> None:
        """Durable append (a system-of-record
        :class:`repro.ioutil.AppendLog`, opened per append): fsynced
        before the call returns, so the journal never trails the blobs."""
        entry = {"event": event, "job_key": job_key,
                 "at": round(time.time(), 3), **fields}
        with AppendLog(self.manifest_path) as manifest:
            manifest.write([entry], durable=True)

    def manifest(self) -> List[Dict[str, Any]]:
        """Parsed journal entries, oldest first (a torn tail write and
        damaged lines are skipped, see :func:`repro.ioutil.tail_events`)."""
        return read_events(self.manifest_path)

    # -------------------------------------------------------------- save

    def save(self, ckpt: Checkpoint) -> str:
        """Atomically publish one checkpoint blob; returns its path."""
        job_key = ckpt.job_key
        body = ckpt.to_dict()
        blob = {**body, "checksum": sha256_of(body)}
        path = self._blob_path(job_key, ckpt.boundary)
        atomic_write_json(path, blob)
        self._journal("saved", job_key, boundary=ckpt.boundary,
                      final=ckpt.final, fingerprint=ckpt.fingerprint,
                      path=os.path.relpath(path, self.root))
        return path

    # -------------------------------------------------------------- load

    def load(self, job_key: str, boundary: int) -> Checkpoint:
        """Load one boundary's checkpoint, verifying its checksum.
        A damaged blob is quarantined and :class:`CorruptArtifactError`
        (with ``quarantined`` filled in) is raised."""
        path = self._blob_path(job_key, boundary)
        try:
            body = read_checked_json(path, checksum_field="checksum")
        except CorruptArtifactError as exc:
            quarantine(exc)
            self._journal("quarantined", job_key, boundary=boundary,
                          reason=exc.reason, quarantined=exc.quarantined)
            raise
        return Checkpoint.from_dict(body)

    def boundaries(self, job_key: str) -> List[int]:
        """Available (non-quarantined) boundary cycles, ascending."""
        directory = self._job_dir(job_key)
        if not os.path.isdir(directory):
            return []
        out = []
        for name in os.listdir(directory):
            stem, ext = os.path.splitext(name)
            if ext == ".json" and stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def latest(self, job_key: str) -> Optional[Checkpoint]:
        """The newest checkpoint that loads and verifies its checksum;
        corrupt blobs are quarantined and older boundaries tried, so a
        crash mid-save degrades a resume by one period, never to a
        failure."""
        for boundary in reversed(self.boundaries(job_key)):
            try:
                return self.load(job_key, boundary)
            except CorruptArtifactError:
                continue
        return None

    def job_keys(self) -> List[str]:
        """Every job key with at least one stored artifact."""
        out = []
        for fanout in sorted(os.listdir(self.root)):
            shard = os.path.join(self.root, fanout)
            if len(fanout) == 2 and os.path.isdir(shard):
                out.extend(sorted(key for key in os.listdir(shard)
                                  if os.path.isdir(os.path.join(shard, key))))
        return out

    def resolve(self, key_prefix: str) -> str:
        """Expand a unique job-key prefix (CLI convenience)."""
        matches = [key for key in self.job_keys()
                   if key.startswith(key_prefix)]
        if not matches:
            raise KeyError(f"no checkpoints match key {key_prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous key {key_prefix!r}: {', '.join(m[:12] for m in matches)}")
        return matches[0]

    # -------------------------------------------------- quarantine / gc

    def quarantine_checkpoint(self, job_key: str, boundary: int,
                              reason: str) -> Optional[str]:
        """Set aside a blob that is *well-formed but wrong* (it failed
        restore verification): same ``*.corrupt`` discipline as checksum
        damage, with the reason journaled."""
        path = self._blob_path(job_key, boundary)
        error = CorruptArtifactError(path, reason)
        target = quarantine(error)
        self._journal("quarantined", job_key, boundary=boundary,
                      reason=reason, quarantined=target)
        return target

    def gc(self, keep_last: int = 2) -> int:
        """Drop all but each job's newest ``keep_last`` checkpoints
        (quarantined and black-box files are never collected). Returns
        the number of blobs removed."""
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        removed = 0
        for job_key in self.job_keys():
            doomed = self.boundaries(job_key)[:-keep_last]
            for boundary in doomed:
                try:
                    os.unlink(self._blob_path(job_key, boundary))
                except OSError:
                    continue
                removed += 1
            if doomed:
                fsync_dir(self._job_dir(job_key))
                self._journal("gc", job_key, removed=doomed,
                              kept=self.boundaries(job_key))
        return removed

    # ------------------------------------------------------------ verify

    def verify(self, job_key: Optional[str] = None) -> Dict[str, Any]:
        """Checksum-audit every blob (of one job, or the whole store)
        without quarantining anything. Returns ``{"checked", "corrupt",
        "jobs": {key: {"ok": [...], "corrupt": [...], "blackbox": bool}}}``.
        """
        keys = [job_key] if job_key is not None else self.job_keys()
        report: Dict[str, Any] = {"checked": 0, "corrupt": 0, "jobs": {}}
        for key in keys:
            ok, corrupt = [], []
            for boundary in self.boundaries(key):
                report["checked"] += 1
                try:
                    read_checked_json(self._blob_path(key, boundary),
                                      checksum_field="checksum")
                    ok.append(boundary)
                except CorruptArtifactError:
                    report["corrupt"] += 1
                    corrupt.append(boundary)
            report["jobs"][key] = {
                "ok": ok, "corrupt": corrupt,
                "blackbox": os.path.exists(self._blackbox_path(key)),
            }
        return report

    # ---------------------------------------------------------- blackbox

    def save_blackbox(self, job_key: str, payload: Dict[str, Any]) -> str:
        """Persist a failure flight-recorder payload (atomic, checked)."""
        blob = {**payload, "checksum": sha256_of(payload)}
        path = self._blackbox_path(job_key)
        atomic_write_json(path, blob)
        self._journal("blackbox", job_key,
                      kind=payload.get("error", {}).get("kind", "unknown"),
                      path=os.path.relpath(path, self.root))
        return path

    def load_blackbox(self, job_key: str) -> Optional[Dict[str, Any]]:
        """The job's failure payload, or None; damage is quarantined."""
        path = self._blackbox_path(job_key)
        if not os.path.exists(path):
            return None
        try:
            return read_checked_json(path, checksum_field="checksum")
        except CorruptArtifactError as exc:
            quarantine(exc)
            self._journal("quarantined", job_key, reason=exc.reason,
                          quarantined=exc.quarantined)
            return None

    # ------------------------------------------------------------- misc

    def __iter__(self) -> Iterator[str]:
        return iter(self.job_keys())
