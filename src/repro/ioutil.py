"""Crash-safe file IO shared by every on-disk artifact writer.

Results (:mod:`repro.harness.results_io`), the orchestration cache
(:mod:`repro.orchestrate.cache`) and the checkpoint store
(:mod:`repro.ckpt.store`) all follow the same discipline:

* **atomic publication** — write to a temp file in the destination
  directory, ``fsync`` it, then ``os.replace`` onto the final name.
  A reader (or a crash at any instant) sees either the old complete
  file or the new complete file, never a torn write;
* **durable directories** — after the rename, ``fsync`` the directory
  so the new name itself survives a power cut;
* **self-verifying payloads** — JSON artifacts embed a SHA-256 over
  their canonical form, checked on read. A corrupt artifact is
  *quarantined* (renamed ``<name>.corrupt``) rather than deleted, so
  the damaged bytes stay available for post-mortems while every normal
  code path treats the entry as absent.

Every syscall in the protocol announces itself through the
:mod:`repro.iohooks` fault-injection seam, so the :mod:`repro.chaos`
harness can fail, tear, or crash it by name. Failed fsyncs are counted
in :data:`FSYNC_ERRORS` (exported as ``repro_io_fsync_errors_total`` on
the service's ``/metrics``), and an ``ENOSPC`` fsync is *always*
re-raised — a full disk must reach the caller so the service plane can
degrade to read-only instead of silently losing durability.

Append-only JSONL logs — the queue's ``journal.jsonl``, the fleet's
``fleet.jsonl``, the checkpoint ``manifest.jsonl``, ``events.jsonl``
and ``hostspans.jsonl`` — all write through :class:`AppendLog` and read
through :func:`tail_events`. A batch of entries is one ``write`` +
``flush`` of ``json.dumps(entry, sort_keys=True) + "\n"`` lines,
fsynced only when the caller marks it durable; a short write is a torn
write; every failed write or fsync is counted on the log (fsyncs also
in :data:`FSYNC_ERRORS`). A batch always starts on a line boundary:
after a failed or torn write in this process, or when the file it
opens does not end in ``"\n"`` (a crash-torn tail), the batch is
prefixed with ``"\n"``, so the fragment stays one damaged line and
never swallows the next entry. The reader never consumes a torn final
line, skips (and counts) a complete line that does not parse, and
ignores blank lines.

**One error rule.** A *system of record* — the two journals and the
checkpoint manifest — raises every failed append to its caller, which
must not acknowledge what was not written. An *observability* log —
``events.jsonl`` and ``hostspans.jsonl``, opened ``lossy`` — never
fails the transition it records: a failed append is counted in
``dropped`` and lost. A closed log is never reopened.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
import threading
import time
from typing import (IO, Any, Dict, Iterable, List, Optional, Tuple, Type,
                    TypeVar)

from repro.iohooks import (SITE_DIR_FSYNC, SITE_JOURNAL_FSYNC,
                           SITE_JOURNAL_SYNCED, SITE_JOURNAL_WRITE,
                           SITE_PUBLISHED, SITE_READ, SITE_RENAME,
                           SITE_TMP_FSYNC, SITE_TMP_WRITE, filter_write,
                           io_site)
from repro.obs.metrics import Counter, Histogram

__all__ = [
    "canonical_json", "sha256_of", "atomic_write_text",
    "atomic_write_json", "fsync_dir", "quarantine", "read_checked_json",
    "CorruptArtifactError", "FSYNC_ERRORS", "ContentAddressedPlan",
    "AppendLog", "tail_events", "read_events",
]

#: Process-wide count of fsync failures observed at this layer (file
#: and directory fsyncs). The serve plane renders it on ``/metrics``
#: as ``repro_io_fsync_errors_total{layer="ioutil"}``.
FSYNC_ERRORS = Counter("repro_io_fsync_errors_total")


class CorruptArtifactError(ValueError):
    """An on-disk artifact failed parsing or checksum verification.

    Carries the ``path`` of the damaged file and, after
    :func:`quarantine`, ``quarantined`` — where the bytes were moved.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
        self.quarantined: Optional[str] = None


def canonical_json(value: Any) -> str:
    """The one serialized form all content hashes are taken over.

    Stable under a JSON round-trip: non-string dict keys are first
    coerced to the strings JSON stores (and re-sorted lexically, the
    way a re-read dict sorts), so a value checksummed before
    serialization and the same value parsed back from disk produce the
    same digest. Without the round-trip, int keys sort numerically at
    write time ({2: ..., 10: ...}) but lexically after re-reading
    ("10" < "2"), and the digests diverge.
    """
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return json.dumps(json.loads(encoded), sort_keys=True,
                      separators=(",", ":"))


def sha256_of(value: Any) -> str:
    """SHA-256 hex digest of a JSON-able value's canonical form."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def fsync_dir(path: str) -> None:
    """Flush a directory entry table (makes renames/creates durable).

    Mostly best-effort: some filesystems refuse ``open(O_RDONLY)`` on
    directories, and crash-safety degrades gracefully to rename
    atomicity there. A *failing* fsync is counted in
    :data:`FSYNC_ERRORS`, and ``ENOSPC`` is re-raised — a full disk is
    a persistent condition the caller must react to, not a quirk.
    """
    io_site(SITE_DIR_FSYNC, path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        FSYNC_ERRORS.inc()
        if exc.errno == errno.ENOSPC:
            raise
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str, durable: bool = True) -> None:
    """Publish ``text`` at ``path`` atomically (temp + fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    io_site(SITE_TMP_WRITE, path, size=len(text))
    out = filter_write(SITE_TMP_WRITE, path, text)
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(out)
            if len(out) != len(text):
                raise OSError(
                    errno.EIO,
                    f"torn write ({len(out)}/{len(text)} bytes)", path)
            if durable:
                handle.flush()
                io_site(SITE_TMP_FSYNC, path)
                try:
                    os.fsync(handle.fileno())
                except OSError:
                    FSYNC_ERRORS.inc()
                    raise
        io_site(SITE_RENAME, path)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(directory)
    io_site(SITE_PUBLISHED, path)


def atomic_write_json(path: str, value: Any, durable: bool = True,
                      indent: Optional[int] = None) -> None:
    """Atomically publish a JSON document at ``path``."""
    if indent is None:
        text = canonical_json(value)
    else:
        text = json.dumps(value, sort_keys=True, indent=indent)
    atomic_write_text(path, text + "\n", durable=durable)


def quarantine(error: CorruptArtifactError) -> Optional[str]:
    """Move a corrupt artifact aside as ``<path>.corrupt``.

    Returns the quarantine path (also recorded on the error), or None
    if the file vanished or could not be moved. Never raises.
    """
    target = error.path + ".corrupt"
    try:
        os.replace(error.path, target)
    except OSError:
        return None
    error.quarantined = target
    return target


def read_checked_json(path: str, checksum_field: Optional[str] = None) -> Any:
    """Read a JSON artifact, raising :class:`CorruptArtifactError` on a
    parse failure — and, when ``checksum_field`` is given, on a missing
    or mismatched embedded SHA-256.

    With ``checksum_field``, the file must hold an object whose
    ``checksum_field`` entry is ``sha256_of`` the object *without* that
    entry; the returned dict has the checksum already stripped.
    """
    try:
        io_site(SITE_READ, path)
        with open(path) as handle:
            value = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorruptArtifactError(path, f"unreadable JSON ({exc})") from exc
    if checksum_field is None:
        return value
    if not isinstance(value, dict):
        raise CorruptArtifactError(path, "expected a JSON object")
    body = dict(value)
    stated = body.pop(checksum_field, None)
    if stated is None:
        raise CorruptArtifactError(path, f"missing {checksum_field!r}")
    actual = sha256_of(body)
    if stated != actual:
        raise CorruptArtifactError(
            path, f"checksum mismatch (stated {str(stated)[:12]}…, "
                  f"actual {actual[:12]}…)")
    return body


class AppendLog:
    """One append-only JSONL file (format and error rule: see the
    module docstring).

    The first write opens the file; :meth:`release` closes it until the
    next write, :meth:`close` for good (later writes raise ``EBADF``, or
    are dropped when ``lossy``). ``fault_sites`` announces each append
    at the ``journal.append.*`` sites of :mod:`repro.iohooks`. Durable
    fsyncs are timed into :attr:`fsync_us` (microseconds).
    """

    def __init__(self, path: str, lossy: bool = False,
                 fault_sites: bool = False) -> None:
        self.path = path
        self.lossy = lossy
        self.fault_sites = fault_sites
        self.fsync_us = Histogram("fsync_us")
        self.write_errors = 0
        self.fsync_errors = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._closed = False
        # The file may not end on a line boundary: a write failed or was
        # torn since the last whole batch (checked again on each open).
        self._mid_line = False

    def write(self, entries: Iterable[Dict[str, Any]],
              durable: bool = False) -> None:
        """Append ``entries`` as one batch, fsynced if ``durable``."""
        lines = [json.dumps(entry, sort_keys=True) + "\n"
                 for entry in entries]
        with self._lock:
            try:
                self._append("".join(lines), durable)
            except OSError:
                if not self.lossy:
                    raise
                self.dropped += len(lines)

    def _append(self, data: str, durable: bool) -> None:
        if self._closed:
            raise OSError(errno.EBADF, "append to a closed log", self.path)
        if self.fault_sites:
            io_site(SITE_JOURNAL_WRITE, self.path, size=len(data))
        try:
            if self._handle is None:
                # Readable too, so the first write can see the last byte.
                self._handle = open(self.path, "a+")
                self._mid_line = self._mid_line or self._tail_is_torn()
            if self._mid_line:
                data = "\n" + data
            out = data
            if self.fault_sites:
                out = filter_write(SITE_JOURNAL_WRITE, self.path, data)
            self._mid_line = True
            self._handle.write(out)
            self._handle.flush()
        except OSError:
            self.write_errors += 1
            raise
        if len(out) != len(data):
            self.write_errors += 1
            raise OSError(
                errno.EIO,
                f"torn journal append ({len(out)}/{len(data)} bytes)",
                self.path)
        self._mid_line = False
        if not durable:
            return
        if self.fault_sites:
            io_site(SITE_JOURNAL_FSYNC, self.path)
        t0 = time.perf_counter()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            self.fsync_errors += 1
            FSYNC_ERRORS.inc()
            raise
        self.fsync_us.observe((time.perf_counter() - t0) * 1e6)
        if self.fault_sites:
            io_site(SITE_JOURNAL_SYNCED, self.path)

    def _tail_is_torn(self) -> bool:
        """Whether the opened file ends in a fragment (no ``"\n"``)."""
        fd = self._handle.fileno()
        size = os.fstat(fd).st_size
        return size > 0 and os.pread(fd, 1, size - 1) != b"\n"

    def release(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def close(self) -> None:
        self._closed = True
        self.release()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def tail_events(path: str, offset: int = 0) -> Tuple[List[Dict[str, Any]],
                                                     int, int]:
    """Read the JSONL log at ``path`` from byte ``offset``; returns
    ``(entries, new_offset, skipped)``. Built for *live* tailing of a
    log another process is still appending to, so it is tolerant:

    * a **torn final line** (no trailing newline) is never consumed:
      ``new_offset`` stops at the last complete line, and the fragment
      is re-read once (if ever) its newline lands;
    * a *complete* line that fails to parse (a crash-torn fragment a
      restarted writer appended after) is skipped and counted.

    A missing file reads as empty. ``new_offset`` is a plain byte
    offset, safe to persist and resume from across processes.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return [], offset, 0
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset, 0
    chunk = data[:end + 1]
    entries: List[Dict[str, Any]] = []
    skipped = 0
    for line in chunk.splitlines():
        if not line.strip():
            continue
        try:
            parsed = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            continue
        if isinstance(parsed, dict):
            entries.append(parsed)
        else:
            skipped += 1
    return entries, offset + len(chunk), skipped


def read_events(path: str) -> List[Dict[str, Any]]:
    """All complete, parseable entries of a JSONL log (torn tail and
    damaged lines skipped — see :func:`tail_events`)."""
    return tail_events(path)[0]


#: A content address: the lowercase SHA-256 hex of a plan's canonical form.
_PLAN_KEY = re.compile(r"[0-9a-f]{64}")

_PlanT = TypeVar("_PlanT", bound="ContentAddressedPlan")


class ContentAddressedPlan:
    """Keying, saving and checked loading shared by every seeded plan
    type (:class:`repro.resilience.faults.FaultPlan`,
    :class:`repro.chaos.plan.ChaosPlan`).

    A subclass supplies ``to_dict()`` and a ``from_dict(doc)``
    constructor that ignores unknown fields. The plan key is
    :func:`sha256_of` the ``to_dict()`` form. A plan file holds that
    form with the key beside it, ``{<plan fields>..., "plan_key": ...}``.
    :meth:`load` also reads the wrapped ``{"plan": {...}, "plan_key":
    ...}`` form (a chaos campaign manifest) and a bare dict (a legacy or
    hand-written plan). It refuses content that does not hash to the
    stated ``plan_key`` or, when none is stated, to a 64-hex file stem,
    so an edited plan never replays under another plan's identity.
    """

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def plan_key(self) -> str:
        """Stable content address: SHA-256 hex of the canonical JSON."""
        return sha256_of(self.to_dict())

    def save(self, path: str) -> str:
        """Atomically write the plan file at ``path`` and return it. A
        ``path`` not ending in ``.json`` names a directory instead (see
        :meth:`save_in`)."""
        if not path.endswith(".json"):
            return self.save_in(path)
        atomic_write_json(path, {**self.to_dict(),
                                 "plan_key": self.plan_key()}, indent=2)
        return path

    def save_in(self, directory: str) -> str:
        """Save as ``<directory>/<plan_key>.json``; returns the path."""
        return self.save(os.path.join(directory, f"{self.plan_key()}.json"))

    @classmethod
    def load_doc(cls: Type[_PlanT],
                 path: str) -> Tuple[_PlanT, Dict[str, Any]]:
        """The checked plan at ``path`` plus the whole JSON document it
        came from (a campaign manifest's other fields ride along)."""
        doc = read_checked_json(path)
        if not isinstance(doc, dict):
            raise CorruptArtifactError(path, "expected a JSON object")
        body = doc.get("plan", doc)
        plan = cls.from_dict(body)  # type: ignore[attr-defined]
        stem = os.path.splitext(os.path.basename(path))[0]
        stated = doc.get("plan_key") or (
            stem if _PLAN_KEY.fullmatch(stem) else None)
        key = plan.plan_key()
        if stated is not None and stated != key:
            raise ValueError(
                f"{path}: expected plan_key {str(stated)[:12]}… but its "
                f"content hashes to {key[:12]}…")
        return plan, doc

    @classmethod
    def load(cls: Type[_PlanT], path: str) -> _PlanT:
        """Read a plan file, refusing one whose key does not check."""
        return cls.load_doc(path)[0]

    @classmethod
    def load_by_key(cls: Type[_PlanT], directory: str,
                    key_prefix: str) -> _PlanT:
        """Load the unique ``<plan_key>.json`` in ``directory`` whose key
        starts with ``key_prefix`` (full hashes are unwieldy on a
        command line)."""
        matches = [name for name in sorted(os.listdir(directory))
                   if name.endswith(".json") and name.startswith(key_prefix)]
        if not matches:
            raise FileNotFoundError(
                f"no {cls.__name__} matching {key_prefix!r} in {directory}")
        if len(matches) > 1:
            raise ValueError(
                f"ambiguous plan key {key_prefix!r}: {matches}")
        return cls.load(os.path.join(directory, matches[0]))
