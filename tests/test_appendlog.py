"""Pins the on-disk contract of the five append-only JSONL files.

``journal.jsonl``, ``fleet.jsonl``, ``events.jsonl``, ``manifest.jsonl``
and ``hostspans.jsonl`` are written through their public APIs and
checked for three things: every line is ``json.dumps(entry,
sort_keys=True) + "\\n"``; fsyncs land on exactly the durable tier of
each file (counted per inode through a patched ``os.fsync``); and the
reader returns the same ``(entries, offset, skipped)`` for a torn tail
and a damaged middle line. The tests after the pins cover the one
error rule of :class:`repro.ioutil.AppendLog`.
"""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.ckpt import CheckpointStore
from repro.fleet.supervisor import FLEET_DURABLE_OPS
from repro.ioutil import FSYNC_ERRORS, AppendLog, tail_events
from repro.obs.tracectx import HostSpan, HostSpanLog
from repro.orchestrate.events import KINDS, EventLog
from repro.serve.journal import DURABLE_OPS, Journal

JOURNAL_OPS = ("submit", "lease", "requeue", "commit", "fail", "cancel",
               "drain")
FLEET_OPS = ("scale", "spawn", "adopt", "crash", "quarantine", "exit",
             "clear", "drain")
EVENT_DURABLE_KINDS = ("failed", "timeout", "quarantined")

needs_proc_fds = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                    reason="needs /proc/self/fd")


def open_handles(path) -> int:
    """How many of this process's descriptors are open on ``path``."""
    target = os.path.realpath(str(path))
    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{name}") == target
        except OSError:
            continue
    return count


def _journal(tmp_path):
    """Queue journal: one append per op plus one mixed batch (one
    fsync for the whole batch)."""
    path = str(tmp_path / "journal.jsonl")
    journal = Journal(path)
    entries = [journal.append(op, job_key="k" * 16, n=index)
               for index, op in enumerate(JOURNAL_OPS)]
    entries += journal.append_many([{"op": "lease", "job_key": "k"},
                                    {"op": "commit", "job_key": "k"}])
    journal.close()
    return path, entries, sum(op in DURABLE_OPS for op in JOURNAL_OPS) + 1


def _fleet(tmp_path):
    path = str(tmp_path / "fleet" / "fleet.jsonl")
    journal = Journal(path, durable_ops=FLEET_DURABLE_OPS)
    entries = [journal.append(op, slot=str(index), t=1.5 * index)
               for index, op in enumerate(FLEET_OPS)]
    journal.close()
    return path, entries, sum(op in FLEET_DURABLE_OPS for op in FLEET_OPS)


def _events(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(sink_path=path)
    entries = [log.record(kind, "k" * 16, "label", n=index,
                          failure_kind="error").as_dict()
               for index, kind in enumerate(KINDS)]
    log.close()
    return path, entries, sum(kind in EVENT_DURABLE_KINDS for kind in KINDS)


def _manifest(tmp_path):
    """Checkpoint manifest: every append is durable. Quarantining a
    missing blob journals without any other fsync."""
    store = CheckpointStore(str(tmp_path / "ckpt"))
    for boundary in (100, 200, 300):
        store.quarantine_checkpoint("ab" * 32, boundary, reason="pin")
    entries = store.manifest()
    assert [(e["event"], e["boundary"]) for e in entries] == [
        ("quarantined", 100), ("quarantined", 200), ("quarantined", 300)]
    return store.manifest_path, entries, 3


def _host_spans(tmp_path):
    path = str(tmp_path / "hostspans.jsonl")
    log = HostSpanLog(path)
    spans = [HostSpan("queue.wait", "t1", 1.0, 2.0, track="host/queue",
                      args={"tenant": "a"}),
             HostSpan("worker.attempt", "t1", 2.0, 3.5),
             HostSpan("sim.run", "t2", 2.5, None, args={"cycles": 7})]
    log.record(spans[0])
    log.append_many(spans[1:])
    log.close()
    assert HostSpanLog.read(path) == spans
    return path, [span.as_dict() for span in spans], 0


WRITERS = {"journal": _journal, "fleet": _fleet, "events": _events,
           "manifest": _manifest, "hostspans": _host_spans}


@pytest.fixture
def fsynced(monkeypatch):
    """Records the inode of every fsynced descriptor (and skips the
    real sync)."""
    inodes = []

    def counting_fsync(fd):
        st = os.fstat(fd)
        inodes.append((st.st_dev, st.st_ino))

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return inodes


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_every_line_is_sorted_json(tmp_path, name):
    path, entries, _ = WRITERS[name](tmp_path)
    with open(path) as handle:
        lines = handle.readlines()
    assert lines == [json.dumps(entry, sort_keys=True) + "\n"
                     for entry in entries]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_fsyncs_follow_the_durable_tier(tmp_path, fsynced, name):
    path, _, expected = WRITERS[name](tmp_path)
    st = os.stat(path)
    assert fsynced.count((st.st_dev, st.st_ino)) == expected


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_reader_skips_torn_tail_and_damaged_line(tmp_path, name):
    path, entries, _ = WRITERS[name](tmp_path)
    with open(path) as handle:
        lines = handle.readlines()
    # A crash-torn fragment a restarted writer appended after, then a
    # tail torn by a crash mid-append.
    complete = "".join(lines[:1] + ['{"op": "sub{"kind": "x"}\n']
                       + lines[1:])
    with open(path, "w") as handle:
        handle.write(complete + '{"torn": ')
    assert tail_events(path) == (entries, len(complete.encode()), 1)
    # Resuming from the returned offset sees nothing new.
    assert tail_events(path, len(complete.encode())) == (
        [], len(complete.encode()), 0)
    if name == "manifest":
        assert CheckpointStore(os.path.dirname(path)).manifest() == entries
    if name == "hostspans":
        assert [span.as_dict() for span in HostSpanLog.read(path)] == entries


# ------------------------------------------------------ the error rule


def test_system_of_record_raises_a_failed_append(tmp_path):
    log = AppendLog(str(tmp_path / "missing" / "log.jsonl"))
    with pytest.raises(OSError):
        log.write([{"op": "submit"}], durable=True)
    assert (log.write_errors, log.dropped) == (1, 0)


def test_lossy_log_counts_and_drops_a_failed_append(tmp_path):
    log = AppendLog(str(tmp_path / "missing" / "log.jsonl"), lossy=True)
    log.write([{"n": 1}, {"n": 2}])
    assert (log.write_errors, log.dropped) == (1, 2)


def test_failed_fsync_is_counted_and_raised(tmp_path, monkeypatch):
    def broken_fsync(fd):
        raise OSError(errno.EIO, "injected EIO")
    monkeypatch.setattr(os, "fsync", broken_fsync)
    path = tmp_path / "log.jsonl"
    log = AppendLog(str(path))
    before = FSYNC_ERRORS.value
    log.write([{"n": 1}])                 # not durable: no fsync
    with pytest.raises(OSError) as exc:
        log.write([{"n": 2}], durable=True)
    assert exc.value.errno == errno.EIO
    assert log.fsync_errors == 1 and FSYNC_ERRORS.value == before + 1
    log.close()
    # The line itself was written; only its durability failed.
    assert len(path.read_text().splitlines()) == 2


def test_failed_manifest_fsync_is_counted_and_raised(tmp_path, monkeypatch):
    store = CheckpointStore(str(tmp_path / "ckpt"))

    def broken_fsync(fd):
        raise OSError(errno.EIO, "injected EIO")
    monkeypatch.setattr(os, "fsync", broken_fsync)
    before = FSYNC_ERRORS.value
    with pytest.raises(OSError):
        store.quarantine_checkpoint("ab" * 32, 100, reason="pin")
    assert FSYNC_ERRORS.value == before + 1


@needs_proc_fds
@pytest.mark.parametrize("lossy", [False, True])
def test_release_reopens_but_close_is_final(tmp_path, lossy):
    path = tmp_path / "log.jsonl"
    log = AppendLog(str(path), lossy=lossy)
    assert open_handles(path) == 0       # opened by the first write
    log.write([{"n": 1}])
    assert open_handles(path) == 1
    log.release()
    assert open_handles(path) == 0
    log.write([{"n": 2}])
    assert open_handles(path) == 1
    log.close()
    log.close()                          # idempotent
    if lossy:
        log.write([{"n": 3}])
        assert log.dropped == 1
    else:
        with pytest.raises(OSError) as exc:
            log.write([{"n": 3}])
        assert exc.value.errno == errno.EBADF
    assert open_handles(path) == 0
    assert tail_events(str(path))[0] == [{"n": 1}, {"n": 2}]
