"""Self-tests of the benchmark (smoke-sized; about half a minute).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import sims  # noqa: E402

SPEC = run.declared()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def names(section):
    return [metric["name"] for metric in SPEC[section]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_names_are_unique_and_legal():
    declared = names("end_to_end") + names("per_layer")
    assert len(declared) == len(set(declared))
    for name in declared + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert set(WORKLOADS) <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == names(section)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    if workload == "serve_jobs":
        leftovers = os.path.join(ROOT, ".perfbench_tmp")
        assert not os.path.isdir(leftovers) or not os.listdir(leftovers)


def _worker_pids():
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                if b"repro.serve.worker" in handle.read():
                    pids.add(int(entry))
        except (OSError, ValueError):
            continue
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_serve_run_leaves_no_worker_or_root(signum):
    before = _worker_pids()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "serve_jobs", "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    try:
        time.sleep(5)
        assert _worker_pids() - before, "no worker was started"
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert not out.strip() or not out.strip().splitlines()[-1].startswith("{")
    assert not (_worker_pids() - before)
    leftovers = os.path.join(ROOT, ".perfbench_tmp")
    assert not os.path.isdir(leftovers) or not os.listdir(leftovers)


def test_tampered_reference_fails_exactly_that_point(monkeypatch, capsys):
    points = sims.points_for("fig21_apps", smoke=True)
    reference = run.load_reference("fig21_apps")
    victim = points[-1].name
    reference[victim] = "0" * 64
    monkeypatch.setattr(run, "load_reference", lambda workload: reference)
    assert run.main(["--workload", "fig21_apps", "--seed",
                     str(sims.DEFAULT_SEED), "--seconds", "0",
                     "--smoke"]) == 0
    out = capsys.readouterr().out.splitlines()
    line = json.loads(out[-1])
    assert (line["failed"], line["attempted"]) == (1, len(points))
    assert not line["correct"]
    failed = [text for text in out if text.startswith("FAILED")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAILED {victim}: fingerprint ")
    assert failed[0].endswith(f"!= reference {'0' * 12}")


def _digest(point):
    return sims.fingerprint(sims.build(point, sims.DEFAULT_SEED).run())


def test_traced_fingerprints_equal_untraced_and_wrappers_come_off():
    from repro.sim.engine import Engine
    original = Engine.__dict__["run"]
    points = (sims.points_for("fig21_apps", smoke=True)
              + sims.points_for("fig20_sync", smoke=True))
    # A non-default seed: traced runs are checked against untraced ones.
    outcome = sims.measure_traced(points, seed=5, reference=None)
    assert outcome["failures"] == {}
    assert outcome["metrics"]["engine.events"] > 0
    assert Engine.__dict__["run"] is original


def test_reference_matches_a_fresh_run_at_the_default_seed():
    reference = run.load_reference("fig20_sync")
    point = sims.points_for("fig20_sync", smoke=True)[0]
    assert _digest(point) == reference[point.name]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig21_apps", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
