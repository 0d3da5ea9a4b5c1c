"""ALICE-style systematic crash-point exploration.

Instead of hoping random kills land somewhere interesting, enumerate
*every* hit of every durability-relevant IO site in the lifecycle
workload (:func:`enumerate_crash_points`, via a
:class:`~repro.chaos.fio.SiteCounter` dry run), then for each (site,
nth) pair run the lifecycle in a subprocess that SIGKILLs itself at
exactly that point (:func:`run_crash_point`), replay recovery, and
verify zero lost / zero duplicated runs. The sweep's manifest is the
artifact CI uploads: one row per crash point, which promises had been
made when the process died, and whether recovery kept them.
"""

from __future__ import annotations

import contextlib
import fnmatch
import io
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import lifecycle
from repro.chaos.fio import SiteCounter
from repro.iohooks import CRASH_SITES

__all__ = ["enumerate_crash_points", "run_crash_point", "sweep"]


def enumerate_crash_points(jobs: int = 1,
                           sites_glob: Optional[str] = None
                           ) -> List[Tuple[str, int]]:
    """Dry-run the lifecycle in-process under a SiteCounter and expand
    each crash site into one point per hit. ``sites_glob`` narrows the
    catalog (e.g. ``"journal.*"``)."""
    root = tempfile.mkdtemp(prefix="chaos-enum-")
    try:
        with SiteCounter() as counter, \
                contextlib.redirect_stdout(io.StringIO()):
            lifecycle.run_lifecycle(root, jobs=jobs)
        points: List[Tuple[str, int]] = []
        for site in CRASH_SITES:
            if sites_glob and not fnmatch.fnmatchcase(site, sites_glob):
                continue
            for nth in range(1, counter.hits.get(site, 0) + 1):
                points.append((site, nth))
        return points
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_crash_point(site: str, nth: int, jobs: int = 1) -> Dict[str, Any]:
    """One experiment: lifecycle subprocess killed at (site, nth),
    then recovery replayed and verified in this process."""
    # Lazy: a worker with a chaos plan imports this package, and must
    # not find repro.serve.worker (its own __main__) imported twice.
    from repro.serve.worker import child_env

    root = tempfile.mkdtemp(prefix="chaos-crash-")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.chaos.lifecycle",
             "--root", root, "--jobs", str(jobs),
             "--kill", f"{site}:{nth}"],
            env=child_env(), capture_output=True, text=True,
            timeout=120)
        lines = proc.stdout.splitlines()
        acked = dict(line[len("ACK "):].split(" ", 1)
                     for line in lines if line.startswith("ACK "))
        committed = [line[len("COMMIT "):] for line in lines
                     if line.startswith("COMMIT ")]
        finished = "DONE" in lines
        report = lifecycle.recover_and_verify(root, acked, committed,
                                              jobs=jobs)
        report.update({
            "site": site, "nth": nth,
            # returncode -9 == died by SIGKILL, the expected end. A
            # clean exit means the site fired fewer times than the
            # schedule assumed — the dry run's catalog drifted.
            "killed": proc.returncode == -9,
            "finished_instead": finished,
        })
        if not report["killed"] and not finished:
            report["ok"] = False
            report["problems"].append(
                f"subprocess ended rc={proc.returncode} without DONE: "
                f"{proc.stderr[-300:]}")
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _thin(nths: List[int], max_per_site: int) -> List[int]:
    """Evenly spaced subset including the first and last hit."""
    if max_per_site <= 0 or len(nths) <= max_per_site:
        return nths
    if max_per_site == 1:
        return [nths[0]]
    step = (len(nths) - 1) / (max_per_site - 1)
    picked = sorted({nths[round(i * step)]
                     for i in range(max_per_site)})
    return picked


def sweep(jobs: int = 1, sites_glob: Optional[str] = None,
          max_per_site: int = 0,
          echo: bool = False) -> Dict[str, Any]:
    """The full campaign: enumerate, kill at each point, verify.
    ``max_per_site`` bounds the subprocess count for CI smoke runs
    (evenly spaced hits, first and last always kept)."""
    points = enumerate_crash_points(jobs=jobs, sites_glob=sites_glob)
    by_site: Dict[str, List[int]] = {}
    for site, nth in points:
        by_site.setdefault(site, []).append(nth)
    schedule = [(site, nth) for site in sorted(by_site)
                for nth in _thin(sorted(by_site[site]), max_per_site)]
    results = []
    for site, nth in schedule:
        report = run_crash_point(site, nth, jobs=jobs)
        results.append(report)
        if echo:
            status = "ok" if report["ok"] else "FAIL"
            print(f"  [{status}] kill @ {site}:{nth} "
                  f"(acked={report['acked']} "
                  f"committed={report['committed']})", flush=True)
    return {
        "schema": "chaos-crashpoints-v1",
        "jobs": jobs,
        "enumerated_points": len(points),
        "explored_points": len(schedule),
        "sites": {site: len(nths) for site, nths in sorted(
            by_site.items())},
        "points": results,
        "ok": all(r["ok"] for r in results) and bool(results),
    }
