"""Record the reference fingerprints the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every point of both simulator workloads (full and smoke sizes) once
at the default seed and writes ``perfbench/reference.json``. Regenerate
only when a change is *meant* to alter simulated results; a speed-up
must leave this file untouched.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sims  # noqa: E402


def main() -> int:
    out = {}
    for workload in ("fig21_apps", "fig20_sync"):
        digests = {}
        for smoke in (False, True):
            digests.update(sims.reference_digests(
                sims.points_for(workload, smoke=smoke)))
        out[workload] = dict(sorted(digests.items()))
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(len(d) for d in out.values())} fingerprints to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
