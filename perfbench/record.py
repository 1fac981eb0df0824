"""Record the reference outputs that every benchmark run is checked against.

Run once, from the root of a checkout of the version whose outputs are the
reference, with `src` on the path:

    PYTHONPATH=src python3 perfbench/record.py

It writes references.json next to this file: the sha256 of the canonical
JSON and the exit code of every request (seed 0), and the invariant and
twisted dimensions of every depth-probe ring up to REFERENCE_DEPTH.
Re-recording replaces the references, so it is only done for a new workload
or request, never to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import sys

from worker import REFERENCES, digest
from workloads import WORKLOADS

from knopf.jsonio import canonical_json

# Deeper than the seed reaches within each probe budget.
REFERENCE_DEPTH = {
    "fp-scheme-window": 13,
    "q-cube-rotations": 7,
    "structure-battery": 128,
}


def record(name: str) -> dict:
    workload = WORKLOADS[name](0)
    requests = {}
    for req in next(workload.rounds()):
        code, payload = req.run()
        text = payload if isinstance(payload, str) else canonical_json(payload)
        requests[req.name] = {"exit": code, "sha256": digest(text)}
    _, step = workload.probe_setup()
    dims = [step(d) for d in range(REFERENCE_DEPTH[name] + 1)]
    return {
        "requests": requests,
        "depth": {
            "a_dims": [a for a, _ in dims],
            "omega_dims": [o for _, o in dims],
        },
    }


def main() -> int:
    out = {}
    for name in WORKLOADS:
        out[name] = record(name)
        print(f"{name}: {len(out[name]['requests'])} requests", file=sys.stderr)
    with open(REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
