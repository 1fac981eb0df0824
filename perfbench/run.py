"""knopf benchmark: time to a verdict, evidence depth and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fp-scheme-window --seed 0 \
        --seconds 30 --trace 0

Workloads: fp-scheme-window, q-cube-rotations, structure-battery (see
workloads.py for what each runs and why).  Each workload runs in fresh
worker processes with one BLAS thread: set-up alone is repeated a few times
for `setup_s`, then one worker sends requests in a closed loop with one
client and runs the depth probe.  Every output is checked against
references.json; a mismatch makes the run exit 1.

With --trace 0 the last line reports the end-to-end metrics, with --trace 1
the per-layer metrics of the traced rounds.  Both are printed by name with
their unit and sample count on the lines before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fp-scheme-window", "q-cube-rotations", "structure-battery")
SETUP_RUNS = 7
END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_p90_s", "s"),
    ("evidence_depth", "degree"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
]
# What a run needs from the checkout besides the benchmark's own files.
REQUIRED = [
    "src/knopf/__init__.py",
    "tests/data/mu3a5.json",
    "tests/data/w-plus-wdual.json",
    "tests/data/minus-id.json",
    "tests/data/molien-minus-id.json",
    "tests/data/uL-p2.json",
]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, int, str]:
    """Start a worker; return (seconds to READY, exit code, its last line).

    A watchdog kills the worker after `timeout` seconds; it is always waited
    for before this returns.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if first.strip() != "READY":
        return ready, code or 1, ""
    return ready, code, lines[-1] if lines else ""


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "knopf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            ready, code, _ = run_worker([*common, "--seconds", "0",
                                         "--setup-only"], timeout=120)
            if code != 0:
                print("error: set-up worker failed", file=sys.stderr)
                return 1
            setups.append(ready)
    ready, code, last = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=args.seconds + 120,
    )
    if code != 0 or not last:
        print(f"error: worker exited with {code} and no result", file=sys.stderr)
        return 1
    setups.append(ready)
    res = json.loads(last)

    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        from layers import COMPUTED_COUNTS, PER_LAYER

        samples = f"n={res['rounds'] // 2} traced rounds"
        metrics = {
            name: {"value": res["layers"][name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        probe = res["probe"]
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "verdict_s": (res["verdict_s"], res["requests"]),
            "verdict_p90_s": (res["verdict_p90_s"], res["requests"]),
            "evidence_depth": (probe["depth"], 1),
            "peak_rss_mb": (res["peak_rss_mb"], 1),
            "cpu_s": (res["cpu_s"], res["requests"]),
        }
        metrics = {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in END_TO_END
        }
        samples = "; ".join(f"{n}: n={values[n][1]}" for n, _ in END_TO_END)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(f"  samples: {samples}")
    print(f"  failed_fraction {failed / attempted:.6g} ({failed}/{attempted})")
    for f in res["failures"][:20]:
        print(f"  FAILED {f['name']}: {f['why']}")
    record = {
        "environment": dict(
            res["environment"],
            nproc=os.cpu_count(),
            cpus_usable=len(os.sched_getaffinity(0)),
            platform=platform.platform(),
            git_commit=git_commit(),
            src_sha256=source_digest(),
        ),
        "rounds": res["rounds"],
        "setup_samples_s": setups,
    }
    if args.trace:
        record["installed_spans"] = res["installed_spans"]
        record["computed_counts"] = COMPUTED_COUNTS
    else:
        record["probe"] = res["probe"]
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
