"""One workload in one fresh process: set-up, requests, depth probe, checks.

Started by run.py with the checkout root as working directory and
`src` on PYTHONPATH.  It prints READY once the first request could be sent
(the end of set-up), and as its last line a JSON object with the raw
measurements, which run.py turns into the reported metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
TRACE_DIR = ".perfbench_out"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_depth(result: dict, reference: dict) -> dict:
    """Compare probe dimensions with the recorded ones.

    Degrees up to the recorded depth must match exactly; degrees past it are
    only covered by the prefix and the consistency flag, and are counted as
    unchecked.
    """
    checked = min(len(result["a_dims"]), len(reference["a_dims"]))
    prefix_ok = (
        result["a_dims"][:checked] == reference["a_dims"][:checked]
        and result["omega_dims"][:checked] == reference["omega_dims"][:checked]
    )
    return {
        "checked_degrees": checked,
        "unchecked_degrees": len(result["a_dims"]) - checked,
        "prefix_ok": prefix_ok,
    }


def run_request(req, tracer, canonical_json) -> dict:
    """Time one request and return its measurements and output digest."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        code, payload = req.traced(tracer) if tracer and req.traced else req.run()
    except Exception:
        return {
            "name": req.name,
            "wall": time.perf_counter() - t0,
            "cpu": time.process_time() - c0,
            "error": traceback.format_exc(limit=3),
        }
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    text = payload if isinstance(payload, str) else canonical_json(payload)
    return {"name": req.name, "wall": wall, "cpu": cpu, "exit": code,
            "sha256": digest(text)}


def verify(record: dict, references: dict) -> str | None:
    """None if the request matches its reference, else why it failed."""
    if "error" in record:
        return "raised: " + record["error"].strip().splitlines()[-1]
    ref = references.get(record["name"])
    if ref is None:
        return "no reference output"
    if record["exit"] != ref["exit"]:
        return f"exit code {record['exit']} != {ref['exit']}"
    if record["sha256"] != ref["sha256"]:
        return "output differs from the reference"
    return None


def request_phase(workload, phase_s: float, tracer, knopf, canonical_json,
                  references: dict) -> dict:
    """Closed loop, one client: rounds until the next would pass `phase_s`.

    At least two rounds run, so a median never rests on one request.  In a
    traced run every second round is traced (the first is not), so the
    tracing overhead is the difference between the two kinds of rounds.
    """
    from layers import install

    records, failures = [], []
    rounds: list[tuple[float, bool]] = []
    installed: list[str] = []
    start = time.perf_counter()
    for index, batch in enumerate(workload.rounds()):
        if len(rounds) >= 2:
            typical = statistics.median(t for t, _ in rounds)
            if time.perf_counter() - start + typical > phase_s:
                break
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.round = index
            installed = install(tracer, knopf)
        t0 = time.perf_counter()
        try:
            for req in batch:
                rec = run_request(req, tracer if traced else None, canonical_json)
                rec["traced"] = traced
                problem = verify(rec, references)
                rec.pop("error", None)
                if problem:
                    failures.append({"name": req.name, "why": problem})
                records.append(rec)
        finally:
            if traced:
                tracer.unpatch()
        rounds.append((time.perf_counter() - t0, traced))
    return {"records": records, "failures": failures, "rounds": rounds,
            "installed": installed}


def traced_metrics(tracer, rounds) -> dict:
    """Per-layer metrics per traced round, and the tracing overhead."""
    from layers import layer_metrics
    from tracer import has_ancestor, summarize

    traced = [t for t, was_traced in rounds if was_traced]
    plain = [t for t, was_traced in rounds if not was_traced]
    n = len(traced)
    totals = {k: v / n for k, v in summarize(tracer.spans).items()}
    by_id = {s.id: s for s in tracer.spans}
    rank_checks = sum(
        1 for s in tracer.spans
        if s.name == "exactalg.rank" and has_ancestor(s, by_id, "hopf.frobenius")
    ) / n
    out = layer_metrics(totals, rank_checks)
    out["trace.round.s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def environment(knopf_file: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "knopf": os.path.relpath(knopf_file),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (set-up cost a user pays)
    import knopf

    src = os.path.abspath("src")
    if not os.path.abspath(knopf.__file__).startswith(src + os.sep):
        print(f"error: knopf imported from {knopf.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from knopf.jsonio import canonical_json
    from workloads import WORKLOADS

    t_import = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    t_ready = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    with open(REFERENCES) as fh:
        references = json.load(fh)[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    phase = request_phase(
        workload, args.seconds - workload.probe_budget_s, tracer, knopf,
        canonical_json, references["requests"],
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = phase["records"]
    plain = [r for r in records if not r["traced"]]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(records),
        "failures": phase["failures"],
        "requests": len(plain),
        "rounds": len(phase["rounds"]),
        "verdict_s": statistics.median(r["wall"] for r in plain),
        "verdict_p90_s": percentile([r["wall"] for r in plain], 90),
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(knopf.__file__),
    }
    if tracer:
        out["layers"] = traced_metrics(tracer, phase["rounds"])
        out["layers"]["setup.import.s"] = t_import - t_start
        out["layers"]["setup.inputs.s"] = t_ready - t_import
        out["installed_spans"] = phase["installed"]
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        from depth import probe

        out["attempted"] += 1
        try:
            ring, step = workload.probe_setup()
            result = probe(step, workload.probe_budget_s)
            check = check_depth(result, references["depth"])
            check["consistency"] = (
                workload.consistency(ring, result["depth"])
                if check["unchecked_degrees"] else None
            )
        except Exception:
            last = traceback.format_exc().strip().splitlines()[-1]
            out["failures"].append({"name": "depth-probe", "why": "raised: " + last})
            result = {"depth": -1, "stop": "error", "degree_seconds": []}
            check = {}
        else:
            if not check["prefix_ok"] or check["consistency"] is False:
                out["failures"].append({"name": "depth-probe",
                                        "why": "dimensions or consistency differ"})
        out["probe"] = {k: result[k] for k in ("depth", "stop", "degree_seconds")}
        out["probe"].update(check)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
