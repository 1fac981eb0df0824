"""Evidence-depth probe: how far degree by degree a fixed time budget reaches.

`probe` calls `step(d)` for d = 0, 1, ... and stops for one of three
reasons, which it records:

* "time": the degree just run ended past the budget (it then does not
  count), or the next degree is projected to end past OVERRUN_FACTOR times
  the budget, which bounds how long a probe can run over;
* "memory": the process's own RSS, projected one degree ahead, would pass the
  ceiling.  The projection is made before the degree starts, so the probe
  never allocates its way past the ceiling on the projected path;
* "max_depth": every degree up to the cap finished.

Both projections only extrapolate what the probe has measured so far, so they
are pure functions of the histories and can be tested without allocating.
"""

from __future__ import annotations

import os
import resource
import time

MAX_DEPTH = 128
MEMORY_CEILING_BYTES = 1 << 30
# A degree allocates its kernel matrix and the elimination's working copies
# on top of what it keeps, so the retained growth is scaled by this factor.
TRANSIENT_FACTOR = 4.0
MAX_GROWTH = 4.0
OVERRUN_FACTOR = 2.0


def _growth(last: float, before: float) -> float:
    if before <= 0:
        return MAX_GROWTH if last > 0 else 1.0
    return min(max(last / before, 1.0), MAX_GROWTH)


def project_next_seconds(durations: list[float]) -> float:
    """Seconds the next degree should take, from the last two degrees."""
    if not durations:
        return 0.0
    last = durations[-1]
    before = durations[-2] if len(durations) > 1 else last
    return last * _growth(last, before)


def project_next_rss(history: list[int]) -> float:
    """Peak RSS expected during the next degree, from RSS after each degree.

    `history[0]` is the RSS before degree 0, `history[k]` the RSS after
    degree k-1.
    """
    if len(history) < 2:
        return float(history[-1]) if history else 0.0
    last = max(history[-1] - history[-2], 0)
    before = max(history[-2] - history[-3], 0) if len(history) > 2 else last
    return history[-1] + TRANSIENT_FACTOR * last * _growth(last, before)


def current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        # ru_maxrss is a high-water mark in KiB: an over-estimate of the
        # current RSS, which only makes the guard stop earlier.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def probe(step, budget_s: float, max_depth: int = MAX_DEPTH,
          ceiling_bytes: float = MEMORY_CEILING_BYTES,
          rss=current_rss_bytes, clock=time.perf_counter) -> dict:
    """Run `step(d) -> (a_d, omega_d)` until the budget, memory or the cap.

    Returns the depth reached (-1 if no degree finished in time), the stop
    reason, the dimensions of every degree that finished in time, and the
    per-degree seconds.
    """
    start = clock()
    durations: list[float] = []
    rss_history = [rss()]
    a_dims: list[int] = []
    omega_dims: list[int] = []
    stop = "max_depth"
    for d in range(max_depth + 1):
        projected_end = clock() - start + project_next_seconds(durations)
        if projected_end > OVERRUN_FACTOR * budget_s:
            stop = "time"
            break
        if project_next_rss(rss_history) > ceiling_bytes:
            stop = "memory"
            break
        t0 = clock()
        a_d, omega_d = step(d)
        t1 = clock()
        if t1 - start > budget_s:
            stop = "time"
            break
        durations.append(t1 - t0)
        rss_history.append(rss())
        a_dims.append(a_d)
        omega_dims.append(omega_d)
    return {
        "depth": len(a_dims) - 1,
        "stop": stop,
        "a_dims": a_dims,
        "omega_dims": omega_dims,
        "degree_seconds": durations,
        "rss_bytes": rss_history,
    }
