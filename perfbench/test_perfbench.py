"""Tests of the benchmark's own logic (not of knopf).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import depth  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from worker import REFERENCES, check_depth, digest, verify  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tracing ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.open("outer")          # 0 .. 10
    clock.now = 1.0
    mid = tr.open("mid")              # 1 .. 7
    clock.now = 2.0
    leaf = tr.open("leaf")            # 2 .. 5
    clock.now = 5.0
    tr.close(leaf)
    clock.now = 7.0
    tr.close(mid)
    clock.now = 8.0
    other = tr.open("leaf")           # 8 .. 9
    clock.now = 9.0
    tr.close(other)
    clock.now = 10.0
    tr.close(outer)
    own = self_times(tr.spans)
    assert own[outer.id] == 10.0 - 6.0 - 1.0
    assert own[mid.id] == 6.0 - 3.0
    assert own[leaf.id] == 3.0
    assert mid.parent == outer.id and leaf.parent == mid.id
    totals = summarize(tr.spans)
    assert totals["outer.self_s"] == 3.0
    assert totals["leaf.s"] == 4.0 and totals["leaf.calls"] == 2


def test_nested_spans_of_one_name_count_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    a = tr.open("ratfunc")
    clock.now = 1.0
    b = tr.open("ratfunc")
    clock.now = 3.0
    tr.close(b)
    clock.now = 4.0
    tr.close(a)
    a.counts = b.counts = {"lane": "q"}
    totals = summarize(tr.spans)
    assert totals["ratfunc.s"] == 4.0
    assert totals["ratfunc.q_s"] == 4.0
    assert totals["ratfunc.self_s"] == 4.0
    assert totals["ratfunc.calls"] == 2


def test_patch_wraps_every_alias_and_unpatch_restores():
    import types

    def f(x):
        return x + 1

    home = types.SimpleNamespace(f=f)
    alias = types.SimpleNamespace(f=f)
    tr = Tracer()
    assert tr.patch(home, "f", "layer", lambda a, k, r: {"n": r}, also=[alias])
    assert not tr.patch(home, "missing", "layer")
    assert alias.f(1) == 2 and home.f(2) == 3
    assert [s.counts["n"] for s in tr.spans] == [2, 3]
    tr.unpatch()
    assert home.f is f and alias.f is f


# -- output checks -----------------------------------------------------------


def test_corrupted_output_fails_the_hash_check():
    from knopf.jsonio import canonical_json
    from workloads import StructureBattery

    battery = StructureBattery(0)
    with open(REFERENCES) as fh:
        refs = json.load(fh)["structure-battery"]["requests"]
    req = next(r for r in battery.requests if r.name == "uL/F2:is_unimodular")
    code, payload = req.run()
    good = {"name": req.name, "exit": code, "sha256": digest(canonical_json(payload))}
    assert verify(good, refs) is None
    corrupted = dict(good, sha256=digest(canonical_json(not payload)))
    assert verify(corrupted, refs) == "output differs from the reference"
    assert verify(dict(good, exit=1), refs).startswith("exit code")
    assert verify({"name": req.name, "error": "Traceback\nValueError: x"},
                  refs) == "raised: ValueError: x"
    assert verify(dict(good, name="no-such-request"), refs) == "no reference output"


def test_depth_check_separates_checked_and_unchecked_degrees():
    ref = {"a_dims": [1, 0, 1], "omega_dims": [1, 0, 1]}
    deeper = {"a_dims": [1, 0, 1, 0, 2], "omega_dims": [1, 0, 1, 0, 2]}
    assert check_depth(deeper, ref) == {
        "checked_degrees": 3, "unchecked_degrees": 2, "prefix_ok": True,
    }
    wrong = {"a_dims": [1, 1], "omega_dims": [1, 0]}
    assert check_depth(wrong, ref)["prefix_ok"] is False


# -- depth probe guards --------------------------------------------------------


def test_memory_guard_stops_on_projection_without_allocating():
    clock = FakeClock()
    readings = iter([100, 110, 130, 170, 250, 410, 730, 1370])
    steps = []

    def step(d):
        steps.append(d)
        clock.now += 0.001
        return 1, 1

    out = depth.probe(step, budget_s=1e9, ceiling_bytes=1000,
                      rss=lambda: next(readings), clock=clock)
    # after degree 3 RSS is 250 (last growth 80, growth ratio 2):
    # 250 + 4 * 80 * 2 = 890 <= 1000; after degree 4 it is 410:
    # 410 + 4 * 160 * 2 = 1690 > 1000, so degree 5 never starts.
    assert out["stop"] == "memory"
    assert steps == [0, 1, 2, 3, 4]
    assert out["depth"] == 4


def test_rss_projection_values():
    assert depth.project_next_rss([100]) == 100
    assert depth.project_next_rss([100, 110]) == 110 + 4 * 10 * 1
    assert depth.project_next_rss([100, 110, 130]) == 130 + 4 * 20 * 2
    assert depth.project_next_rss([100, 100, 100]) == 100


def test_projected_overrun_keeps_a_degree_from_starting():
    clock = FakeClock()
    durations = iter([1.0, 4.0])
    steps = []

    def step(d):
        steps.append(d)
        clock.now += next(durations)
        return d, d

    out = depth.probe(step, budget_s=10.0, rss=lambda: 0, clock=clock)
    # after 5 s, degree 2 is projected at 4 * 4 = 16 s, ending at 21 s, past
    # twice the budget: it never starts.
    assert out["stop"] == "time" and out["depth"] == 1 and steps == [0, 1]


def test_degree_ending_past_the_budget_does_not_count():
    clock = FakeClock()
    durations = iter([1.0, 1.0, 9.0])

    def step(d):
        clock.now += next(durations)
        return d, d

    out = depth.probe(step, budget_s=5.0, rss=lambda: 0, clock=clock)
    assert out["stop"] == "time" and out["depth"] == 1


def test_max_depth_stop():
    out = depth.probe(lambda d: (d, d), budget_s=1e9, max_depth=3,
                      rss=lambda: 0)
    assert out["stop"] == "max_depth" and out["depth"] == 3


# -- workload inputs ---------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_module_is_an_isomorphic_comodule(seed):
    from workloads import FpSchemeWindow

    base = FpSchemeWindow(0).build_ring()
    moved_workload = FpSchemeWindow(seed)
    assert moved_workload.module_obj != FpSchemeWindow(0).module_obj
    moved = moved_workload.build_ring()
    assert moved.module.verify().ok
    assert moved.hilbert_function(5) == base.hilbert_function(5)


def test_cube_rotations_form_the_rotation_group():
    from workloads import QCubeRotations, cube_rotations

    mats = cube_rotations()
    assert len(mats) == 24 and len({str(m) for m in mats}) == 24
    ring = QCubeRotations(3).build_ring()   # raises unless closed
    assert ring.scheme.order == 24


def test_battery_builders_mirror_the_catalog_battery():
    from knopf import catalog
    from workloads import _algebras

    built = _algebras()
    battery = catalog.radford_battery()
    assert list(built) == [name for name, _ in battery]
    for name, h in battery:
        assert built[name]() == h, name


def test_battery_order_depends_only_on_the_seed():
    from workloads import StructureBattery

    def names(seed):
        return [r.name for r in next(StructureBattery(seed).rounds())]

    assert names(0) == names(0) and names(5) == names(5)
    assert names(5) != names(0) and sorted(names(5)) == sorted(names(0))
    assert len(set(names(0))) == len(names(0))
