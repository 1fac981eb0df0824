"""Which knopf calls the traced run wraps, and the per-layer metrics it reports.

Wrappers are installed from outside the package only for traced rounds; the
program's files are never changed.  Module-level functions are replaced in
every knopf module that imported them by name, class methods on the class.
"""

from __future__ import annotations

import numpy as np

# (metric name, unit); `count` and `bytes` metrics listed in COMPUTED_COUNTS
# are exact computed counts that repeat bit for bit between traced runs.
PER_LAYER = [
    ("exactalg.rref.s", "s"),
    ("exactalg.rref.calls", "count"),
    ("exactalg.rref.entries", "count"),
    ("exactalg.rref.nnz", "count"),
    ("exactalg.rref.density", "ratio"),
    ("exactalg.rref.rank_per_row", "ratio"),
    ("exactalg.rref.q_s", "s"),
    ("exactalg.tensordot.s", "s"),
    ("exactalg.tensordot.calls", "count"),
    ("exactalg.tensordot.q_s", "s"),
    ("exactalg.matmul.s", "s"),
    ("action.tower.s", "s"),
    ("action.tower.bytes", "bytes"),
    ("action.invariants.s", "s"),
    ("action.twisted.s", "s"),
    ("action.det_character.s", "s"),
    ("action.molien.s", "s"),
    ("action.pseudo_reflections.s", "s"),
    ("gscheme.knop_adjoint.s", "s"),
    ("gscheme.knop_modular.s", "s"),
    ("hopf.integrals.s", "s"),
    ("hopf.dual.s", "s"),
    ("hopf.verify_axioms.s", "s"),
    ("hopf.frobenius.s", "s"),
    ("hopf.frobenius.rank_checks", "count"),
    ("hopf.antipode.s", "s"),
    ("canon.classify.self_s", "s"),
    ("canon.omega_hilbert.s", "s"),
    ("canon.canonical_twist.s", "s"),
    ("ratfunc.s", "s"),
    ("jsonio.load.s", "s"),
    ("jsonio.canonical_json.s", "s"),
    ("cli.main.self_s", "s"),
    ("catalog.run.s", "s"),
    ("setup.import.s", "s"),
    ("setup.inputs.s", "s"),
    ("trace.round.s", "s"),
    ("trace.overhead_s", "s"),
]

COMPUTED_COUNTS = [
    "exactalg.rref.calls",
    "exactalg.rref.entries",
    "exactalg.rref.nnz",
    "exactalg.rref.density",
    "exactalg.rref.rank_per_row",
    "exactalg.tensordot.calls",
    "action.tower.bytes",
    "hopf.frobenius.rank_checks",
]


def _lane(arr) -> str:
    return "q" if arr.dtype == object else "fp"


def _rref_counts(args, kwargs, result):
    mat = args[1]
    rows, cols = mat.shape
    return {
        "entries": rows * cols,
        "nnz": int(np.count_nonzero(mat)),
        "rank": len(result[1]),
        "rows": rows,
        "lane": _lane(mat),
    }


def _tensordot_lane(args, kwargs, result):
    return {"lane": _lane(args[1])}


def install(tracer, knopf) -> list[str]:
    """Wrap knopf's layer boundaries; returns the span names that exist."""
    from knopf import (action, canon, catalog, cli, exactalg, gscheme, hopf,
                       jsonio, ratfunc)

    modules = (knopf, action, canon, catalog, cli, exactalg, gscheme, hopf,
               jsonio, ratfunc)
    installed = []

    def fn(module, attr, name, counter=None):
        if tracer.patch(module, attr, name, counter, also=modules):
            installed.append(name)

    def method(cls, attr, name):
        if tracer.patch(cls, attr, name):
            installed.append(name)

    fn(exactalg, "rref", "exactalg.rref", _rref_counts)
    fn(exactalg, "rank", "exactalg.rank")
    fn(exactalg, "tensordot", "exactalg.tensordot", _tensordot_lane)
    fn(exactalg, "matmul", "exactalg.matmul")
    fn(action, "det_character", "action.det_character")
    fn(action, "molien_series", "action.molien")
    fn(action, "pseudo_reflections", "action.pseudo_reflections")
    fn(canon, "classify_small_action", "canon.classify")
    fn(canon, "omega_hilbert", "canon.omega_hilbert")
    fn(canon, "canonical_twist", "canon.canonical_twist")
    fn(jsonio, "load_json", "jsonio.load")
    fn(jsonio, "canonical_json", "jsonio.canonical_json")
    fn(cli, "main", "cli.main")
    fn(catalog, "run", "catalog.run")
    for attr in ("det_poly_matrix", "reconstruct_rational", "poly_gcd"):
        fn(ratfunc, attr, "ratfunc")
    for attr in ("__init__", "__add__", "__mul__", "scale",
                 "series_normal_form", "series_coeffs", "degree_difference"):
        method(ratfunc.RatFunc, attr, "ratfunc")
    method(gscheme.FiniteGroupScheme, "knop_character_adjoint_route",
           "gscheme.knop_adjoint")
    method(gscheme.FiniteGroupScheme, "knop_character_modular_route",
           "gscheme.knop_modular")
    method(hopf.HopfAlgebraData, "integrals", "hopf.integrals")
    method(hopf.HopfAlgebraData, "dual", "hopf.dual")
    method(hopf.HopfAlgebraData, "verify_axioms", "hopf.verify_axioms")
    method(hopf.HopfAlgebraData, "is_frobenius", "hopf.frobenius")
    method(hopf.HopfAlgebraData, "is_symmetric", "hopf.frobenius")
    method(hopf.HopfAlgebraData, "_solve_antipode", "hopf.antipode")
    method(hopf.HopfAlgebraData, "apply_antipode", "hopf.antipode")
    return sorted(set(installed))


def layer_metrics(totals: dict[str, float], rank_checks: int) -> dict[str, float]:
    """Per-layer metric values from `tracer.summarize` totals of one round."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name in out:
        if name in totals:
            out[name] = totals[name]
    entries = totals.get("exactalg.rref.entries", 0)
    rows = totals.get("exactalg.rref.rows", 0)
    out["exactalg.rref.density"] = (
        totals.get("exactalg.rref.nnz", 0) / entries if entries else 0.0
    )
    out["exactalg.rref.rank_per_row"] = (
        totals.get("exactalg.rref.rank", 0) / rows if rows else 0.0
    )
    out["hopf.frobenius.rank_checks"] = rank_checks
    return out
