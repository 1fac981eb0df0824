"""End-to-end acceptance checks with runtime budgets.

Each test pins one headline behavior of the workbench: non-unimodularity of
u(L), the symmetry/unimodularity cycle, Knop-character triviality, the
seven-condition equivalence on worked actions, determinantal Hilbert series,
the a(A) <= -n inequality, cross-route oracle agreements, and trace-map
properties.  Budgets are wall-clock upper bounds on this desk-scale corpus.
"""

import time

import pytest

from knopf import action as act
from knopf import canon, catalog
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import radford_battery, standard_module, u_l_hopf
from knopf.exactalg import FieldSpec
from knopf.gscheme import FiniteGroupScheme
from knopf.hopf import tensor_hopf
from knopf.ratfunc import Poly

Q = FieldSpec.rationals()

MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
REFLECTION = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]


def _mu3a5_ring():
    scheme = gs.mu_semidirect_alpha_scheme(FieldSpec.prime(5), 3)
    w = standard_module(scheme, 3, 5)
    v = act.direct_sum(w, w.dual())
    return scheme, act.GradedInvariantRing(v, label="W(+)W*")


def _graded_catalog_actions():
    """Every graded action the worked-example registry exercises by default."""
    out = []
    for name, params in catalog.default_runs():
        bundle = catalog.ENTRIES[name].builder(params)
        action = bundle.get("ring") or bundle.get("action")
        if action is not None:
            out.append((name, params, bundle, action))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_restricted_enveloping_is_not_unimodular_fast(p):
    start = time.monotonic()
    h = u_l_hopf(p)
    left, right = h.integrals("left"), h.integrals("right")
    assert len(left) == 1 and len(right) == 1
    assert not xa.arrays_equal(left, right)
    assert not h.is_unimodular()
    assert not h.is_symmetric()
    spec_dual = gs.scheme_of_hopf_dual(h)
    assert not spec_dual.knop_trivial()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"p={p} took {elapsed:.2f}s"


def test_symmetry_unimodularity_cycle_across_battery():
    start = time.monotonic()
    battery = radford_battery()
    assert len(battery) >= 10
    cocommutative_seen = 0
    schemes_seen = 0
    for label, h in battery:
        if h.is_cocommutative():
            cocommutative_seen += 1
            assert h.is_symmetric() == h.is_unimodular(), label
        if h.is_commutative():
            g = FiniteGroupScheme(h, label=label)
            schemes_seen += 1
            assert g.knop_trivial() == g.dual_algebra.is_unimodular(), label
    assert cocommutative_seen >= 5
    assert schemes_seen >= 3
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"battery took {elapsed:.2f}s"


def test_knop_character_triviality_instances():
    F2, F3, F5 = (FieldSpec.prime(p) for p in (2, 3, 5))
    trivial_schemes = [
        gs.constant_scheme(Q, catalog.dihedral_table(3), label="S3"),
        gs.constant_scheme(Q, catalog.dihedral_table(4), label="D4"),
        gs.constant_scheme(F5, catalog.cyclic_table(4), label="C4/F5"),
        FiniteGroupScheme(tensor_hopf(gs.mu_scheme(F2, 2).gamma, gs.alpha_scheme(F2).gamma),
                          label="mu_2xalpha_2"),
        gs.alpha_scheme(F2),
        gs.alpha_scheme(F5),
        gs.mu_scheme(Q, 4),
        gs.mu_scheme(F3, 3),
        gs.mu_semidirect_c2_scheme(Q, 3),
    ]
    for g in trivial_schemes:
        lam = g.knop_character()
        assert xa.arrays_equal(lam, g.unit_grouplike()), g.label


def test_watanabe_equivalence_and_reflection_contrast():
    start = time.monotonic()
    ring = act.constant_group_action(Q, MINUS_ID, label="<-I>")
    rep = canon.classify_small_action(ring, max_window=10)
    for key in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        assert rep.conditions[key].to_json() == "holds", key
    assert rep.a_omega == -2 == rep.a_molien
    assert rep.n == 2

    refl = act.constant_group_action(Q, REFLECTION, label="<diag(1,-1)>")
    rep2 = canon.classify_small_action(refl, max_window=10)
    assert rep2.smallness == "fails"
    assert rep2.a_omega == -3 == rep2.a_molien
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_mu3_alpha5_fails_quasi_gorenstein_with_witness():
    start = time.monotonic()
    scheme, ring = _mu3a5_ring()

    det = ring.det_character()
    assert scheme.grouplike_equal(det, scheme.unit_grouplike())  # inside SL(V)
    assert not scheme.knop_trivial()                             # lambda != 1
    lam = scheme.knop_character_modular_route()
    assert not scheme.grouplike_equal(det, lam)                  # det_V != lambda

    rep = canon.classify_small_action(ring, small_asserted=True, max_window=12)
    assert rep.conditions["c1"].to_json() == "holds"
    assert rep.watanabe_criterion is False
    assert rep.conditions["c4"].to_json() == "fails"
    witnesses = [w for w in rep.witnesses if w["kind"] == "hilbert_mismatch"]
    assert witnesses, "expected a Hilbert mismatch witness"
    assert witnesses[0]["degree"] <= 12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_determinantal_hilbert_series_exact():
    start = time.monotonic()
    for m, n, expect_a, palindromic in ((2, 2, -4, True), (2, 3, -6, False)):
        weights = [1] * n + [-1] * m
        diag = act.DiagonalizableAction(weights, 0)
        window = 2 * (m + n) + 2
        counts = diag.hilbert_function(window)
        den = Poly([1, 0, -1]).pow(m + n - 1)
        series = canon.reconstruct_rational(counts, den)
        assert series.degree_difference() == expect_a, (m, n)
        assert series.num.is_palindromic() == palindromic, (m, n)
        gjs = canon.gjs_inequality_check(diag, window, small=True)
        assert gjs.holds
        assert gjs.strict == (m != n)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_gjs_inequality_on_every_catalog_action():
    checked = 0
    for name, params, bundle, action in _graded_catalog_actions():
        rep = canon.gjs_inequality_check(action)
        assert rep.holds, f"{name} {params}: a = {rep.a_invariant}"
        checked += 1
    assert checked >= 8


def test_cross_route_oracle_agreements():
    # Molien series vs direct invariant dimensions, non-modular constant case
    for mats in (MINUS_ID, REFLECTION):
        ring = act.constant_group_action(Q, mats)
        series = act.molien_series(mats, Q)
        assert [int(c) for c in series.series_coeffs(11)] == \
            ring.hilbert_function(10)

    # adjoint and modular Knop routes agree on every scheme in sight
    schemes = [
        gs.constant_scheme(Q, catalog.dihedral_table(3)),
        gs.mu_scheme(FieldSpec.prime(3), 3),
        gs.alpha_scheme(FieldSpec.prime(5)),
        gs.mu_semidirect_alpha_scheme(FieldSpec.prime(5), 3),
        gs.scheme_of_hopf_dual(u_l_hopf(2)),
        gs.scheme_of_hopf_dual(u_l_hopf(3)),
        gs.scheme_of_hopf_dual(u_l_hopf(5)),
    ]
    for label, h in radford_battery():
        if h.is_commutative():
            schemes.append(FiniteGroupScheme(h, label=label))
    for g in schemes:
        assert g.knop_routes_agree(), g.label

    # diagonalizable weight route vs kernel route over a coprime field
    f7 = FieldSpec.prime(7)
    for m, ws in ((3, (1, 2)), (4, (1, 3)), (3, (1, 1))):
        diag = act.DiagonalizableAction(list(ws), m)
        ring = diag.to_kernel_route(f7)
        assert diag.hilbert_function(8) == ring.hilbert_function(8), (m, ws)
        tw = canon.canonical_twist(diag)
        assert canon.omega_hilbert(diag, tw, 8) == \
            canon.omega_hilbert(ring, canon.canonical_twist(ring), 8), (m, ws)


def test_trace_map_properties_across_catalog():
    # constant char-0 rings: image, equivariance, and Reynolds at d <= 8
    for mats, label in ((MINUS_ID, "<-I>"), (REFLECTION, "refl")):
        ring = act.constant_group_action(Q, mats, label=label)
        rep = act.trace_equivariance_check(ring, 8)
        assert rep.ok, label
        assert rep.unimodular
        for res in rep.degrees:
            assert res.image_in_invariants
            assert res.equivariance == "pass"
            assert res.reynolds == "pass"

    # scheme action with non-unimodular dual: image still lands in invariants
    _, ring = _mu3a5_ring()
    rep = act.trace_equivariance_check(ring, 8)
    assert rep.ok
    assert not rep.unimodular
    for res in rep.degrees:
        assert res.image_in_invariants

    # mu_m kernel-route rings have unimodular duals: full equivariance
    f7 = FieldSpec.prime(7)
    diag = act.DiagonalizableAction([1, 2], 3)
    ring7 = diag.to_kernel_route(f7)
    rep7 = act.trace_equivariance_check(ring7, 8)
    assert rep7.ok and rep7.unimodular
    for res in rep7.degrees:
        assert res.image_in_invariants and res.equivariance == "pass"
