"""Canonical-module twists, a-invariants, and the seven-condition report."""

import pytest

from knopf import action as act
from knopf import canon
from knopf import gscheme as gs
from knopf.catalog import standard_module
from knopf.errors import InputError
from knopf.exactalg import FieldSpec
from knopf.ratfunc import Poly

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)

MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
REFLECTION = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]


def _minus_id_ring():
    return act.constant_group_action(Q, MINUS_ID, label="<-I>")


def _reflection_ring():
    return act.constant_group_action(Q, REFLECTION, label="<diag(1,-1)>")


def _mu3a5_ring():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    v = act.direct_sum(w, act.dual_comodule(w))
    return act.GradedInvariantRing(v, label="W(+)W*")


def test_canonical_twist_constant_groups():
    ring = _minus_id_ring()
    tw = canon.canonical_twist(ring)
    assert ring.scheme.grouplike_equal(tw, ring.scheme.unit_grouplike())
    refl = _reflection_ring()
    sign = Q.asarray([1, -1])
    assert refl.scheme.grouplike_equal(canon.canonical_twist(refl), sign)


def test_canonical_twist_mu3a5_is_t_squared():
    ring = _mu3a5_ring()
    g = ring.scheme
    t2 = g.field.zeros(g.order)
    t2[2 * 5 + 0] = 1
    # det_V is trivial and lambda_adjoint = t, so the twist is t^{-1} = t^2
    assert g.grouplike_equal(canon.canonical_twist(ring), t2)
    assert g.grouplike_equal(canon.canonical_twist(ring),
                             g.knop_character_modular_route())


def test_canonical_twist_diagonal_weight():
    assert canon.canonical_twist(act.DiagonalizableAction([1, 2], 3)) == 0
    assert canon.canonical_twist(act.DiagonalizableAction([1, 1], 3)) == 1


def test_omega_module_first_degree():
    refl = _reflection_ring()
    tw = canon.canonical_twist(refl)
    omega = canon.TwistedGradedModule.omega(refl, tw, max_window=5)
    assert omega.dims[:4] == [0, 1, 1, 2]
    assert omega.first_nonzero_degree() == refl.n + 1  # degree 3 in omega grading


def test_a_invariant_via_omega_frozen_values():
    ring = _minus_id_ring()
    assert canon.a_invariant_via_omega(ring, canon.canonical_twist(ring), 6) == -2
    refl = _reflection_ring()
    assert canon.a_invariant_via_omega(refl, canon.canonical_twist(refl), 6) == -3


def test_a_invariant_undetermined_marker():
    diag = act.DiagonalizableAction([2, 2], 4)
    # weight sums are even, the twist weight 1 is odd: omega vanishes
    got = canon.a_invariant_via_omega(diag, 1, 6)
    assert isinstance(got, str)
    assert got == "<= -8 (undetermined)"


def test_a_invariant_via_molien():
    series = act.molien_series(MINUS_ID, Q)
    assert canon.a_invariant_via_molien(series) == -2


def test_classify_minus_id_all_seven_hold():
    rep = canon.classify_small_action(_minus_id_ring(), max_window=10)
    assert rep.smallness == "verified"
    assert rep.lambda_trivial and rep.det_trivial
    for key in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        assert rep.conditions[key].to_json() == "holds", key
    assert rep.a_omega == -2
    assert rep.a_molien == -2
    assert rep.consistency is True
    assert rep.watanabe_criterion is None
    assert rep.witnesses == []


def test_classify_reflection_outside_hypotheses():
    rep = canon.classify_small_action(_reflection_ring(), max_window=10)
    assert rep.smallness == "fails"
    assert not rep.det_trivial
    assert rep.conditions["c1"].to_json() == "fails"
    assert rep.conditions["c2"].to_json() == "fails"
    assert rep.conditions["c4"].to_json() == "fails"
    # Gorenstein, but at the wrong shift: c5 holds while c7 fails
    assert rep.conditions["c5"].to_json() == "holds"
    assert rep.conditions["c7"].to_json() == "fails"
    assert rep.a_omega == -3
    assert rep.a_molien == -3
    assert rep.consistency is True
    assert any(w["kind"] == "outside_hypotheses" for w in rep.witnesses)


def test_classify_mu3a5_watanabe_path():
    rep = canon.classify_small_action(
        _mu3a5_ring(), small_asserted=True, max_window=8
    )
    assert rep.smallness == "asserted"
    assert rep.det_trivial and not rep.lambda_trivial
    assert rep.conditions["c1"].to_json() == "holds"
    assert rep.conditions["c2"].to_json().startswith("not_evaluated")
    assert rep.watanabe_criterion is False
    assert rep.conditions["c4"].to_json() == "fails"
    assert rep.conditions["c5"].to_json() == "fails"
    assert rep.conditions["c6"].to_json() == "fails"
    assert rep.conditions["c7"].to_json() == "fails"
    assert rep.a_omega == -5
    mismatch = [w for w in rep.witnesses if w["kind"] == "hilbert_mismatch"]
    assert mismatch and mismatch[0]["degree"] == 4
    assert rep.consistency is True


def test_classify_diagonal_small_weights():
    rep = canon.classify_small_action(act.DiagonalizableAction([1, 2], 3),
                                      max_window=8)
    assert rep.smallness == "verified"
    for key in ("c1", "c2", "c3", "c4", "c5", "c6", "c7"):
        assert rep.conditions[key].to_json() == "holds", key
    assert rep.a_omega == -2


def test_classify_diagonal_reflection_like_weights():
    rep = canon.classify_small_action(act.DiagonalizableAction([1, 0], 3),
                                      max_window=6)
    assert rep.smallness == "fails"


def test_classify_refuses_unverifiable_smallness():
    with pytest.raises(InputError):
        canon.classify_small_action(_mu3a5_ring())


def test_gjs_minus_id_equality():
    rep = canon.gjs_inequality_check(_minus_id_ring())
    assert rep.holds and rep.strict is False
    assert not rep.outside_hypotheses
    assert rep.min_omega_degree == 2
    assert rep.a_invariant == -2


def test_gjs_reflection_strict_outside():
    rep = canon.gjs_inequality_check(_reflection_ring())
    assert rep.holds and rep.strict is True
    assert rep.outside_hypotheses
    assert rep.a_invariant == -3


def test_hilbert_series_from_counts_matches_molien():
    ring = _minus_id_ring()
    counts = ring.hilbert_function(12)
    series = canon.reconstruct_rational(counts, Poly([1, 0, -1]).pow(2))
    assert series == act.molien_series(MINUS_ID, Q)
