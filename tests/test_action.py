"""Comodules, symmetric powers, invariants, Molien series, and the trace map."""

import itertools

import numpy as np
import pytest

from knopf import action as act
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import standard_module
from knopf.errors import InputError, UnsupportedCaseError
from knopf.exactalg import FieldSpec

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)

MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
REFLECTION = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]


def _mu3a5():
    return gs.mu_semidirect_alpha_scheme(F5, 3)


def test_comodule_axioms_and_witness():
    g = _mu3a5()
    w = standard_module(g, 3, 5)
    assert w.verify().ok

    bad = w.coaction.copy()
    bad[0, 0, 0] += 1
    broken = act.Comodule.__new__(act.Comodule)
    broken.scheme, broken.coaction = g, g.field.reduce(bad)
    broken.dim, broken.labels = 2, ["w1", "w2"]
    rep = broken.verify()
    assert not rep.ok
    assert rep.failures[0].witness is not None


def test_dual_and_sums_and_tensors():
    g = _mu3a5()
    w = standard_module(g, 3, 5)
    wd = w.dual()
    assert wd.verify().ok
    v = act.direct_sum(w, wd)
    assert v.dim == 4 and v.verify().ok
    t = act.tensor(w, w)
    assert t.dim == 4 and t.verify().ok
    assert wd.labels == ["w1*", "w2*"]


def test_det_characters():
    g = _mu3a5()
    w = standard_module(g, 3, 5)
    t = g.field.zeros(g.order)
    t[1 * 5 + 0] = 1
    assert g.grouplike_equal(act.det_character(w), t)
    v = act.direct_sum(w, w.dual())
    assert g.grouplike_equal(act.det_character(v), g.unit_grouplike())


def _loop_det_character(v):
    """The per-permutation mult_vec loop that det_character replaced."""
    f = v.field
    gamma = v.scheme.gamma
    n = v.dim
    acc = f.zeros(v.scheme.order)
    for perm in itertools.permutations(range(n)):
        term = gamma.unit
        for i in range(n):
            term = gamma.mult_vec(term, v.coaction[i, perm[i]])
        s = act._perm_sign(perm)
        acc = f.reduce(acc + term if s > 0 else acc - term)
    return acc


def _det_cases():
    g = _mu3a5()
    w = standard_module(g, 3, 5)
    wd = w.dual()
    yield pytest.param(act.direct_sum(w, wd), id="W+W*")
    yield pytest.param(act.tensor(w, wd), id="W.W*")
    yield pytest.param(act.direct_sum(act.tensor(w, w), wd), id="W.W+W*")
    yield pytest.param(
        act.DiagonalizableAction([1, 2, 2], 3).to_kernel_route(F5).module, id="mu3")
    s3 = [[[int(p[r] == c) for c in range(3)] for r in range(3)]
          for p in itertools.permutations(range(3))]
    rotation = [[1, 1, 0], [0, 1, 0], [-1, 0, 2]]
    for field in (Q, FieldSpec.prime(7)):
        yield pytest.param(act.constant_group_action(field, REFLECTION).module,
                           id=f"reflection-{field}")
        yield pytest.param(act.constant_group_action(field, s3).module, id=f"S3-{field}")
    # S3 in a rational basis, where the coaction has denominators
    p, p_inv = Q.asarray(rotation), xa.invert(Q, Q.asarray(rotation))
    conj = [xa.matmul(Q, xa.matmul(Q, p, Q.asarray(m)), p_inv) for m in s3]
    yield pytest.param(act.constant_group_action(Q, conj).module, id="S3-Q-rational-basis")


@pytest.mark.parametrize("module", _det_cases())
def test_det_character_matches_the_loop_form(module):
    got = act.det_character(module)
    want = _loop_det_character(module)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_constant_group_round_trip_and_labels():
    ring = act.constant_group_action(Q, MINUS_ID, var_labels=["x", "y"])
    assert ring.n == 2
    assert ring.variables.labels == ["x", "y"]
    assert ring.module.verify().ok
    assert ring.constant_matrices is not None


def test_constant_group_requires_closure():
    # missing inverse/identity data is rejected rather than silently fixed
    with pytest.raises(InputError):
        act.constant_group_action(Q, [[[0, 1], [1, 0]]][:1] + [[[2, 0], [0, 2]]])


def test_symmetric_power_dimensions():
    ring = act.constant_group_action(Q, MINUS_ID)
    for d in range(6):
        assert ring.tower.coaction(d).shape[0] == d + 1
    g = _mu3a5()
    v = act.direct_sum(standard_module(g, 3, 5),
                       standard_module(g, 3, 5).dual())
    ring4 = act.GradedInvariantRing(v)
    assert ring4.tower.coaction(4).shape[0] == 35  # C(4+3, 3)


def test_minus_id_hilbert_matches_molien():
    ring = act.constant_group_action(Q, MINUS_ID)
    dims = ring.hilbert_function(6)
    assert dims == [1, 0, 3, 0, 5, 0, 7]
    series = act.molien_series(MINUS_ID, Q)
    assert [int(c) for c in series.series_coeffs(7)] == dims


def test_molien_series_closed_form():
    from knopf.ratfunc import Poly, RatFunc

    series = act.molien_series(MINUS_ID, Q)
    assert series == RatFunc(Poly([1, 0, 1]), Poly([1, 0, -1]).pow(2))
    assert series.degree_difference() == -2


def test_molien_refuses_positive_characteristic():
    with pytest.raises(UnsupportedCaseError):
        act.molien_series(MINUS_ID, FieldSpec.prime(3))


def test_reflection_hilbert():
    ring = act.constant_group_action(Q, REFLECTION)
    assert ring.hilbert_function(5) == [1, 1, 2, 2, 3, 3]


def test_reflection_twisted_invariants_are_odd_in_y():
    ring = act.constant_group_action(Q, REFLECTION, var_labels=["x", "y"])
    sign = Q.asarray([1, -1])
    dims = [ring.invariant_dim(d, twist=sign) for d in range(4)]
    assert dims == [0, 1, 1, 2]
    basis = ring.invariant_basis(1, twist=sign)
    # the unique degree-1 semi-invariant is y
    assert len(basis) == 1
    assert basis[0][0] == 0 and basis[0][1] != 0


def test_pseudo_reflection_detection_and_smallness():
    f = Q
    mats = [f.asarray(m) for m in REFLECTION]
    assert act.pseudo_reflections(f, mats) == [1]
    assert not act.is_small_constant(f, mats)
    small = [f.asarray(m) for m in MINUS_ID]
    assert act.pseudo_reflections(f, small) == []
    assert act.is_small_constant(f, small)


def test_diagonalizable_weights_match_kernel_route():
    diag = act.DiagonalizableAction([1, 2], 3)
    f7 = FieldSpec.prime(7)
    ring = diag.to_kernel_route(f7)
    assert diag.hilbert_function(8) == ring.hilbert_function(8)


def test_diagonalizable_twisted_hilbert_brute_force():
    diag = act.DiagonalizableAction([1, 2], 3)
    for k in range(3):
        got = diag.hilbert_function(6, twist=k)
        want = []
        for e in range(7):
            count = sum(
                1
                for a in range(e + 1)
                if (a * 1 + (e - a) * 2 + k) % 3 == 0
            )
            want.append(count)
        assert got == want, k


def test_diagonalizable_det_weight():
    assert act.DiagonalizableAction([1, 2], 3).det_module_weight() == 0
    assert act.DiagonalizableAction([1, 1], 3).det_module_weight() == 1


def test_trace_minus_id_doubles_even_degrees():
    ring = act.constant_group_action(Q, MINUS_ID)
    assert xa.arrays_equal(ring.trace_matrix(2), 2 * Q.eye(3))
    assert xa.is_zero(ring.trace_matrix(1))
    assert xa.arrays_equal(ring.integral_functional(), Q.asarray([1, 1]))


def test_trace_alpha5_sends_x4_to_y4():
    g = gs.alpha_scheme(F5)
    w = g.field.zeros((2, 2, 5))
    w[0, 0, 0] = 1          # w1 -> w1 (x) 1
    w[0, 1, 1] = 1          # w2 -> w1 (x) a + w2 (x) 1
    w[1, 1, 0] = 1
    mod = act.Comodule(g, w, labels=["w1", "w2"])
    assert mod.verify().ok
    ring = act.GradedInvariantRing(mod, var_labels=["x", "y"])
    assert list(ring.integral_functional()) == [0, 0, 0, 0, 1]
    t4 = ring.trace_matrix(4)
    # monomial order x^4, x^3 y, ..., y^4; only Tr(x^4) = y^4 survives
    expect = g.field.zeros((5, 5))
    expect[4, 0] = 1
    assert xa.arrays_equal(t4, expect)
    assert list(ring.trace_map(4, [1, 0, 0, 0, 0])) == [0, 0, 0, 0, 1]


def test_trace_report_minus_id():
    ring = act.constant_group_action(Q, MINUS_ID, label="<-I>")
    rep = act.trace_equivariance_check(ring, 6)
    assert rep.ok
    assert rep.unimodular
    for res in rep.degrees:
        assert res.image_in_invariants
        assert res.equivariance == "pass"
        assert res.reynolds == "pass"



@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("n", [1, 2])
def test_trivial_group_fixed_space_leaves_tower_intact(field, n):
    from math import comb

    ring = act.constant_group_action(field, [np.eye(n, dtype=np.int64).tolist()])
    assert ring.scheme.order == 1
    unit = ring.scheme.unit_grouplike()
    for d in range(5):
        before = ring.tower.coaction(d).copy()
        plain = ring.invariant_basis(d)
        twisted = ring.invariant_basis(d, twist=unit)
        assert xa.arrays_equal(ring.tower.coaction(d), before)
        assert len(plain) == len(twisted) == comb(d + n - 1, n - 1)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_unit_twist_shares_the_untwisted_kernel(field):
    ring = act.constant_group_action(field, REFLECTION)
    unit = ring.scheme.unit_grouplike()
    for d in range(4):
        assert ring.invariant_basis(d, twist=unit) is ring.invariant_basis(d)
    sign = field.asarray([1, -1])
    assert [ring.invariant_dim(d, twist=sign) for d in range(4)] == [0, 1, 1, 2]


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_one_dimensional_group_algebra_integrals(field):
    from knopf.hopf import group_algebra

    h = group_algebra(field, [[0]])
    assert len(h.integrals("left")) == 1
    assert len(h.integrals("right")) == 1
    assert h.is_unimodular()
