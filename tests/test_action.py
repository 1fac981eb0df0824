"""Comodules, symmetric powers, invariants, Molien series, and the trace map."""

import copy
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from knopf import action as act
from knopf import catalog
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import standard_module
from knopf.errors import InputError, UndecidedError, UnsupportedCaseError
from knopf.exactalg import FieldSpec
from knopf.ratfunc import Poly, RatFunc, det_poly_matrix
import dense_ref as dr

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

    bad = w.coaction.to_dense(g.field)
    bad[0, 0, 0] += 1
    broken = act.Comodule.__new__(act.Comodule)
    broken.scheme, broken.coaction = g, xa.SparseCoaction.from_dense(g.field.reduce(bad))
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


def test_every_comodule_holds_a_sparse_coaction():
    w = standard_module(_mu3a5(), 3, 5)
    mu3 = act.DiagonalizableAction([1, 2, 2], 3).to_kernel_route(F5)
    modules = [w, w.dual(), act.direct_sum(w, w.dual()), act.tensor(w, w), mu3.module,
               act.constant_group_action(Q, REFLECTION).module]
    for v in modules:
        assert isinstance(v.coaction, xa.SparseCoaction) and v.verify().ok
    # the diagonal mu_3 action carries the inverse characters t^2, t, t
    assert [(i, j, g) for i, j, g, _ in mu3.module.coaction.entries()] == [
        (0, 0, 2), (1, 1, 1), (2, 2, 1)]
    # the tower is built on first use only
    assert "tower" not in vars(mu3)
    assert mu3.tower.coaction(1).dim == 3 and "tower" in vars(mu3)


def test_det_characters():
    g = _mu3a5()
    w = standard_module(g, 3, 5)
    t = g.field.zeros(g.order)
    t[1 * 5 + 0] = 1
    assert g.grouplike_equal(act.det_character(w), t)
    v = act.direct_sum(w, w.dual())
    assert g.grouplike_equal(act.det_character(v), g.unit_grouplike())


def _perm_sign(perm) -> int:
    inversions = sum(perm[a] > perm[b] for a in range(len(perm))
                     for b in range(a + 1, len(perm)))
    return -1 if inversions % 2 else 1


def _loop_det_character(v):
    """The per-permutation mult_vec loop that det_character replaced."""
    f = v.field
    gamma = v.scheme.gamma
    n = v.dim
    acc, coact = f.zeros(v.scheme.order), v.coaction.to_dense(f)
    for perm in itertools.permutations(range(n)):
        term = gamma.unit
        for i in range(n):
            term = gamma.mult_vec(term, coact[i, perm[i]])
        s = _perm_sign(perm)
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
    p, p_inv = Q.asarray(rotation), dr.invert(Q, Q.asarray(rotation))
    conj = [dr.matmul(Q, dr.matmul(Q, p, Q.asarray(m)), p_inv) for m in s3]
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
        assert ring.tower.coaction(d).dim == d + 1
    g = _mu3a5()
    v = act.direct_sum(standard_module(g, 3, 5),
                       standard_module(g, 3, 5).dual())
    ring4 = act.GradedInvariantRing(v)
    assert ring4.tower.coaction(4).dim == 35  # C(4+3, 3)


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


def test_det_character_refuses_past_its_column_set_budget(monkeypatch):
    # dim 4: the widest level holds C(4, 2) = 6 column sets; at the budget the
    # determinant is computed, one past it refused by name
    w = standard_module(_mu3a5(), 3, 5)
    module = act.direct_sum(w, w.dual())
    expected = act.det_character(module)
    monkeypatch.setattr(act, "DET_SET_BUDGET", 6)
    assert xa.arrays_equal(act.det_character(module), expected)
    monkeypatch.setattr(act, "DET_SET_BUDGET", 5)
    with pytest.raises(UndecidedError,
                       match=r"C\(4, 2\) column sets .* action\.DET_SET_BUDGET = 5"):
        act.det_character(module)


def test_diagonalizable_det_weight():
    assert act.DiagonalizableAction([1, 2], 3).det_module_weight() == 0
    assert act.DiagonalizableAction([1, 1], 3).det_module_weight() == 1


def test_trace_minus_id_doubles_even_degrees():
    ring = act.constant_group_action(Q, MINUS_ID)
    assert xa.arrays_equal(dr.trace_matrix(ring, 2), 2 * Q.eye(3))
    assert xa.is_zero(dr.trace_matrix(ring, 1))
    assert xa.arrays_equal(ring.scheme.dual_algebra.left_integral(), Q.asarray([1, 1]))


def test_trace_alpha5_sends_x4_to_y4():
    g = gs.alpha_scheme(F5)
    w = g.field.zeros((2, 2, 5))
    w[0, 0, 0] = 1          # w1 -> w1 (x) 1
    w[0, 1, 1] = 1          # w2 -> w1 (x) a + w2 (x) 1
    w[1, 1, 0] = 1
    mod = act.Comodule(g, w, labels=["w1", "w2"])
    assert mod.verify().ok
    ring = act.GradedInvariantRing(mod, var_labels=["x", "y"])
    assert list(ring.scheme.dual_algebra.left_integral()) == [0, 0, 0, 0, 1]
    t4 = dr.trace_matrix(ring, 4)
    # monomial order x^4, x^3 y, ..., y^4; only Tr(x^4) = y^4 survives
    expect = g.field.zeros((5, 5))
    expect[4, 0] = 1
    assert xa.arrays_equal(t4, expect)
    assert list(t4[:, 0]) == [0, 0, 0, 0, 1]


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
        before = copy.deepcopy(ring.tower.coaction(d))
        plain = ring.invariant_basis(d)
        twisted = ring.invariant_basis(d, twist=unit)
        assert ring.tower.coaction(d) == before
        assert len(plain) == len(twisted) == comb(d + n - 1, n - 1)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_unit_twist_shares_the_untwisted_kernel(field):
    ring = act.constant_group_action(field, REFLECTION)
    unit = ring.scheme.unit_grouplike()
    for d in range(4):
        assert ring.invariant_basis(d, twist=unit) is ring.invariant_basis(d)
    sign = field.asarray([1, -1])
    assert [ring.invariant_dim(d, twist=sign) for d in range(4)] == [0, 1, 1, 2]


def test_a_cached_invariant_basis_is_read_only():
    ring = act.constant_group_action(Q, MINUS_ID)
    basis = ring.invariant_basis(2)
    with pytest.raises(ValueError):
        basis[0, 0] = 7
    assert xa.arrays_equal(ring.invariant_basis(2), Q.eye(3))


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_one_dimensional_group_algebra_integrals(field):
    from knopf.hopf import group_algebra

    h = group_algebra(field, [[0]])
    assert len(h.integrals("left")) == 1
    assert len(h.integrals("right")) == 1
    assert h.is_unimodular()


# -- constant groups: the batched closure and the grouped Molien sum -----------


def _pairwise_close(field, matrices):
    """The closure as it was: one exact product per pair, keyed by strings."""
    key = lambda m: tuple(field.fmt(x) for x in m.reshape(-1))
    keys = {key(m): g for g, m in enumerate(matrices)}
    eye = field.eye(matrices[0].shape[0])
    ident = next(a for a, m in enumerate(matrices) if xa.arrays_equal(m, eye))
    table = [[keys[key(dr.matmul(field, ma, mb))] for mb in matrices] for ma in matrices]
    return table, ident


CUBE = [
    [[signs[r] * int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
    if _perm_sign(perm) * signs[0] * signs[1] * signs[2] == 1
]
S3 = [[[int(p[r] == c) for c in range(3)] for r in range(3)]
      for p in itertools.permutations(range(3))]


def _conjugated_s3():
    # S3 in a rational basis: entries with denominators
    p = Q.asarray([[1, 1, 0], [0, 1, 0], [-1, 0, 2]])
    p_inv = dr.invert(Q, p)
    return [dr.matmul(Q, dr.matmul(Q, p, Q.asarray(m)), p_inv).tolist() for m in S3]


def _conjugated_cube(shift):
    # integral entries up to 2^(2 shift) + 2^shift: 3 max|m|^2 is below 2^63
    # at shift 15 and past it at 16, the two sides of _close_group's int64 guard
    p = Q.asarray([[1, 2**shift, 0], [0, 1, 0], [0, 0, 1]])
    p_inv = dr.invert(Q, p)
    return [dr.matmul(Q, dr.matmul(Q, p, Q.asarray(m)), p_inv).tolist() for m in CUBE]


def _shuffled(mats, seed):
    mats = list(mats)
    if seed:
        random.Random(seed).shuffle(mats)
    return mats


@pytest.mark.parametrize("field, mats", [
    (Q, _shuffled(CUBE, 0)), (Q, _shuffled(CUBE, 1)), (Q, _conjugated_s3()),
    (Q, _conjugated_cube(15)), (Q, _conjugated_cube(16)),
    (FieldSpec.prime(7), _shuffled(CUBE, 1)), (F5, _shuffled(S3, 2)),
], ids=["cube-seed0", "cube-seed1", "Q-fractional-S3", "Q-cube-below-int64-guard",
        "Q-cube-past-int64-guard", "F7-cube", "F5-S3"])
def test_close_group_matches_the_pairwise_loop(field, mats):
    mats = [field.asarray(m) for m in mats]
    table, ident = act._close_group(field, mats)
    assert (table, ident) == _pairwise_close(field, mats)
    # identity moved first: the table is permuted rather than closed again
    order = [ident] + [g for g in range(len(mats)) if g != ident]
    ring = act.constant_group_action(field, mats)
    want = gs.constant_scheme(field, _pairwise_close(field, [mats[g] for g in order])[0],
                              labels=[f"g{i}" for i in range(len(mats))])
    assert ring.scheme.gamma == want.gamma


def test_close_group_refuses_a_product_that_wraps_in_int64():
    # (A @ B)[0, 4] = 2^31 (y1 + y2 + y3) = 2^64 is 0 mod 2^64, so in int64
    # {I, 0, A, B} looks closed; max|m|^2 is below 2^63 and 5 max|m|^2 is
    # not, so only a guard that counts the n terms of each sum refuses it
    a, b = np.zeros((5, 5), dtype=np.int64), np.zeros((5, 5), dtype=np.int64)
    a[0, 1:4] = 2**31
    b[1:4, 4] = [2863311531, 2863311531, 2863311530]
    mats = [Q.asarray(m.tolist()) for m in (np.eye(5, dtype=np.int64), 0 * a, a, b)]
    with pytest.raises(InputError, match="not closed"):
        act._close_group(Q, mats)


def _molien_per_element(matrices):
    """(1/|G|) sum_g 1/det(I - t g), one summand per element."""
    mats = [Q.asarray(m) for m in matrices]
    n = mats[0].shape[0]
    total = RatFunc.from_poly(Poly.zero())
    for g in mats:
        det = det_poly_matrix([[Poly((Fraction(int(i == j)), -g[i, j])) for j in range(n)]
                               for i in range(n)])
        total = total + RatFunc(Poly.one(), det)
    return total.scale(Fraction(1, len(mats)))


def _catalog_groups():
    """(name, matrices) of every default catalog run on a constant group."""
    out = []
    for name, params in catalog.default_runs():
        bundle = catalog.ENTRIES[name].builder(params)
        if "matrices" in bundle:
            out.append((name, bundle["matrices"]))
    return out


CATALOG_GROUPS = _catalog_groups()


@pytest.mark.parametrize(
    "mats",
    [MINUS_ID, REFLECTION, CUBE, S3, _conjugated_s3(), _shuffled(CUBE, 1),
     _shuffled(_conjugated_s3(), 3)] + [mats for _, mats in CATALOG_GROUPS],
    ids=["minus-id", "reflection", "cube", "S3", "Q-fractional-S3", "cube-seed1",
         "Q-fractional-S3-seed3"] + [f"catalog-{name}" for name, _ in CATALOG_GROUPS])
def test_molien_sums_each_characteristic_polynomial_once(mats):
    # one determinant per conjugacy class, weighted by its size: the same sum,
    # summands in the same order, as one determinant per element
    got = act.molien_series(mats, Q)
    want = _molien_per_element(mats)
    assert got == want and repr(got) == repr(want)


def test_molien_takes_one_determinant_per_conjugacy_class(monkeypatch):
    calls = []
    real = act.det_poly_matrix

    def counting(entries):
        calls.append(entries)
        return real(entries)

    monkeypatch.setattr(act, "det_poly_matrix", counting)
    act.molien_series(CUBE, Q)
    # the rotation group of the cube (S_4) has five conjugacy classes
    assert len(calls) == 5
