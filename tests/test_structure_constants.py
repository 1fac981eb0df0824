"""Sparse structure constants against the dense tensordot forms they replaced.

`HopfAlgebraData` holds mult, comult and antipode by their nonzeros.  The
functions prefixed `_dense_` below are the dense (n, n, n) tensordot forms of
the dual, the integrals, the modular element, grouplike test, the adjoint
Knop route and the Hopf and comodule axiom checks, kept as the reference; the
sparse code must give the same arrays, the same verdicts and the same
first-mismatch witnesses, also on structure constants perturbed away from a
Hopf algebra or a comodule.
"""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knopf import action as act
from knopf import canon
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.catalog import cyclic_table, dihedral_table, u_l_hopf
from knopf.errors import InconsistencyError, InputError
from knopf.exactalg import FieldSpec
from knopf.hopf import HopfAlgebraData, function_algebra, group_algebra, tensor_hopf
from knopf.jsonio import canonical_json
import dense_ref as dr

Q = FieldSpec.rationals()
FIELDS = [Q, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5),
          FieldSpec.prime(7)]


# -- the dense reference ------------------------------------------------------


def _arrays(h):
    """unit, mult, counit, comult, antipode as dense field arrays."""
    f = h.field
    return (h.unit, h.mult.to_dense(f), h.counit, h.comult.to_dense(f),
            h.antipode.to_dense(f)[:, :, 0])


def _dense_dual(h):
    u, c, e, d, s = _arrays(h)
    labels = [lb[:-1] if lb.endswith("*") else lb + "*" for lb in h.basis]
    return HopfAlgebraData(h.field, labels, e, d.transpose(1, 2, 0), u,
                           c.transpose(2, 0, 1), s.T)


def _dense_integrals(f, c, e, side):
    n = len(e)
    coact = c.transpose(2, 1, 0) if side == "left" else c.transpose(2, 0, 1)
    # row (k, i), column j: coact[k, j, i] - [j == k] eps(b_i)
    a = coact.transpose(0, 2, 1).copy()
    for k in range(n):
        a[k, :, k] = f.reduce(a[k, :, k] - e)
    return dr.kernel_basis(f, a.reshape(n * n, n))


def _dense_left_integral(f, c, e):
    space = _dense_integrals(f, c, e, "left")
    if len(space) != 1:
        raise InconsistencyError("left integral space is not one-dimensional")
    lam = space[0]
    return f.reduce(lam * f.inv(lam[xa._first_nonzero(lam)]))


def _dense_modular_element(f, c, e):
    lam = _dense_left_integral(f, c, e)
    w = dr.tensordot(f, lam, c, ([0], [0]))
    alpha = w[:, xa._first_nonzero(lam)]
    expected = dr.outer(f, alpha, lam)
    for i in range(len(e)):
        if not xa.arrays_equal(expected[i], w[i]):
            raise InconsistencyError(
                f"right multiplication by b_{i} does not preserve the integral line")
    return alpha


def _dense_is_grouplike(f, d, e, v):
    dv = dr.tensordot(f, v, d, ([0], [0]))
    if not xa.arrays_equal(dv, dr.outer(f, v, v)):
        return False
    return bool(dr.tensordot(f, v, e, ([0], [0])) == f.one)


def _dense_adjoint_route(gamma):
    f = gamma.field
    _, c, _, d, smat = _arrays(gamma)
    _, dc, de, _, _ = _arrays(_dense_dual(gamma))
    lam = _dense_left_integral(f, dc, de)
    prod = dr.tensordot(f, smat, c, ([0], [0]))
    e2 = dr.tensordot(f, d, lam, ([2], [0]))
    f3 = dr.tensordot(f, d, e2, ([1], [0]))
    n2 = dr.tensordot(f, f3, prod, ([2, 1], [0, 1]))
    m = dr.tensordot(f, n2, smat, ([1], [1]))
    w = m[xa._first_nonzero(lam)]
    if not xa.arrays_equal(m, dr.outer(f, lam, w)):
        raise InconsistencyError(
            "dualized adjoint coaction does not stabilize the integral line")
    if not _dense_is_grouplike(f, d, gamma.counit, w):
        raise InconsistencyError("adjoint-route character is not grouplike")
    return w


def _dense_first_mismatch(a, b):
    idx = np.argwhere(a != b)
    return tuple(int(v) for v in idx[0]) if idx.size else None


def _dense_verify(f, unit, c, e, d, s):
    n = len(unit)
    eye = f.eye(n)
    out = []

    def add(name, lhs, rhs):
        out.append((name, _dense_first_mismatch(lhs, rhs)))

    add("unit_left", dr.tensordot(f, unit, c, ([0], [0])), eye)
    add("unit_right", dr.tensordot(f, unit, c, ([0], [1])), eye)
    t1 = dr.tensordot(f, c, c, ([2], [0]))
    t2 = dr.tensordot(f, c, c, ([2], [1])).transpose(2, 0, 1, 3)
    add("associativity", t1, t2)
    add("counit_left", dr.tensordot(f, d, e, ([1], [0])), eye)
    add("counit_right", dr.tensordot(f, d, e, ([2], [0])), eye)
    l3 = dr.tensordot(f, d, d, ([1], [0])).transpose(0, 2, 3, 1)
    r3 = dr.tensordot(f, d, d, ([2], [0]))
    add("coassociativity", l3, r3)
    add("counit_algebra_map", dr.tensordot(f, c, e, ([2], [0])), dr.outer(f, e, e))
    add("comult_unit", dr.tensordot(f, unit, d, ([0], [0])), dr.outer(f, unit, unit))
    lhs = dr.tensordot(f, c, d, ([2], [0]))
    u4 = dr.tensordot(f, d, c, ([1], [0]))
    v4 = dr.tensordot(f, d, c, ([2], [1]))
    rhs = dr.tensordot(f, u4, v4, ([1, 2], [2, 1])).transpose(0, 2, 1, 3)
    add("comult_algebra_map", lhs, rhs)
    target = dr.outer(f, e, unit)
    x4 = dr.tensordot(f, d, s, ([1], [1]))
    add("antipode_left", dr.tensordot(f, x4, c, ([2, 1], [0, 1])), target)
    y4 = dr.tensordot(f, d, s, ([2], [1]))
    add("antipode_right", dr.tensordot(f, y4, c, ([1, 2], [0, 1])), target)
    return out


def _dense_comodule_verify(module):
    f, gamma = module.field, module.scheme.gamma
    c = module.coaction.to_dense(f)
    eps = dr.tensordot(f, c, gamma.counit, ([2], [0]))
    # sum_k c[i, k, g] c[k, j, h] against sum_y c[i, j, y] Delta[y, g, h]
    lhs = dr.tensordot(f, c, c, ([1], [0])).transpose(0, 2, 1, 3)
    rhs = dr.tensordot(f, c, gamma.comult.to_dense(f), ([2], [0]))
    return [("comodule_counit", _dense_first_mismatch(eps, f.eye(module.dim))),
            ("comodule_coassociativity", _dense_first_mismatch(lhs, rhs))]


def _outcome(fn, *args):
    """What a call gives: ("value", list) or ("error", type, message)."""
    try:
        value = fn(*args)
    except (InconsistencyError, InputError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("value", value.tolist() if isinstance(value, np.ndarray) else value)


# -- the algebras -------------------------------------------------------------


def _relabelled(table, perm):
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for a, b in itertools.product(range(m), repeat=2):
        out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _product_table(t1, t2):
    m2 = len(t2)
    return [[t1[a // m2][b // m2] * m2 + t2[a % m2][b % m2]
             for b in range(len(t1) * m2)] for a in range(len(t1) * m2)]


TABLES = [cyclic_table(1), cyclic_table(2), cyclic_table(3), cyclic_table(4),
          cyclic_table(6), dihedral_table(3), dihedral_table(4),
          _product_table(cyclic_table(2), cyclic_table(2)),
          _product_table(cyclic_table(2), cyclic_table(3))]


@st.composite
def hopf_algebras(draw):
    kind = draw(st.sampled_from(["group", "function", "mu_alpha", "uL", "tensor"]))
    if kind in ("group", "function"):
        field = draw(st.sampled_from([Q, *FIELDS]))
        table = draw(st.sampled_from(TABLES))
        table = _relabelled(table, draw(st.permutations(range(len(table)))))
        h = (group_algebra if kind == "group" else function_algebra)(field, table)
    elif kind == "mu_alpha":
        field = draw(st.sampled_from(FIELDS[1:4]))
        h = gs._mu_alpha_ring(field, draw(st.integers(1, 3)))
    elif kind == "uL":
        h = u_l_hopf(draw(st.sampled_from([2, 3])))
        field = h.field
    else:
        field = draw(st.sampled_from(FIELDS[:3]))
        left = group_algebra(field, draw(st.sampled_from(TABLES[:4])))
        rights = [function_algebra(field, cyclic_table(3))]
        if field.p is not None:
            rights.append(gs._mu_alpha_ring(field, 2))
        right = draw(st.sampled_from(rights))
        h = tensor_hopf(left, right) if draw(st.booleans()) else tensor_hopf(right, left)
    if draw(st.booleans()):
        # a rescaled basis b_i -> c_i b_i: fractional constants over Q
        units = st.integers(1, 6) if field.p is None else st.integers(1, field.p - 1)
        signs = st.sampled_from([1, -1])
        c = [field.coerce(draw(units) * draw(signs)) for _ in range(h.dim)]
        if field.p is None:
            c = [x / draw(st.integers(1, 4)) for x in c]
        h = _rescaled(h, c)
    return h


def _rescaled(h, c):
    f = h.field
    u, m, e, d, s = _arrays(h)
    cv = f.asarray(c)
    ci = f.asarray([f.inv(x) for x in c])
    m = f.reduce(m * cv[:, None, None] * cv[None, :, None] * ci[None, None, :])
    d = f.reduce(d * cv[:, None, None] * ci[None, :, None] * ci[None, None, :])
    s = f.reduce(s * cv[None, :] * ci[:, None])
    return HopfAlgebraData(f, h.basis, f.reduce(u * ci), m, f.reduce(e * cv), d, s)


def _schemes(h):
    """The group schemes h describes: Spec h if commutative, Spec h* if
    cocommutative."""
    out = []
    if h.is_commutative():
        out.append(gs.FiniteGroupScheme(h))
    if h.is_cocommutative():
        out.append(gs.FiniteGroupScheme(h.dual()))
    return out


# integer matrix groups that stay faithful mod 3, 5 and 7
MATRIX_GROUPS = [
    [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]],
    [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]],
    [[[int(perm[r] == c) for c in range(3)] for r in range(3)]
     for perm in itertools.permutations(range(3))],
]


@st.composite
def conjugated_comodules(draw):
    """The defining comodule of p g p^-1, g in a matrix group, for a random
    rational p; one coaction entry moved off in half of the examples."""
    field = draw(st.sampled_from([Q, *FIELDS[2:]]))
    group = draw(st.sampled_from(MATRIX_GROUPS))
    n = len(group[0])
    entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 4]))
    p = field.asarray([[draw(entries) for _ in range(n)] for _ in range(n)])
    p_inv = dr.invert(field, p)
    assume(p_inv is not None)
    mats = [dr.matmul(field, dr.matmul(field, p, field.asarray(g)), p_inv) for g in group]
    module = act.constant_group_action(field, mats).module
    coact = module.coaction.to_dense(field)
    if draw(st.booleans()):
        index = tuple(draw(st.integers(0, k - 1)) for k in coact.shape)
        coact[index] = field.reduce(coact[index] + field.coerce(draw(st.integers(1, 2))))
    return act.Comodule(module.scheme, coact)


# -- the tests ----------------------------------------------------------------


@given(hopf_algebras(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_sparse_hopf_matches_dense_reference(h, rng):
    f = h.field
    u, c, e, d, s = _arrays(h)
    assert h.dual() == _dense_dual(h)
    assert h.is_commutative() == xa.arrays_equal(c, c.transpose(1, 0, 2))
    assert h.is_cocommutative() == xa.arrays_equal(d, d.transpose(0, 2, 1))
    report = h.verify_axioms()
    assert report.ok
    assert [(k.name, k.witness) for k in report.checks] == _dense_verify(f, u, c, e, d, s)
    for side in ("left", "right"):
        assert _outcome(h.integrals, side) == \
            _outcome(_dense_integrals, f, c, e, side)
    assert _outcome(h.modular_element) == _outcome(_dense_modular_element, f, c, e)
    for scheme in _schemes(h):
        gamma = scheme.gamma
        _, _, ge, gd, _ = _arrays(gamma)
        assert _outcome(scheme.knop_character_adjoint_route) == \
            _outcome(_dense_adjoint_route, gamma)
        chi = scheme.knop_character_adjoint_route()
        candidates = [gamma.unit, chi, scheme.grouplike_inverse(chi),
                      f.reduce(gamma.unit + chi),
                      f.asarray([rng.randrange(3) for _ in range(gamma.dim)])]
        for v in candidates:
            assert scheme.is_grouplike(v) == _dense_is_grouplike(f, gd, ge, v)


@given(conjugated_comodules())
@settings(max_examples=60, deadline=None)
def test_comodule_checks_give_the_dense_witnesses(module):
    report = module.verify()
    assert [(k.name, k.witness) for k in report.checks] == _dense_comodule_verify(module)
    assert report.ok == all(k.witness is None for k in report.checks)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(3)])
def test_tensor_hopf_matches_the_dense_kronecker_form(field):
    h1 = _rescaled(group_algebra(field, cyclic_table(3)), [field.coerce(2)] * 3)
    h2 = function_algebra(field, dihedral_table(3))
    h = tensor_hopf(h1, h2)
    n = h.dim

    def mix3(a, b):
        t = field.reduce(np.tensordot(a, b, axes=0))  # [i1,j1,k1,i2,j2,k2]
        return t.transpose(0, 3, 1, 4, 2, 5).reshape(n, n, n)

    (u1, c1, e1, d1, s1), (u2, c2, e2, d2, s2) = _arrays(h1), _arrays(h2)
    u, c, e, d, s = _arrays(h)
    assert xa.arrays_equal(u, dr.outer(field, u1, u2).reshape(n))
    assert xa.arrays_equal(e, dr.outer(field, e1, e2).reshape(n))
    assert xa.arrays_equal(c, mix3(c1, c2)) and xa.arrays_equal(d, mix3(d1, d2))
    assert xa.arrays_equal(s, field.reduce(np.kron(s1, s2)))
    assert h.verify_axioms().ok


COMPONENTS = ["unit", "mult", "counit", "comult", "antipode"]


@given(hopf_algebras(), st.sampled_from(COMPONENTS), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_perturbed_constants_give_the_dense_witnesses(h, which, rng):
    # a few entries moved off a Hopf algebra: the same failing checks, each
    # at the C-order-first index of the dense comparison
    f = h.field
    arrays = dict(zip(COMPONENTS, _arrays(h)))
    target = arrays[which].copy()
    for _ in range(rng.randint(1, 3)):
        index = tuple(rng.randrange(k) for k in target.shape)
        target[index] = f.reduce(target[index] + f.coerce(rng.randint(1, 3)))
    arrays[which] = target
    bad = HopfAlgebraData(f, h.basis, arrays["unit"], arrays["mult"], arrays["counit"],
                          arrays["comult"], arrays["antipode"])
    report = bad.verify_axioms()
    want = _dense_verify(f, *arrays.values())
    assert [(k.name, k.witness) for k in report.checks] == want
    assert [k.ok for k in report.checks] == [w is None for _, w in want]
    c, e = arrays["mult"], arrays["counit"]
    for side in ("left", "right"):
        assert _outcome(bad.integrals, side) == \
            _outcome(_dense_integrals, f, c, e, side)
    assert _outcome(bad.modular_element) == _outcome(_dense_modular_element, f, c, e)
    if bad.is_commutative():
        scheme = gs.FiniteGroupScheme(bad)
        assert _outcome(scheme.knop_character_adjoint_route) == \
            _outcome(_dense_adjoint_route, bad)


# -- constant groups of order in the hundreds ----------------------------------


def _signed_permutations(n, rotations):
    """The signed n x n permutation matrices; of determinant 1 if `rotations`."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        for signs in itertools.product((1, -1), repeat=n):
            det = (-1) ** inversions * int(np.prod(signs))
            if det == 1 or not rotations:
                out.append([[signs[r] * int(perm[r] == c) for c in range(n)]
                            for r in range(n)])
    return out


def _classify_peak(matrices, window):
    tracemalloc.start()
    try:
        ring = act.constant_group_action(FieldSpec.prime(7), matrices)
        report = canon.classify_small_action(ring, small_asserted=True, max_window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


# sha256 of the canonical report, recorded from the dense structure constants
ORDER_192_REPORT = "c47cd103e55870d5f3da3e34f8b38b4ade0418f71899def690265e4e5e6e9b8b"


def test_order_192_classify_peak_memory():
    # the rotations of the 4-cube over F_7: a sparse k^G (192 products, 192^2
    # coproduct terms) where the dense structure constants held 2 * 192^3
    report, peak = _classify_peak(_signed_permutations(4, rotations=True), 6)
    text = canonical_json(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_192_REPORT
    assert report.a_dims == [1, 0, 1, 0, 2, 0, 3]
    assert peak < 100 * 2**20


def test_order_384_classify_peak_memory():
    # all signed permutations, the Weyl group of B_4: invariants in degrees
    # 2, 4, 6, 8; the reflections make it not small, det_V is the sign
    # character and the anti-invariants start in degree 16
    report, peak = _classify_peak(_signed_permutations(4, rotations=False), 8)
    assert report.a_dims == [1, 0, 1, 0, 2, 0, 3, 0, 5]
    assert report.omega_dims == [0] * 9
    assert report.consistency and report.smallness == "fails"
    assert report.lambda_trivial and not report.det_trivial
    assert peak < 300 * 2**20
