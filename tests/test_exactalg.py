"""Exact linear algebra over Q and F_p: echelon forms, kernels, inverses."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knopf import exactalg as xa
from knopf.exactalg import FieldSpec


def test_field_identity_and_coercion(QQ):
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert QQ.one == 1 and QQ.zero == 0
    f5 = FieldSpec.prime(5)
    assert f5.coerce(7) == 2
    assert f5.inv(2) == 3
    assert f5.characteristic == 5 and QQ.characteristic == 0


def test_field_equality_and_hash():
    assert FieldSpec.prime(3) == FieldSpec.prime(3)
    assert FieldSpec.prime(3) != FieldSpec.prime(5)
    assert FieldSpec.rationals() != FieldSpec.prime(2)
    assert len({FieldSpec.prime(3), FieldSpec.prime(3)}) == 1


def test_nonprime_modulus_rejected():
    with pytest.raises(Exception):
        FieldSpec.prime(6)


def test_rref_known_instance(QQ):
    mat = QQ.asarray([[2, 4], [1, 2]])
    r, pivots = xa.rref(QQ, mat)
    assert pivots == [0]
    assert xa.arrays_equal(r[0], QQ.asarray([1, 2]))
    assert xa.is_zero(r[1])


def test_kernel_and_rank_mod_p():
    f = FieldSpec.prime(3)
    mat = f.asarray([[1, 2], [2, 4]])
    assert xa.rank(f, mat) == 1
    ker = xa.kernel_basis(f, mat)
    assert len(ker) == 1
    assert xa.is_zero(f.reduce(mat @ ker[0]))


def test_solve_and_invert(QQ):
    a = QQ.asarray([[1, 2], [3, 5]])
    rhs = QQ.asarray([1, 2])
    inv = xa.invert(QQ, a)
    x = xa.matmul(QQ, inv, rhs)
    assert xa.arrays_equal(QQ.reduce(a @ x), rhs)
    assert xa.arrays_equal(QQ.reduce(a @ inv), QQ.eye(2))


def test_singular_matrix_has_no_inverse(QQ):
    assert xa.invert(QQ, QQ.asarray([[1, 2], [2, 4]])) is None


def test_tensordot_matches_matmul(QQ):
    a = QQ.asarray([[1, 2], [3, 4]])
    b = QQ.asarray([[5, 6], [7, 8]])
    assert xa.arrays_equal(xa.tensordot(QQ, a, b, ([1], [0])),
                           xa.matmul(QQ, a, b))


def test_outer_and_kron_shapes(QQ):
    u = QQ.asarray([1, 2])
    v = QQ.asarray([3, 4, 5])
    o = xa.outer(QQ, u, v)
    assert o.shape == (2, 3) and o[1, 2] == 10
    k = xa.kron(QQ, QQ.eye(2), QQ.eye(3))
    assert xa.arrays_equal(k, QQ.eye(6))


def test_kernel_basis_pinned_values(QQ):
    f2 = FieldSpec.prime(2)
    ker = xa.kernel_basis(f2, f2.asarray([[1, 1]]))
    assert len(ker) == 1
    assert xa.arrays_equal(ker[0], f2.asarray([1, 1]))
    assert len(xa.kernel_basis(QQ, QQ.eye(2))) == 0


def test_kron_scaling_and_block_expansion(QQ):
    n = QQ.asarray([[1, 2], [3, 4]])
    assert xa.arrays_equal(xa.kron(QQ, QQ.asarray([[2]]), n), QQ.reduce(2 * n))
    m = QQ.asarray([[0, 1], [1, 0]])
    expanded = QQ.asarray([
        [0, 0, 1, 2],
        [0, 0, 3, 4],
        [1, 2, 0, 0],
        [3, 4, 0, 0],
    ])
    assert xa.arrays_equal(xa.kron(QQ, m, n), expanded)


def test_rank_four_six_by_nine_kernel(QQ):
    a = QQ.asarray([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 1, 1, 1],
        [1, 2, 3, 4],
    ])
    b = QQ.asarray([
        [1, 0, 0, 0, 1, 2, 0, 1, 1],
        [0, 1, 0, 0, 2, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 1, 2, 0],
        [0, 0, 0, 1, 0, 1, 2, 1, 2],
    ])
    mat = xa.matmul(QQ, a, b)
    assert mat.shape == (6, 9)
    assert xa.rank(QQ, mat) == 4
    ker = xa.kernel_basis(QQ, mat)
    assert len(ker) == 5
    for v in ker:
        assert xa.is_zero(QQ.reduce(mat @ v))
    assert xa.rank(QQ, ker) == 5


_small_entries = st.integers(min_value=-4, max_value=4)


def _matrices(draw, field):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = draw(st.lists(
        st.lists(_small_entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ))
    return field.asarray(data)


@st.composite
def q_matrices(draw):
    return _matrices(draw, FieldSpec.rationals())


@st.composite
def f5_matrices(draw):
    return _matrices(draw, FieldSpec.prime(5))


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_q(mat):
    f = FieldSpec.rationals()
    r1, p1 = xa.rref(f, mat)
    r2, p2 = xa.rref(f, r1)
    assert p1 == p2
    assert xa.arrays_equal(r1, r2)


@given(f5_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_mod_5(mat):
    f = FieldSpec.prime(5)
    ker = xa.kernel_basis(f, mat)
    assert xa.rank(f, mat) + len(ker) == mat.shape[1]
    for v in ker:
        assert xa.is_zero(f.reduce(mat @ v))


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_q(mat):
    f = FieldSpec.rationals()
    for v in xa.kernel_basis(f, mat):
        assert xa.is_zero(f.reduce(mat @ v))


# -- the row-loop elimination, kept as a reference --------------------------
#
# _seed_rref is the two-lane rref this package shipped before the single
# elimination loop (F_p: dense outer product over every row; Q: a Python row
# loop over Fractions), copied verbatim.  The new loop must return identical
# (R, pivots) on every input.


def _seed_first_nonzero(col) -> int | None:
    for i, v in enumerate(col):
        if v:
            return i
    return None


def _seed_rref(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = mat.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        if field.p is not None:
            sub = np.nonzero(a[r:, c])[0]
            hit = int(sub[0]) if sub.size else None
        else:
            hit = _seed_first_nonzero(a[r:, c])
        if hit is None:
            continue
        if hit:
            a[[r, r + hit]] = a[[r + hit, r]]
        inv = field.inv(a[r, c])
        if inv != field.one:
            a[r] = field.reduce(a[r] * inv)
        factors = a[:, c].copy()
        factors[r] = field.zero
        if field.p is not None:
            if factors.any():
                a -= np.outer(factors, a[r])
                a %= field.p
        else:
            for i in range(m):
                if factors[i]:
                    a[i] = a[i] - factors[i] * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


_REFERENCE_FIELDS = [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(5),
                     FieldSpec.prime(1048573)]


@st.composite
def shaped_matrices(draw):
    """(field, matrix): sparse, dense, wide or tall, optionally with zero columns."""
    field = draw(st.sampled_from(_REFERENCE_FIELDS))
    kind = draw(st.sampled_from(["sparse", "dense", "wide", "tall"]))
    short, long_ = st.integers(1, 4), st.integers(5, 9)
    rows, cols = {
        "wide": (short, long_), "tall": (long_, short),
    }.get(kind, (st.integers(1, 7), st.integers(1, 7)))
    rows, cols = draw(rows), draw(cols)
    if field.p is None:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        entry = st.integers(-(2**40), 2**40)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if kind == "sparse":
        keep = draw(st.lists(st.integers(0, 3), min_size=rows * cols,
                             max_size=rows * cols))
        data = [[v if keep[i * cols + j] == 0 else 0 for j, v in enumerate(row)]
                for i, row in enumerate(data)]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in data:
            row[j] = 0
    return field, field.asarray(data)


@given(shaped_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_seed_row_loop(case):
    field, mat = case
    r_new, p_new = xa.rref(field, mat)
    r_ref, p_ref = _seed_rref(field, mat)
    assert p_new == p_ref
    assert r_new.dtype == r_ref.dtype
    assert xa.arrays_equal(r_new, r_ref)


# -- the integer product lane -------------------------------------------------
#
# Q products clear denominators and multiply in float64 while k * max|a| *
# max|b| < 2^53, on Python ints otherwise.  Plain object-dtype numpy on
# Fractions is the reference for both routes.

_ENTRIES = {
    "integral": st.integers(-3, 3).map(Fraction),
    "mixed": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    # with small partners these land between 2^53 and 2^64, alone or in pairs
    # far beyond, where only Python ints are exact
    "large": st.builds(Fraction, st.integers(2**40, 2**56) | st.integers(-(2**56), -(2**40)),
                       st.sampled_from([1, 1, 3])),
    "huge": st.integers(2**63, 2**70).map(Fraction),
}


def _q_array(draw, shape):
    entry = _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))]
    flat = draw(st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    arr = np.empty(len(flat), dtype=object)
    arr[:] = flat
    return arr.reshape(shape)


@st.composite
def q_products(draw):
    """(a, b, axes): axes=0, an int, or two lists, possibly of length-0 axes."""
    dims = st.lists(st.integers(0, 3), max_size=2)
    free_a, free_b = draw(dims), draw(dims)
    form = draw(st.sampled_from(["zero", "int", "lists"]))
    shared = [] if form == "zero" else draw(dims)
    a = _q_array(draw, tuple(free_a + shared))
    b = _q_array(draw, tuple(shared + free_b))
    if form == "zero":
        return a, b, 0
    if form == "int":
        return a, b, len(shared)
    # move the contracted axes to drawn positions
    perm_a = draw(st.permutations(range(a.ndim)))
    perm_b = draw(st.permutations(range(b.ndim)))
    axes_a = [perm_a.index(len(free_a) + i) for i in range(len(shared))]
    axes_b = [perm_b.index(i) for i in range(len(shared))]
    return a.transpose(perm_a), b.transpose(perm_b), (axes_a, axes_b)


def _assert_same_fractions(out, ref):
    assert out.dtype == object and out.shape == np.shape(ref)
    assert all(type(x) is Fraction for x in out.flat)
    assert all(x == y for x, y in zip(out.flat, np.asarray(ref).flat))


@given(q_products())
@settings(max_examples=400, deadline=None)
def test_q_tensordot_matches_object_fractions(case):
    a, b, axes = case
    _assert_same_fractions(xa.tensordot(FieldSpec.rationals(), a, b, axes),
                           np.tensordot(a, b, axes))


@st.composite
def q_matmuls(draw):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    shape_a, shape_b = draw(st.sampled_from([((m, k), (k, n)), ((k,), (k, n)),
                                             ((m, k), (k,))]))
    return _q_array(draw, shape_a), _q_array(draw, shape_b)


@given(q_matmuls())
@settings(max_examples=200, deadline=None)
def test_q_matmul_matches_object_fractions(case):
    a, b = case
    _assert_same_fractions(xa.matmul(FieldSpec.rationals(), a, b), a @ b)


def test_operand_beyond_float_range_with_zero_partner(QQ):
    # the bound k * max|a| * max|b| is 0 here, but 2^1100 has no float64
    huge = QQ.asarray([[2**1100, 1]])
    zero = QQ.zeros((2, 2))
    _assert_same_fractions(xa.matmul(QQ, huge, zero), huge @ zero)
    empty = QQ.zeros((0, 2))
    _assert_same_fractions(xa.matmul(QQ, huge[:, :0], empty), huge[:, :0] @ empty)
