"""Exact linear algebra over Q and F_p: echelon forms, kernels, inverses."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knopf import exactalg as xa
from knopf.errors import InputError
from knopf.exactalg import FieldSpec
import dense_ref as dr


def test_field_identity_and_coercion(QQ):
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert QQ.one == 1 and QQ.zero == 0
    f5 = FieldSpec.prime(5)
    assert f5.coerce(7) == 2
    assert f5.inv(2) == 3
    assert f5.characteristic == 5 and QQ.characteristic == 0


@pytest.mark.parametrize("p, x", [
    (None, "1" * 3000 + "/0"),
    (None, [[["1"] * 40] * 40] * 2),
    (5, [[["1"] * 40] * 40] * 2),
    (5, True),
], ids=["bad-rational", "list-into-Q", "list-into-F5", "bool"])
def test_coercion_errors_bound_the_value_they_echo(p, x):
    with pytest.raises(InputError) as exc:
        FieldSpec(p).coerce(x)
    assert len(str(exc.value)) < 200


def test_strings_over_fp_are_read_as_rationals():
    f5 = FieldSpec.prime(5)
    assert f5.coerce("1/2") == 3
    with pytest.raises(InputError, match="bad rational literal"):
        f5.coerce("x")


def test_modulus_beyond_the_bound_is_refused_before_any_trial_division():
    # trial division up to sqrt(2^61 - 1) would not finish
    for p in (2**61 - 1, 10**3000 + 1):
        with pytest.raises(InputError) as exc:
            FieldSpec.prime(p)
        assert "2^20" in str(exc.value) and len(str(exc.value)) < 200


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
    r, pivots = dr.rref(QQ, mat)
    assert pivots == [0]
    assert xa.arrays_equal(r[0], QQ.asarray([1, 2]))
    assert xa.is_zero(r[1])


def test_kernel_and_rank_mod_p():
    f = FieldSpec.prime(3)
    mat = f.asarray([[1, 2], [2, 4]])
    assert xa.rank(f, mat) == 1
    ker = dr.kernel_basis(f, mat)
    assert len(ker) == 1
    assert xa.is_zero(f.reduce(mat @ ker[0]))


def test_solve_and_invert(QQ):
    a = QQ.asarray([[1, 2], [3, 5]])
    rhs = QQ.asarray([1, 2])
    inv = dr.invert(QQ, a)
    x = dr.matmul(QQ, inv, rhs)
    assert xa.arrays_equal(QQ.reduce(a @ x), rhs)
    assert xa.arrays_equal(QQ.reduce(a @ inv), QQ.eye(2))


def test_singular_matrix_has_no_inverse(QQ):
    assert dr.invert(QQ, QQ.asarray([[1, 2], [2, 4]])) is None


def test_tensordot_matches_matmul(QQ):
    a = QQ.asarray([[1, 2], [3, 4]])
    b = QQ.asarray([[5, 6], [7, 8]])
    assert xa.arrays_equal(dr.tensordot(QQ, a, b, ([1], [0])),
                           dr.matmul(QQ, a, b))


def test_outer_shape(QQ):
    u = QQ.asarray([1, 2])
    v = QQ.asarray([3, 4, 5])
    o = dr.outer(QQ, u, v)
    assert o.shape == (2, 3) and o[1, 2] == 10


def test_kernel_basis_pinned_values(QQ):
    f2 = FieldSpec.prime(2)
    ker = dr.kernel_basis(f2, f2.asarray([[1, 1]]))
    assert len(ker) == 1
    assert xa.arrays_equal(ker[0], f2.asarray([1, 1]))
    assert len(dr.kernel_basis(QQ, QQ.eye(2))) == 0


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
    mat = dr.matmul(QQ, a, b)
    assert mat.shape == (6, 9)
    assert xa.rank(QQ, mat) == 4
    ker = dr.kernel_basis(QQ, mat)
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
    r1, p1 = dr.rref(f, mat)
    r2, p2 = dr.rref(f, r1)
    assert p1 == p2
    assert xa.arrays_equal(r1, r2)


@given(f5_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_mod_5(mat):
    f = FieldSpec.prime(5)
    ker = dr.kernel_basis(f, mat)
    assert xa.rank(f, mat) + len(ker) == mat.shape[1]
    for v in ker:
        assert xa.is_zero(f.reduce(mat @ v))


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_q(mat):
    f = FieldSpec.rationals()
    for v in dr.kernel_basis(f, mat):
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
    r_new, p_new = dr.rref(field, mat)
    r_ref, p_ref = _seed_rref(field, mat)
    assert p_new == p_ref
    assert r_new.dtype == r_ref.dtype
    assert xa.arrays_equal(r_new, r_ref)


def _seed_kernel(field: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """The echelon-normal kernel basis, read off `_seed_rref`."""
    r, pivots = _seed_rref(field, mat)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = field.zeros((len(free), n))
    for k, f in enumerate(free):
        basis[k, f] = field.one
        for row_idx, pc in enumerate(pivots):
            basis[k, pc] = field.neg(r[row_idx, f])
    return basis


@st.composite
def sparse_coactions(draw):
    """(field, coact (n, n, |G|), unit): mostly zeros, the unit arbitrary.

    Half the draws are unit (x) id + E for E = A B of rank < n, so that the
    fixed space (the kernel of E) is nonzero and back-substitution has work.
    """
    field = draw(st.sampled_from(_REFERENCE_FIELDS))
    n, order = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if field.p is None:
        entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    else:
        entry = st.integers(0, field.p - 1)

    def sparse(rows, cols):
        size = rows * cols
        values = draw(st.lists(entry, min_size=size, max_size=size))
        keep = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        data = [v if k == 0 else 0 for v, k in zip(values, keep)]
        return field.asarray(data).reshape(rows, cols)

    unit = field.asarray(draw(st.lists(entry, min_size=order, max_size=order)))
    if draw(st.booleans()):
        return field, sparse(n * n, order).reshape(n, n, order), unit
    r = draw(st.integers(0, n - 1))
    e = dr.matmul(field, sparse(n * order, r), sparse(r, n)).reshape(n, order, n)
    coact = e.transpose(0, 2, 1).copy()
    for i in range(n):
        coact[i, i] = field.reduce(coact[i, i] + unit)
    return field, coact, unit


@given(sparse_coactions(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_fixed_space_matches_seed_kernel(case, rng):
    field, coact, unit = case
    n, _, order = coact.shape
    # the explicit system: row (i, g), column j holds coact[i, j, g] - [i == j] unit[g]
    a = coact.transpose(0, 2, 1).copy()
    for i in range(n):
        a[i, :, i] = field.reduce(a[i, :, i] - unit)
    want = _seed_kernel(field, a.reshape(n * order, n))
    sparse = xa.SparseCoaction.from_dense(coact)
    got = xa.fixed_space(field, sparse, unit)
    assert got.dtype == want.dtype and xa.arrays_equal(got, want)
    assert xa.fixed_dim(field, sparse, unit) == len(want)
    # rows in another order are eliminated in another pivot order
    rows = xa._dense_rows(a.reshape(n * order, n))
    rng.shuffle(rows)
    assert xa.arrays_equal(xa._kernel(field, rows, n), want)


@given(sparse_coactions(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sparse_coaction_arrays_match_the_dense_array(case, cube):
    # transpose, entries, equality and the byte count of the compressed
    # columns, against numpy's dense transpose
    field, coact, _ = case
    n, _, order = coact.shape
    if cube:
        coact = np.concatenate([coact, field.zeros((n, n, n))], axis=2)[:, :, :n]
    sparse = xa.SparseCoaction.from_dense(coact)
    assert sparse.nbytes == sparse.ptr.nbytes + sparse.keys.nbytes + sparse.vals.nbytes
    # column by column, each by its key i * order + g
    assert list(sparse.entries()) == sorted(
        ((i, j, g, v) for (i, j, g), v in np.ndenumerate(coact) if v),
        key=lambda e: (e[1], e[0], e[2]))
    shape = coact.shape
    for axes in ([(0, 1, 2), (1, 0, 2)] if not cube else
                 [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]):
        if shape[axes[0]] != shape[axes[1]]:
            continue
        want = np.transpose(coact, axes)
        got = sparse.transpose(axes)
        assert xa.arrays_equal(got.to_dense(field), want)
        assert got == xa.SparseCoaction.from_dense(want)
        assert got.transpose(np.argsort(axes)) == sparse


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
    _assert_same_fractions(dr.tensordot(FieldSpec.rationals(), a, b, axes),
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
    _assert_same_fractions(dr.matmul(FieldSpec.rationals(), a, b), a @ b)


def test_operand_beyond_float_range_with_zero_partner(QQ):
    # the bound k * max|a| * max|b| is 0 here, but 2^1100 has no float64
    huge = QQ.asarray([[2**1100, 1]])
    zero = QQ.zeros((2, 2))
    _assert_same_fractions(dr.matmul(QQ, huge, zero), huge @ zero)
    empty = QQ.zeros((0, 2))
    _assert_same_fractions(dr.matmul(QQ, huge[:, :0], empty), huge[:, :0] @ empty)


# -- the sparse contraction against dense object tensordot ---------------------

CONTRACT_FIELDS = [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(5),
                   FieldSpec.prime(1048573)]


def _entries(field):
    if field.p is not None:
        return st.one_of(st.just(0), st.integers(0, field.p - 1))
    # integers near 2^62 overflow int64 in products, near 2^31 in sums of
    # products: the object lane
    return st.one_of(st.just(0), st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                     st.integers(2**31 - 3, 2**31 + 3), st.integers(2**62 - 3, 2**62 + 3),
                     st.integers(-2**62 - 3, -2**62 + 3))


def _dense_object(draw, field, shape):
    values = [draw(_entries(field)) for _ in range(int(np.prod(shape)))]
    return np.array(values + [None], dtype=object)[:-1].reshape(shape)


def _operand(arr, on_axis, stride):
    """The nonzeros of arr joined on `on_axis`, keyed by the other axis times
    `stride`; values as field scalars (ints, Fractions)."""
    idx, vals = xa._vector(arr)
    at = np.unravel_index(idx, arr.shape)
    return at[on_axis], at[1 - on_axis] * stride, vals


@st.composite
def contractions(draw):
    field = draw(st.sampled_from(CONTRACT_FIELDS))
    products = []
    for _ in range(draw(st.integers(1, 3))):
        x, k, y = (draw(st.integers(0, 4)) for _ in range(3))
        products.append((_dense_object(draw, field, (x, k)),
                         _dense_object(draw, field, (k, y))))
    return field, products, draw(st.sampled_from([1, 2, 3, 1 << 13]))


_SUM_PAST_INT64 = np.array([[2**31 + 1] * 2], dtype=object)


@given(contractions())
# each product fits int64, their sum does not
@example((FieldSpec.rationals(), [(_SUM_PAST_INT64, _SUM_PAST_INT64.T)], 1 << 13))
@settings(max_examples=300, deadline=None)
def test_contract_matches_dense_object_tensordot(case):
    # a batch of matrix products, each at its own range of output keys,
    # formed in blocks of any size
    field, products, block = case
    pairs, want, base = [], [], 0
    for a, b in products:
        (x, k), y = a.shape, b.shape[1]
        on_a, key_a, va = _operand(a, 1, y)
        on_b, key_b, vb = _operand(b, 0, 1)
        pairs.append(((on_a, key_a + base, va), (on_b, key_b, vb)))
        ref = np.tensordot(a, b, axes=([1], [0])) if k else np.zeros((x, y), dtype=object)
        want += [field.coerce(v) for v in np.asarray(ref).ravel()]
        base += x * y
    saved, xa._BLOCK = xa._BLOCK, block
    try:
        keys, sums = xa.contract(field.p, pairs)
    finally:
        xa._BLOCK = saved
    assert keys.tolist() == sorted(set(keys.tolist()))
    assert all(field.coerce(v) != 0 for v in sums.tolist())
    got = xa._dense(field, keys, sums, (base,))
    assert [field.coerce(v) for v in got.tolist()] == want


def test_contract_of_empty_operands():
    empty = (np.zeros(0, dtype=np.int64),) * 3
    one = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    for p in (None, 5):
        for pairs in ([(empty, empty)], [(empty, one)], [(one, empty), (empty, empty)]):
            keys, sums = xa.contract(p, pairs)
            assert len(keys) == len(sums) == 0


@st.composite
def difference_checks(draw):
    field = draw(st.sampled_from(CONTRACT_FIELDS))
    checks = []
    for _ in range(draw(st.integers(1, 3))):
        shape = tuple(draw(st.integers(0, 3)) for _ in range(draw(st.integers(1, 3))))
        lhs = _dense_object(draw, field, shape)
        rhs = lhs.copy() if draw(st.booleans()) else _dense_object(draw, field, shape)
        if rhs.size and draw(st.booleans()):
            # one entry moved off
            at = tuple(draw(st.integers(0, n - 1)) for n in shape)
            rhs[at] = field.coerce(rhs[at]) + 1
        checks.append((shape, lhs, rhs))
    return field, checks


@given(difference_checks())
@settings(max_examples=300, deadline=None)
def test_first_differences_give_the_dense_first_mismatch(case):
    field, checks = case
    shapes = [shape for shape, _, _ in checks]
    terms = []
    for (shape, lhs, rhs), base in zip(checks, xa.key_bases(shapes)):
        for arr, sign in ((lhs, 1), (rhs, -1)):
            idx, vals = xa._vector(arr)
            terms.append((idx + base, vals if sign > 0 else -vals))
    want = []
    for shape, lhs, rhs in checks:
        diff = np.array([field.coerce(u) != field.coerce(v)
                         for u, v in zip(lhs.ravel(), rhs.ravel())], dtype=bool).reshape(shape)
        hits = np.argwhere(diff)
        want.append(tuple(int(v) for v in hits[0]) if len(hits) else None)
    assert xa.first_differences(field.p, shapes, terms) == want
