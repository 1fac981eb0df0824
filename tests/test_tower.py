"""The Sym^d tower and twisted kernels, against the forms they replaced.

`_SeedTower` is the original dense Fraction/residue tower, kept verbatim as
the reference for the sparse `_SymTower`, which is compared against it
through `_dense`; `_twisted_coaction` is the explicit twisted coaction
R_d * chi that twisted kernels were once taken of.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knopf import action as act
from knopf import canon
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.action import Comodule
from knopf.catalog import standard_module
from knopf.errors import InputError
from knopf.exactalg import FieldSpec
import dense_ref as dr

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def _exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d, lexicographically descending."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _perm_sign(perm) -> int:
    inversions = sum(perm[a] > perm[b] for a in range(len(perm))
                     for b in range(a + 1, len(perm)))
    return -1 if inversions % 2 else 1


MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
REFLECTION = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
ROTATION4 = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]
S3 = [
    [[int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in itertools.permutations(range(3))
]
# the rotations of the cube: signed permutation matrices of determinant 1
CUBE = [
    [[signs[r] * int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
    if _perm_sign(perm) * signs[0] * signs[1] * signs[2] == 1
]


class _SeedTower:
    """Coactions on Sym^d of a comodule, built incrementally in d.

    Degree d monomials are indexed by _exponents(); the coaction R_d satisfies
    rho(x^m) = sum_m' x^m' (x) R_d[m', m, :], obtained from degree d-1 by
    multiplying with the coaction of the last variable occurring in each
    monomial (rho is an algebra map, Gamma is commutative).
    """

    def __init__(self, variables: Comodule):
        self.vars = variables
        self.field = variables.field
        gamma = variables.scheme.gamma
        f = self.field
        # rm[i,j] is the right-multiplication matrix of gamma_ij on Gamma
        coact = variables.coaction.to_dense(f)
        self._rm = dr.tensordot(f, coact, gamma.mult.to_dense(f), ([2], [1]))
        self._nz = [
            [not xa.is_zero(coact[i, j]) for j in range(variables.dim)]
            for i in range(variables.dim)
        ]
        unit = gamma.unit
        r0 = f.zeros((1, 1, variables.scheme.order))
        r0[0, 0] = unit
        zero_exp = (0,) * variables.dim
        self._exps: dict[int, list[tuple[int, ...]]] = {0: [zero_exp]}
        self._index: dict[int, dict[tuple[int, ...], int]] = {0: {zero_exp: 0}}
        self._coact: dict[int, np.ndarray] = {0: r0}

    def coaction(self, d: int) -> np.ndarray:
        self._build_to(d)
        return self._coact[d]

    def _build_to(self, d: int):
        if d < 0:
            raise InputError("degree must be >= 0")
        n = self.vars.dim
        f = self.field
        ngamma = self.vars.scheme.order
        while max(self._coact) < d:
            prev = max(self._coact)
            cur = prev + 1
            exps = _exponents(n, cur)
            index = {e: m for m, e in enumerate(exps)}
            prev_exps = self._exps[prev]
            prev_r = self._coact[prev]
            big = f.zeros((len(exps), len(exps), ngamma))
            # shift_i[m'] = index of (exponent m') + e_i in degree cur
            shifts = [
                np.array([index[e[:i] + (e[i] + 1,) + e[i + 1 :]] for e in prev_exps])
                for i in range(n)
            ]
            for j in range(n):
                cols, srcs = [], []
                for m, e in enumerate(exps):
                    last = max(k for k in range(n) if e[k])
                    if last == j:
                        cols.append(m)
                        srcs.append(
                            self._index[prev][e[:j] + (e[j] - 1,) + e[j + 1 :]]
                        )
                if not cols:
                    continue
                src_block = prev_r[:, srcs, :]
                cols_arr = np.array(cols)
                for i in range(n):
                    if not self._nz[i][j]:
                        continue
                    contrib = dr.tensordot(f, src_block, self._rm[i, j], ([2], [0]))
                    big[np.ix_(shifts[i], cols_arr)] += contrib
            self._exps[cur] = exps
            self._index[cur] = index
            self._coact[cur] = f.reduce(big)


def _dense(ring, d):
    """R_d of the ring's sparse tower as a dense (m, m, |G|) field array."""
    return ring.tower.coaction(d).to_dense(ring.field)


def _assert_same_tower(ring, max_degree):
    seed = _SeedTower(ring.variables)
    for d in range(max_degree + 1):
        got, want = _dense(ring, d), seed.coaction(d)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.reshape(-1).tolist() == want.reshape(-1).tolist()
        if ring.field.p is None:
            assert all(type(x) is Fraction for x in got.reshape(-1))


def _conjugated(field, matrices, p):
    """p g p^-1 for every g of the group."""
    p = field.asarray(p)
    p_inv = dr.invert(field, p)
    return [dr.matmul(field, dr.matmul(field, p, field.asarray(g)), p_inv)
            for g in matrices]


def _random_invertible(field, n, rng, entry):
    while True:
        p = field.asarray([[entry(rng) for _ in range(n)] for _ in range(n)])
        if dr.invert(field, p) is not None:
            return p


def _big_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))


@given(group=st.sampled_from([MINUS_ID, REFLECTION, ROTATION4, S3]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_q_tower_matches_seed_on_conjugated_groups(group, seed):
    rng = random.Random(seed)
    p = _random_invertible(Q, len(group[0]), rng, _big_rational)
    ring = act.constant_group_action(Q, _conjugated(Q, group, p))
    _assert_same_tower(ring, 6 if len(group[0]) == 2 else 5)


def test_q_tower_numerators_pass_int64():
    # numerators past 2^63: the seed tower's dense products run on their
    # Python-int lane, and the sparse tower's Fractions still agree with them
    rng = random.Random(7)
    p = _random_invertible(Q, 2, rng, _big_rational)
    ring = act.constant_group_action(Q, _conjugated(Q, ROTATION4, p))
    _assert_same_tower(ring, 6)

    def bound(d):
        return max(abs(Fraction(x).numerator) for x in ring.tower.coaction(d).vals.tolist())

    assert bound(6) >= 2**63
    assert bound(2) >= 2**53


@pytest.mark.parametrize("shift, degree_one", [(10, np.int64), (21, np.int64), (31, object)])
def test_q_tower_int64_guard_on_unimodularly_conjugated_cube(shift, degree_one):
    # integral entries up to 2^(2 shift): int64 wraps around silently, so the
    # tower must leave int64 before any product or sum can pass 2^63
    p = [[1, 2**shift, 0], [0, 1, 0], [0, 0, 1]]
    ring = act.constant_group_action(Q, _conjugated(Q, CUBE, p))
    _assert_same_tower(ring, 4)
    values = [abs(v) for d in range(5) for v in ring.tower.coaction(d).vals.tolist()]
    assert max(values) >= 2**63
    assert ring.tower.coaction(0).vals.dtype == np.int64
    assert ring.tower.coaction(1).vals.dtype == degree_one
    assert ring.tower.coaction(4).vals.dtype == object


@pytest.mark.parametrize("n", range(1, 6))
def test_tower_exponents_are_the_lex_descending_monomials(n):
    ring = act.DiagonalizableAction(list(range(1, n + 1)), 2).to_kernel_route(F5)
    for d in range(9):
        assert ring.tower.exponents(d) == _exponents(n, d)
        assert ring.tower.coaction(d).dim == len(_exponents(n, d))


@pytest.mark.parametrize("p", [2, 5, 1048573])
@pytest.mark.parametrize("seed", range(3))
def test_fp_tower_matches_seed_on_conjugated_groups(p, seed):
    f = FieldSpec.prime(p)
    rng = random.Random(seed)
    groups = [S3] if p == 2 else [MINUS_ID, ROTATION4, S3]
    for group in groups:
        q = _random_invertible(f, len(group[0]), rng, lambda r: r.randrange(p))
        ring = act.constant_group_action(f, _conjugated(f, group, q))
        _assert_same_tower(ring, 6)


@pytest.mark.parametrize("p, m, weights", [(2, 3, [1, 2]), (5, 4, [1, 3, 2]),
                                           (1048573, 3, [1, 1])])
def test_fp_tower_matches_seed_on_mu_m(p, m, weights):
    ring = act.DiagonalizableAction(weights, m).to_kernel_route(FieldSpec.prime(p))
    _assert_same_tower(ring, 6)


def test_fp_tower_matches_seed_on_mu3_alpha5():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    ring = act.GradedInvariantRing(act.direct_sum(w, w.dual()))
    _assert_same_tower(ring, 6)


@pytest.mark.parametrize("bound", ["unreduced", "reduced"])
def test_fp_tower_near_the_unreduced_sum_bound_matches_seed(bound, monkeypatch):
    # at p = 1048573 a product of residues is near 2^40, so a tower step may
    # sum at most 2^23 of them unreduced; with the bound forced below one
    # product, each product is reduced before it is summed
    f = FieldSpec.prime(1048573)
    if bound == "reduced":
        monkeypatch.setattr(xa, "_INT64", (f.p - 1) ** 2)
    rng = random.Random(11)
    q = _random_invertible(f, 3, rng, lambda r: f.p - 1 - r.randrange(4))
    ring = act.constant_group_action(f, _conjugated(f, S3, q))
    _assert_same_tower(ring, 6)
    assert max(v for d in range(7) for v in ring.tower.coaction(d).vals.tolist()) > f.p // 2


def test_degree_revisited_after_the_tower_moved_on():
    # the tower keeps no column index and no monomial arrays below its top:
    # a lower degree read again derives them, and equals a fresh tower's
    ring, fresh = _mu3a5_w_plus_wdual(), _mu3a5_w_plus_wdual()
    twist = canon.canonical_twist(ring)
    ring.tower.coaction(12)
    old, new = ring.tower.coaction(7), fresh.tower.coaction(7)
    assert old._col_of is None
    assert old == new
    assert np.array_equal(old.col_of, new.col_of)
    assert all(np.array_equal(a, b) for a, b in zip(old.coo(), new.coo()))
    assert ring.tower.exponents(7) == fresh.tower.exponents(7) == _exponents(4, 7)
    assert ring.invariant_dim(7) == fresh.invariant_dim(7) == MU3A5_A_DIMS[7]
    assert ring.invariant_dim(7, twist) == fresh.invariant_dim(7, twist) == MU3A5_OMEGA_DIMS[7]
    assert xa.arrays_equal(ring.invariant_basis(7), fresh.invariant_basis(7))
    # the kernels' gathered rows stay with the degree read last
    assert old.gathered is not None
    ring.invariant_dim(8)
    assert old.gathered is None and ring.tower.coaction(8).gathered is not None


def test_fp_tower_retains_sixteen_bytes_per_nonzero():
    # R_0..R_40 of W + W* over mu_3 x| alpha_5 hold 15.2 MB of ptr, keys and
    # vals; a column index and the monomials' source and last variable kept
    # for every degree would come to 24.8 MB in all
    ring = _mu3a5_w_plus_wdual()
    tracemalloc.start()
    try:
        ring.tower.coaction(40)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(ring.tower.coaction(d).nbytes for d in range(41)) > 15 * 2**20
    assert kept < 18 * 2**20


# -- twisted kernels -----------------------------------------------------------


def _twisted_coaction(ring, d, chi):
    """R_d * chi: right multiplication of every coefficient by chi in Gamma."""
    f = ring.field
    twmat = dr.tensordot(f, ring.scheme.gamma.mult.to_dense(f), f.asarray(chi),
                         ([1], [0]))
    return dr.tensordot(f, _dense(ring, d), twmat, ([2], [0]))


def _assert_twisted_kernels(ring, grouplikes, max_degree):
    unit = ring.scheme.gamma.unit
    for chi in grouplikes:
        assert ring.scheme.is_grouplike(chi)
        for d in range(max_degree + 1):
            got = ring.invariant_basis(d, twist=chi)
            twisted = xa.SparseCoaction.from_dense(_twisted_coaction(ring, d, chi))
            want = xa.fixed_space(ring.field, twisted, unit)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.reshape(-1).tolist() == want.reshape(-1).tolist()


def _basis_vectors(field, size, indices):
    out = []
    for k in indices:
        v = field.zeros(size)
        v[k] = field.one
        out.append(v)
    return out


@pytest.mark.parametrize("p, m, weights", [(5, 3, [1, 2]), (7, 3, [1, 1]),
                                           (5, 4, [1, 3, 2])])
def test_twisted_kernels_match_explicit_twist_on_mu_m(p, m, weights):
    f = FieldSpec.prime(p)
    ring = act.DiagonalizableAction(weights, m).to_kernel_route(f)
    # the grouplikes of k[t]/(t^m - 1) are t^0, ..., t^(m-1)
    _assert_twisted_kernels(ring, _basis_vectors(f, m, range(m)), 6)


@pytest.mark.parametrize("dual", [False, True], ids=["W", "W+W*"])
def test_twisted_kernels_match_explicit_twist_on_mu3_alpha5(dual):
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    ring = act.GradedInvariantRing(act.direct_sum(w, w.dual()) if dual else w)
    # its characters factor through mu_3: 1, t, t^2 (basis index 5 * k for t^k)
    grouplikes = _basis_vectors(F5, g.order, [0, 5, 10])
    assert g.grouplike_equal(g.grouplike_product(grouplikes[1], grouplikes[2]),
                             grouplikes[0])
    _assert_twisted_kernels(ring, grouplikes, 5 if dual else 8)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_twisted_kernels_match_explicit_twist_on_sign_characters(field):
    ring = act.constant_group_action(field, REFLECTION)
    _assert_twisted_kernels(ring, [field.asarray([1, 1]), field.asarray([1, -1])], 6)
    s3 = act.constant_group_action(field, S3)
    sign = field.asarray([_perm_sign(p) for p in itertools.permutations(range(3))])
    _assert_twisted_kernels(s3, [sign], 4)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_twist_that_is_not_grouplike_is_refused(field):
    ring = act.constant_group_action(field, REFLECTION)
    for bad in ([2, 2], [1, 0], [0, 0]):
        with pytest.raises(InputError, match="grouplike"):
            ring.invariant_basis(1, twist=field.asarray(bad))
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    ring = act.GradedInvariantRing(standard_module(g, 3, 5))
    a = _basis_vectors(F5, g.order, [1])[0]  # the nilpotent a of alpha_5
    with pytest.raises(InputError, match="grouplike"):
        ring.invariant_dim(2, twist=a)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_wrongly_shaped_twist_or_unit_is_refused(field):
    ring = act.constant_group_action(field, CUBE)
    for bad in ([1, 0], [[1] * 24], [1] * 25):
        with pytest.raises(InputError, match=r"\(24,\)"):
            ring.invariant_dim(2, twist=bad)
    with pytest.raises(InputError, match=r"\(24,\)"):
        xa.fixed_space(field, ring.tower.coaction(2), field.asarray([1, 0]))
    with pytest.raises(InputError, match=r"\(24,\)"):
        xa.fixed_dim(field, ring.tower.coaction(2), field.asarray([[1] * 24]))


# -- deep degrees --------------------------------------------------------------

# dim A_d and dim omega_d of mu_3 x| alpha_5 on W + W*: d = 0..16 as the dense
# tower computed them, d = 17..30 as the sparse kernel of every coordinate's
# rows computed them (before the kernels started from algebra generators)
MU3A5_A_DIMS = [1, 1, 2, 3, 4, 6, 8, 11, 14, 18, 22, 28, 34, 41, 49, 59, 69,
                81, 94, 108, 124, 141, 160, 180, 202, 225, 251, 278, 307, 338, 372]
MU3A5_OMEGA_DIMS = [0, 1, 1, 2, 3, 5, 7, 10, 13, 17, 22, 27, 34, 41, 49, 58, 69,
                    80, 93, 107, 123, 140, 159, 179, 201, 225, 250, 278, 307, 338, 371]


def _mu3a5_w_plus_wdual():
    g = gs.mu_semidirect_alpha_scheme(F5, 3)
    w = standard_module(g, 3, 5)
    return act.GradedInvariantRing(act.direct_sum(w, w.dual()))


def test_q_cube_dims_match_molien_to_degree_30():
    ring = act.constant_group_action(Q, CUBE)
    molien = act.molien_series(CUBE, Q).series_coeffs(31)
    assert ring.hilbert_function(30) == molien


def test_q_cube_dims_match_molien_to_degree_60():
    ring = act.constant_group_action(Q, CUBE)
    molien = act.molien_series(CUBE, Q).series_coeffs(61)
    assert ring.hilbert_function(60) == molien


def test_fp_dims_pinned_to_degree_16():
    ring = _mu3a5_w_plus_wdual()
    assert ring.hilbert_function(16) == MU3A5_A_DIMS[:17]
    assert ring.hilbert_function(16, canon.canonical_twist(ring)) == MU3A5_OMEGA_DIMS[:17]


def test_fp_dims_pinned_to_degree_30():
    ring = _mu3a5_w_plus_wdual()
    assert ring.hilbert_function(30) == MU3A5_A_DIMS
    assert ring.hilbert_function(30, canon.canonical_twist(ring)) == MU3A5_OMEGA_DIMS


# d = 31..40, as the peel and row-dict elimination computed them
MU3A5_A_DIMS_TO_40 = MU3A5_A_DIMS + [407, 445, 485, 527, 572, 619, 669, 721, 776, 833]
MU3A5_OMEGA_DIMS_TO_40 = MU3A5_OMEGA_DIMS + [407, 444, 484, 526, 571, 618, 668, 720, 775, 833]


def test_fp_dims_pinned_to_degree_40():
    ring = _mu3a5_w_plus_wdual()
    assert ring.hilbert_function(40) == MU3A5_A_DIMS_TO_40
    assert ring.hilbert_function(40, canon.canonical_twist(ring)) == MU3A5_OMEGA_DIMS_TO_40


def test_q_cube_dims_match_molien_to_degree_90():
    ring = act.constant_group_action(Q, CUBE)
    molien = act.molien_series(CUBE, Q).series_coeffs(91)
    assert ring.hilbert_function(90) == molien


def test_window_20_classify_peak_memory():
    ring = _mu3a5_w_plus_wdual()
    tracemalloc.start()
    try:
        report = canon.classify_small_action(ring, small_asserted=True, max_window=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.a_dims[:17] == MU3A5_A_DIMS[:17]
    assert peak < 150 * 2**20


def _span_contains(field, basis, vectors) -> bool:
    """The image check as it was: the rows of `vectors` lie in the row span
    of `basis` exactly when stacking them keeps the rank."""
    if len(basis) == 0:
        return xa.is_zero(vectors)
    return xa.rank(field, np.concatenate([basis, vectors])) == xa.rank(field, basis)


@pytest.mark.parametrize("make", [
    lambda: act.constant_group_action(Q, CUBE),
    lambda: act.constant_group_action(F5, S3),
    lambda: act.constant_group_action(Q, REFLECTION),
    _mu3a5_w_plus_wdual,
], ids=["Q-cube", "F5-S3", "Q-reflection", "F5-mu3a5"])
def test_sparse_equivariance_matches_dense_tensordots(make):
    # the trace report's sparse checks against the dense rank test and
    # contractions they replaced, on the true trace matrix and on perturbed
    # ones; mu_3 x| alpha_5 has a non-unimodular dual and is no constant
    # group, so the report runs only its image check
    ring = make()
    field, constant = ring.field, ring.constant_matrices is not None
    unit = xa._unit_terms(ring.scheme.gamma.unit)
    rng = random.Random(0)
    for d in range(5):
        t, r = dr.trace_matrix(ring, d), _dense(ring, d)
        coact, inv = ring.tower.coaction(d), ring.invariant_basis(d)
        assert xa._dense(field, *ring.trace_terms(d), t.shape).tolist() == t.tolist()
        for perturb in (False, True, True):
            t2 = t.copy()
            if perturb:
                i, j = rng.randrange(len(t)), rng.randrange(len(t))
                t2[i, j] = field.reduce(t2[i, j] + field.one)
            terms = xa._vector(t2)
            assert act._image_invariant(field, coact, unit, terms) == \
                _span_contains(field, inv, t2.T)
            if not constant:
                continue
            lhs = dr.tensordot(field, r, t2, ([1], [0])).transpose(0, 2, 1)
            rhs = dr.tensordot(field, t2, r, ([1], [0]))
            assert act._equivariant(field, coact, terms) == xa.arrays_equal(lhs, rhs)
            scale = len(ring.constant_matrices)
            traced = dr.matmul(field, t2, inv.T).T if len(inv) else inv
            assert act._reynolds(field, terms, inv, scale) == \
                xa.arrays_equal(traced, field.reduce(inv * field.coerce(scale)))


def _pairwise_uncovered(exps, nonzero, window):
    """The pairing scan as it was: a monomial e of degree d is covered when
    some monomial of nonzero trace and degree d..window is >= e entrywise."""
    return [[not any(all(a >= b for a, b in zip(mu, e))
                     for total in range(d, window + 1) for mu in nonzero[total])
             for e in exps[d]] for d in range(window + 1)]


@given(n=st.integers(1, 3), window=st.integers(0, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_divisor_closure_matches_pairwise_scan(n, window, data):
    tower = act.constant_group_action(Q, [np.eye(n, dtype=np.int64).tolist()]).tower
    exps = [tower.exponents(d) for d in range(window + 1)]
    masks = []
    for e in exps:
        mask = np.zeros(len(e), dtype=bool)
        mask[data.draw(st.lists(st.integers(0, len(e) - 1), max_size=3))] = True
        masks.append(mask)
    nonzero = [[e[m] for m in mask.nonzero()[0]] for e, mask in zip(exps, masks)]
    got = [(~covered).tolist() for covered in tower.divisor_closure(masks)]
    assert got == _pairwise_uncovered(exps, nonzero, window)


def test_window_28_trace_report_peak_memory():
    # the dense trace matrices took about 1 GB here
    ring = _mu3a5_w_plus_wdual()
    tracemalloc.start()
    try:
        report = act.trace_equivariance_check(ring, 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and not report.unimodular
    assert peak < 50 * 2**20
