"""The Sym^d tower and twisted kernels, against the forms they replaced.

`_SeedTower` is the original Fraction/residue tower, kept verbatim as the
reference for the integer-lane `_SymTower`; `_twisted_coaction` is the
explicit twisted coaction R_d * chi that twisted kernels were once taken of.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knopf import action as act
from knopf import exactalg as xa
from knopf import gscheme as gs
from knopf.action import Comodule, _exponents
from knopf.catalog import standard_module
from knopf.errors import InputError
from knopf.exactalg import FieldSpec

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)

MINUS_ID = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
REFLECTION = [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]
ROTATION4 = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]
S3 = [
    [[int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in itertools.permutations(range(3))
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
        self._rm = xa.tensordot(f, variables.coaction, gamma.mult, ([2], [1]))
        self._nz = [
            [not xa.is_zero(variables.coaction[i, j]) for j in range(variables.dim)]
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
                    contrib = xa.tensordot(f, src_block, self._rm[i, j], ([2], [0]))
                    big[np.ix_(shifts[i], cols_arr)] += contrib
            self._exps[cur] = exps
            self._index[cur] = index
            self._coact[cur] = f.reduce(big)


def _assert_same_tower(ring, max_degree):
    seed = _SeedTower(ring.variables)
    for d in range(max_degree + 1):
        got, want = ring.tower.coaction(d), seed.coaction(d)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.reshape(-1).tolist() == want.reshape(-1).tolist()
        if ring.field.p is None:
            assert all(type(x) is Fraction for x in got.reshape(-1))


def _conjugated(field, matrices, p):
    """p g p^-1 for every g of the group."""
    p = field.asarray(p)
    p_inv = xa.invert(field, p)
    return [xa.matmul(field, xa.matmul(field, p, field.asarray(g)), p_inv)
            for g in matrices]


def _random_invertible(field, n, rng, entry):
    while True:
        p = field.asarray([[entry(rng) for _ in range(n)] for _ in range(n)])
        if xa.invert(field, p) is not None:
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
    # numerators and the common scale past 2^63: the Python-int lane and the
    # gcd division both run
    rng = random.Random(7)
    p = _random_invertible(Q, 2, rng, _big_rational)
    ring = act.constant_group_action(Q, _conjugated(Q, ROTATION4, p))
    _assert_same_tower(ring, 6)
    nums, scale, bound = xa._integral(Q, ring.tower.coaction(6))
    assert bound >= 2**63 and scale > 1
    assert nums.dtype == object
    assert xa._integral(Q, ring.tower.coaction(2))[2] >= 2**53


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


# -- twisted kernels -----------------------------------------------------------


def _twisted_coaction(ring, d, chi):
    """R_d * chi: right multiplication of every coefficient by chi in Gamma."""
    f = ring.field
    twmat = xa.tensordot(f, ring.scheme.gamma.mult, f.asarray(chi), ([1], [0]))
    return xa.tensordot(f, ring.tower.coaction(d), twmat, ([2], [0]))


def _assert_twisted_kernels(ring, grouplikes, max_degree):
    unit = ring.scheme.gamma.unit
    for chi in grouplikes:
        assert ring.scheme.is_grouplike(chi)
        for d in range(max_degree + 1):
            got = ring.invariant_basis(d, twist=chi)
            want = xa.fixed_space(ring.field, _twisted_coaction(ring, d, chi), unit)
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
    sign = field.asarray([act._perm_sign(p) for p in itertools.permutations(range(3))])
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
