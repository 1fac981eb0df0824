"""Finite group schemes and the Knop character.

A finite group scheme G is carried around as its coordinate ring k[G], a
commutative finite-dimensional Hopf algebra; the group structure sits in the
coalgebra half and the dual algebra k[G]* is cocommutative.  Characters of G
are grouplike elements of k[G].

The Knop character is computed by two independent routes:

* modular route: the modular element of the algebra k[G]*, read back as an
  element of k[G]** = k[G];
* adjoint route: the right adjoint coaction f -> sum f_(2) (x) S(f_(1))f_(3)
  on k[G] is dualized, and the grouplike through which the one-dimensional
  left-integral line of k[G]* coacts is extracted.

The adjoint route is the definition; the modular route is the cross-check.
Both, and the grouplike test they end in, are `exactalg.contract`s of the
structure constants' nonzeros, each refused by name beyond hopf.TERM_BUDGET.
"""

from __future__ import annotations

import warnings
from math import comb

import numpy as np

from . import exactalg as xa
from .errors import InconsistencyError, InputError
from .exactalg import FieldSpec
from .hopf import (
    HopfAlgebraData,
    cyclic_table,
    function_algebra,
    group_algebra,
    monomial_label,
)


class FiniteGroupScheme:
    """Spec of a commutative finite-dimensional Hopf algebra."""

    def __init__(self, gamma: HopfAlgebraData, label: str | None = None):
        if not gamma.is_commutative():
            raise InputError("coordinate ring of a group scheme must be commutative")
        gamma._need_coalgebra()
        self.gamma = gamma
        self.label = label or "G"
        self._dual: HopfAlgebraData | None = None
        self._knop_adjoint: np.ndarray | None = None
        self._knop_modular: np.ndarray | None = None

    @property
    def field(self) -> FieldSpec:
        return self.gamma.field

    @property
    def order(self) -> int:
        """dim k[G], the rank of the group scheme."""
        return self.gamma.dim

    @property
    def dual_algebra(self) -> HopfAlgebraData:
        """k[G]*, the cocommutative dual Hopf algebra (cached)."""
        if self._dual is None:
            self._dual = self.gamma.dual()
        return self._dual

    def verify(self):
        """Axiom report for k[G]; the dual passes iff k[G] does."""
        return self.gamma.verify_axioms()

    # -- grouplikes ---------------------------------------------------------

    def unit_grouplike(self) -> np.ndarray:
        return self.gamma.unit.copy()

    def is_grouplike(self, v) -> bool:
        """Delta v = v (x) v and eps(v) = 1, checked exactly."""
        f, n, d = self.field, self.order, self.gamma.comult
        v = f.asarray(v)
        if f.reduce(v.dot(self.gamma.counit)) != f.one:
            return False
        vi, vv = xa._vector(v)
        di, dj, dk = d.coo()
        # sum_i v_i Delta[i, j, k] against v_j v_k
        terms = xa.contract(f.p, [((vi, 0 * vi, vv), (di, dj * n + dk, d.vals))],
                            "the grouplike test")
        return xa.is_outer(f.p, terms, n, (vi, vv), (vi, vv))

    def grouplike_product(self, u, v) -> np.ndarray:
        return self.gamma.mult_vec(self.field.asarray(u), self.field.asarray(v))

    def grouplike_inverse(self, v) -> np.ndarray:
        return self.gamma.apply_antipode(self.field.asarray(v))

    def grouplike_equal(self, u, v) -> bool:
        return xa.arrays_equal(self.field.asarray(u), self.field.asarray(v))

    def format_grouplike(self, v) -> str:
        return self.field.fmt_combo(self.field.asarray(v), self.gamma.basis)

    # -- Knop character -----------------------------------------------------

    def knop_character_modular_route(self) -> np.ndarray:
        """Modular element of k[G]* as an element of k[G]; asserted grouplike."""
        if self._knop_modular is None:
            alpha = self.dual_algebra.modular_element()
            if not self.is_grouplike(alpha):
                raise InconsistencyError(
                    "modular element of the dual is not grouplike in k[G]"
                )
            self._knop_modular = alpha
        return self._knop_modular.copy()

    def knop_character_adjoint_route(self) -> np.ndarray:
        """Grouplike through which the integral line of k[G]* coacts.

        The adjoint coaction on Gamma = k[G] sends b_j to
        sum_{c,e,b} d2[j,c,e,b] b_e (x) S(b_c) b_b with d2 the coefficients of
        (Delta (x) id) Delta.  Dualizing, the functional lambda spanning the
        left integral space of Gamma* must satisfy
        sum_j lambda_j S(g_{ji}) = lambda_i w for a single grouplike w, where
        g_{ji} are the coaction coefficients.  The contraction below computes
        sum_j lambda_j g_{ji} on the nonzeros: Delta is contracted with lambda
        first, and S(b_c) b_b with that at each entry of the second Delta, so
        no intermediate outgrows the nonzeros of Delta or of the products
        S(b_c) b_b.
        """
        if self._knop_adjoint is not None:
            return self._knop_adjoint.copy()
        f, n, p = self.field, self.order, self.field.p
        d, s = self.gamma.comult, self.gamma.antipode
        di, dj, dk = d.coo()
        sa, sj, _ = s.coo()
        lam = self.dual_algebra.left_integral()
        li, lv = xa._vector(lam)
        what = "the adjoint route"
        # E[a, c] = sum_j d[a, c, j] lam_j   (lam contracted into the last leg)
        e, ev = xa.contract(p, [((li, 0 * li, lv), (dk, di * n + dj, d.vals))], what)
        # N[i, k] = sum_{a,b,c} d[i, a, b] E[a, c] (S(b_c) b_b)[k]
        nk, nv = xa.contract(p, [(_adjoint_terms(self.gamma, what), (e, 0 * e, ev))], what)
        # M[i] = S applied to the Gamma-element N[i]
        m = xa.contract(p, [((nk % n, nk - nk % n, nv), (sj, sa, s.vals))], what)
        # M = lam (x) w: lam has a 1 at its first nonzero entry
        row = m[0] // n == li[0]
        wi, wv = m[0][row] % n, m[1][row]
        if not xa.is_outer(p, m, n, (li, lv), (wi, wv)):
            raise InconsistencyError(
                "dualized adjoint coaction does not stabilize the integral line"
            )
        w = xa._dense(f, wi, wv, (n,))
        if not self.is_grouplike(w):
            raise InconsistencyError("adjoint-route character is not grouplike")
        self._knop_adjoint = w
        return w.copy()

    def knop_character(self) -> np.ndarray:
        """The Knop character (adjoint-route definition)."""
        return self.knop_character_adjoint_route()

    def knop_trivial(self) -> bool:
        return xa.arrays_equal(self.knop_character(), self.gamma.unit)

    def knop_routes_agree(self) -> bool:
        """Cross-route regression: the modular route equals the inverse of the
        adjoint route.

        That convention is frozen from cross-route runs on the whole catalog
        and pinned by a regression test: the modular element of k[G]* read
        back in k[G] is the INVERSE of the adjoint-route grouplike (they
        coincide exactly when that grouplike is self-inverse, e.g. in
        characteristic 2 or for trivial characters).
        """
        expected = self.grouplike_inverse(self.knop_character_adjoint_route())
        return self.grouplike_equal(self.knop_character_modular_route(), expected)

    def adjoint_coaction(self) -> xa.SparseCoaction:
        """Full adjoint coaction G[e,j,:], the Gamma-coefficient of b_e in
        rho_ad(b_j) = sum d[j,a,b] d[a,c,e] b_e (x) S(b_c) b_b.  Intended for
        small schemes and cross-checks; the Knop routes never need it."""
        n, p, d = self.order, self.field.p, self.gamma.comult
        di, dj, dk = d.coo()
        what = "the adjoint coaction"
        keys, vals = xa.contract(p, [(_adjoint_terms(self.gamma, what),
                                      (di * n + dj, dk * n * n, d.vals))], what)
        return xa.SparseCoaction.from_coo(*np.unravel_index(keys, (n, n, n)), vals, n, n)


def _adjoint_terms(gamma: HopfAlgebraData, what: str):
    """The terms d[j, a, b] (S(b_c) b_b)[k] of the adjoint coaction, as the
    operand (a n + c, j n + k, value): the antipode joined with the product
    into S(b_c) b_b, and that joined with Delta at b."""
    n, p = gamma.dim, gamma.field.p
    d, s = gamma.comult, gamma.antipode
    di, dj, dk = d.coo()
    sa, sc, _ = s.coo()
    i, j, k = gamma.mult.coo()
    # S(b_c) b_b = sum_k P[b, c, k] b_k, keyed (b, c, k)
    pk, pv = xa.contract(p, [((sa, sc * n, s.vals), (i, j * n * n + k, gamma.mult.vals))], what)
    # d[j, a, b] P[b, c, k] keyed ((a, c), j, k)
    n2 = n * n
    keys, vals = xa.contract(p, [((dk, dj * n * n2 + di * n, d.vals),
                                  (pk // n2, pk // n % n * n2 + pk % n, pv))], what)
    return keys // n2, keys % n2, vals


# -- constructors -----------------------------------------------------------


def constant_scheme(field: FieldSpec, table, labels=None, label=None) -> FiniteGroupScheme:
    """Constant group scheme of a finite group given by its multiplication table."""
    return FiniteGroupScheme(
        function_algebra(field, table, labels=labels), label=label or "constant"
    )


def mu_scheme(field: FieldSpec, m: int) -> FiniteGroupScheme:
    """mu_m = Spec k[t]/(t^m - 1), the m-th roots of unity.

    k[mu_m] is the group algebra of Z/m, with basis t^i.
    """
    if m < 1:
        raise InputError("mu_m needs m >= 1")
    labels = [monomial_label((i,), ("t",)) for i in range(m)]
    return FiniteGroupScheme(group_algebra(field, cyclic_table(m), labels),
                             label=f"mu_{m}")


def alpha_scheme(field: FieldSpec) -> FiniteGroupScheme:
    """alpha_p = Spec k[a]/(a^p) over a field of characteristic p: mu_1 x| alpha_p."""
    if field.characteristic == 0:
        raise InputError("alpha_p lives in positive characteristic")
    return FiniteGroupScheme(_mu_alpha_ring(field, 1), label=f"alpha_{field.p}")


def mu_semidirect_alpha_scheme(field: FieldSpec, ell: int) -> FiniteGroupScheme:
    """mu_ell acting on alpha_p: matrices [[t, a], [0, 1]].

    Coordinate ring k[t,a]/(t^ell - 1, a^p) with Delta t = t (x) t and
    Delta a = t (x) a + a (x) 1, read off the group law
    (t, a)(t', a') = (t t', t a' + a).  Basis t^i a^j, index i*p + j.
    """
    p = field.characteristic
    if p == 0:
        raise InputError("this scheme needs positive characteristic for alpha_p")
    if ell < 1:
        raise InputError("ell must be >= 1")
    if ell % 2 == 0 or not xa._is_prime(ell) or (p - 1) % ell == 0:
        warnings.warn(
            "outside the ell odd prime, ell not dividing p-1 range; "
            "the Knop character may be trivial",
            stacklevel=2,
        )
    return FiniteGroupScheme(_mu_alpha_ring(field, ell), label=f"mu_{ell}:alpha_{p}")


def _mu_alpha_ring(field: FieldSpec, ell: int) -> HopfAlgebraData:
    """k[mu_ell x| alpha_p] = k[t,a]/(t^ell - 1, a^p), basis t^i a^j at i*p + j."""
    f = field
    p = field.p
    n = ell * p
    idx = lambda i, j: i * p + j
    mult, comult, anti = [], [], []
    counit = f.zeros(n)
    unit = f.zeros(n)
    for i1 in range(ell):
        for j1 in range(p):
            a = idx(i1, j1)
            for i2 in range(ell):
                for j2 in range(p - j1):
                    mult.append((a, idx(i2, j2), idx((i1 + i2) % ell, j1 + j2), 1))
            # Delta(t^i a^j) = sum_k C(j,k) t^(i+k) a^(j-k) (x) t^i a^k
            for k in range(j1 + 1):
                comult.append((a, idx((i1 + k) % ell, j1 - k), idx(i1, k),
                               f.coerce(comb(j1, k))))
            # S(t^i a^j) = (-1)^j t^(-i-j) a^j
            anti.append((idx((-i1 - j1) % ell, j1), a, 0, f.coerce((-1) ** j1)))
            if j1 == 0:
                counit[a] = f.one
    unit[idx(0, 0)] = f.one
    labels = [monomial_label((i, j), ("t", "a")) for i in range(ell) for j in range(p)]
    sparse = xa.SparseCoaction.from_entries
    return HopfAlgebraData(f, labels, unit, sparse(mult, n, n), counit,
                           sparse(comult, n, n), sparse(anti, n, 1))


def mu_semidirect_c2_scheme(field: FieldSpec, m: int) -> FiniteGroupScheme:
    """mu_m semidirect C_2, the cyclic part inverted by the flip.

    Coordinate ring k[mu_m x {1,s}] as a module, functions t^i e_q with
    q in {1 (index 0), s (index 1)}; pointwise product, and the coproduct
    reads off the group law (u, q)(v, q') = (u * v^(q), q q') where q acts
    on mu_m by inversion.  Basis index q*m + i for t^i e_q.
    """
    if m < 1:
        raise InputError("m must be >= 1")
    f = field
    n = 2 * m
    idx = lambda q, i: q * m + i
    mult, comult, anti = [], [], []
    counit = f.zeros(n)
    unit = f.zeros(n)
    for q in range(2):
        for i in range(m):
            a = idx(q, i)
            for j in range(m):
                mult.append((a, idx(q, j), idx(q, (i + j) % m), 1))
            if q == 0:
                # Delta(t^i e_1) = t^i e_1 (x) t^i e_1 + t^i e_s (x) t^-i e_s
                comult.append((a, idx(0, i), idx(0, i), 1))
                comult.append((a, idx(1, i), idx(1, (-i) % m), 1))
                anti.append((idx(0, (-i) % m), a, 0, 1))
                counit[a] = f.one
            else:
                # Delta(t^i e_s) = t^i e_1 (x) t^i e_s + t^i e_s (x) t^-i e_1
                comult.append((a, idx(0, i), idx(1, i), 1))
                comult.append((a, idx(1, i), idx(0, (-i) % m), 1))
                anti.append((idx(1, i), a, 0, 1))
    unit[idx(0, 0)] = f.one
    unit[idx(1, 0)] = f.one
    labels = [
        monomial_label((i, 1), ("t", "es" if q else "e1"))
        for q in range(2)
        for i in range(m)
    ]
    sparse = xa.SparseCoaction.from_entries
    gamma = HopfAlgebraData(f, labels, unit, sparse(mult, n, n), counit,
                            sparse(comult, n, n), sparse(anti, n, 1))
    return FiniteGroupScheme(gamma, label=f"mu_{m}:C2")


def scheme_of_hopf_dual(h: HopfAlgebraData, label=None) -> FiniteGroupScheme:
    """Spec(H*) for a cocommutative Hopf algebra H (e.g. Spec u(L)*)."""
    if not h.is_cocommutative():
        raise InputError("Spec(H*) needs H cocommutative so that H* is commutative")
    return FiniteGroupScheme(h.dual(), label=label or "Spec(H*)")
