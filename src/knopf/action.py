"""G-modules as comodules and their symmetric-power invariant theory.

A G-module V is a right comodule over Gamma = k[G]: rho(v_j) = sum_i v_i (x)
gamma_ij.  The polynomial ring S = Sym(V*) carries the dual coaction on its
variables; invariants, twisted invariants, Hilbert functions, Molien series,
pseudo-reflection detection and the integral trace map Tr: S -> S^G all live
here.  Everything is degree-truncated and exact.  The Sym^d tower runs on
exactalg's integer lane (integer numerators over one scale, one conversion to
the field per degree); a twist by a grouplike chi is the untwisted kernel for
the unit chi^-1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import exactalg as xa
from .errors import InconsistencyError, InputError, UnsupportedCaseError
from .exactalg import FieldSpec
from .gscheme import FiniteGroupScheme, constant_scheme, mu_scheme
from .hopf import AxiomCheck, AxiomReport, _first_mismatch, monomial_label
from .ratfunc import Poly, RatFunc, det_poly_matrix


class Comodule:
    """Right k[G]-comodule by its coaction matrix of Gamma-elements."""

    def __init__(self, scheme: FiniteGroupScheme, coaction, labels=None):
        self.scheme = scheme
        f = scheme.field
        c = f.asarray(coaction)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != scheme.order:
            raise InputError(
                f"coaction must have shape (n, n, {scheme.order}), got {c.shape}"
            )
        self.coaction = c
        self.dim = c.shape[0]
        self.labels = list(labels) if labels else [f"v{i}" for i in range(self.dim)]

    @property
    def field(self) -> FieldSpec:
        return self.scheme.field

    def verify(self) -> AxiomReport:
        """Counit law and coassociativity of the coaction, with witnesses."""
        f, c = self.field, self.coaction
        gamma = self.scheme.gamma
        checks = []
        eps = xa.tensordot(f, c, gamma.counit, ([2], [0]))
        ident = f.eye(self.dim)
        checks.append(
            AxiomCheck("comodule_counit", xa.arrays_equal(eps, ident),
                       _first_mismatch(eps, ident))
        )
        lhs = xa.tensordot(f, c, c, ([1], [0])).transpose(0, 2, 1, 3)
        rhs = xa.tensordot(f, c, gamma.comult, ([2], [0]))
        checks.append(
            AxiomCheck("comodule_coassociativity", xa.arrays_equal(lhs, rhs),
                       _first_mismatch(lhs, rhs))
        )
        return AxiomReport(checks)

    def dual(self) -> "Comodule":
        """Dual comodule: rho(v*_i) = sum_j v*_j (x) S(gamma_ij)."""
        f = self.field
        smat = self.scheme.gamma.antipode
        sc = xa.tensordot(f, self.coaction, smat, ([2], [1]))  # [i,j,a] = S(g_ij)_a
        labels = [
            lb[:-1] if lb.endswith("*") else lb + "*" for lb in self.labels
        ]
        return Comodule(self.scheme, np.ascontiguousarray(sc.transpose(1, 0, 2)),
                        labels=labels)


def direct_sum(v: Comodule, w: Comodule) -> Comodule:
    if v.scheme is not w.scheme and v.scheme.gamma != w.scheme.gamma:
        raise InputError("direct sum needs comodules over the same scheme")
    f = v.field
    n1, n2 = v.dim, w.dim
    c = f.zeros((n1 + n2, n1 + n2, v.scheme.order))
    c[:n1, :n1] = v.coaction
    c[n1:, n1:] = w.coaction
    return Comodule(v.scheme, c, labels=v.labels + w.labels)


def tensor(v: Comodule, w: Comodule) -> Comodule:
    if v.scheme is not w.scheme and v.scheme.gamma != w.scheme.gamma:
        raise InputError("tensor needs comodules over the same scheme")
    f = v.field
    u = xa.tensordot(f, v.coaction, w.coaction, 0)  # [i1,j1,k1,i2,j2,k2]
    t = xa.tensordot(f, u, v.scheme.gamma.mult, ([2, 5], [0, 1]))
    t = t.transpose(0, 2, 1, 3, 4)
    n = v.dim * w.dim
    labels = [f"{a}.{b}" for a in v.labels for b in w.labels]
    return Comodule(v.scheme, np.ascontiguousarray(t).reshape(n, n, v.scheme.order),
                    labels=labels)


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inv % 2 else 1


def det_character(v: Comodule):
    """Determinant of the coaction matrix in the commutative ring Gamma.

    This is the character of the top exterior power of V; it is trivial
    exactly when the action factors through SL(V).  The n! products
    gamma_{0,s(0)} ... gamma_{n-1,s(n-1)} are formed together, one row of the
    coaction matrix per step.
    """
    f = v.field
    gamma = v.scheme.gamma
    n = v.dim
    perms = list(itertools.permutations(range(n)))
    # rm[i, j] is the right-multiplication matrix of gamma_ij on Gamma
    rm = xa.tensordot(f, v.coaction, gamma.mult, ([2], [1]))
    terms = np.repeat(gamma.unit[None, :], len(perms), axis=0)
    every = np.arange(len(perms))
    for i in range(n):
        # every partial product times every gamma_ij of row i; keep gamma_{i,s(i)}
        step = xa.tensordot(f, terms, rm[i], ([1], [1]))
        terms = step[every, [perm[i] for perm in perms]]
    signs = f.asarray([_perm_sign(perm) for perm in perms])
    acc = xa.matmul(f, signs, terms)
    if not v.scheme.is_grouplike(acc):
        raise InconsistencyError("determinant of the coaction is not grouplike")
    return acc


# -- symmetric powers -------------------------------------------------------


def _exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d, lexicographically descending."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


class _SymTower:
    """Coactions on Sym^d of a comodule, built incrementally in d.

    Degree d monomials are indexed by _exponents(); the coaction R_d satisfies
    rho(x^m) = sum_m' x^m' (x) R_d[m', m, :], obtained from degree d-1 by
    multiplying with the coaction of the last variable occurring in each
    monomial (rho is an algebra map, Gamma is commutative).

    The top degree is kept in exactalg's integral form: numerators (int64
    while they fit, Python ints beyond) over one scale.  R_d is one exact
    integer product per nonzero gamma_ij, integer scatter-adds, the common
    gcd divided out of numerators and scale, and one conversion to the field.
    Over F_p the residues are their own integral form (scale 1).
    """

    def __init__(self, variables: Comodule):
        self.vars = variables
        self.field = variables.field
        gamma = variables.scheme.gamma
        f = self.field
        # rm[i,j] is the right-multiplication matrix of gamma_ij on Gamma, as
        # integers over the scale rm_scale
        rm = xa.tensordot(f, variables.coaction, gamma.mult, ([2], [1]))
        self._rm, self._rm_scale, self._rm_bound = xa._integral(f, rm)
        self._nz = np.count_nonzero(variables.coaction, axis=2) > 0
        unit = gamma.unit
        r0 = f.zeros((1, 1, variables.scheme.order))
        r0[0, 0] = unit
        zero_exp = (0,) * variables.dim
        self._exps: dict[int, list[tuple[int, ...]]] = {0: [zero_exp]}
        self._index: dict[int, dict[tuple[int, ...], int]] = {0: {zero_exp: 0}}
        self._coact: dict[int, np.ndarray] = {0: r0}
        # (numerators, scale, bound) of the top degree
        self._top = xa._integral(f, r0)

    def exponents(self, d: int) -> list[tuple[int, ...]]:
        self._build_to(d)
        return self._exps[d]

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
            num, scale, bound = self._top
            # an entry of R_d sums at most n products of length ngamma
            fits = n * ngamma * bound * self._rm_bound < 2**63
            big = np.zeros((len(exps), len(exps), ngamma),
                           dtype=np.int64 if fits else object)
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
                block = num[:, srcs, :].reshape(-1, ngamma)
                cols_arr = np.array(cols)
                for i in range(n):
                    if not self._nz[i, j]:
                        continue
                    prod = xa._int_product(block, bound, self._rm[i, j],
                                           self._rm_bound, ngamma, np.matmul)
                    big[np.ix_(shifts[i], cols_arr)] += prod.astype(
                        big.dtype, copy=False).reshape(len(prev_exps), len(cols), ngamma)
            scale *= self._rm_scale
            if f.p is None and scale > 1:
                g = math.gcd(scale, int(np.gcd.reduce(big, axis=None)))
                big //= g
                scale //= g
            r = xa._from_integral(f, big, scale)
            if f.p is not None:
                self._top = r, 1, f.p - 1
            else:
                bound = int(np.abs(big).max()) if big.size else 0
                if bound < 2**63:
                    big = big.astype(np.int64, copy=False)
                self._top = big, scale, bound
            self._exps[cur] = exps
            self._index[cur] = index
            self._coact[cur] = r


class GradedInvariantRing:
    """S = Sym(V*) with its degreewise G-invariants A_d = (S_d)^G."""

    def __init__(self, module: Comodule, label: str | None = None,
                 var_labels: list[str] | None = None):
        self.module = module
        self.scheme = module.scheme
        self.n = module.dim
        self.label = label or f"S^{self.scheme.label}"
        self.variables = module.dual()
        if var_labels:
            self.variables.labels = list(var_labels)
        self.tower = _SymTower(self.variables)
        self._inv: dict = {}
        self._units: dict = {}
        self._delta = None
        self._det = None
        # set for constant matrix groups; enables Molien/smallness/Reynolds
        self.constant_matrices: list[np.ndarray] | None = None

    @property
    def field(self) -> FieldSpec:
        return self.module.field

    # -- invariants ---------------------------------------------------------

    def _kernel_unit(self, twist) -> np.ndarray:
        """u with {x : rho(x) = x (x) u} the invariants twisted by chi.

        Gamma is commutative and a grouplike chi is invertible, so
        sum_j R_j x_j chi = x (x) 1 exactly when sum_j R_j x_j = x (x) chi^-1.
        """
        if twist is None:
            return self.scheme.gamma.unit
        chi = self.field.asarray(twist)
        key = tuple(chi.tolist())
        if key not in self._units:
            if not self.scheme.is_grouplike(chi):
                raise InputError("a twist must be a grouplike element of Gamma")
            self._units[key] = self.scheme.grouplike_inverse(chi)
        return self._units[key]

    def invariant_basis(self, d: int, twist=None) -> np.ndarray:
        unit = self._kernel_unit(twist)
        key = (d, tuple(unit.tolist()))
        if key not in self._inv:
            self._inv[key] = xa.fixed_space(self.field, self.tower.coaction(d), unit)
        return self._inv[key]

    def invariant_dim(self, d: int, twist=None) -> int:
        return len(self.invariant_basis(d, twist))

    def hilbert_function(self, max_degree: int, twist=None) -> list[int]:
        """dim A_d, or of the invariants twisted by a grouplike, for d <= max_degree."""
        return [self.invariant_dim(d, twist) for d in range(max_degree + 1)]

    def det_character(self):
        if self._det is None:
            self._det = det_character(self.module)
        return self._det.copy()

    # -- trace map ----------------------------------------------------------

    def integral_functional(self) -> np.ndarray:
        """delta_G: the left integral of k[G]* normalized to leading value 1."""
        if self._delta is None:
            self._delta = self.scheme.dual_algebra.left_integral()
        return self._delta

    def trace_matrix(self, d: int) -> np.ndarray:
        """Matrix of Tr on S_d: column m holds the coefficients of Tr(x^m)."""
        return xa.tensordot(self.field, self.tower.coaction(d),
                            self.integral_functional(), ([2], [0]))

    def trace_map(self, d: int, coeffs) -> np.ndarray:
        v = self.field.asarray(coeffs)
        return xa.matmul(self.field, self.trace_matrix(d), v)


# -- constant matrix groups -------------------------------------------------


def _matrix_key(field: FieldSpec, m: np.ndarray):
    return tuple(field.fmt(x) for x in m.reshape(-1))


def _close_group(field: FieldSpec, matrices: list[np.ndarray]):
    """Validate that the list is a full group; return (table, identity index)."""
    if not matrices:
        raise InputError("need at least the identity matrix")
    n = matrices[0].shape[0]
    keys = {}
    for g, m in enumerate(matrices):
        if m.shape != (n, n):
            raise InputError("group matrices must share one square shape")
        k = _matrix_key(field, m)
        if k in keys:
            raise InputError(
                f"duplicate matrix at positions {keys[k]} and {g}: "
                "a constant group must be listed without repetition"
            )
        keys[k] = g
    ident = None
    eye = field.eye(n)
    table = []
    for a, ma in enumerate(matrices):
        if xa.arrays_equal(ma, eye):
            ident = a
        row = []
        for mb in matrices:
            prod = xa.matmul(field, ma, mb)
            k = _matrix_key(field, prod)
            if k not in keys:
                raise InputError("matrix list is not closed under products")
            row.append(keys[k])
        table.append(row)
    if ident is None:
        raise InputError("identity matrix missing from the group list")
    return table, ident


def pseudo_reflections(field: FieldSpec, matrices: list) -> list[int]:
    """Indices of g != 1 with rank(g - I) <= 1."""
    mats = [field.asarray(m) for m in matrices]
    n = mats[0].shape[0]
    eye = field.eye(n)
    out = []
    for i, g in enumerate(mats):
        if xa.arrays_equal(g, eye):
            continue
        diff = field.reduce(g - eye)
        if xa.rank(field, diff) <= 1:
            out.append(i)
    return out


def is_small_constant(field: FieldSpec, matrices: list) -> bool:
    """Faithful (no repeated matrices) and free of pseudo-reflections."""
    mats = [field.asarray(m) for m in matrices]
    seen = set()
    for m in mats:
        k = _matrix_key(field, m)
        if k in seen:
            return False
        seen.add(k)
    return not pseudo_reflections(field, mats)


def constant_group_action(field: FieldSpec, matrices: list,
                          var_labels=None, label=None) -> GradedInvariantRing:
    """Action of a constant finite matrix group, as a graded invariant ring.

    The scheme is Spec of the function algebra of the group; the coaction of
    the defining module is gamma_ij = sum_g g_ij e_g.
    """
    mats = [field.asarray(m) for m in matrices]
    table, ident = _close_group(field, mats)
    if ident != 0:
        # normalize: identity listed first keeps labels predictable
        order = [ident] + [i for i in range(len(mats)) if i != ident]
        mats = [mats[i] for i in order]
        table, ident = _close_group(field, mats)
    scheme = constant_scheme(
        field,
        table,
        labels=[f"g{i}" for i in range(len(mats))],
        label=label or f"constant[{len(mats)}]",
    )
    n = mats[0].shape[0]
    coact = field.zeros((n, n, len(mats)))
    for g, m in enumerate(mats):
        coact[:, :, g] = m
    module = Comodule(scheme, coact)
    ring = GradedInvariantRing(module, label=label, var_labels=var_labels)
    ring.constant_matrices = mats
    return ring


def molien_series(matrices: list, field: FieldSpec | None = None) -> RatFunc:
    """(1/|G|) sum_g 1/det(I - t g) for a constant group in characteristic 0.

    The coefficient of t^d is dim (Sym^d V*)^G; modular characteristic is
    refused because the averaging argument breaks there.
    """
    f = field or FieldSpec.rationals()
    if f.p is not None:
        raise UnsupportedCaseError(
            "Molien series needs characteristic zero; "
            "use degreewise invariants in characteristic p"
        )
    mats = [f.asarray(m) for m in matrices]
    _close_group(f, mats)
    order = Fraction(len(mats))
    total = RatFunc.from_poly(Poly.zero())
    n = mats[0].shape[0]
    for g in mats:
        entries = [
            [
                Poly((Fraction(1 if i == j else 0), Fraction(-g[i, j])))
                for j in range(n)
            ]
            for i in range(n)
        ]
        det = det_poly_matrix(entries)
        total = total + RatFunc(Poly.one(), det)
    return total.scale(Fraction(1, 1) / order)


# -- diagonalizable actions -------------------------------------------------


class DiagonalizableAction:
    """Diagonal action of mu_m (modulus m > 0) or G_m (modulus 0) on variables.

    weights[i] is the character exponent on the i-th variable of S: the
    coaction is x_i -> x_i (x) t^(weights[i]).  Invariant counting is pure
    lattice combinatorics and independent of the base field.
    """

    def __init__(self, weights, modulus: int, var_labels=None):
        self.weights = [int(w) for w in weights]
        if modulus < 0:
            raise InputError("modulus must be 0 (torus) or positive (mu_m)")
        self.modulus = int(modulus)
        self.n = len(self.weights)
        self.var_labels = list(var_labels) if var_labels else [
            f"x{i}" for i in range(self.n)
        ]
        self.label = (
            f"G_m weights {tuple(self.weights)}"
            if self.modulus == 0
            else f"mu_{self.modulus} weights {tuple(self.weights)}"
        )

    def _red(self, w: int) -> int:
        return w % self.modulus if self.modulus else w

    def weight_counts(self, max_degree: int) -> list[dict[int, int]]:
        """counts[d][w] = number of degree-d monomials of (reduced) weight w."""
        counts: list[dict[int, int]] = [dict() for _ in range(max_degree + 1)]
        counts[0][0] = 1
        for wt in self.weights:
            new = [dict() for _ in range(max_degree + 1)]
            for d in range(max_degree + 1):
                for w, c in counts[d].items():
                    e = 0
                    while d + e <= max_degree:
                        tw = self._red(w + e * wt)
                        tgt = new[d + e]
                        tgt[tw] = tgt.get(tw, 0) + c
                        e += 1
            counts = new
        return counts

    def hilbert_function(self, max_degree: int, twist: int = 0) -> list[int]:
        """Number of monomials of weight -twist, degree by degree (twist 0: A_d)."""
        tgt = self._red(-int(twist))
        return [c.get(tgt, 0) for c in self.weight_counts(max_degree)]

    def det_module_weight(self) -> int:
        """Weight of det V; the module V is dual to the variables."""
        return self._red(-sum(self.weights))

    def to_kernel_route(self, field: FieldSpec) -> GradedInvariantRing:
        """The same action as an honest mu_m comodule (finite modulus only)."""
        if self.modulus == 0:
            raise UnsupportedCaseError(
                "the torus is not a finite scheme; weight route only"
            )
        scheme = mu_scheme(field, self.modulus)
        f = field
        coact = f.zeros((self.n, self.n, self.modulus))
        for i, w in enumerate(self.weights):
            # module coaction carries the inverse character of the variable
            coact[i, i, (-w) % self.modulus] = f.one
        module = Comodule(scheme, coact)
        return GradedInvariantRing(module, label=self.label,
                                   var_labels=self.var_labels)


# -- trace map reports ------------------------------------------------------


@dataclass
class TraceDegreeResult:
    degree: int
    image_in_invariants: bool
    equivariance: str  # "pass" | "fail" | "skipped (...)"
    reynolds: str      # "pass" | "fail" | "not applicable"

    def to_dict(self):
        return {
            "degree": self.degree,
            "image_in_invariants": self.image_in_invariants,
            "equivariance": self.equivariance,
            "reynolds": self.reynolds,
        }


@dataclass
class TraceReport:
    window: int
    unimodular: bool
    degrees: list[TraceDegreeResult] = dc_field(default_factory=list)
    pairing_uncovered: dict[int, list[str]] = dc_field(default_factory=dict)
    pairing_note: str = ""

    @property
    def ok(self) -> bool:
        return all(
            r.image_in_invariants
            and r.equivariance != "fail"
            and r.reynolds != "fail"
            for r in self.degrees
        )

    def to_dict(self):
        return {
            "window": self.window,
            "unimodular": self.unimodular,
            "ok": self.ok,
            "degrees": [r.to_dict() for r in self.degrees],
            "pairing_uncovered": {
                str(d): v for d, v in self.pairing_uncovered.items()
            },
            "pairing_note": self.pairing_note,
        }

    def __str__(self):
        lines = [
            f"trace map report (window {self.window}, "
            f"k[G]* unimodular: {self.unimodular})"
        ]
        for r in self.degrees:
            lines.append(
                f"  degree {r.degree}: image in invariants: "
                f"{'yes' if r.image_in_invariants else 'NO'}; "
                f"equivariance: {r.equivariance}; reynolds: {r.reynolds}"
            )
        for d, mons in self.pairing_uncovered.items():
            lines.append(f"  pairing uncovered at degree {d}: {', '.join(mons)}")
        if self.pairing_note:
            lines.append(f"  note: {self.pairing_note}")
        return "\n".join(lines)


def _span_contains(field, basis: np.ndarray, vectors: np.ndarray) -> bool:
    if len(basis) == 0:
        return xa.is_zero(vectors)
    stacked = np.concatenate([basis, vectors], axis=0)
    return xa.rank(field, stacked) == xa.rank(field, basis)


def trace_equivariance_check(ring: GradedInvariantRing, max_degree: int) -> TraceReport:
    """Trace-map sanity report over a degree window.

    Per degree: the image of Tr lies in the invariants; when k[G]* is
    unimodular, rho(Tr s) = (Tr (x) id)(rho s); for constant groups in
    characteristic zero, Tr restricted to invariants is multiplication by |G|.
    A truncated pairing scan records basis monomials s with Tr(s t) = 0 for
    every monomial t inside the window (inconclusive at the boundary).
    """
    f = ring.field
    unimod = ring.scheme.dual_algebra.is_unimodular()
    reynolds_scale = None
    if ring.constant_matrices is not None and f.p is None:
        reynolds_scale = f.coerce(len(ring.constant_matrices))
    report = TraceReport(window=max_degree, unimodular=unimod)
    # monomials with a nonzero trace, per degree, for the pairing scan below
    nonzero_cols: dict[int, set] = {}
    for d in range(max_degree + 1):
        t = ring.trace_matrix(d)
        inv = ring.invariant_basis(d)
        img_ok = _span_contains(f, inv, t.T)
        if unimod:
            r = ring.tower.coaction(d)
            lhs = xa.tensordot(f, r, t, ([1], [0])).transpose(0, 2, 1)
            rhs = xa.tensordot(f, t, r, ([1], [0]))
            equi = "pass" if xa.arrays_equal(lhs, rhs) else "fail"
        else:
            equi = "skipped (k[G]* not unimodular)"
        if reynolds_scale is not None and len(inv):
            scaled = f.reduce(inv * reynolds_scale)
            traced = xa.matmul(f, t, inv.T).T
            rey = "pass" if xa.arrays_equal(traced, scaled) else "fail"
        elif reynolds_scale is not None:
            rey = "pass"
        else:
            rey = "not applicable"
        report.degrees.append(TraceDegreeResult(d, img_ok, equi, rey))
        exps = ring.tower.exponents(d)
        nonzero_cols[d] = {
            exps[m] for m in range(len(exps)) if not xa.is_zero(t[:, m])
        }
    # truncated nondegeneracy proxy for the pairing (s, t) -> Tr(st)
    for d in range(max_degree + 1):
        uncovered = []
        for e in ring.tower.exponents(d):
            hit = False
            for total in range(d, max_degree + 1):
                for mu in nonzero_cols[total]:
                    if all(mu[i] >= e[i] for i in range(ring.n)):
                        hit = True
                        break
                if hit:
                    break
            if not hit:
                uncovered.append(monomial_label(e, ring.variables.labels))
        if uncovered:
            report.pairing_uncovered[d] = uncovered
    report.pairing_note = (
        "pairing scan is truncated at the window; monomials uncovered only "
        "near the boundary are inconclusive"
    )
    return report

