"""G-modules as comodules and their symmetric-power invariant theory.

A G-module V is a right comodule over Gamma = k[G]: rho(v_j) = sum_i v_i (x)
gamma_ij, held by its nonzeros as an `exactalg.SparseCoaction` (dense input
is converted once), and duals, sums and tensor products are built from
those.  The polynomial ring S = Sym(V*) carries the dual coaction on its
variables; invariants, twisted invariants, Hilbert functions, Molien series,
pseudo-reflection detection and the integral trace map Tr: S -> S^G all live
here.  Everything is degree-truncated and exact.  The Sym^d tower is built
on first use and is sparse too: each degree is a SparseCoaction, built from
the one before with a fixed number of array operations, because the
monomials of degree d are the pairs (s, j) of a monomial s of degree d-1 and
a variable j at or after its last one.  Its invariants are exactalg's sparse
fixed-space kernel of that form; a twist by a grouplike chi is the untwisted
kernel for the unit chi^-1.  The kernel starts from the rows of the algebra
generators of k[G]*, peels their singleton rows, eliminates the rest, and
`exactalg.fixed_space` certifies the result against the other coordinates.

The trace report takes Tr by its nonzero terms, never as a dense matrix:
its image is certified invariant by the same certificate, equivariance and
Reynolds are one sparse contraction each, and the pairing scan is a
downward closure in the tower.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactalg as xa
from .errors import InconsistencyError, InputError, UndecidedError, UnsupportedCaseError
from .exactalg import FieldSpec
from .gscheme import FiniteGroupScheme, constant_scheme, mu_scheme
from .hopf import AxiomCheck, AxiomReport, monomial_label
from .ratfunc import Poly, RatFunc, det_poly_matrix


class Comodule:
    """Right k[G]-comodule by its coaction matrix, an (n, n, |G|) SparseCoaction."""

    def __init__(self, scheme: FiniteGroupScheme, coaction, labels=None):
        self.scheme = scheme
        self.coaction = xa.held(scheme.field, coaction, (None, None, scheme.order))
        if self.coaction is None:
            raise InputError(f"coaction must have shape (n, n, {scheme.order})")
        self.dim = self.coaction.dim
        self.labels = list(labels) if labels else [f"v{i}" for i in range(self.dim)]

    @property
    def field(self) -> FieldSpec:
        return self.scheme.field

    def verify(self) -> AxiomReport:
        """Counit law and coassociativity of the coaction, with witnesses:
        sum_k gamma_ik (x) gamma_kj = Delta(gamma_ij) at (i, j, g, h)."""
        n, p, order = self.dim, self.field.p, self.scheme.order
        gamma = self.scheme.gamma
        (i, j, g), v = self.coaction.coo(), self.coaction.vals
        ei, ev = xa._vector(gamma.counit)
        di, dj, dk = gamma.comult.coo()
        what = "the comodule axioms"
        # sum_g gamma_ij[g] eps(g) against the identity, then
        # sum_k gamma_ik (x) gamma_kj against Delta(gamma_ij) n^2 keys on
        o2, base = order * order, n * n
        terms = xa.contract(p, [((g, i * n + j, v), (ei, 0 * ei, ev)),
                                ((j, base + i * n * o2 + g * order, v), (i, j * o2 + g, v)),
                                ((g, base + (i * n + j) * o2, -v),
                                 (di, dj * order + dk, gamma.comult.vals))], what)
        eye = (np.arange(n) * (n + 1), -np.ones(n, dtype=np.int64))
        w = xa.first_differences(p, [(n, n), (n, n, order, order)], [terms, eye])
        return AxiomReport([AxiomCheck("comodule_counit", w[0] is None, w[0]),
                            AxiomCheck("comodule_coassociativity", w[1] is None, w[1])])

    def dual(self) -> "Comodule":
        """Dual comodule: rho(v*_i) = sum_j v*_j (x) S(gamma_ij)."""
        p, n, order = self.field.p, self.dim, self.scheme.order
        s = self.scheme.gamma.antipode
        sa, sj, _ = s.coo()
        (i, j, g), v = self.coaction.coo(), self.coaction.vals
        keys, vals = xa.contract(p, [((g, (j * n + i) * order, v), (sj, sa, s.vals))],
                                 "the dual comodule")
        labels = [lb[:-1] if lb.endswith("*") else lb + "*" for lb in self.labels]
        return Comodule(self.scheme, xa.SparseCoaction.from_coo(
            *np.unravel_index(keys, (n, n, order)), vals, n, order), labels=labels)


def direct_sum(v: Comodule, w: Comodule) -> Comodule:
    if v.scheme is not w.scheme and v.scheme.gamma != w.scheme.gamma:
        raise InputError("direct sum needs comodules over the same scheme")
    n1, (i, j, g) = v.dim, w.coaction.coo()
    parts = zip((*v.coaction.coo(), v.coaction.vals), (i + n1, j + n1, g, w.coaction.vals))
    c = xa.SparseCoaction.from_coo(*map(np.concatenate, parts), n1 + w.dim, v.scheme.order)
    return Comodule(v.scheme, c, labels=v.labels + w.labels)


def tensor(v: Comodule, w: Comodule) -> Comodule:
    if v.scheme is not w.scheme and v.scheme.gamma != w.scheme.gamma:
        raise InputError("tensor needs comodules over the same scheme")
    p, m, order = v.field.p, v.scheme.gamma.mult, v.scheme.order
    n1, n2 = v.dim, w.dim
    n, size = n1 * n2, (n1 * n2) ** 2 * order
    a, b, c = m.coo()
    (i1, j1, g1), x1 = v.coaction.coo(), v.coaction.vals
    (i2, j2, g2), x2 = w.coaction.coo(), w.coaction.vals
    # [i1 n2 + i2, j1 n2 + j2] holds gamma_{i1 j1} gamma'_{i2 j2}: the terms
    # gamma_{i1 j1}[a] mult[a, b, c], keyed by b and their share of the
    # output key, joined with gamma'_{i2 j2}[b]
    keys, vals = xa.contract(p, [((g1, (i1 * n2 * n1 + j1) * n2 * order, x1),
                                  (a, b * size + c, m.vals))], "a tensor product")
    keys, vals = xa.contract(p, [((keys // size, keys % size, vals),
                                  (g2, (i2 * n1 * n2 + j2) * order, x2))], "a tensor product")
    labels = [f"{a}.{b}" for a in v.labels for b in w.labels]
    return Comodule(v.scheme, xa.SparseCoaction.from_coo(
        *np.unravel_index(keys, (n, n, order)), vals, n, order), labels=labels)


# The most column sets det_character may hold at its widest level, C(n, n // 2),
# which admits dim 18 and below; a larger comodule is refused by this name
# before its dense coaction is built.
DET_SET_BUDGET = 1 << 16


def det_character(v: Comodule):
    """Determinant of the coaction matrix in the commutative ring Gamma.

    This is the character of the top exterior power of V; it is trivial
    exactly when the action factors through SL(V).  Minors are expanded
    along their first row and shared between the column sets they cover
    (n 2^(n-1) sparse products in Gamma instead of n n!).
    """
    if math.comb(v.dim, v.dim // 2) > DET_SET_BUDGET:
        raise UndecidedError(
            f"the determinant of a dim-{v.dim} comodule needs C({v.dim}, {v.dim // 2}) "
            f"column sets at once, over action.DET_SET_BUDGET = {DET_SET_BUDGET}")
    f, gamma, n, coact = v.field, v.scheme.gamma, v.dim, v.coaction.to_dense(v.field)
    # minors[s]: the minor on the last len(sets[s]) rows and the columns
    # sets[s]; one level's products in Gamma are one batched mult_vec
    sets, minors = [()], gamma.unit[None, :]
    for i in range(n - 1, -1, -1):
        index = {cols: s for s, cols in enumerate(sets)}
        sets = list(itertools.combinations(range(n), n - i))
        s, k, j, old = np.array([(s, k, j, index[cols[:k] + cols[k + 1:]])
                                 for s, cols in enumerate(sets) for k, j in enumerate(cols)]).T
        live = (np.count_nonzero(coact[i], axis=1)[j]
                * np.count_nonzero(minors, axis=1)[old]).nonzero()[0]
        prods = gamma.mult_vec(f.reduce(coact[i, j[live]] * (-1) ** k[live, None]),
                               minors[old[live]])
        minors = f.zeros((len(sets), v.scheme.order))
        np.add.at(minors, s[live], prods)
        minors = f.reduce(minors)
    acc = minors[0]
    if not v.scheme.is_grouplike(acc):
        raise InconsistencyError("determinant of the coaction is not grouplike")
    return acc


# -- symmetric powers -------------------------------------------------------


# source entries per block of a tower step, whose products are summed at once
_BLOCK = 1 << 15


def _step(n: int, up: np.ndarray, src: np.ndarray, last: np.ndarray):
    """up[s, i], the index in degree d + 1 of x^s x_i for the monomials s of
    degree d (their `src` and `last`), from `up` of degree d - 1: the pair
    (s, i) for i >= last(s), else (t, last(s)) with x^t = x^src(s) x_i; and
    the src and last of degree d + 1, whose monomials are the pairs (s, j)."""
    width, variables = n - last, np.arange(n)
    base = width.cumsum() - n
    up = np.where(variables < last[:, None], base[up[src]] + last[:, None],
                  base[:, None] + variables)
    src = np.arange(len(width)).repeat(width)
    return up, src, np.arange(len(src)) - base[src]


class _SymTower:
    """Coactions on Sym^d of a comodule, built incrementally in d.

    Degree d monomials are indexed by their exponent vectors
    lexicographically descending, which is the order of the pairs
    (s, j) of a degree d-1 monomial s and a variable j >= last(s), the last
    variable occurring in s: x^m = x^s x_j, and (s, j) is monomial
    base[s] + j, with base[s] the number of pairs before s, minus last(s).
    So the source, last variable and `up` table (x^s x_i for every s and i)
    of each degree are arithmetic on those of the degree before; the tower
    keeps those of its top degree and derives lower ones on request.

    The coaction R_d satisfies rho(x^m) = sum_m' x^m' (x) R_d[m', m, :]: rho
    is an algebra map and Gamma is commutative, so column (s, j) of R_d is
    column s of R_{d-1} times the coaction of x_j.  Every degree is an
    `exactalg.SparseCoaction`, built from the one before with a fixed number
    of array operations: each nonzero (m', a) of a source column meets the
    nonzero (i, c) of the right-multiplication table of x_j's coaction at a,
    and the products are summed at (column, up[m', i], c).
    """

    def __init__(self, variables: Comodule):
        self.vars = variables
        self.field = f = variables.field
        gamma = variables.scheme.gamma
        n, order = variables.dim, variables.scheme.order
        # e_a * gamma_ij = sum_g gamma_ij[g] e_a e_g = sum_c rm[i, j, a, c] e_c,
        # keyed (j, a, i, c)
        (i, j, g), v = variables.coaction.coo(), variables.coaction.vals
        a, mg, c = gamma.mult.coo()
        keys, vals = xa.contract(
            f.p, [((g, (j * order * n + i) * order, v), (mg, a * n * order + c, gamma.mult.vals))],
            "the tower's multiplication table")
        j, a, i, c = np.unravel_index(keys, (n, order, n, order))
        # the entries once, by (a, j, i, c): row L * order + a of the table,
        # the (j, i, c, rm[i, j, a, c]) with j >= L, is the suffix j >= L of
        # a's run
        aj = a * n + j
        at = aj.argsort(kind="stable")
        aj = aj[at]
        low, row_a = np.divmod(np.arange(n * order), order)
        starts = aj.searchsorted(row_a * n + low)
        self._table = (starts, aj.searchsorted(row_a * n + n) - starts,
                       j[at], i[at], c[at], vals[at])
        g, v = xa._vector(gamma.unit)
        self._coact, self._read = {0: xa.SparseCoaction.from_coo(0 * g, 0 * g, g, v, 1, order)}, 0
        # `up` below degree 0, and the source and last variable of its monomial
        zero = np.zeros(1, dtype=np.int64)
        self._origin = self._state = (zero[:, None].repeat(n, 1), zero, zero)

    def exponents(self, d: int) -> list[tuple[int, ...]]:
        self._build_to(d)
        e, state = np.zeros((1, self.vars.dim), dtype=np.int64), self._origin
        for _ in range(d):
            state = _step(self.vars.dim, *state)
            e = e[state[1]]
            e[np.arange(len(e)), state[2]] += 1
        return list(map(tuple, e.tolist()))

    def divisor_closure(self, marked: list[np.ndarray]) -> list[np.ndarray]:
        """For masks marked[d] of the monomials of degree d = 0..D, the masks
        of the monomials that divide a marked one of degree at most D.

        Top down: x^s divides a marked monomial exactly when it is marked or
        some x^s x_i divides one, and the x^s x_i are the `up` table, built
        bottom up once for the window and then dropped.
        """
        top = len(marked) - 1
        self._build_to(top)
        ups, state = [], self._origin
        for _ in range(top):
            state = _step(self.vars.dim, *state)
            ups.append(state[0])
        out = [marked[top]]
        for d in range(top - 1, -1, -1):
            out.append(marked[d] | out[-1][ups[d]].any(axis=1))
        return out[::-1]

    def coaction(self, d: int) -> xa.SparseCoaction:
        if d not in self._coact:
            self._build_to(d)
        if d != self._read:
            # the kernels' gathered rows are kept for the degree read last only
            self._coact[self._read].gathered, self._read = None, d
        return self._coact[d]

    def _build_to(self, d: int):
        if d < 0:
            raise InputError("degree must be >= 0")
        n, p = self.vars.dim, self.field.p
        tstart, tcount, tj, ti, tc, tw = self._table
        while len(self._coact) <= d:
            cur = len(self._coact)
            prev, last_p = self._coact[cur - 1], self._state[2]
            order, ends = prev.order, (n - last_p).cumsum()
            size = int(ends[-1])
            if size * size * order >= 2**63:
                raise UndecidedError(f"Sym^{cur} has {size} monomials, too many to index")
            # the pair (s, j) is monomial base[s] + j
            base = ends - n
            state = _step(n, *self._state)
            # each source entry (m', a) of column s meets the table row
            # (last(s), a): the products for every column (s, j), summed at
            # ((s, j), up[m', i], c), keyed base[s] size order per source
            # entry plus j size order + c per table entry plus up[m', i] order
            stride = size * order
            tkey, upo = tj * stride + tc, state[0].ravel() * order
            ptr, keys, vals, parts = prev.ptr, prev.keys, prev.vals, []
            # whole source columns a block at a time: their columns (s, j) are disjoint
            cuts = [*ptr.searchsorted(np.arange(0, ptr[-1] + 1, _BLOCK)).tolist(), len(ends)]
            for c0, c1 in itertools.pairwise(cuts):
                lo, hi = ptr[c0], ptr[c1]
                per, mp = ptr[c0 + 1:c1 + 1] - ptr[c0:c1], keys[lo:hi] // order
                row = (last_p[c0:c1] * order).repeat(per) + keys[lo:hi] - mp * order
                idx, at = xa._ranges(tstart[row], tcount[row])
                a, b = vals[lo:hi][at], tw[idx]
                # over F_p the products are summed unreduced while their sum is below 2^63
                raw = p is not None and (p - 1) ** 2 * len(b) < xa._INT64
                parts.append(xa._sum_by(p, (base[c0:c1] * stride).repeat(per)[at] + tkey[idx]
                                        + upo[(mp * n)[at] + ti[idx]],
                                        a * b if raw else xa._times(p, a, b)))
            keys, vals = map(np.concatenate, zip(*parts))
            col = keys // stride
            keys -= col * stride
            ptr = np.bincount(col + 1, minlength=size + 1).cumsum()
            self._coact[cur], self._state = xa.SparseCoaction(ptr, keys, vals, order), state


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
        self._inv: dict = {}
        self._dims: dict = {}
        self._units: dict = {}
        self._det = None
        # set for constant matrix groups; enables Molien/smallness/Reynolds
        self.constant_matrices: list[np.ndarray] | None = None

    @property
    def field(self) -> FieldSpec:
        return self.module.field

    @cached_property
    def tower(self) -> _SymTower:
        """The Sym^d tower, built on first use, so a comodule is verified first."""
        return _SymTower(self.variables)

    # -- invariants ---------------------------------------------------------

    def _kernel_unit(self, twist) -> tuple:
        """(cache key, u) with {x : rho(x) = x (x) u} the invariants twisted
        by chi; the key is None when u is the unit of Gamma.

        Gamma is commutative and a grouplike chi is invertible, so
        sum_j R_j x_j chi = x (x) 1 exactly when sum_j R_j x_j = x (x) chi^-1.
        """
        unit = self.scheme.gamma.unit
        if twist is None:
            return None, unit
        chi = self.field.asarray(twist)
        if chi.shape != (self.scheme.order,):
            raise InputError(
                f"a twist must have shape ({self.scheme.order},), got {chi.shape}"
            )
        key = tuple(chi.tolist())
        if key not in self._units:
            if not self.scheme.is_grouplike(chi):
                raise InputError("a twist must be a grouplike element of Gamma")
            inverse = self.scheme.grouplike_inverse(chi)
            self._units[key] = (None if xa.arrays_equal(inverse, unit) else key, inverse)
        return self._units[key]

    def invariant_basis(self, d: int, twist=None) -> np.ndarray:
        """Echelon-normal basis (k, dim S_d) of the (twisted) invariants,
        cached and read-only."""
        key, unit = self._kernel_unit(twist)
        if (d, key) not in self._inv:
            basis = xa.fixed_space(self.field, self.tower.coaction(d), unit,
                                   self.scheme.dual_algebra.algebra_generators)
            basis.setflags(write=False)
            self._inv[d, key] = basis
        return self._inv[d, key]

    def invariant_dim(self, d: int, twist=None) -> int:
        key, unit = self._kernel_unit(twist)
        if (d, key) in self._inv:
            return len(self._inv[d, key])
        if (d, key) not in self._dims:
            self._dims[d, key] = xa.fixed_dim(self.field, self.tower.coaction(d), unit,
                                              self.scheme.dual_algebra.algebra_generators)
        return self._dims[d, key]

    def hilbert_function(self, max_degree: int, twist=None) -> list[int]:
        """dim A_d, or of the invariants twisted by a grouplike, for d <= max_degree."""
        return [self.invariant_dim(d, twist) for d in range(max_degree + 1)]

    def det_character(self):
        if self._det is None:
            self._det = det_character(self.module)
        return self._det.copy()

    # -- trace map ----------------------------------------------------------

    def trace_terms(self, d: int):
        """Tr on S_d by its nonzeros: (keys i dim S_d + m ascending, values),
        the coefficient of x^i in Tr(x^m) = sum_i,g R_d[i, m, g] delta_G(g) x^i,
        delta_G the left integral of k[G]* with leading value 1."""
        r = self.tower.coaction(d)
        i, g = np.divmod(r.keys, r.order)
        at, delta = xa._vector(self.scheme.dual_algebra.left_integral())
        weight = np.zeros(r.order, dtype=delta.dtype)
        weight[at] = delta
        live = weight[g].nonzero()[0]
        return xa._sum_by(self.field.p, i[live] * r.dim + r.col_of[live],
                          xa._times(self.field.p, r.vals[live], weight[g[live]]))


# -- constant matrix groups -------------------------------------------------


def _close_group(field: FieldSpec, matrices: list[np.ndarray]):
    """Validate that the list is a full group; return (table, identity index).

    The stacked matrices are held as field scalars (see `exactalg._scalars`)
    and each row of the table is one batched product g @ G: int64 while no
    entry can pass 2^63, an object array beyond.  A product is found among
    the matrices by its tuple of field scalars.
    """
    if not matrices:
        raise InputError("need at least the identity matrix")
    n, order = matrices[0].shape[0], len(matrices)
    if any(m.shape != (n, n) for m in matrices):
        raise InputError("group matrices must share one square shape")
    idx, vals = xa._vector(np.stack(matrices))
    mats = np.zeros(order * n * n, dtype=vals.dtype)
    mats[idx] = vals
    keys = {}
    for g, k in enumerate(map(tuple, mats.reshape(order, -1).tolist())):
        if k in keys:
            raise InputError(
                f"duplicate matrix at positions {keys[k]} and {g}: "
                "a constant group must be listed without repetition"
            )
        keys[k] = g
    mats = mats.reshape(order, n, n)
    if (mx := xa._abs_max(mats)) is None or n * mx * mx >= xa._INT64:
        mats = mats.astype(object)
    table = []
    for a in range(order):
        prods = field.reduce(mats[a] @ mats)
        row = [keys.get(tuple(r)) for r in prods.reshape(order, -1).tolist()]
        if None in row:
            raise InputError("matrix list is not closed under products")
        table.append(row)
    ident = keys.get(tuple(int(i == j) for i in range(n) for j in range(n)))
    if ident is None:
        raise InputError("identity matrix missing from the group list")
    return table, ident


def pseudo_reflections(field: FieldSpec, matrices: list) -> list[int]:
    """Indices of g != 1 with rank(g - I) <= 1."""
    mats = [field.asarray(m) for m in matrices]
    eye = field.eye(mats[0].shape[0])
    return [i for i, g in enumerate(mats)
            if not xa.arrays_equal(g, eye) and xa.rank(field, field.reduce(g - eye)) <= 1]


def is_small_constant(field: FieldSpec, matrices: list) -> bool:
    """Faithful (no repeated matrices) and free of pseudo-reflections."""
    mats = [field.asarray(m) for m in matrices]
    distinct = {tuple(m.reshape(-1).tolist()) for m in mats}
    return len(distinct) == len(mats) and not pseudo_reflections(field, mats)


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
        at = {g: k for k, g in enumerate(order)}
        mats = [mats[i] for i in order]
        table = [[at[table[a][b]] for b in order] for a in order]
    scheme = constant_scheme(
        field,
        table,
        labels=[f"g{i}" for i in range(len(mats))],
        label=label or f"constant[{len(mats)}]",
    )
    module = Comodule(scheme, np.stack(mats, axis=-1))
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
    table, ident = _close_group(f, mats)
    inverse = [row.index(ident) for row in table]
    n = mats[0].shape[0]
    # det(I - t g) is a class function: one determinant per conjugacy class,
    # at its first member, weighted by the class size; elements with one
    # characteristic polynomial share one summand
    counts: dict[Poly, int] = {}
    seen: set[int] = set()
    for g, m in enumerate(mats):
        if g in seen:
            continue
        cls = {table[table[h][g]][inverse[h]] for h in range(len(mats))}
        seen |= cls
        det = det_poly_matrix([[Poly((Fraction(int(i == j)), -m[i, j])) for j in range(n)]
                               for i in range(n)])
        counts[det] = counts.get(det, 0) + len(cls)
    total = RatFunc.from_poly(Poly.zero())
    for det, k in counts.items():
        total = total + RatFunc(Poly([k]), det)
    return total.scale(Fraction(1, len(mats)))


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
        # module coaction carries the inverse character of the variable
        i, inverse = np.arange(self.n), [(-w) % self.modulus for w in self.weights]
        coact = xa.SparseCoaction.from_coo(i, i, np.array(inverse, dtype=np.int64),
                                           np.ones_like(i), self.n, self.modulus)
        return GradedInvariantRing(Comodule(mu_scheme(field, self.modulus), coact),
                                   label=self.label, var_labels=self.var_labels)


# -- trace map reports ------------------------------------------------------


@dataclass
class TraceDegreeResult:
    degree: int
    image_in_invariants: bool
    equivariance: str  # "pass" | "fail" | "skipped (...)"
    reynolds: str      # "pass" | "fail" | "not applicable"


@dataclass
class TraceReport:
    window: int
    unimodular: bool
    degrees: list[TraceDegreeResult] = dc_field(default_factory=list)
    pairing_uncovered: dict[int, list[str]] = dc_field(default_factory=dict)
    pairing_note: str = ""

    @property
    def ok(self) -> bool:
        return all(r.image_in_invariants and r.equivariance != "fail" and r.reynolds != "fail"
                   for r in self.degrees)

    def to_dict(self):
        return {
            "window": self.window,
            "unimodular": self.unimodular,
            "ok": self.ok,
            "degrees": [asdict(r) for r in self.degrees],
            "pairing_uncovered": {str(d): v for d, v in self.pairing_uncovered.items()},
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


def _image_invariant(field, r: xa.SparseCoaction, unit_terms, terms) -> bool:
    """rho(Tr x^m) = Tr x^m (x) 1 for every monomial x^m of R_d: the columns
    of Tr as null vectors (m, i, value) of the invariants' system, certified
    by `exactalg._violated` against the unit's terms."""
    (i, m), vals = np.divmod(terms[0], r.dim), terms[1]
    return not xa._violated(field, r, unit_terms, (r.dim, m, i, vals))


def _equivariant(field, r: xa.SparseCoaction, terms) -> bool:
    """rho(Tr x^j) = (Tr (x) id)(rho x^j) for every monomial x^j of R_d, at
    (j, i, g), with Tr by its `GradedInvariantRing.trace_terms`."""
    n, order = r.dim, r.order
    (tk, tj), tv = np.divmod(terms[0], n), terms[1]
    ri, rj, rg = r.coo()
    keys, _ = xa.contract(field.p, [((tk, tj * n * order, tv), (rj, ri * order + rg, r.vals)),
                                    ((ri, rj * n * order + rg, -r.vals), (tj, tk * order, tv))],
                          "the equivariance check")
    return not len(keys)


def _reynolds(field, terms, basis: np.ndarray, scale: int) -> bool:
    """Tr v = scale v for every row v of the dense basis: one contraction of
    the trace terms with the basis's nonzeros, compared by keys and values."""
    n = basis.shape[1]
    (tk, tj), tv = np.divmod(terms[0], n), terms[1]
    idx, bv = xa._vector(basis)
    row, col = np.divmod(idx, n)
    keys, vals = xa.contract(field.p, [((tj, tk, tv), (col, row * n, bv))],
                             "the Reynolds check")
    return (np.array_equal(keys, idx)
            and np.array_equal(vals, xa._times(field.p, bv, np.array([scale]))))


def trace_equivariance_check(ring: GradedInvariantRing, max_degree: int) -> TraceReport:
    """Trace-map sanity report over a degree window.

    Per degree, on Tr by its `trace_terms`: the image of Tr lies in the
    invariants, by the fixed-space certificate on every column; when k[G]*
    is unimodular, rho(Tr s) = (Tr (x) id)(rho s), one contraction; for
    constant groups in characteristic zero, Tr is multiplication by |G| on
    the invariant basis, one contraction.  A truncated pairing scan records
    the basis monomials s with Tr(s t) = 0 for every monomial t inside the
    window (inconclusive at the boundary): those that divide no monomial of
    nonzero trace, by the tower's `divisor_closure`.
    """
    f = ring.field
    unimod = ring.scheme.dual_algebra.is_unimodular()
    reynolds = ring.constant_matrices is not None and f.p is None
    unit = xa._unit_terms(ring.scheme.gamma.unit)
    report = TraceReport(window=max_degree, unimodular=unimod)
    # the monomials of nonzero trace, per degree, for the pairing scan below
    nonzero = []
    for d in range(max_degree + 1):
        r = ring.tower.coaction(d)
        terms = ring.trace_terms(d)
        img_ok = _image_invariant(f, r, unit, terms)
        if unimod:
            equi = "pass" if _equivariant(f, r, terms) else "fail"
        else:
            equi = "skipped (k[G]* not unimodular)"
        if reynolds:
            scale = len(ring.constant_matrices)
            rey = "pass" if _reynolds(f, terms, ring.invariant_basis(d), scale) else "fail"
        else:
            rey = "not applicable"
        report.degrees.append(TraceDegreeResult(d, img_ok, equi, rey))
        mask = np.zeros(r.dim, dtype=bool)
        mask[terms[0] % r.dim] = True
        nonzero.append(mask)
    # truncated nondegeneracy proxy for the pairing (s, t) -> Tr(st)
    for d, covered in enumerate(ring.tower.divisor_closure(nonzero)):
        if not covered.all():
            exps = ring.tower.exponents(d)
            report.pairing_uncovered[d] = [monomial_label(exps[m], ring.variables.labels)
                                           for m in (~covered).nonzero()[0].tolist()]
    report.pairing_note = (
        "pairing scan is truncated at the window; monomials uncovered only "
        "near the boundary are inconclusive"
    )
    return report
