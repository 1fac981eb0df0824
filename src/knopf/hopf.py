"""Finite-dimensional Hopf algebras by structure constants.

Conventions (basis b_0..b_{n-1} over the field):
  mult[i,j,k]:     b_i * b_j = sum_k mult[i,j,k] b_k
  unit[i]:         1 = sum_i unit[i] b_i
  comult[i,j,k]:   Delta(b_i) = sum_{j,k} comult[i,j,k] b_j (x) b_k
  counit[i]:       eps(b_i)
  antipode[a,j]:   S(b_j) = sum_a antipode[a,j] b_a

The antipode may be omitted; it is then solved from the antipode axiom (a
linear system in the matrix entries) and uniqueness is asserted.  A coalgebra
part may also be absent entirely ("plain algebra" inputs used by the Frobenius
and symmetry probes); coalgebra operations then refuse to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import exactalg as xa
from .errors import (
    InconsistencyError,
    InputError,
    NonTerminationError,
    UndecidedError,
)
from .exactalg import FieldSpec

# Combination budget for the nondegenerate-form search (projective points over
# F_p, grid points over Q).  Exhaustion below the budget is a sound decision
# procedure: Frobenius/symmetric descend along field extensions
# (Noether-Deuring), so no extension can overturn a base-field exhaustion.
SEARCH_BUDGET = 1_000_000


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.name}: ok"
        return f"{self.name}: FAIL at basis indices {self.witness}"


class AxiomReport:
    """Outcome of verify_axioms: ordered checks, first witness per failure."""

    def __init__(self, checks: list[AxiomCheck]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.ok]

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple | None:
    idx = np.argwhere(a != b)
    return tuple(int(v) for v in idx[0]) if idx.size else None


class HopfAlgebraData:
    """Structure-constant record for a (Hopf) algebra; immutable by convention."""

    def __init__(
        self,
        field: FieldSpec,
        basis: list[str],
        unit,
        mult,
        counit=None,
        comult=None,
        antipode=None,
    ):
        self.field = field
        self.basis = list(basis)
        n = len(self.basis)
        self.dim = n
        self.unit = field.asarray(unit)
        self.mult = field.asarray(mult)
        if self.unit.shape != (n,) or self.mult.shape != (n, n, n):
            raise InputError("unit/mult shape does not match basis size")
        self.counit = None if counit is None else field.asarray(counit)
        self.comult = None if comult is None else field.asarray(comult)
        if (self.counit is None) != (self.comult is None):
            raise InputError("counit and comult must be given together")
        if self.comult is not None and (
            self.comult.shape != (n, n, n) or self.counit.shape != (n,)
        ):
            raise InputError("counit/comult shape does not match basis size")
        self.antipode = None if antipode is None else field.asarray(antipode)
        if self.antipode is not None and self.antipode.shape != (n, n):
            raise InputError("antipode shape does not match basis size")
        if self.antipode is None and self.comult is not None:
            self.antipode = self._solve_antipode()

    # -- small helpers ---------------------------------------------------

    def _need_coalgebra(self):
        if self.comult is None:
            raise InputError("operation needs a coalgebra structure")

    def mult_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = xa.tensordot(self.field, x, self.mult, ([0], [0]))
        return xa.tensordot(self.field, y, t, ([0], [0]))

    def apply_antipode(self, x: np.ndarray) -> np.ndarray:
        return xa.matmul(self.field, self.antipode, x)

    def is_commutative(self) -> bool:
        return xa.arrays_equal(self.mult, self.mult.transpose(1, 0, 2))

    def is_cocommutative(self) -> bool:
        self._need_coalgebra()
        return xa.arrays_equal(self.comult, self.comult.transpose(0, 2, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HopfAlgebraData):
            return NotImplemented
        if self.field != other.field or self.basis != other.basis:
            return False
        for mine, theirs in (
            (self.unit, other.unit),
            (self.mult, other.mult),
            (self.counit, other.counit),
            (self.comult, other.comult),
            (self.antipode, other.antipode),
        ):
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not xa.arrays_equal(mine, theirs):
                return False
        return True

    # -- axioms ----------------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        f, c, n = self.field, self.mult, self.dim
        eye = f.eye(n)
        checks: list[AxiomCheck] = []

        def add(name, lhs, rhs):
            w = _first_mismatch(lhs, rhs)
            checks.append(AxiomCheck(name, w is None, w))

        add("unit_left", xa.tensordot(f, self.unit, c, ([0], [0])), eye)
        add("unit_right", xa.tensordot(f, self.unit, c, ([0], [1])), eye)
        t1 = xa.tensordot(f, c, c, ([2], [0]))
        t2 = xa.tensordot(f, c, c, ([2], [1])).transpose(2, 0, 1, 3)
        add("associativity", t1, t2)

        if self.comult is not None:
            d, e = self.comult, self.counit
            add("counit_left", xa.tensordot(f, d, e, ([1], [0])), eye)
            add("counit_right", xa.tensordot(f, d, e, ([2], [0])), eye)
            l3 = xa.tensordot(f, d, d, ([1], [0])).transpose(0, 2, 3, 1)
            r3 = xa.tensordot(f, d, d, ([2], [0]))
            add("coassociativity", l3, r3)
            add(
                "counit_algebra_map",
                xa.tensordot(f, c, e, ([2], [0])),
                xa.outer(f, e, e),
            )
            add(
                "comult_unit",
                xa.tensordot(f, self.unit, d, ([0], [0])),
                xa.outer(f, self.unit, self.unit),
            )
            lhs = xa.tensordot(f, c, d, ([2], [0]))
            u4 = xa.tensordot(f, d, c, ([1], [0]))
            v4 = xa.tensordot(f, d, c, ([2], [1]))
            rhs = xa.tensordot(f, u4, v4, ([1, 2], [2, 1])).transpose(0, 2, 1, 3)
            add("comult_algebra_map", lhs, rhs)
            if self.antipode is not None:
                target = xa.outer(f, e, self.unit)
                x4 = xa.tensordot(f, d, self.antipode, ([1], [1]))
                add("antipode_left", xa.tensordot(f, x4, c, ([2, 1], [0, 1])), target)
                y4 = xa.tensordot(f, d, self.antipode, ([2], [1]))
                add("antipode_right", xa.tensordot(f, y4, c, ([1, 2], [0, 1])), target)
        return AxiomReport(checks)

    def _antipode_system(self) -> tuple[np.ndarray, np.ndarray]:
        f, c, d, n = self.field, self.mult, self.comult, self.dim
        k1 = xa.tensordot(f, d, c, ([2], [1])).transpose(0, 3, 2, 1)  # [i,m,a,j]
        k2 = xa.tensordot(f, d, c, ([1], [0])).transpose(0, 3, 2, 1)  # [i,m,a,k]
        lhs = np.concatenate(
            [k1.reshape(n * n, n * n), k2.reshape(n * n, n * n)], axis=0
        )
        target = xa.outer(f, self.counit, self.unit).reshape(-1)
        rhs = np.concatenate([target, target])
        return lhs, rhs

    def _solve_antipode(self) -> np.ndarray:
        """The unique S solving the antipode axiom, from one elimination of
        [lhs | rhs]: a pivot in the rhs column means no solution, a column
        of lhs without a pivot means more than one."""
        n = self.dim
        lhs, rhs = self._antipode_system()
        r, pivots = xa.rref(self.field, np.concatenate([lhs, rhs[:, None]], axis=1))
        if pivots and pivots[-1] == n * n:
            raise InputError("bialgebra admits no antipode")
        if len(pivots) != n * n:
            raise InconsistencyError("antipode not unique; data is not a bialgebra")
        return r[: n * n, -1].reshape(n, n)

    # -- integrals and unimodularity -------------------------------------

    def integrals(self, side: str = "left") -> np.ndarray:
        """Echelon-normalized basis of the space of left or right integrals.

        Left integrals: {x : h x = eps(h) x for all h}; right ones symmetric.
        Returned as a (dim_of_space, n) array; valid Hopf inputs give exactly
        one row.
        """
        self._need_coalgebra()
        return self._integral_space(side)

    def _integral_space(self, side: str) -> np.ndarray:
        # left integrals: b_i x = eps(b_i) x for every i, so x is a fixed vector
        # of coact[k, j, i] = mult[i, j, k] against the counit; right: x b_i
        if side == "left":
            coact = self.mult.transpose(2, 1, 0)
        elif side == "right":
            coact = self.mult.transpose(2, 0, 1)
        else:
            raise InputError(f"side must be 'left' or 'right', got {side!r}")
        return xa.fixed_space(self.field, coact, self.counit)

    def is_unimodular(self) -> bool:
        """Left integral space equals right integral space (exact spans)."""
        left = self.integrals("left")
        right = self.integrals("right")
        if len(left) != 1 or len(right) != 1:
            raise InconsistencyError(
                f"integral spaces have dims {len(left)}/{len(right)}, expected 1/1"
            )
        return xa.arrays_equal(left, right)

    def left_integral(self) -> np.ndarray:
        """The left integral Lambda, scaled to leading coefficient 1.

        Every caller needs the integral line to be unique, so it is checked
        here once.
        """
        space = self.integrals("left")
        if len(space) != 1:
            raise InconsistencyError("left integral space is not one-dimensional")
        lam = space[0]
        return self.field.reduce(lam * self.field.inv(lam[xa._first_nonzero(lam)]))

    def modular_element(self) -> np.ndarray:
        """The algebra map alpha with Lambda*h = alpha(h)*Lambda, as a functional.

        Lambda is the left integral; the returned vector lists alpha(b_i).
        """
        lam = self.left_integral()
        f = self.field
        # row i of w is lam * b_i; lam has a 1 at its first nonzero entry
        w = xa.tensordot(f, lam, self.mult, ([0], [0]))
        alpha = w[:, xa._first_nonzero(lam)]
        expected = xa.outer(f, alpha, lam)
        for i in range(self.dim):
            if not xa.arrays_equal(expected[i], w[i]):
                raise InconsistencyError(
                    f"right multiplication by b_{i} does not preserve the integral line"
                )
        return alpha

    # -- dual ------------------------------------------------------------

    def dual(self) -> "HopfAlgebraData":
        """Dual Hopf algebra; an exact involution (dual(dual(H)) == H)."""
        self._need_coalgebra()
        labels = [lbl[:-1] if lbl.endswith("*") else lbl + "*" for lbl in self.basis]
        return HopfAlgebraData(
            self.field,
            labels,
            unit=self.counit,
            mult=self.comult.transpose(1, 2, 0),
            counit=self.unit,
            comult=self.mult.transpose(2, 0, 1),
            antipode=self.antipode.T,
        )

    # -- Frobenius / symmetric forms -------------------------------------

    def _form_candidates(self, space: np.ndarray) -> list[np.ndarray]:
        f = self.field
        cands = [row for row in space]
        if len(space) > 1:
            cands.append(f.reduce(space.sum(axis=0)))
        if self.comult is not None:
            try:
                dual = self.dual()
                for side in ("left", "right"):
                    for lam in dual._integral_space(side):
                        cands.append(lam)
            except (InputError, InconsistencyError):
                pass
        return cands

    def _form_matrix(self, phi: np.ndarray) -> np.ndarray:
        return xa.tensordot(self.field, self.mult, phi, ([2], [0]))

    def _find_nondegenerate(self, symmetric: bool) -> np.ndarray | None:
        """A functional with nondegenerate form, or None if provably none exists.

        Candidates first (witness verified by an actual rank computation), then
        sound exhaustion: all projective F_p-combinations, or a (degree+1)-wide
        integer grid over Q (the determinant has degree <= n per variable, so a
        grid vanishing proves the zero polynomial).  Beyond budget: undecided.

        Every phi gives an associative form beta(a,b) = phi(ab); a symmetric
        one needs phi to kill each commutator b_i b_j - b_j b_i (row i*n+j).
        """
        f, c, n = self.field, self.mult, self.dim
        comm = f.reduce(c - c.transpose(1, 0, 2)).reshape(n * n, n) if symmetric else None
        space = xa.kernel_basis(f, comm) if symmetric else f.eye(n)
        r = len(space)
        if r == 0:
            return None
        for phi in self._form_candidates(space):
            if symmetric and not xa.is_zero(xa.matmul(f, comm, phi)):
                continue
            if xa.rank(f, self._form_matrix(phi)) == n:
                return phi
        stack = np.stack([self._form_matrix(phi) for phi in space])
        if f.p is not None:
            count = (f.p**r - 1) // (f.p - 1)
            tuples = _projective_tuples(f.p, r)
            what = f"form search space F_{f.p}^{r} exceeds the exhaustion budget"
        else:
            count = (n + 1) ** r
            tuples = (t for t in iproduct(range(n + 1), repeat=r) if any(t))
            what = f"form search grid (n+1)^{r} exceeds the budget over Q"
        if count > SEARCH_BUDGET:
            raise UndecidedError(what)
        for t in tuples:
            coeffs = f.asarray(t)
            if xa.rank(f, f.reduce(np.tensordot(coeffs, stack, ([0], [0])))) == n:
                return f.reduce(np.tensordot(coeffs, space, ([0], [0])))
        return None

    def is_frobenius(self) -> bool:
        """Some associative bilinear form beta(a,b) = phi(ab) is nondegenerate."""
        return self._find_nondegenerate(symmetric=False) is not None

    def is_symmetric(self) -> bool:
        """Some associative *symmetric* form is nondegenerate."""
        return self._find_nondegenerate(symmetric=True) is not None


def _projective_tuples(p: int, r: int):
    """All lines of F_p^r: first nonzero coordinate normalized to 1."""
    for lead in range(r):
        for tail in iproduct(range(p), repeat=r - lead - 1):
            yield (0,) * lead + (1,) + tail


# -- constructors --------------------------------------------------------


def monomial_label(exponents, symbols, sep: str = "*") -> str:
    """The monomial prod s^e as a basis label: "t^2*a", or "1" when empty."""
    parts = [s if e == 1 else f"{s}^{e}" for e, s in zip(exponents, symbols) if e]
    return sep.join(parts) or "1"


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _check_group_table(table: list[list[int]]) -> tuple[int, list[int]]:
    m = len(table)
    if any(len(row) != m for row in table):
        raise InputError("group table must be square")
    for row in table:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < m:
                raise InputError("group table entries must be indices")
    ident = None
    for e in range(m):
        if all(table[e][j] == j and table[j][e] == j for j in range(m)):
            ident = e
            break
    if ident is None:
        raise InputError("group table has no identity element")
    for i, j, k in iproduct(range(m), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise InputError(f"group table not associative at ({i},{j},{k})")
    inv = [None] * m
    for g in range(m):
        for h in range(m):
            if table[g][h] == ident and table[h][g] == ident:
                inv[g] = h
                break
        if inv[g] is None:
            raise InputError(f"group element {g} has no inverse")
    return ident, inv


def group_algebra(field: FieldSpec, table: list[list[int]], labels=None) -> HopfAlgebraData:
    """Group algebra kG from a multiplication table (indices into the element list)."""
    m = len(table)
    ident, inv = _check_group_table(table)
    labels = labels or [f"g{i}" for i in range(m)]
    c = field.zeros((m, m, m))
    d = field.zeros((m, m, m))
    s = field.zeros((m, m))
    one = field.one
    for i in range(m):
        d[i, i, i] = one
        s[inv[i], i] = one
        for j in range(m):
            c[i, j, table[i][j]] = one
    unit = field.zeros(m)
    unit[ident] = one
    counit = field.asarray([1] * m)
    return HopfAlgebraData(field, labels, unit, c, counit, d, s)


def function_algebra(field: FieldSpec, table: list[list[int]], labels=None) -> HopfAlgebraData:
    """Functions on a finite group: the dual of its group algebra."""
    return group_algebra(field, table, labels).dual()


def tensor_hopf(h1: HopfAlgebraData, h2: HopfAlgebraData, sep: str = "|") -> HopfAlgebraData:
    """Tensor product Hopf algebra, pairs indexed row-major (i1*n2+i2)."""
    if h1.field != h2.field:
        raise InputError("tensor factors must share a field")
    f = h1.field
    n1, n2 = h1.dim, h2.dim
    n = n1 * n2

    def mix3(a, b):
        t = f.reduce(np.tensordot(a, b, axes=0))  # [i1,j1,k1,i2,j2,k2]
        return t.transpose(0, 3, 1, 4, 2, 5).reshape(n, n, n)

    labels = [f"{x}{sep}{y}" for x in h1.basis for y in h2.basis]
    unit = xa.outer(f, h1.unit, h2.unit).reshape(n)
    counit = xa.outer(f, h1.counit, h2.counit).reshape(n)
    anti = None
    if h1.antipode is not None and h2.antipode is not None:
        anti = xa.kron(f, h1.antipode, h2.antipode)
    return HopfAlgebraData(
        f, labels, unit, mix3(h1.mult, h2.mult), counit, mix3(h1.comult, h2.comult), anti
    )


# -- restricted enveloping algebras --------------------------------------

_STRAIGHTEN_STEP_BUDGET = 500_000


def restricted_enveloping(
    field: FieldSpec,
    generators: list[str],
    bracket,
    p_map,
) -> HopfAlgebraData:
    """u(L) for a finite-dimensional restricted Lie algebra in characteristic p.

    bracket[i][j] is the coefficient vector of [x_i, x_j]; p_map[i] that of
    x_i^[p] (linear combinations of the generators).  The PBW basis is
    x_0^{a_0} ... x_{m-1}^{a_{m-1}} with 0 <= a_i < p, ordered lexicographically;
    products are straightened with the rewrite rules
    x_j x_i -> x_i x_j + [x_j, x_i]  (j > i)  and  x_i^p -> x_i^[p].

    Restrictedness is checked as ad(x_i)^p = ad(x_i^[p]); the full Jacobson
    semilinearity conditions are not verified here, but the Hopf axiom check on
    the output catches any inconsistent input.
    """
    p = field.characteristic
    if p < 2:
        raise InputError("restricted enveloping algebras need prime characteristic")
    m = len(generators)
    br = field.asarray(bracket)
    pm = field.asarray(p_map)
    if br.shape != (m, m, m) or pm.shape != (m, m):
        raise InputError("bracket must be (m,m,m) and p_map (m,m)")
    if not xa.is_zero(field.reduce(br + br.transpose(1, 0, 2))):
        raise InputError("bracket is not antisymmetric")
    jac = xa.tensordot(field, br, br, ([2], [1])).transpose(2, 0, 1, 3)
    jacobi = field.reduce(jac + jac.transpose(2, 0, 1, 3) + jac.transpose(1, 2, 0, 3))
    if not xa.is_zero(jacobi):
        raise InputError("bracket fails the Jacobi identity")
    ad = br.transpose(0, 2, 1)  # ad[i][b][a] = coeff of x_b in [x_i, x_a]
    for i in range(m):
        power = field.eye(m)
        for _ in range(p):
            power = xa.matmul(field, ad[i], power)
        target = xa.tensordot(field, pm[i], ad, ([0], [0]))
        if not xa.arrays_equal(power, target):
            raise InputError(f"p_map incompatible with bracket at generator {i}")

    exps = list(iproduct(range(p), repeat=m))
    index = {e: k for k, e in enumerate(exps)}
    n = len(exps)

    def straighten(word: tuple[int, ...]) -> dict[tuple[int, ...], object]:
        work: dict[tuple[int, ...], object] = {word: field.one}
        done: dict[tuple[int, ...], object] = {}
        steps = 0
        while work:
            w, cf = work.popitem()
            steps += 1
            if steps > _STRAIGHTEN_STEP_BUDGET:
                raise NonTerminationError("straightening exceeded its step budget")
            spot = None
            for t in range(len(w) - 1):
                if w[t] > w[t + 1]:
                    spot = t
                    break
            if spot is not None:
                a, b = w[spot], w[spot + 1]
                swapped = w[:spot] + (b, a) + w[spot + 2 :]
                work[swapped] = field.reduce(work.get(swapped, field.zero) + cf)
                for k in range(m):
                    coef = br[a, b, k]
                    if coef:
                        rep = w[:spot] + (k,) + w[spot + 2 :]
                        work[rep] = field.reduce(work.get(rep, field.zero) + cf * coef)
                continue
            run = None
            for t in range(len(w) - p + 1):
                if w[t] == w[t + p - 1]:
                    run = t
                    break
            if run is not None:
                g = w[run]
                for k in range(m):
                    coef = pm[g, k]
                    if coef:
                        rep = w[:run] + (k,) + w[run + p :]
                        work[rep] = field.reduce(work.get(rep, field.zero) + cf * coef)
                continue
            done[w] = field.reduce(done.get(w, field.zero) + cf)
        return done

    def word_of(exp: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for g, a in enumerate(exp):
            out.extend([g] * a)
        return tuple(out)

    def as_vector(terms: dict[tuple[int, ...], object]) -> np.ndarray:
        v = field.zeros(n)
        for w, cf in terms.items():
            if cf:
                exp = [0] * m
                for g in w:
                    exp[g] += 1
                v[index[tuple(exp)]] = field.reduce(v[index[tuple(exp)]] + cf)
        return v

    unit_idx = index[(0,) * m]

    # Per-generator multiplication matrices: row k of rmul[g] is b_k * x_g,
    # row k of lmul[g] is x_g * b_k.  Everything else is built from these by
    # peeling the last generator off each monomial, which keeps the whole
    # construction near-linear instead of straightening n^2 long words.
    rmul = []
    lmul = []
    for g in range(m):
        rm = field.zeros((n, n))
        lm = field.zeros((n, n))
        for k, ek in enumerate(exps):
            rm[k] = as_vector(straighten(word_of(ek) + (g,)))
            lm[k] = as_vector(straighten((g,) + word_of(ek)))
        rmul.append(rm)
        lmul.append(lm)

    # Everything is grown from the predecessor monomial x^a' = x^a / x_g, g the
    # last generator of x^a: b_i x^a = (b_i x^a') x_g; Delta is multiplicative
    # with primitive generators, so Delta(x^a) = Delta(x^a') (x_g (x) 1 + 1 (x)
    # x_g), which on coefficient matrices is R_g^T D' + D' R_g; and
    # S(x^a) = S(x_g) S(x^a') = -x_g S(x^a').
    c = field.zeros((n, n, n))
    d = field.zeros((n, n, n))
    s = field.zeros((n, n))
    for i in range(n):
        c[i, unit_idx, i] = field.one
    d[unit_idx, unit_idx, unit_idx] = field.one
    s[unit_idx, unit_idx] = field.one
    minus_one = field.coerce(-1)
    for j, ej in enumerate(exps):
        if j == unit_idx:
            continue
        g = max(t for t in range(m) if ej[t])
        jp = index[ej[:g] + (ej[g] - 1,) + ej[g + 1 :]]
        rm = rmul[g]
        c[:, j, :] = xa.matmul(field, c[:, jp, :], rm)
        d[j] = field.reduce(xa.matmul(field, rm.T, d[jp]) + xa.matmul(field, d[jp], rm))
        s[:, j] = field.reduce(xa.matmul(field, s[:, jp], lmul[g]) * minus_one)

    counit = field.zeros(n)
    counit[unit_idx] = field.one
    unit = field.zeros(n)
    unit[unit_idx] = field.one

    labels = [monomial_label(ea, generators, sep="") for ea in exps]
    return HopfAlgebraData(field, labels, unit, c, counit, d, s)
