"""Finite-dimensional Hopf algebras by structure constants.

Conventions (basis b_0..b_{n-1} over the field):
  mult[i,j,k]:     b_i * b_j = sum_k mult[i,j,k] b_k
  unit[i]:         1 = sum_i unit[i] b_i
  comult[i,j,k]:   Delta(b_i) = sum_{j,k} comult[i,j,k] b_j (x) b_k
  counit[i]:       eps(b_i)
  antipode[a,j]:   S(b_j) = sum_a antipode[a,j] b_a

mult, comult and antipode are held by their nonzeros only, as
`exactalg.SparseCoaction`s of these arrays (the antipode with order 1): k^G
has |G| nonzero products and |G|^2 coproduct terms where the dense arrays
held |G|^3 each.  Every operation on them is an `exactalg.contract` of the
nonzeros; the axiom checks contract both sides of every axiom at once and
read the first witnesses off one sum.  The contraction's one check is
TERM_BUDGET: an input whose join needs more sparse terms is refused by name.

Integrals are `exactalg.fixed_space` of the transposed mult against the
counit, from the rows of `algebra_generators` (a least-index greedy set of
basis elements generating the algebra) and certified against every b_i.

The antipode may be omitted; it is then solved from the antipode axiom (a
linear system in the matrix entries) and uniqueness is asserted.  A coalgebra
part may also be absent entirely ("plain algebra" inputs used by the Frobenius
and symmetry probes); coalgebra operations then refuse to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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

# The sparse terms one `exactalg.contract` may form, counted before it forms
# any; inputs beyond it are refused by this name.
TERM_BUDGET = xa.TERM_BUDGET

_FOUR_INDEX = ("associativity", "coassociativity", "comult_algebra_map")


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


class HopfAlgebraData:
    """Structure-constant record for a (Hopf) algebra; immutable by convention.

    mult, comult and antipode are `exactalg.SparseCoaction`s of the arrays in
    the module docstring (the antipode as order 1: cols[j] is S(b_j)); dense
    arrays or nested lists given to the constructor are converted.
    """

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
        self.mult = xa.held(field, mult, (n, n, n))
        if self.unit.shape != (n,) or self.mult is None:
            raise InputError("unit/mult shape does not match basis size")
        self.counit = None if counit is None else field.asarray(counit)
        self.comult = None if comult is None else xa.held(field, comult, (n, n, n))
        if (self.counit is None) != (comult is None):
            raise InputError("counit and comult must be given together")
        if comult is not None and (self.comult is None or self.counit.shape != (n,)):
            raise InputError("counit/comult shape does not match basis size")
        self.antipode = None if antipode is None else xa.held(field, antipode, (n, n))
        if antipode is not None and self.antipode is None:
            raise InputError("antipode shape does not match basis size")
        if self.antipode is None and self.comult is not None:
            self.antipode = self._solve_antipode()
        self._integrals: dict[str, np.ndarray] = {}

    # -- small helpers ---------------------------------------------------

    def _need_coalgebra(self):
        if self.comult is None:
            raise InputError("operation needs a coalgebra structure")

    def mult_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x y for coefficient vectors x and y, or row by row for two (m, n)
        stacks of them."""
        p, n = self.field.p, self.dim
        (xi, xv), (yi, yv) = xa._vector(x), xa._vector(y)
        i, j, k = self.mult.coo()
        # x[r, i] mult[i, j, k] at (r, j, k), then times y[r, j] at (r, k)
        keys, vals = xa.contract(p, [((xi % n, (xi - xi % n) * n, xv),
                                      (i, j * n + k, self.mult.vals))], "a product")
        keys, vals = xa.contract(p, [((keys // n, keys // (n * n) * n + keys % n, vals),
                                      (yi, 0 * yi, yv))], "a product")
        return xa._dense(self.field, keys, vals, x.shape)

    def apply_antipode(self, x: np.ndarray) -> np.ndarray:
        p, (xi, xv) = self.field.p, xa._vector(x)
        a, j, _ = self.antipode.coo()
        terms = xa.contract(p, [((xi, 0 * xi, xv), (j, a, self.antipode.vals))], "an antipode")
        return xa._dense(self.field, *terms, (self.dim,))

    def is_commutative(self) -> bool:
        return self.mult == self.mult.transpose((1, 0, 2))

    def is_cocommutative(self) -> bool:
        self._need_coalgebra()
        return self.comult == self.comult.transpose((0, 2, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HopfAlgebraData):
            return NotImplemented
        if self.field != other.field or self.basis != other.basis:
            return False
        for mine, theirs in ((self.unit, other.unit), (self.counit, other.counit)):
            if (mine is None) != (theirs is None):
                return False
            if mine is not None and not xa.arrays_equal(mine, theirs):
                return False
        return (self.mult, self.comult, self.antipode) == (
            other.mult, other.comult, other.antipode)

    # -- axioms ----------------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        """Every axiom with the C-order-first index where it fails.

        Both sides of every axiom, the right-hand one negated, are contracted
        on the nonzeros, each check at its own range of keys, in four
        `exactalg.contract`s, and `exactalg.first_differences` reads every
        witness off one sum.
        """
        n, p = self.dim, self.field.p
        n2, n3, n4 = n * n, n ** 3, n ** 4
        names = ["unit_left", "unit_right", "associativity"]
        if self.comult is not None:
            names += ["counit_left", "counit_right", "coassociativity", "counit_algebra_map",
                      "comult_unit", "comult_algebra_map", "antipode_left", "antipode_right"]
        shapes = [(n,) * (4 if name in _FOUR_INDEX else 2) for name in names]
        at = dict(zip(names, xa.key_bases(shapes)))
        ci, cj, ck = self.mult.coo()
        cv, what = self.mult.vals, "the axiom checks"
        ui, uv = xa._vector(self.unit)
        unit, diag = (ui, 0 * ui, uv), np.arange(n) * (n + 1)

        def outer(name, xi, xv, yi, yv):
            # -x (x) y at (i, j) of check `name`
            return (0 * xi, at[name] + xi * n, -xv), (0 * yi, yi, yv)

        # the largest joins are contracted one at a time, each with the
        # operand holding the leading index first (see `exactalg.contract`):
        # (b_i b_j) b_l against b_i (b_j b_l), at (i, j, l, m)
        terms = [xa.contract(p, [
            ((ck, at["associativity"] + ci * n3 + cj * n2, cv), (ci, cj * n + ck, cv)),
            ((cj, at["associativity"] + ci * n3 + ck, cv), (ck, ci * n2 + cj * n, -cv))], what)]
        terms += [(at[name] + diag, -np.ones(n, dtype=np.int64)) for name in names[:2]]
        pairs = [(unit, (ci, at["unit_left"] + cj * n + ck, cv)),
                 (unit, (cj, at["unit_right"] + ci * n + ck, cv))]
        if self.comult is not None:
            di, dj, dk = self.comult.coo()
            dv = self.comult.vals
            ei, ev = xa._vector(self.counit)
            sa, sj, _ = self.antipode.coo()
            sv, counit = self.antipode.vals, (ei, 0 * ei, ev)
            # Delta(b_i) Delta(b_j) = sum d[i, x, k] d[j, y, z] c[x, y, m] c[k, z, m2]
            # from U = d[i, x, k] c[x, y, m] and V = d[j, y, z] c[k, z, m2], keyed
            # ((y, k), i, m) and ((y, k), j, m2); and P = S(b_j) b_k, b_j S(b_k)
            # keyed (side, j, k, m); U from 0, V from n^4, P from 2 n^4 on
            keys, vals = xa.contract(p, [
                ((dj, dk * n2 + di * n, dv), (ci, cj * n3 + ck, cv)),
                ((dk, n4 + dj * n3 + di * n, dv), (cj, ci * n2 + ck, cv)),
                ((sa, 2 * n4 + sj * n2, sv), (ci, cj * n + ck, cv)),
                ((sa, 2 * n4 + n3 + sj * n, sv), (cj, ci * n2 + ck, cv))], what)
            cut = keys.searchsorted([n4, 2 * n4]).tolist()
            (uk, uv_), (vk, vv), (pk, pv) = (
                (keys[a:b] - base, vals[a:b])
                for a, b, base in ((0, cut[0], 0), (cut[0], cut[1], n4), (cut[1], None, 2 * n4)))
            del keys, vals
            pairs += [
                (counit, (dj, at["counit_left"] + di * n + dk, dv)),
                (counit, (dk, at["counit_right"] + di * n + dj, dv)),
                # (Delta (x) id) Delta b_i against (id (x) Delta) Delta b_i
                ((dj, at["coassociativity"] + di * n3 + dk, dv), (di, dj * n2 + dk * n, dv)),
                ((dk, at["coassociativity"] + di * n3 + dj * n2, -dv), (di, dj * n + dk, dv)),
                (counit, (ck, at["counit_algebra_map"] + ci * n + cj, cv)),
                outer("counit_algebra_map", ei, ev, ei, ev),
                (unit, (di, at["comult_unit"] + dj * n + dk, dv)),
                outer("comult_unit", ui, uv, ui, uv),
                # sum Delta[i, j, k] P[side, j, k, m], side 1 n^2 keys on
                ((pk // n, pk % n, pv),
                 (np.concatenate((dj * n + dk, n2 + dj * n + dk)),
                  at["antipode_left"] + np.concatenate((di * n, n2 + di * n)),
                  np.concatenate((dv, dv)))),
                outer("antipode_left", ei, ev, ui, uv),
                outer("antipode_right", ei, ev, ui, uv),
            ]
            terms += [(at[name] + diag, -np.ones(n, dtype=np.int64))
                      for name in ("counit_left", "counit_right")]
        terms.append(xa.contract(p, pairs, what))
        if self.comult is not None:
            del pairs
            # Delta(b_i b_j) against Delta(b_i) Delta(b_j), joined at (y, k)
            terms.append(xa.contract(p, [
                ((ck, at["comult_algebra_map"] + ci * n3 + cj * n2, cv), (di, dj * n + dk, dv)),
                ((uk // n2, at["comult_algebra_map"] + uk // n % n * n3 + uk % n * n, -uv_),
                 (vk // n2, vk // n % n * n2 + vk % n, vv))], what))
        found = xa.first_differences(p, shapes, terms)
        return AxiomReport([AxiomCheck(name, w is None, w) for name, w in zip(names, found)])

    def _antipode_system(self) -> list[dict]:
        """Rows of the antipode axioms, which say both sides equal eps(b_i) 1:
        unknown S[a, j] in column a * n + j and the right-hand side eps_i
        unit_m in column n * n."""
        p, n = self.field.p, self.dim
        ci, cj, ck = self.mult.coo()
        di, dj, dk = self.comult.coo()
        cv, dv, w = self.mult.vals, self.comult.vals, 2 * n * n
        # sum S(b_j) b_k Delta[i, j, k] (side 0) and sum b_j S(b_k) Delta[i, j, k]
        # (side 1), linear in the unknowns S[a, j]: side 0 joins d[i, j, k]
        # c[a, k, m] at k, side 1 d[i, j, k] c[j, a, m] at j, keyed by the
        # unknown and the row, (a n + j) w + (side n + i) n + m
        keys, vals = xa.contract(p, [((dk, dj * w + di * n, dv), (cj, ci * n * w + ck, cv)),
                                     ((dj, dk * w + (n + di) * n, dv), (ci, cj * n * w + ck, cv))],
                                 "the antipode axioms")
        on, key = np.divmod(keys, w)
        ei, ev = xa._vector(self.counit)
        ui, uv = xa._vector(self.unit)
        # eps_i unit_m in row (side, i, m) of both sides
        e2 = np.concatenate((ei, ei + n)) * n
        rk, rv = xa.contract(p, [((0 * e2, e2, np.concatenate((ev, ev))), (0 * ui, ui, uv))],
                             "the antipode system")
        width = n * n + 1
        keys, vals = xa._sum_by(p, np.concatenate((key * width + on, rk * width + n * n)),
                                np.concatenate((vals, rv)))
        return xa._row_dicts(*np.divmod(keys, width), vals)

    def _solve_antipode(self) -> xa.SparseCoaction:
        """The unique S solving the antipode axiom, from one elimination of
        the system's rows: a pivot in the rhs column means no solution, a
        column without a pivot means more than one."""
        f, n = self.field, self.dim
        piv = xa._echelon(f, self._antipode_system())
        if n * n in piv:
            raise InputError("bialgebra admits no antipode")
        if len(piv) != n * n:
            raise InconsistencyError("antipode not unique; data is not a bialgebra")
        xa._back_substitute(f, piv)
        return xa.SparseCoaction.from_entries(
            ((c // n, c % n, 0, row.get(n * n, 0)) for c, row in piv.items()), n, 1)

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
        """Left integrals: b_i x = eps(b_i) x for every i, the fixed vectors
        of coact[k, j, i] = mult[i, j, k] against the counit; right ones:
        x b_i, coact[k, j, i] = mult[j, i, k].

        If b x = eps(b) x and b' x = eps(b') x then (b b') x = eps(b b') x
        (associativity, multiplicative eps), so the rows of the algebra
        generators suffice; `exactalg.fixed_space` certifies that against
        every b_i.
        """
        if side not in ("left", "right"):
            raise InputError(f"side must be 'left' or 'right', got {side!r}")
        if side not in self._integrals:
            coact = self.mult.transpose((2, 1, 0) if side == "left" else (2, 0, 1))
            self._integrals[side] = xa.fixed_space(
                self.field, coact, self.counit, self.algebra_generators)
        return self._integrals[side].copy()

    @cached_property
    def algebra_generators(self) -> tuple[int, ...]:
        """The least-index greedy basis elements that generate the algebra
        with its unit: b_i joins when it lies outside the subalgebra the
        earlier ones generate.

        That subalgebra's span is one `_echelon` basis, started from the
        unit and closed by right-multiplying its rows by the generators, a
        level of new rows at a time; every vector stays a sparse row dict.
        For kG the generators generate G, and k^G needs |G| - 1 of its idempotents.
        """
        f, n, m = self.field, self.dim, self.mult

        def times(x, right):
            # x b_g = sum_i x_i (b_i b_g), right[i] the row of b_i b_g
            row: dict = {}
            for i, v in x.items():
                if i in right:
                    xa._axpy(f.p, row, v, right[i])
            return row

        ui, uv = xa._vector(self.unit)
        piv = xa._echelon(f, [dict(zip(ui.tolist(), uv.tolist()))])
        # the rows of b_i b_g, i -> row, for each generator g so far
        rights: dict[int, dict] = {}
        for g in range(n):
            if len(piv) == n:
                break
            size = len(piv)
            xa._echelon(f, [{g: 1}], piv)
            if len(piv) == size:
                continue
            right = rights[g] = {}
            lo, hi = m.ptr[g], m.ptr[g + 1]
            for key, v in zip(m.keys[lo:hi].tolist(), m.vals[lo:hi].tolist()):
                right.setdefault(key // n, {})[key % n] = v
            # the earlier rows are closed under the earlier generators; each
            # level multiplies the rows it added by every generator
            rows = list(piv.values())
            todo = [(x, right) for x in rows[:size]] + [
                (x, r) for x in rows[size:] for r in rights.values()]
            while todo and len(piv) < n:
                size = len(piv)
                xa._echelon(f, [times(x, r) for x, r in todo], piv)
                todo = [(x, r) for x in list(piv.values())[size:] for r in rights.values()]
        return tuple(rights)

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
        p, n = self.field.p, self.dim
        li, lv = xa._vector(lam)
        i, j, k = self.mult.coo()
        # w[j, k]: lam * b_j = sum_k w[j, k] b_k, which must be alpha(b_j) lam;
        # lam has a 1 at its first nonzero entry
        w = xa.contract(p, [((li, 0 * li, lv), (i, j * n + k, self.mult.vals))],
                        "the modular element")
        at = w[0] % n == li[0]
        ai, av = w[0][at] // n, w[1][at]
        if not xa.is_outer(p, w, n, (ai, av), (li, lv)):
            line = xa.contract(p, [((0 * ai, ai * n, -av), (0 * li, li, lv))],
                               "the modular element")
            bad = xa.first_differences(p, [(n, n)], [w, line])[0]
            raise InconsistencyError(
                f"right multiplication by b_{bad[0]} does not preserve the integral line")
        return xa._dense(self.field, ai, av, (n,))

    # -- dual ------------------------------------------------------------

    def dual(self) -> "HopfAlgebraData":
        """Dual Hopf algebra; an exact involution (dual(dual(H)) == H)."""
        self._need_coalgebra()
        labels = [lbl[:-1] if lbl.endswith("*") else lbl + "*" for lbl in self.basis]
        return HopfAlgebraData(
            self.field,
            labels,
            unit=self.counit,
            mult=self.comult.transpose((1, 2, 0)),
            counit=self.unit,
            comult=self.mult.transpose((2, 0, 1)),
            antipode=self.antipode.transpose((1, 0, 2)),
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
        """beta[i, j] = phi(b_i b_j)."""
        p, n = self.field.p, self.dim
        fi, fv = xa._vector(phi)
        i, j, k = self.mult.coo()
        terms = xa.contract(p, [((fi, 0 * fi, fv), (k, i * n + j, self.mult.vals))], "a form")
        return xa._dense(self.field, *terms, (n, n))

    def _commutator_rows(self) -> list[dict]:
        """Per pair (i, j), the coefficients of b_i b_j - b_j b_i."""
        n, (i, j, k) = self.dim, self.mult.coo()
        keys, vals = xa._sum_by(self.field.p, np.concatenate(((i * n + j) * n + k,
                                                              (j * n + i) * n + k)),
                                np.concatenate((self.mult.vals, -self.mult.vals)))
        return xa._row_dicts(keys // n, keys % n, vals)

    def _find_nondegenerate(self, symmetric: bool) -> np.ndarray | None:
        """A functional with nondegenerate form, or None if provably none exists.

        Candidates first (witness verified by an actual rank computation); for
        a symmetric form the theorem that a symmetric Hopf algebra is unimodular
        (Oberst-Schneider 1973; Lorenz, J. Algebra 188, 1997); then sound
        exhaustion: all projective F_p-combinations, or a (degree+1)-wide integer
        grid over Q (the determinant has degree <= n per variable, so a grid
        vanishing proves the zero polynomial).  Beyond budget: undecided.

        Every phi gives an associative form beta(a,b) = phi(ab); a symmetric
        one needs phi to kill each commutator b_i b_j - b_j b_i (row i*n+j).
        """
        f, n = self.field, self.dim
        comm = self._commutator_rows() if symmetric else []
        space = xa._kernel(f, [dict(row) for row in comm], n) if symmetric else f.eye(n)
        r = len(space)
        if r == 0:
            return None
        for phi in self._form_candidates(space):
            ph = phi.tolist()
            if any(f.reduce(sum(v * ph[k] for k, v in row.items())) for row in comm):
                continue
            if xa.rank(f, self._form_matrix(phi)) == n:
                return phi
        if symmetric and self.comult is not None:
            try:
                if not self.is_unimodular() and self.verify_axioms().ok:
                    return None
            except (InconsistencyError, UndecidedError):
                pass  # not a Hopf algebra, or too large to check: search
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
    t = np.array(table, dtype=np.int64).reshape(m, m)
    idx = np.arange(m)
    units = np.flatnonzero((t == idx).all(axis=1) & (t.T == idx).all(axis=1))
    if not units.size:
        raise InputError("group table has no identity element")
    ident = int(units[0])
    # Light's test: the a with (xa)y = x(ay) for all x, y are closed under
    # products, so the table is associative when a set of elements that
    # generates it under right multiplication passes; any such set will do
    gens, reached = [], {ident}
    for g in range(m - 1, -1, -1):
        if g not in reached:
            gens.append(g)
            new = reached
            while new:
                new = {table[x][h] for x in new for h in gens} - reached
                reached |= new
    if any(not np.array_equal(t[t[:, a]], t[:, t[a]]) for a in gens):
        for i in range(m):
            # [j, k] holds (ij)k and i(jk); the least failing (i, j, k)
            lhs, rhs = t[t[i]], t[i][t]
            if not np.array_equal(lhs, rhs):
                j, k = np.argwhere(lhs != rhs)[0].tolist()
                raise InputError(f"group table not associative at ({i},{j},{k})")
    both = (t == ident) & (t.T == ident)
    missing = np.flatnonzero(~both.any(axis=1))
    if missing.size:
        raise InputError(f"group element {missing[0]} has no inverse")
    return ident, both.argmax(axis=1).tolist()


def group_algebra(field: FieldSpec, table: list[list[int]], labels=None) -> HopfAlgebraData:
    """Group algebra kG from a multiplication table (indices into the element list)."""
    m = len(table)
    ident, inv = _check_group_table(table)
    labels = labels or [f"g{i}" for i in range(m)]
    # g_i g_j = g_{table[i][j]}, Delta g = g (x) g and S(g) = g^-1
    g, h = np.divmod(np.arange(m * m), m)
    ones, zero = np.ones(m * m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    mult = xa.SparseCoaction.from_coo(g, h, np.array(table).ravel(), ones, m, m)
    comult = xa.SparseCoaction.from_coo(g[::m + 1], g[::m + 1], g[::m + 1], ones[:m], m, m)
    antipode = xa.SparseCoaction.from_coo(np.array(inv), h[:m], zero, ones[:m], m, 1)
    unit = field.zeros(m)
    unit[ident] = field.one
    counit = field.asarray([1] * m)
    return HopfAlgebraData(field, labels, unit, mult, counit, comult, antipode)


def function_algebra(field: FieldSpec, table: list[list[int]], labels=None) -> HopfAlgebraData:
    """Functions on a finite group: the dual of its group algebra."""
    return group_algebra(field, table, labels).dual()


def tensor_hopf(h1: HopfAlgebraData, h2: HopfAlgebraData, sep: str = "|") -> HopfAlgebraData:
    """Tensor product Hopf algebra, pairs indexed row-major (i1*n2+i2)."""
    if h1.field != h2.field:
        raise InputError("tensor factors must share a field")
    f = h1.field
    n = h1.dim * h2.dim

    def mix(a, b):
        # [i1, j1, g1] (x) [i2, j2, g2] at [i1 n2 + i2, j1 n2 + j2, g1 o2 + g2]:
        # every pair of their nonzeros, a nonzero product at its own index
        (ai, aj, ag), (bi, bj, bg) = a.coo(), b.coo()
        s = np.arange(len(a.vals)).repeat(len(b.vals))
        t = np.tile(np.arange(len(b.vals)), len(a.vals))
        vals = xa._times(f.p, a.vals[s], b.vals[t])
        if vals.dtype == object:
            vals = xa._scalars([v.numerator if v.denominator == 1 else v for v in vals.tolist()])
        return xa.SparseCoaction.from_coo(
            ai[s] * b.dim + bi[t], aj[s] * b.dim + bj[t], ag[s] * b.order + bg[t], vals,
            a.dim * b.dim, a.order * b.order)

    labels = [f"{x}{sep}{y}" for x in h1.basis for y in h2.basis]
    unit = f.reduce(h1.unit[:, None] * h2.unit).reshape(n)
    counit = f.reduce(h1.counit[:, None] * h2.counit).reshape(n)
    anti = None
    if h1.antipode is not None and h2.antipode is not None:
        anti = mix(h1.antipode, h2.antipode)
    return HopfAlgebraData(
        f, labels, unit, mix(h1.mult, h2.mult), counit, mix(h1.comult, h2.comult), anti
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
    # F_p only: int64 residues, and each sum of m products below m p^2 < 2^63
    if not xa.is_zero((br + br.transpose(1, 0, 2)) % p):
        raise InputError("bracket is not antisymmetric")
    jac = np.tensordot(br, br, ([2], [1])).transpose(2, 0, 1, 3)
    if not xa.is_zero((jac + jac.transpose(2, 0, 1, 3) + jac.transpose(1, 2, 0, 3)) % p):
        raise InputError("bracket fails the Jacobi identity")
    ad = br.transpose(0, 2, 1)  # ad[i][b][a] = coeff of x_b in [x_i, x_a]
    for i in range(m):
        power = np.eye(m, dtype=np.int64)
        for _ in range(p):
            power = ad[i] @ power % p
        if not xa.arrays_equal(power, np.tensordot(pm[i], ad, ([0], [0])) % p):
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

    def collect(terms) -> dict:
        # {key: the sum of its values mod p} of (key, value) pairs, zeros dropped
        out: dict = {}
        for k, v in terms:
            out[k] = out.get(k, 0) + v
        return {k: v % p for k, v in out.items() if v % p}

    def as_row(terms: dict[tuple[int, ...], object]) -> dict[int, int]:
        # {k: coefficient of b_k} of straightened words
        return collect((index[tuple(w.count(g) for g in range(m))], int(cf))
                       for w, cf in terms.items())

    # Per-generator multiplication rows {k: coefficient}: rmul[g][k] is
    # b_k * x_g, lmul[g][k] is x_g * b_k.  Everything else is built from these
    # by peeling the last generator off each monomial, which keeps the whole
    # construction near-linear instead of straightening n^2 long words.
    rmul = [[as_row(straighten(word_of(ek) + (g,))) for ek in exps] for g in range(m)]
    lmul = [[as_row(straighten((g,) + word_of(ek))) for ek in exps] for g in range(m)]

    # Everything is grown from the predecessor monomial x^a' = x^a / x_g, g the
    # last generator of x^a: b_i x^a = (b_i x^a') x_g; Delta is multiplicative
    # with primitive generators, so Delta(x^a) = Delta(x^a') (x_g (x) 1 + 1 (x)
    # x_g); and S(x^a) = S(x_g) S(x^a') = -x_g S(x^a').  Column j of each is
    # held by its nonzeros: mult[j] maps (i, k) to the coefficient of b_k in
    # b_i b_j, comult[j] maps (a, b) to that of b_a (x) b_b in Delta(b_j), and
    # antipode[j] is the row of S(b_j); column 0 is the unit b_0 = 1.
    mult, comult, antipode = [{(i, i): 1 for i in range(n)}], [{(0, 0): 1}], [{0: 1}]
    for ej in exps[1:]:
        g = max(t for t in range(m) if ej[t])
        jp = index[ej[:g] + (ej[g] - 1,) + ej[g + 1 :]]
        rm, delta = rmul[g], comult[jp].items()
        mult.append(collect(((i, c), v * w) for (i, k), v in mult[jp].items()
                           for c, w in rm[k].items()))
        comult.append(collect(chain(
            (((c, b), v * w) for (a, b), v in delta for c, w in rm[a].items()),
            (((a, c), v * w) for (a, b), v in delta for c, w in rm[b].items()))))
        antipode.append(collect((c, -v * w) for k, v in antipode[jp].items()
                                for c, w in lmul[g][k].items()))
    unit = field.zeros(n)
    unit[0] = field.one

    labels = [monomial_label(ea, generators, sep="") for ea in exps]
    return HopfAlgebraData(
        field, labels, unit,
        xa.SparseCoaction.from_entries(((i, j, k, v) for j, col in enumerate(mult)
                                        for (i, k), v in col.items()), n, n),
        unit,
        xa.SparseCoaction.from_entries(((j, a, b, v) for j, col in enumerate(comult)
                                        for (a, b), v in col.items()), n, n),
        xa.SparseCoaction.from_entries(((a, j, 0, v) for j, col in enumerate(antipode)
                                        for a, v in col.items()), n, 1),
    )
