"""Exact scalars and linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over Q (always in lowest terms, positive
denominator) and canonical representatives 0..p-1 (Python/int64) over F_p.
Dense matrices are numpy arrays: dtype=object holding Fractions over Q,
dtype=int64 over F_p with reduction mod p after every operation.  The field
split lives in `FieldSpec` (scalars, dtypes, reduction); everything else is
written once for both fields.  `matmul` and `tensordot` are one integer
product for both fields: each operand is scaled once to integers (over Q by
the lcm of its denominators), multiplied in float64 BLAS while
k * max|a| * max|b| < 2^53 for a contraction of length k (exact: every
partial sum is an integer below 2^53), on Python ints beyond, then reduced
mod p or divided back into Fractions.

Elimination is sparse and also written once: rows are dicts {column: nonzero
scalar}, reduced shortest row first and back-substituted to the unique RREF.
`fixed_space` and `fixed_dim` take a `SparseCoaction` and never build a
dense system.  They eliminate the rows of the coordinates they are given
(algebra generators, whose rows already cut out the fixed space when the
axioms hold), then certify every null vector against every coordinate and
add the rows of a violated one until none is: the answer is the kernel of
all the rows for any input.  `rref`, `rank`, `kernel_basis` and `invert` keep
dense arrays as their boundary.  There are no tolerances anywhere.

`SparseCoaction` is the one sparse array type: an (n, n, order) array by its
nonzeros, as field scalars.  It holds the Sym^d coactions and the Hopf
structure constants alike; `transpose` permutes its indices and `to_dense`
is the on-demand dense boundary.  Sparse contractions accumulate scalars in
dicts keyed by index tuples (`_acc`, `_by`) and compare two sides with
`_mismatches` and `_first_mismatch`, which returns the C-order-first
differing index as a dense comparison would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InputError

# int64 safety: dense F_p array arithmetic forms one product of two residues
# (< p^2 < 2^40) per entry, and products and sums of products are bounded
# against _EXACT_BOUND before they run, with Python ints beyond.
_MAX_PRIME = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """The coefficient field: Q (p is None) or F_p for a prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int) or not _is_prime(p) or p > _MAX_PRIME:
                raise InputError(f"modulus must be a prime < 2^20, got {p!r}")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- scalars ---------------------------------------------------------

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x):
        """Coerce an int/str/Fraction into a canonical scalar of this field;
        a bool is not a scalar."""
        if isinstance(x, bool):
            raise InputError(f"cannot coerce {x!r} into {self!r}")
        if self.p is not None:
            if isinstance(x, str):
                x = int(x, 10)
            if isinstance(x, (int, np.integer)):
                return int(x) % self.p
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise InputError(f"{x} has no image in F_{self.p}")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            raise InputError(f"cannot coerce {x!r} into F_{self.p}")
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational literal {x!r}") from exc
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x))
        if isinstance(x, Fraction):
            return x
        raise InputError(f"cannot coerce {x!r} into Q")

    def fmt(self, x):
        """Serialize a scalar: F_p as int, Q as 'a' or 'a/b'."""
        if self.p is not None:
            return int(x) % self.p
        x = self.coerce(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def fmt_combo(self, vec, labels) -> str:
        """A vector as a linear combination of labels: "b + 2*c", or "0"."""
        terms = []
        for c, lb in zip(vec, labels):
            if c:
                s = str(self.fmt(c))
                terms.append(lb if s == "1" else f"{s}*{lb}")
        return " + ".join(terms) if terms else "0"

    def inv(self, x):
        if self.p is not None:
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, -1, self.p)
        x = self.coerce(x)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / x

    def neg(self, x):
        if self.p is not None:
            return (-int(x)) % self.p
        return -self.coerce(x)

    # -- arrays ----------------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        """Nested lists (ints/strings/Fractions) to a canonical array."""
        if self.p is not None:
            arr = np.asarray(data)
            if arr.dtype.kind not in "iu":
                flat = [self.coerce(v) for v in np.asarray(data, dtype=object).reshape(-1)]
                arr = np.array(flat, dtype=np.int64).reshape(arr.shape)
            return arr.astype(np.int64) % self.p
        arr = np.empty(np.shape(data), dtype=object)
        flat = np.asarray(data, dtype=object).reshape(-1)
        arr.reshape(-1)[:] = [self.coerce(v) for v in flat]
        return arr

    def zeros(self, shape) -> np.ndarray:
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        arr = np.empty(shape, dtype=object)
        arr.reshape(-1)[:] = [Fraction(0)] * arr.size
        return arr

    def eye(self, n: int) -> np.ndarray:
        arr = self.zeros((n, n))
        for i in range(n):
            arr[i, i] = self.one
        return arr

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p if self.p is not None else arr


# While k * max|a| * max|b| < 2^53, every product and partial sum of an
# integer dot product of length k is an integer float64 holds exactly.
_EXACT_BOUND = 2**53


def _integral(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(n, s, m) with a = n / s and |n| <= m, n int64 if it fits, else Python ints."""
    if field.p is not None:
        return a, 1, field.p - 1
    flat = a.reshape(-1)
    s = math.lcm(*{x.denominator for x in flat})
    if s == 1:
        nums = [x.numerator for x in flat]
    else:
        nums = [x.numerator * (s // x.denominator) for x in flat]
    m = max(max(nums, default=0), -min(nums, default=0))
    return np.array(nums, dtype=np.int64 if m < 2**63 else object).reshape(a.shape), s, m


def _from_integral(field: FieldSpec, n: np.ndarray, s: int) -> np.ndarray:
    """The field array n / s: reduced mod p, or lowest-terms Fractions over Q."""
    if field.p is not None:
        return (n % field.p).astype(np.int64, copy=False)
    # one Fraction object per distinct value
    values = n.reshape(-1).tolist()
    frac = {v: Fraction(v, s) for v in set(values)}
    return np.fromiter(map(frac.__getitem__, values), dtype=object,
                       count=len(values)).reshape(n.shape)


def _int_product(na: np.ndarray, ma: int, nb: np.ndarray, mb: int, k: int, mult):
    """mult(na, nb) on integer arrays with |na| <= ma, |nb| <= mb, exactly:
    in float64 BLAS when each output entry, a sum of k products, stays below
    2^53, on Python ints otherwise."""
    # ma and mb on their own too: an all-zero partner must not let an operand
    # beyond 2^53 into float64
    if max(k * ma * mb, ma, mb) < _EXACT_BOUND:
        return np.rint(mult(na.astype(np.float64), nb.astype(np.float64))).astype(np.int64)
    return np.asarray(mult(na.astype(object), nb.astype(object)))


def _product(field: FieldSpec, a: np.ndarray, b: np.ndarray, k: int, mult) -> np.ndarray:
    """mult(a, b) exactly, where each output entry sums k products."""
    (na, sa, ma), (nb, sb, mb) = _integral(field, a), _integral(field, b)
    return _from_integral(field, _int_product(na, ma, nb, mb, k, mult), sa * sb)


def matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _product(field, a, b, a.shape[-1], np.matmul)


def tensordot(field: FieldSpec, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    if isinstance(axes, (int, np.integer)):
        k = int(np.prod(a.shape[a.ndim - axes :], dtype=np.int64))
    else:
        k = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axes[0])], dtype=np.int64))
    return _product(field, a, b, k, lambda x, y: np.tensordot(x, y, axes))


def outer(field: FieldSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return field.reduce(u[:, None] * v[None, :])


def is_zero(arr: np.ndarray) -> bool:
    return not np.count_nonzero(arr)


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _first_nonzero(col) -> int | None:
    hits = np.flatnonzero(col)
    return int(hits[0]) if hits.size else None


# The elimination works on rows {column: nonzero scalar}: residues 0..p-1 over
# F_p, and ints or Fractions over Q.  An integral rational enters as an int,
# because Python int arithmetic is many times faster than Fraction's.


def _nonzeros(arr: np.ndarray):
    """(index..., value) of each nonzero entry, as Python ints and Fractions."""
    nz = np.nonzero(arr)
    values = [v.numerator if v.denominator == 1 else v for v in arr[nz].tolist()]
    return zip(*(x.tolist() for x in nz), values)


def _from_dict(field: FieldSpec, acc: dict, shape) -> np.ndarray:
    """The field array holding acc[index] (reduced mod p over F_p), and zero
    off acc's keys."""
    out = field.zeros(shape)
    for idx, v in acc.items():
        out[idx] = field.coerce(v)
    return out


class SparseCoaction(NamedTuple):
    """An array (n, n, order) by its nonzero entries.

    cols[j] maps i * order + g to entry [i, j, g], a field scalar: a residue
    over F_p, an int or a Fraction over Q.  `from_entries` and `from_dense`
    store an integral rational as an int, so integral data computes on
    Python ints.  For a coaction, order is |G| and
    the key is the row of the fixed-space system, so a column of the coaction
    is a column of it; Hopf structure constants are held the same way (order
    n, or 1 for the antipode matrix).
    """

    cols: list[dict]
    order: int

    @property
    def dim(self) -> int:
        return len(self.cols)

    def entries(self):
        """(i, j, g, value) of every nonzero entry, column by column."""
        order = self.order
        for j, col in enumerate(self.cols):
            for key, v in col.items():
                i, g = divmod(key, order)
                yield i, j, g, v

    @classmethod
    def from_entries(cls, entries, dim: int, order: int) -> "SparseCoaction":
        """From (i, j, g, value) with field scalars as values (ints or
        Fractions over Q, residues over F_p); a later entry at an index
        replaces an earlier one, zeros are dropped and integral Fractions
        become ints."""
        cols: list[dict] = [{} for _ in range(dim)]
        for i, j, g, v in entries:
            cols[j][i * order + g] = v
        return cls([{k: v.numerator if v.denominator == 1 else v
                     for k, v in col.items() if v} for col in cols], order)

    @classmethod
    def from_dense(cls, coact: np.ndarray) -> "SparseCoaction":
        return cls.from_entries(_nonzeros(coact), coact.shape[1], coact.shape[2])

    def to_dense(self, field: FieldSpec) -> np.ndarray:
        """The dense (n, n, order) field array: an on-demand boundary."""
        acc = {(i, j, g): v for i, j, g, v in self.entries()}
        return _from_dict(field, acc, (self.dim, self.dim, self.order))

    def transpose(self, axes) -> "SparseCoaction":
        """The array with its axes permuted as `np.transpose(array, axes)`;
        an index permutation of the nonzeros, without arithmetic."""
        shape = (self.dim, self.dim, self.order)
        order = shape[axes[2]]
        cols: list[dict] = [{} for _ in range(shape[axes[1]])]
        for idx in self.entries():
            cols[idx[axes[1]]][idx[axes[0]] * order + idx[axes[2]]] = idx[3]
        return SparseCoaction(cols, order)


# Sparse contractions work on dicts of scalars keyed by index tuples.


def _acc(terms) -> dict:
    """Sum (index, scalar) terms by index."""
    out: dict = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return out


def _by(entries, *axes) -> dict:
    """Nonzero entries (i, j, k, v) grouped by the indices at `axes`: each
    key maps to the list of (other indices..., v)."""
    key = itemgetter(*axes)
    rest = itemgetter(*(a for a in range(4) if a not in axes))
    out: dict = {}
    for e in entries:
        out.setdefault(key(e), []).append(rest(e))
    return out


def _nonzero(p: int | None, x) -> bool:
    return bool(x % p if p is not None else x)


def _clean(p: int | None, row: dict) -> dict:
    """The nonzero entries of row, reduced mod p over F_p."""
    if p is None:
        return {k: v for k, v in row.items() if v}
    return {k: v % p for k, v in row.items() if v % p}


def _mismatches(p: int | None, lhs: dict, rhs: dict) -> list:
    """The keys where lhs and rhs differ, an absent key meaning 0."""
    if _clean(p, lhs) == _clean(p, rhs):
        return []
    return [k for k in lhs.keys() | rhs.keys() if _nonzero(p, lhs.get(k, 0) - rhs.get(k, 0))]


def _first_mismatch(p: int | None, lhs: dict, rhs: dict, prefix=()) -> tuple | None:
    """The least index (C order) where lhs and rhs differ, as prefix + index,
    for dicts keyed by index tuples."""
    bad = _mismatches(p, lhs, rhs)
    return prefix + min(bad) if bad else None


def _axpy(p: int | None, row: dict, f, other: dict) -> None:
    """row += f * other in place, dropping the entries that cancel."""
    for k, v in other.items():
        x = row.get(k, 0) + f * v
        if p is not None:
            x %= p
        if x:
            row[k] = x
        else:
            del row[k]


def _echelon(field: FieldSpec, rows, piv: dict | None = None) -> dict[int, dict]:
    """Row-dict elimination, consuming `rows`: {leading column: echelon row}.

    Rows are taken shortest first (Faugere-Lachartre style: a short row
    brings little fill); each is reduced by the pivot rows at its leading
    column until that column is new.  Every returned row is 1 at its key and
    nonzero only to the right of it.  The leading columns of an echelon basis
    depend only on the row space, so the order rows arrive in changes nothing.
    Given `piv`, an echelon basis of earlier rows, the rows are added to it.
    """
    p = field.p
    piv = {} if piv is None else piv
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                # an integral inverse (+-1 over Q) is taken as an int, which
                # keeps integral rows in ints
                inv = field.inv(row[lead])
                piv[lead] = prow = {}
                _axpy(p, prow, inv.numerator if inv.denominator == 1 else inv, row)
                break
            _axpy(p, row, -row[lead], prow)
    return piv


def _back_substitute(field: FieldSpec, piv: dict[int, dict]) -> dict[int, dict]:
    """The echelon rows of `_echelon`, reduced in place to the unique RREF.

    Pivot rows are cleared right to left: a row already cleared holds no
    other pivot column, so subtracting it brings none back.
    """
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for k in [k for k in row if k != c and k in piv]:
            _axpy(field.p, row, -row[k], piv[k])
    return piv


def _dense_rows(mat: np.ndarray) -> list[dict]:
    rows: list[dict] = [{} for _ in range(mat.shape[0])]
    for i, j, v in _nonzeros(mat):
        rows[i][j] = v
    return rows


def _kernel(field: FieldSpec, rows, n: int) -> np.ndarray:
    """Echelon-normal basis (k, n) of the null space of `rows` (consumed)."""
    return _null_basis(field, _back_substitute(field, _echelon(field, rows)), n)


def _null_vectors(piv: dict[int, dict], n: int) -> dict[int, dict]:
    """The echelon-normal null vectors of the RREF rows `piv`, sparse and by
    ascending free column: {free column f: {i: x_i}}, x_f = 1."""
    vectors = {f: {f: 1} for f in range(n) if f not in piv}
    for c, row in piv.items():
        for f, v in row.items():
            if f != c:
                vectors[f][c] = -v
    return vectors


def _null_basis(field: FieldSpec, piv: dict[int, dict], n: int) -> np.ndarray:
    """Echelon-normal basis (k, n) of the null space of the RREF rows `piv`."""
    vectors = _null_vectors(piv, n)
    basis = field.zeros((len(vectors), n))
    for k, x in enumerate(vectors.values()):
        for i, v in x.items():
            basis[k, i] = field.coerce(v)
    return basis


def rref(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and its pivot columns.

    Returns (R, pivot_columns), R padded with zero rows to the shape of mat.
    The RREF is unique, so identical inputs give identical outputs.  The
    dense array is only the boundary: the elimination is `_echelon` and
    `_back_substitute` on the nonzero entries.
    """
    piv = _back_substitute(field, _echelon(field, _dense_rows(mat)))
    pivots = sorted(piv)
    r = field.zeros(mat.shape)
    for i, c in enumerate(pivots):
        for k, v in piv[c].items():
            r[i, k] = field.coerce(v)
    return r, pivots


def rank(field: FieldSpec, mat: np.ndarray) -> int:
    return len(_echelon(field, _dense_rows(mat)))


def kernel_basis(field: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """Basis of the right null space {v : mat v = 0}, shape (k, n).

    Vectors are ordered by ascending free column; each has a 1 in its own free
    column and 0 in every other free column (echelon-normal form), so equal
    kernels give byte-identical bases.
    """
    return _kernel(field, _dense_rows(mat), mat.shape[1])


def _fixed_rows(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray, coords) -> list[dict]:
    """Rows (i, g), g in coords, of the system sum_j coact[i, j, g] x_j -
    x_i unit[g] = 0."""
    order, coords = coact.order, set(coords)
    unit_nz = [(g, u) for g, u in _nonzeros(unit) if g in coords]
    rows: dict[int, dict] = {}
    for j, col in enumerate(coact.cols):
        # the other coordinates are skipped before anything is copied
        col = {key: v for key, v in col.items() if key % order in coords}
        _axpy(field.p, col, -1, {j * order + g: u for g, u in unit_nz})
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return list(rows.values())


def _violated(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray,
              piv: dict[int, dict]) -> set[int]:
    """The coordinates g at which some null vector x of the RREF rows `piv`
    has sum_j coact[:, j, g] x_j != x unit[g]: one pass over the coaction's
    columns on the supports of the vectors."""
    p, order = field.p, coact.order
    u = dict(_nonzeros(unit))
    bad: set[int] = set()
    for x in _null_vectors(piv, coact.dim).values():
        if p is None:
            # both sides are linear in x: its numerators will do, which keeps
            # integral coactions on ints
            s = math.lcm(*(v.denominator for v in x.values()))
            x = {k: v.numerator * (s // v.denominator) for k, v in x.items()}
        lhs: dict = {}
        for j, xj in x.items():
            for key, v in coact.cols[j].items():
                lhs[key] = lhs.get(key, 0) + v * xj
        rhs = {i * order + g: xi * ug for i, xi in x.items() for g, ug in u.items()}
        bad.update(key % order for key in _mismatches(p, lhs, rhs))
    return bad


def _fixed_rref(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray,
                first) -> dict[int, dict]:
    """The RREF rows of the fixed-space system, from the rows of the
    coordinates in `first`, certified against every coordinate.

    While a null vector of the rows so far violates some coordinate, the
    rows of the least violated one join the elimination.  A coordinate whose
    rows are in can no longer be violated, so there are at most `order`
    passes, and the last has the null space of all the rows, whose RREF is
    unique, whatever `first` was: a good seed only makes it end at once.
    """
    if np.shape(unit) != (coact.order,):
        raise InputError(
            f"the unit must have shape ({coact.order},), got {np.shape(unit)}"
        )
    piv = _echelon(field, _fixed_rows(field, coact, unit, first))
    while True:
        _back_substitute(field, piv)
        bad = _violated(field, coact, unit, piv)
        if not bad:
            return piv
        _echelon(field, _fixed_rows(field, coact, unit, (min(bad),)), piv)


def fixed_space(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray,
                first=()) -> np.ndarray:
    """Echelon basis of {x : sum_j coact[:, j, :] x_j = x (x) unit}, shape (k, n).

    coact[i, j, :] is the coefficient vector of the i-th basis vector in the
    coaction of the j-th one; the fixed vectors are the x with rho(x) = x (x)
    unit.  Invariants (unit = 1 of k[G]), twisted invariants and integrals
    (unit = the counit) are all this kernel.

    The rows of coordinate g say phi_g . x = phi_g(unit) x for the g-th dual
    basis element phi_g.  For a comodule and a grouplike unit, the phi with
    phi . x = phi(unit) x form a subalgebra of k[G]*, so the rows of a set
    of algebra generators (`first`) already cut out the fixed space; the
    same holds for integrals of an associative algebra with multiplicative
    counit.  Every result is certified against all coordinates anyway
    (`_fixed_rref`), so inputs that break those axioms get the same answer
    as the full system, only later.
    """
    return _null_basis(field, _fixed_rref(field, coact, unit, first), coact.dim)


def fixed_dim(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray, first=()) -> int:
    """len(fixed_space(field, coact, unit, first)), without the dense basis."""
    return coact.dim - len(_fixed_rref(field, coact, unit, first))


def invert(field: FieldSpec, mat: np.ndarray) -> np.ndarray | None:
    """Inverse of a square matrix, or None if singular."""
    n = mat.shape[0]
    aug = field.zeros((n, 2 * n))
    aug[:, :n] = mat
    aug[:, n:] = field.eye(n)
    r, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return r[:, n:]
