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
dense system.  They gather the rows of the coordinates they are given
(algebra generators, whose rows already cut out the fixed space when the
axioms hold) by array masks, add the unit's diagonal, and peel singleton
rows in vectorized passes: a row with one nonzero, at column c, makes e_c a
row of the unique RREF and takes column c out of the others (structured
Gaussian elimination, LaMacchia-Odlyzko).  Only the remaining core becomes
row dicts for the elimination.  Then every null vector is certified against
every coordinate, and the rows of a violated one are added until none is:
the answer is the kernel of all the rows for any input.  `rref`, `rank`,
`kernel_basis` and `invert` keep dense arrays as their boundary.  There are
no tolerances anywhere.

`SparseCoaction` is the one sparse array type: an (n, n, order) array by its
nonzeros in compressed columns (`ptr`, `keys`, `vals` numpy arrays).  Values
are int64 over F_p, and over Q while they are integers below 2^63 in
absolute value; every array product and sum is bounded before it runs
(`_times`, `_sum_by`), and runs on Python ints and Fractions in an object
array beyond, since int64 wraps around silently.  It holds the Sym^d coactions and the Hopf structure constants
alike; `transpose` is one lexsort of the permuted indices, `cols` a cached
dict view and `to_dense` the on-demand dense boundary.  Sparse contractions
in Python accumulate scalars in dicts keyed by index tuples (`_acc`, `_by`)
and compare two sides with `_mismatches` and `_first_mismatch`, which
returns the C-order-first differing index as a dense comparison would.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

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
        flat = np.asarray(data, dtype=object).reshape(-1)
        return np.fromiter(map(self.coerce, flat.tolist()), dtype=object,
                           count=flat.size).reshape(np.shape(data))

    def zeros(self, shape) -> np.ndarray:
        if self.p is not None:
            return np.zeros(shape, dtype=np.int64)
        arr = np.empty(shape, dtype=object)
        arr.fill(Fraction(0))
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


# Sparse arrays are compressed columns of numpy index arrays.  Values are
# int64 over F_p, and over Q while every value is an int below 2^63 in
# absolute value; an object array of Python ints and Fractions beyond.
_INT64 = 2**63


def _scalars(values: list) -> np.ndarray:
    """Field scalars as a 1-d array: int64 when each is an int of absolute
    value below 2^63, else object."""
    if not values or (set(map(type, values)) == {int}
                      and -_INT64 < min(values) and max(values) < _INT64):
        return np.array(values, dtype=np.int64)
    return np.fromiter(values, dtype=object, count=len(values))


def _abs_max(a: np.ndarray) -> int | None:
    """max |a| of an int64 array (0 when empty), None for object values."""
    if a.dtype == object:
        return None
    return int(np.abs(a).max()) if a.size else 0


def _times(p: int | None, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise (broadcast), exactly: int64 residues over F_p (each
    below 2^20), and over Q int64 while max|a| max|b| < 2^63, Python ints
    and Fractions beyond."""
    if p is not None:
        return a * b % p
    ma, mb = _abs_max(a), _abs_max(b)
    if ma is None or mb is None or ma * mb >= _INT64:
        return a.astype(object) * b.astype(object)
    return a * b


def _sum_by(p: int | None, keys: np.ndarray, vals: np.ndarray):
    """(the distinct keys ascending, the sum of the vals at each), the zero
    sums dropped.  Over Q the sums run in int64 while max|v| len(vals) <
    2^63, on Python ints and Fractions beyond."""
    if p is None and (m := _abs_max(vals)) is not None and m * len(vals) >= _INT64:
        vals = vals.astype(object)
    perm = keys.argsort()
    keys = keys[perm]
    edge = np.empty(len(keys), dtype=bool)
    edge[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    starts = edge.nonzero()[0]
    sums = np.add.reduceat(vals[perm], starts) if len(starts) else vals[:0]
    if p is not None:
        sums %= p
    nz = (sums != 0).nonzero()[0]
    return keys[starts[nz]], sums[nz]


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """The concatenated ranges [starts[k], starts[k] + counts[k]), and for
    each position the k it came from."""
    ends = counts.cumsum()
    owner = np.arange(len(counts)).repeat(counts)
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts)[owner], owner


class SparseCoaction:
    """An array (n, n, order) by its nonzero entries, in compressed columns.

    Column j holds the keys keys[ptr[j]:ptr[j+1]], ascending, and the values
    at the same positions of vals: key i * order + g is entry [i, j, g], a
    field scalar (see `_scalars` for the dtype).  For a coaction, order is
    |G| and the key is the row of the fixed-space system, so a column of the
    coaction is a column of it; Hopf structure constants are held the same
    way (order n, or 1 for the antipode matrix).  `cols` is a cached view of
    the columns as dicts {key: Python scalar}.
    """

    def __init__(self, ptr: np.ndarray, keys: np.ndarray, vals: np.ndarray, order: int,
                 col_of: np.ndarray | None = None):
        self.ptr, self.keys, self.vals, self.order = ptr, keys, vals, order
        self._col_of, self._cols = col_of, None

    @property
    def dim(self) -> int:
        return len(self.ptr) - 1

    @property
    def nbytes(self) -> int:
        return self.ptr.nbytes + self.keys.nbytes + self.vals.nbytes

    @property
    def col_of(self) -> np.ndarray:
        """The column of every stored entry."""
        if self._col_of is None:
            self._col_of = np.arange(self.dim).repeat(self.ptr[1:] - self.ptr[:-1])
        return self._col_of

    @property
    def cols(self) -> list[dict]:
        """The columns as dicts {key: Python scalar}."""
        if self._cols is None:
            keys, vals, ptr = self.keys.tolist(), self.vals.tolist(), self.ptr.tolist()
            self._cols = [dict(zip(keys[a:b], vals[a:b])) for a, b in zip(ptr, ptr[1:])]
        return self._cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseCoaction):
            return NotImplemented
        return (self.order == other.order and np.array_equal(self.ptr, other.ptr)
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.vals, other.vals))

    __hash__ = None

    def entries(self):
        """(i, j, g, value) of every nonzero entry, column by column."""
        i, g = np.divmod(self.keys, self.order)
        return zip(i.tolist(), self.col_of.tolist(), g.tolist(), self.vals.tolist())

    @classmethod
    def from_coo(cls, i, j, g, vals, dim: int, order: int) -> "SparseCoaction":
        """From index arrays of the nonzeros, without repeats, and their
        values (see `_scalars`): one lexsort into columns."""
        keys = i * order + g
        perm = np.lexsort((keys, j))
        j = j[perm]
        return cls(j.searchsorted(np.arange(dim + 1)), keys[perm], vals[perm], order, j)

    @classmethod
    def from_entries(cls, entries, dim: int, order: int) -> "SparseCoaction":
        """From (i, j, g, value) with field scalars as values (ints or
        Fractions over Q, residues over F_p); a later entry at an index
        replaces an earlier one, zeros are dropped and integral Fractions
        become ints."""
        seen = {(i, j, g): v for i, j, g, v in entries}
        vals = _scalars([v.numerator if v.denominator == 1 else v for v in seen.values()])
        idx = np.fromiter(itertools.chain.from_iterable(seen), dtype=np.int64,
                          count=3 * len(seen)).reshape(-1, 3)
        nz = vals.nonzero()[0]
        i, j, g = idx[nz].T
        return cls.from_coo(i, j, g, vals[nz], dim, order)

    @classmethod
    def from_dense(cls, coact: np.ndarray) -> "SparseCoaction":
        return cls.from_entries(_nonzeros(coact), coact.shape[1], coact.shape[2])

    def to_dense(self, field: FieldSpec) -> np.ndarray:
        """The dense (n, n, order) field array: an on-demand boundary."""
        out = field.zeros((self.dim, self.dim, self.order))
        i, g = np.divmod(self.keys, self.order)
        out[i, self.col_of, g] = np.fromiter(map(field.coerce, self.vals.tolist()),
                                             dtype=out.dtype, count=len(self.vals))
        return out

    def transpose(self, axes) -> "SparseCoaction":
        """The array with its axes permuted as `np.transpose(array, axes)`;
        an index permutation of the nonzeros, without arithmetic."""
        i, g = np.divmod(self.keys, self.order)
        idx = (i, self.col_of, g)
        shape = (self.dim, self.dim, self.order)
        return SparseCoaction.from_coo(idx[axes[0]], idx[axes[1]], idx[axes[2]], self.vals,
                                       shape[axes[1]], shape[axes[2]])


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
    return _null_basis(field, _null_vectors(_back_substitute(field, _echelon(field, rows)), n), n)


def _null_vectors(piv: dict[int, dict], n: int, zero: np.ndarray | None = None):
    """The echelon-normal null vectors of the RREF rows `piv`, one per free
    column f ascending with x_f = 1, by their nonzeros: (count, vector,
    index, value), the last three as parallel lists.  The columns in the
    mask `zero` are pivots e_c that `piv` leaves out."""
    free = np.ones(n, dtype=bool) if zero is None else ~zero
    free[list(piv)] = False
    index = free.nonzero()[0].tolist()
    at = {f: k for k, f in enumerate(index)}
    vector, value = list(range(len(index))), [1] * len(index)
    for c, row in piv.items():
        for f, v in row.items():
            if f != c:
                vector.append(at[f])
                index.append(c)
                value.append(-v)
    return len(at), vector, index, value


def _null_basis(field: FieldSpec, nulls, n: int) -> np.ndarray:
    """The `_null_vectors` as a dense (count, n) basis."""
    count, vector, index, value = nulls
    basis = field.zeros((count, n))
    basis[vector, index] = np.fromiter(map(field.coerce, value), dtype=basis.dtype,
                                       count=len(value))
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


def _unit_terms(unit: np.ndarray):
    """(g, -unit[g]) at the nonzeros of the unit, as arrays."""
    values = unit.tolist()
    g = [k for k, v in enumerate(values) if v]
    return (np.array(g, dtype=np.int64),
            _scalars([-(v.numerator if v.denominator == 1 else v) for v in map(values.__getitem__, g)]))


def _peeled_system(field: FieldSpec, coact: SparseCoaction, unit_terms, coords):
    """The rows (i, g), g in coords, of the system sum_j coact[i, j, g] x_j -
    x_i unit[g] = 0, singleton rows peeled: (mask of the peeled columns, row
    dicts of the rest, the core).

    A row with one nonzero, at column c, says x_c = 0: e_c is a row of the
    unique RREF, and column c leaves every other row, which may leave new
    singletons behind.  Each pass peels all current singletons at once; the
    rows left with two or more entries are the core, on the other columns.
    """
    order, n = coact.order, coact.dim
    want = np.zeros(order, dtype=bool)
    want[list(coords)] = True
    keep = want[coact.keys % order].nonzero()[0]
    g, neg = unit_terms
    at = want[g].nonzero()[0]
    # entry (row, column) as row * n + column; the unit's diagonal is
    # -unit[g] at row j * order + g, column j
    key = np.concatenate((coact.keys[keep] * n + coact.col_of[keep],
                          (np.arange(n)[:, None] * (order * n + 1) + g[at] * n).ravel()))
    vals = np.concatenate((coact.vals[keep], neg[at][None, :].repeat(n, 0).ravel()))
    key, vals = _sum_by(field.p, key, vals)
    rows, cols = np.divmod(key, n)
    peeled = np.zeros(n, dtype=bool)
    while True:
        # edge[k]: a row starts at entry k, or k is the end
        edge = np.empty(len(rows) + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(rows[1:], rows[:-1], out=edge[1:-1])
        single = (edge[:-1] & edge[1:]).nonzero()[0]
        if not len(single):
            break
        peeled[cols[single]] = True
        live = (~peeled[cols]).nonzero()[0]
        cascade = len(live) < len(rows) - len(single)
        rows, cols, vals = rows[live], cols[live], vals[live]
        if not cascade:
            # only the singletons went: no other row lost an entry
            edge = edge[np.append(live, len(edge) - 1)]
            break
    starts = edge.nonzero()[0].tolist()
    cols, vals = cols.tolist(), vals.tolist()
    return peeled, [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(starts, starts[1:])]


def _violated(field: FieldSpec, coact: SparseCoaction, unit_terms, nulls) -> set[int]:
    """The coordinates g at which some of the `_null_vectors` x has
    sum_j coact[:, j, g] x_j != x unit[g], from every vector at once: the
    columns of the vectors' supports, scaled and summed by (vector, key)."""
    p, order, n = field.p, coact.order, coact.dim
    _, vector, index, value = nulls
    if not value:
        return set()
    x = _scalars(value)
    if x.dtype == object:
        # both sides are linear in x: its numerators will do, which keeps
        # integral coactions on integers
        den: dict = {}
        for k, v in zip(vector, value):
            den[k] = math.lcm(den.get(k, 1), v.denominator)
        x = _scalars([v.numerator * (den[k] // v.denominator) for k, v in zip(vector, value)])
    g, neg = unit_terms
    index = np.array(index, dtype=np.int64)
    base = np.array(vector, dtype=np.int64) * (n * order)
    lo = coact.ptr[index]
    idx, at = _ranges(lo, coact.ptr[1:][index] - lo)
    # key (vector, i * order + g): the coaction's columns, and x_i unit[g]
    keys = np.concatenate((base[at] + coact.keys[idx],
                           ((base + index * order)[:, None] + g).ravel()))
    bad, _ = _sum_by(p, keys, np.concatenate((_times(p, coact.vals[idx], x[at]),
                                              _times(p, x[:, None], neg).ravel())))
    return set((bad % order).tolist())


def _fixed_vectors(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray, first):
    """The `_null_vectors` of the fixed-space system, from the rows of the
    coordinates in `first`, certified against every coordinate.

    The peeled columns are kept as a mask, and only the core is eliminated.
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
    terms = _unit_terms(unit)
    zero, core = _peeled_system(field, coact, terms, first)
    piv = _echelon(field, core)
    while True:
        nulls = _null_vectors(_back_substitute(field, piv), coact.dim, zero)
        bad = _violated(field, coact, terms, nulls)
        if not bad:
            return nulls
        # the columns in zero are zero: they leave the new rows, and the
        # columns peeled now, which may sit in rows of piv, join it as rows
        peeled, core = _peeled_system(field, coact, terms, (min(bad),))
        rows = [{c: 1} for c in (peeled & ~zero).nonzero()[0].tolist()]
        rows += [{k: v for k, v in row.items() if not zero[k]} for row in core]
        _echelon(field, rows, piv)


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
    (`_fixed_vectors`), so inputs that break those axioms get the same
    answer as the full system, only later.
    """
    return _null_basis(field, _fixed_vectors(field, coact, unit, first), coact.dim)


def fixed_dim(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray, first=()) -> int:
    """len(fixed_space(field, coact, unit, first)), without the dense basis."""
    return _fixed_vectors(field, coact, unit, first)[0]


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
