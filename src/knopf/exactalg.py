"""Exact scalars and linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over Q (always in lowest terms, positive
denominator) and canonical representatives 0..p-1 (Python/int64) over F_p.
Dense matrices are numpy arrays: dtype=object holding Fractions over Q,
dtype=int64 over F_p with reduction mod p after every operation.  The field
split lives in `FieldSpec` (scalars, dtypes, reduction); everything else is
written once for both fields.  Computed values have one encoding, that of
`SparseCoaction.vals` below: no caller scales Q values to integers.

Elimination is sparse and also written once: rows are dicts {column: nonzero
scalar}, reduced shortest row first and back-substituted to the unique RREF.
`fixed_space` and `fixed_dim` take a `SparseCoaction` and never build a
dense system.  They gather the rows of the coordinates they are given
(algebra generators, whose rows already cut out the fixed space when the
axioms hold) by array masks, add the unit's diagonal, and reduce them in
numpy arrays by structured Gaussian elimination (LaMacchia-Odlyzko,
Pomerance-Smith): singleton rows are peeled and doubleton rows merged
until neither is left, each column a multiple of the largest column of its
component.  Only a residual core of longer rows becomes row dicts for the
elimination.  Then every null vector is certified against every
coordinate, and the reduction is redone with the rows of a violated one
until none is: the answer is the kernel of all the rows for any input.
`rank` keeps a dense array as its boundary.  There are no tolerances
anywhere.

`SparseCoaction` is the one sparse array type: an (n, n, order) array by its
nonzeros in compressed columns (`ptr`, `keys`, `vals` numpy arrays), holding
comodules, the Sym^d coactions and the Hopf structure constants alike.
Values are int64 over F_p, and over Q while they are integers below 2^63 in
absolute value; every array product and sum is bounded before it runs, and
runs on Python ints and Fractions in an object array beyond, since int64
wraps around silently.  `coo` gives its index arrays, `transpose` is one
lexsort of the permuted indices and `to_dense` the on-demand dense boundary.

Every sparse product is one `contract`, the COO einsum: operands are index
and value arrays, joined on a shared index by sort and `searchsorted`, and
the products summed by output key.  Its one check is `TERM_BUDGET`: the
pairs are counted before any is formed, and a join over the budget is
refused by name.  `first_differences` compares two sides of an equation by
summing one against the other negated: the least nonzero key is the
C-order-first index where they differ, as a dense comparison finds it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import InconsistencyError, InputError, UndecidedError

# int64 safety: dense F_p array arithmetic forms one product of two residues
# (< p^2 < 2^40) per entry, and sparse products and sums are bounded against
# 2^63 before they run (`_times`, `_sum_by`), with Python ints beyond.
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
            if not isinstance(p, int) or p > _MAX_PRIME or not _is_prime(p):
                raise InputError(f"modulus must be a prime < 2^20, got {p!r:.40}")
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
            raise InputError(f"cannot coerce {x!r:.40} into {self!r}")
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational literal {x!r:.40}") from exc
        if self.p is not None:
            if isinstance(x, (int, np.integer)):
                return int(x) % self.p
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise InputError(f"{x} has no image in F_{self.p}")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            raise InputError(f"cannot coerce {x!r:.40} into F_{self.p}")
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x))
        if isinstance(x, Fraction):
            return x
        raise InputError(f"cannot coerce {x!r:.40} into Q")

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


def is_zero(arr: np.ndarray) -> bool:
    return not np.count_nonzero(arr)


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _first_nonzero(col) -> int | None:
    hits = np.flatnonzero(col)
    return int(hits[0]) if hits.size else None


# Sparse arrays are numpy index arrays and values.  Values are int64 over
# F_p, and over Q while every value is an int below 2^63 in absolute value;
# an object array of Python ints and Fractions beyond.
_INT64 = 2**63


def _scalars(values: list) -> np.ndarray:
    """Field scalars as a 1-d array, an integral Fraction held as an int:
    int64 when each is then an int of absolute value below 2^63, else
    object."""
    kinds = set(map(type, values))
    if kinds - {int}:
        values = [v.numerator if v.denominator == 1 else v for v in values]
        kinds = set(map(type, values))
    if kinds <= {int} and (not values or -_INT64 < min(values) and max(values) < _INT64):
        return np.array(values, dtype=np.int64)
    return np.fromiter(values, dtype=object, count=len(values))


def _vector(x: np.ndarray):
    """(flat index, value) arrays of the nonzeros of a field array, integral
    rationals as ints (see `_scalars`)."""
    x = x.ravel()
    idx = x.nonzero()[0]
    if x.dtype != object:
        return idx, x[idx]
    return idx, _scalars(x[idx].tolist())


def _dense(field: FieldSpec, keys: np.ndarray, vals: np.ndarray, shape) -> np.ndarray:
    """The field array of `shape` holding vals at the C-order flat keys."""
    out = field.zeros(math.prod(shape))
    # residues over F_p, and Fractions over Q
    out[keys] = vals if field.p is not None else np.fromiter(
        map(field.coerce, vals.tolist()), dtype=object, count=len(vals))
    return out.reshape(shape)


def _abs_max(a: np.ndarray) -> int | None:
    """max |a| of an int64 array (0 when empty), None for object values."""
    if a.dtype == object:
        return None
    return int(np.maximum.reduce(np.abs(a), axis=None, initial=0))


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
    2^63, on Python ints and Fractions beyond; over F_p the vals may be
    unreduced while sum |v| < 2^63, and the sums are reduced."""
    if p is None and (m := _abs_max(vals)) is not None and m * len(vals) >= _INT64:
        vals = vals.astype(object)
    return _group_sums(p, keys, vals)


def _group_sums(p: int | None, keys: np.ndarray, vals: np.ndarray, kind: str = "stable"):
    """`_sum_by` for vals whose absolute values are known to sum within their
    dtype, the keys sorted by `kind`: timsort by default, which merges the
    sorted runs most keys come in.  int64 sums are differences of prefix sums."""
    perm = keys.argsort(kind=kind)
    keys, vals = keys[perm], vals[perm]
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    if vals.dtype == object:
        sums = np.add.reduceat(vals, bounds[:-1]) if len(vals) else vals
    else:
        sums = vals.cumsum()[bounds[1:] - 1]
        sums[1:] -= sums[:-1]
    if p is not None:
        sums %= p
    nz = sums.nonzero()[0]
    return keys[bounds[nz]], sums[nz]


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """The concatenated ranges [starts[k], starts[k] + counts[k]), and for
    each position the k it came from."""
    ends = counts.cumsum()
    owner = np.arange(len(counts)).repeat(counts)
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts)[owner], owner


# Every sparse product is one join of two operands on a shared index.  A join
# that would form more pairs than TERM_BUDGET is refused before it forms any;
# the pairs are formed and summed _BLOCK at a time, so a contraction holds
# about _BLOCK terms and its sums at once.
TERM_BUDGET = 4_000_000
_BLOCK = 1 << 12


def contract(p: int | None, pairs, what: str = "a contraction"):
    """sum a.vals[s] * b.vals[t] over s, t with a.on[s] == b.on[t], at the
    output key a.key[s] + b.key[t], for all pairs of operands (a, b) in
    `pairs` at once: (the keys ascending, the nonzero sums), as `_sum_by`.

    This is the COO einsum (Kjolstad et al., "The tensor algebra compiler",
    2017): an operand is three parallel arrays (on, key, vals), the index it
    is joined on, its entries' share of the output key, and their values;
    the output of a contraction, keyed for the next, is an operand of it.
    The shorter side is sorted and the longer one searched in it; the pairs
    are counted first, and more than TERM_BUDGET are refused by name, as
    "`what` needs N sparse terms".  Each pair of operands is joined on its
    own range of indices.
    """
    a, b = pairs[0]
    if len(pairs) > 1:
        # pair k is joined at k m + on, m above every index joined on
        a_on, a_key, a_vals, b_on, b_key, b_vals = map(
            np.concatenate, zip(*(a + b for a, b in pairs)))
        shift = np.arange(len(pairs)) * (1 + np.maximum.reduce(
            np.concatenate((a_on, b_on)), initial=0))
        a_on += shift.repeat([len(a[0]) for a, _ in pairs])
        b_on += shift.repeat([len(b[0]) for _, b in pairs])
        a, b = (a_on, a_key, a_vals), (b_on, b_key, b_vals)
        del a_on, a_key, a_vals, b_on, b_key, b_vals
    if len(a[0]) < len(b[0]):
        a, b = b, a
    perm = b[0].argsort()
    on = b[0][perm]
    lo = on.searchsorted(a[0])
    count = on.searchsorted(a[0], "right") - lo
    ends = count.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total > TERM_BUDGET:
        raise UndecidedError(
            f"{what} needs {total} sparse terms, over hopf.TERM_BUDGET = {TERM_BUDGET}")
    if not total:
        return np.zeros(0, dtype=np.int64), a[2][:0]
    if total > _BLOCK:
        # blocks take the longer side in the order of its keys: when it holds
        # the leading digits of the output, they come a slice at a time, and
        # the two sides of a check meet in one block
        order = a[1].argsort()
        a = (a[0][order], a[1][order], a[2][order])
        lo, count = lo[order], count[order]
        ends = count.cumsum()
    a_vals, b_vals = a[2], b[2]
    if p is None:
        # every product and sum below is at most max|a| max|b| total: int64
        # below 2^63, Python ints and Fractions beyond
        ma, mb = _abs_max(a_vals), _abs_max(b_vals)
        if ma is None or mb is None or ma * mb * total >= _INT64:
            a_vals, b_vals = a_vals.astype(object), b_vals.astype(object)
    # entry s of a meets the sorted positions lo[s] + [0, count[s]) of b, its
    # pairs numbered from ends[s] - count[s]; a block takes the next entries
    # whose pairs fit in _BLOCK, at least one, and the sums of the blocks are
    # merged whenever they have doubled
    shift = lo - ends + count
    sums, size, bound, start = [], 0, _BLOCK, 0
    while start < len(ends):
        first = ends[start] - count[start]
        stop = len(ends) if total - first <= _BLOCK else max(
            start + 1, int(ends.searchsorted(first + _BLOCK, "right")))
        reps = count[start:stop]
        s = np.arange(start, stop).repeat(reps)
        t = perm[np.arange(first, ends[stop - 1]) + shift[start:stop].repeat(reps)]
        vals = a_vals[s] * b_vals[t]
        if p is not None:
            vals %= p
        # a block's pairs come in no order of their keys: introsort
        sums.append(_group_sums(p, a[1][s] + b[1][t], vals, "quicksort"))
        size += len(sums[-1][0])
        if size > bound or stop == len(ends) and len(sums) > 1:
            sums = [_group_sums(p, np.concatenate([k for k, _ in sums]),
                                np.concatenate([v for _, v in sums]))]
            size = len(sums[0][0])
            bound = max(bound, 2 * size)
        start = stop
    return sums[0]


def key_bases(shapes) -> list[int]:
    """Where each array of `shapes` starts when they are laid end to end in
    one range of C-order keys, and where the last ends; refused beyond int64."""
    edges = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    if edges[-1] >= _INT64:
        raise UndecidedError(f"the checks need {edges[-1]} keys, too many to index")
    return edges


def first_differences(p: int | None, shapes, terms) -> list[tuple | None]:
    """For arrays of the given shapes laid end to end by `key_bases`, the
    C-order-first index of each where the terms (keys, vals) sum to nonzero,
    or None.

    With one side of an equation negated, that is the first index where the
    two sides differ.  All the terms are summed in one `_sum_by`, whose keys
    come out ascending: the first in each array's range is its witness.
    """
    edges = key_bases(shapes)
    bad, _ = _sum_by(p, np.concatenate([k for k, _ in terms]),
                     np.concatenate([v for _, v in terms]))
    at = bad.searchsorted(edges).tolist()
    return [tuple(int(x) for x in np.unravel_index(int(bad[lo]) - base, shape))
            if lo < hi else None for shape, base, lo, hi in zip(shapes, edges, at, at[1:])]


def is_outer(p: int | None, terms, n: int, x, y) -> bool:
    """Whether summed terms (keys i n + j, vals) are the outer product of
    the vectors x and y, given by their nonzeros (index, value): no join,
    as the nonzeros of x (x) y are all the pairs of theirs."""
    keys, vals = terms
    if len(keys) != len(x[0]) * len(y[0]):
        return False
    dx, dy = np.zeros(n, dtype=x[1].dtype), np.zeros(n, dtype=y[1].dtype)
    dx[x[0]], dy[y[0]] = x[1], y[1]
    return bool(np.array_equal(vals, _times(p, dx[keys // n], dy[keys % n])))


def _row_dicts(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list[dict]:
    """Entries, at distinct (row, column), as the elimination's row dicts
    {column: value}, one per row."""
    out: dict = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out.setdefault(r, {})[c] = v
    return list(out.values())


class SparseCoaction:
    """An array (n, n, order) by its nonzero entries, in compressed columns.

    Column j holds the keys keys[ptr[j]:ptr[j+1]], ascending, and the values
    at the same positions of vals: key i * order + g is entry [i, j, g], a
    field scalar (see `_scalars` for the dtype).  For a coaction, order is
    |G| and the key is the row of the fixed-space system, so a column of the
    coaction is a column of it.  A comodule, its Sym^d tower and the Hopf
    structure constants (order n, or 1 for the antipode matrix) are held
    this way, dense input converted by `held`.  `coo` gives the index arrays
    of the entries for `contract`; `gathered` keeps the fixed-space rows of
    the last kernel for the next one, and None drops them.
    """

    def __init__(self, ptr: np.ndarray, keys: np.ndarray, vals: np.ndarray, order: int,
                 col_of: np.ndarray | None = None):
        self.ptr, self.keys, self.vals, self.order = ptr, keys, vals, order
        self._col_of, self._coo, self.gathered = col_of, None, None

    @property
    def dim(self) -> int:
        return len(self.ptr) - 1

    @property
    def nbytes(self) -> int:
        return self.ptr.nbytes + self.keys.nbytes + self.vals.nbytes

    @property
    def col_of(self) -> np.ndarray:
        """The column of every stored entry: as given, or `ptr` expanded."""
        if self._col_of is None:
            return np.arange(self.dim).repeat(self.ptr[1:] - self.ptr[:-1])
        return self._col_of

    def coo(self):
        """The index arrays (i, j, g) of the stored entries, parallel to vals."""
        if self._coo is None:
            i, g = np.divmod(self.keys, self.order)
            self._coo = i, self.col_of, g
        return self._coo

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseCoaction):
            return NotImplemented
        return (self.order == other.order and np.array_equal(self.ptr, other.ptr)
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.vals, other.vals))

    __hash__ = None

    def entries(self):
        """(i, j, g, value) of every nonzero entry, column by column."""
        return zip(*(x.tolist() for x in self.coo()), self.vals.tolist())

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
        vals = _scalars(list(seen.values()))
        idx = np.fromiter(itertools.chain.from_iterable(seen), dtype=np.int64,
                          count=3 * len(seen)).reshape(-1, 3)
        nz = vals.nonzero()[0]
        i, j, g = idx[nz].T
        return cls.from_coo(i, j, g, vals[nz], dim, order)

    @classmethod
    def from_dense(cls, coact: np.ndarray) -> "SparseCoaction":
        idx, vals = _vector(coact)
        return cls.from_coo(*np.unravel_index(idx, coact.shape), vals, *coact.shape[1:])

    def to_dense(self, field: FieldSpec) -> np.ndarray:
        """The dense (n, n, order) field array: an on-demand boundary."""
        i, j, g = self.coo()
        return _dense(field, (i * self.dim + j) * self.order + g, self.vals,
                      (self.dim, self.dim, self.order))

    def transpose(self, axes) -> "SparseCoaction":
        """The array with its axes permuted as `np.transpose(array, axes)`;
        an index permutation of the nonzeros, without arithmetic."""
        idx = self.coo()
        shape = (self.dim, self.dim, self.order)
        return SparseCoaction.from_coo(idx[axes[0]], idx[axes[1]], idx[axes[2]], self.vals,
                                       shape[axes[1]], shape[axes[2]])


def held(field: FieldSpec, t, shape) -> SparseCoaction | None:
    """t as a SparseCoaction of shape (n, n, order), a matrix (n, n) as order
    1, where a None in `shape` matches any size; a dense array is converted.
    None when the shape does not match."""
    if not isinstance(t, SparseCoaction):
        arr = field.asarray(t)
        if arr.ndim != len(shape) or arr.shape[0] != arr.shape[1]:
            return None
        t = SparseCoaction.from_dense(arr if arr.ndim == 3 else arr[..., None])
    want = shape if len(shape) == 3 else (*shape, 1)
    return t if all(w in (None, h) for w, h in zip(want, (t.dim, t.dim, t.order))) else None


# The elimination works on rows {column: nonzero scalar}: residues 0..p-1 over
# F_p, and ints or Fractions over Q.  An integral rational enters as an int,
# because Python int arithmetic is many times faster than Fraction's.


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
    idx, vals = _vector(mat)
    return _row_dicts(*np.divmod(idx, mat.shape[1]), vals)


def _kernel(field: FieldSpec, rows, n: int) -> np.ndarray:
    """Echelon-normal basis (k, n) of the null space of `rows` (consumed)."""
    piv = _back_substitute(field, _echelon(field, rows))
    ones = np.ones(n, dtype=np.int64)
    return _null_basis(field, _null_vectors(field.p, piv, ones == 1, np.arange(n), ones), n)


def _null_vectors(p: int | None, piv: dict[int, dict], live: np.ndarray, root: np.ndarray,
                  weight: np.ndarray):
    """The echelon-normal null vectors of the system x_u = weight[u] x_root[u]
    and the RREF rows `piv` on the roots in the mask `live` (the other roots
    are zero), one per live root f that is no pivot, ascending, with x_f = 1,
    by their nonzeros: (count, vector, index, value) as parallel arrays."""
    free = live.copy()
    free[list(piv)] = False
    at = free.cumsum() - 1
    index = free[root].nonzero()[0]
    parts = [(at[root[index]], index, weight[index])]
    for c, row in piv.items():
        # x_c = -v x_f for the entries v at f of the pivot row, on c's component
        on = (root == c).nonzero()[0]
        parts += [(at[f].repeat(len(on)), on, _times(p, weight[on], _scalars(
            [-v if p is None else -v % p]))) for f, v in row.items() if f != c]
    return int(free.sum()), *map(np.concatenate, zip(*parts))


def _null_basis(field: FieldSpec, nulls, n: int) -> np.ndarray:
    """The `_null_vectors` as a dense (count, n) basis."""
    count, vector, index, value = nulls
    return _dense(field, vector * n + index, value, (count, n))


def rank(field: FieldSpec, mat: np.ndarray) -> int:
    return len(_echelon(field, _dense_rows(mat)))


def _unit_terms(unit: np.ndarray):
    """(g, -unit[g]) at the nonzeros of the unit, as arrays."""
    g, vals = _vector(unit)
    return g, -vals


def _quotients(p: int | None, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise for den nonzero: over F_p den^(p-2) by square and
    multiply (two residues multiply below 2^40); over Q int64 while every den
    is +-1, Python ints and Fractions beyond."""
    if p is not None:
        inv, e = 1, p - 2
        while e:
            if e & 1:
                inv = inv * den % p
            den, e = den * den % p, e >> 1
        return num * inv % p
    if den.dtype != object and (np.abs(den) == 1).all():
        return num * den
    return _scalars(list(map(Fraction, num.tolist(), den.tolist())))


def _reduced_system(field: FieldSpec, coact: SparseCoaction, unit_terms, coords):
    """The rows (i, g), g in coords, of the system sum_j coact[i, j, g] x_j -
    x_i unit[g] = 0, by structured Gaussian elimination: (mask of the zero
    columns, root, weight, row dicts of the residual core on the roots).

    Singleton rows are peeled and doubleton rows merged, in vectorized
    passes, until neither is left, found by counting the entries of each
    row: only doubleton rows are sorted.  A row with one nonzero, at c,
    makes e_c a row of the unique RREF.  A row c_a x_a + c_b x_b, a < b, says
    x_a = -(c_b / c_a) x_b: each such a is hooked onto its largest b, and
    pointer jumping composes the hooks into x_u = weight[u] x_root[u],
    root[u] the largest column of u's component, its free column in the
    unique RREF.  The rows are rewritten onto the roots and re-summed: merged
    rows cancel, and a cycle that closes inconsistently leaves a singleton
    on its root.
    """
    p, order, n = field.p, coact.order, coact.dim
    if (hit := coact.gathered) is None or hit[0] != coords:
        # the entries at coords as (row i * order + g, column j, value): off
        # the diagonal i = j, and on it, rows ascending
        col, want = coact.col_of, np.zeros(order, dtype=bool)
        want[list(coords)] = True
        i = coact.keys // order
        wanted, diag = want[coact.keys - i * order], i == col
        on, off = (wanted & diag).nonzero()[0], (wanted & ~diag).nonzero()[0]
        hit = coact.gathered = (coords, want, coact.keys[off], col[off], coact.vals[off],
                                coact.keys[on], coact.vals[on])
    want, rows, cols, vals, diag, dvals = hit[1:]
    g, neg = unit_terms
    at = want[g].nonzero()[0]
    # the unit's diagonal, -unit[g] at row j * order + g, column j, folded
    # into the coaction's entries there: two ascending runs of rows, merged
    on = (np.arange(n)[:, None] * order + g[at]).ravel(), neg[at][None, :].repeat(n, 0).ravel()
    diag, dvals = _sum_by(p, np.concatenate((diag, on[0])), np.concatenate((dvals, on[1])))
    rows, cols, vals = map(np.concatenate, ((rows, diag), (cols, diag // order), (vals, dvals)))
    zero = np.zeros(n, dtype=bool)
    root, weight = np.arange(n), np.ones(n, dtype=np.int64)
    while True:
        count = np.bincount(rows)[rows]
        single = (count == 1).nonzero()[0]
        if len(single):
            zero[cols[single]] = True
            live = (~zero[cols]).nonzero()[0]
            rows, cols, vals = rows[live], cols[live], vals[live]
            continue
        # the doubleton rows alone, in row order: row k's a < b at two[2k : 2k + 2]
        two = (count == 2).nonzero()[0]
        if not len(two):
            break
        two = two[(rows[two] * n + cols[two]).argsort()]
        a, b = two[::2], two[1::2]
        # the rows of each a, ordered by b: the last one is its hook
        by = (cols[a] * n + cols[b]).argsort()
        last = cols[a[by]]
        by = by[np.concatenate((last[1:] != last[:-1], [True]))]
        a, b = a[by], b[by]
        hook = _quotients(p, -vals[b], vals[a])
        if hook.dtype == object:
            weight = weight.astype(object)
        root[cols[a]], weight[cols[a]] = cols[b], hook
        while True:
            up = root[root]
            if (up == root).all():
                break
            # x_u = w_u x_r and x_r = w_r x_up give x_u = w_u w_r x_up
            weight, root = _times(p, weight, weight[root]), up
        key, vals = _sum_by(p, rows * n + root[cols], _times(p, vals, weight[cols]))
        rows, cols = np.divmod(key, n)
    return zero[root], root, weight, _row_dicts(rows, cols, vals)


def _violated(field: FieldSpec, coact: SparseCoaction, unit_terms, nulls) -> set[int]:
    """The coordinates g at which some of the `_null_vectors` x has
    sum_j coact[:, j, g] x_j != x unit[g], from every vector at once: the
    columns of the vectors' supports, scaled and summed by (vector, key)."""
    p, order, n = field.p, coact.order, coact.dim
    _, vector, index, x = nulls
    if not len(x):
        return set()
    g, neg = unit_terms
    base = vector * (n * order)
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

    The rows are reduced by `_reduced_system`, and only its residual core
    is eliminated, on the roots.  While a null vector violates some
    coordinate, the reduction is redone with the rows of the least violated
    one added.  A coordinate whose rows are in can no longer be violated, so
    at most `order` coordinates are added, and the last pass has the null
    space of all the rows, whose RREF is unique, whatever `first` was: a
    good seed only makes it end at once.
    """
    if np.shape(unit) != (coact.order,):
        raise InputError(
            f"the unit must have shape ({coact.order},), got {np.shape(unit)}"
        )
    terms = _unit_terms(unit)
    coords = list(first)
    for _ in range(coact.order + 1):
        zero, root, weight, core = _reduced_system(field, coact, terms, tuple(coords))
        piv = _back_substitute(field, _echelon(field, core))
        live = ~zero & (root == np.arange(coact.dim))
        nulls = _null_vectors(field.p, piv, live, root, weight)
        bad = _violated(field, coact, terms, nulls)
        if not bad:
            return nulls
        coords.append(min(bad))
    raise InconsistencyError("a coordinate whose rows are in stays violated")


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

    `_reduced_system` makes every column a multiple of a root, the largest
    column of its component, which is a free column of the unique RREF: so
    the basis read off the roots is the echelon-normal one, whatever the
    order of the rows.
    """
    return _null_basis(field, _fixed_vectors(field, coact, unit, first), coact.dim)


def fixed_dim(field: FieldSpec, coact: SparseCoaction, unit: np.ndarray, first=()) -> int:
    """len(fixed_space(field, coact, unit, first)), without the dense basis."""
    return _fixed_vectors(field, coact, unit, first)[0]
