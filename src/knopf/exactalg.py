"""Exact scalars and dense linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over Q (always in lowest terms, positive
denominator) and canonical representatives 0..p-1 (Python/int64) over F_p.
Matrices are numpy arrays: dtype=object holding Fractions over Q, dtype=int64
over F_p with reduction mod p after every operation.  The field split lives
in `FieldSpec` (scalars, dtypes, reduction); everything else, including the
one elimination loop in `rref`, is written once for both fields.  `matmul`
and `tensordot` are one integer product for both fields: each operand is
scaled once to integers (over Q by the lcm of its denominators), multiplied
in float64 BLAS while k * max|a| * max|b| < 2^53 for a contraction of length
k (exact: every partial sum is an integer below 2^53), on Python ints beyond,
then reduced mod p or divided back into Fractions.  There are no tolerances
anywhere; a pivot is the first nonzero entry, full stop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import InputError

# int64 safety: an elimination step forms one product of two residues
# (< p^2 < 2^40) per entry, and products and sums of products are bounded
# against _EXACT_BOUND or int64 before they run, with Python ints beyond.
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
        """Coerce an int/str/Fraction into a canonical scalar of this field."""
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


def _int_product(na: np.ndarray, ma: int, nb: np.ndarray, mb: int, k: int, mult) -> np.ndarray:
    """mult(na, nb) exactly for integers |na| <= ma, |nb| <= mb, k products per entry."""
    # ma and mb on their own too: an all-zero partner must not let an operand
    # beyond 2^53 into float64
    if max(k * ma * mb, ma, mb) < _EXACT_BOUND:
        return np.rint(mult(na.astype(np.float64), nb.astype(np.float64))).astype(np.int64)
    return np.asarray(mult(na.astype(object), nb.astype(object)))


def _from_integral(field: FieldSpec, n: np.ndarray, s: int) -> np.ndarray:
    """The field array n / s: reduced mod p, or lowest-terms Fractions over Q."""
    if field.p is not None:
        return (n % field.p).astype(np.int64, copy=False)
    # one Fraction object per distinct value
    values = n.reshape(-1).tolist()
    frac = {v: Fraction(v, s) for v in set(values)}
    return np.fromiter(map(frac.__getitem__, values), dtype=object,
                       count=len(values)).reshape(n.shape)


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


def kron(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major index pairing (i1*m2+i2, j1*n2+j2)."""
    return field.reduce(np.kron(a, b))


def outer(field: FieldSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return field.reduce(u[:, None] * v[None, :])


def is_zero(arr: np.ndarray) -> bool:
    return not np.count_nonzero(arr)


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def _first_nonzero(col) -> int | None:
    hits = np.flatnonzero(col)
    return int(hits[0]) if hits.size else None


def rref(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; pivots are the first nonzero in each column.

    Returns (R, pivot_columns).  Deterministic: no pivot choice beyond
    first-nonzero, so identical inputs give identical outputs.  Each pivot
    updates only the rows with a nonzero in its column, and in them only the
    columns where the pivot row is nonzero, so sparse systems stay cheap over
    both fields.
    """
    a = mat.copy()
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[:, c])
        below = nz[nz >= r]
        if not below.size:
            continue
        hit = int(below[0])
        if hit != r:
            a[[r, hit]] = a[[hit, r]]
        inv = field.inv(a[r, c])
        if inv != field.one:
            a[r] = field.reduce(a[r] * inv)
        # a[r, c] was zero when hit != r, so after the swap the other rows
        # with a nonzero in column c are exactly nz without hit
        rows = nz[nz != hit]
        if rows.size:
            cols = np.flatnonzero(a[r])
            block = np.ix_(rows, cols)
            a[block] = field.reduce(a[block] - np.outer(a[rows, c], a[r, cols]))
        pivots.append(c)
        r += 1
    return a, pivots


def rank(field: FieldSpec, mat: np.ndarray) -> int:
    return len(rref(field, mat)[1])


def kernel_basis(field: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """Basis of the right null space {v : mat v = 0}, shape (k, n).

    Vectors are ordered by ascending free column; each has a 1 in its own free
    column and 0 in every other free column (echelon-normal form), so equal
    kernels give byte-identical bases.
    """
    r, pivots = rref(field, mat)
    n = mat.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = field.zeros((len(free), n))
    for k, f in enumerate(free):
        basis[k, f] = field.one
        for row_idx, pc in enumerate(pivots):
            basis[k, pc] = field.neg(r[row_idx, f])
    return basis


def fixed_space(field: FieldSpec, coact: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Echelon basis of {x : sum_j coact[:, j, :] x_j = x (x) unit}, shape (k, n).

    coact[i, j, :] is the coefficient vector of the i-th basis vector in the
    coaction of the j-th one; the fixed vectors are the x with rho(x) = x (x)
    unit.  Invariants (unit = 1 of k[G]), twisted invariants and integrals
    (unit = the counit) are all this kernel.
    """
    n, _, ngamma = coact.shape
    # copy(), not ascontiguousarray(): for ngamma == 1 the transpose is already
    # contiguous, and subtracting in place would write into the caller's array
    a = coact.transpose(0, 2, 1).copy()
    idx = np.arange(n)
    # only the diagonal blocks change, so only they are reduced
    a[idx, :, idx] = field.reduce(a[idx, :, idx] - unit)
    return kernel_basis(field, a.reshape(n * ngamma, n))


def solve(field: FieldSpec, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """One solution of mat x = rhs with every free variable set to 0.

    Returns None when the system is inconsistent.
    """
    m, n = mat.shape
    aug = field.zeros((m, n + 1))
    aug[:, :n] = mat
    aug[:, n] = rhs
    r, pivots = rref(field, aug)
    if pivots and pivots[-1] == n:
        return None
    x = field.zeros(n)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, n]
    return x


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
