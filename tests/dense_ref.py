"""Dense exact products and eliminations, as references for the tests.

knopf computes on sparse terms; these dense forms state the same results the
textbook way, on numpy arrays of field scalars.  Products scale each operand
to integers once (over Q by the lcm of its denominators, `_integral`) and
multiply them with `_int_product`: in float64 BLAS while every partial sum
is an integer below 2^53, on Python ints beyond.  The eliminations are
`exactalg._echelon` and `_back_substitute` with a dense array as the
boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from knopf import exactalg as xa
from knopf.exactalg import FieldSpec

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


def rref(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and its pivot columns.

    Returns (R, pivot_columns), R padded with zero rows to the shape of mat.
    The RREF is unique, so identical inputs give identical outputs.
    """
    piv = xa._back_substitute(field, xa._echelon(field, xa._dense_rows(mat)))
    pivots = sorted(piv)
    r = field.zeros(mat.shape)
    for i, c in enumerate(pivots):
        for k, v in piv[c].items():
            r[i, k] = field.coerce(v)
    return r, pivots


def kernel_basis(field: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """Basis of the right null space {v : mat v = 0}, shape (k, n).

    Vectors are ordered by ascending free column; each has a 1 in its own free
    column and 0 in every other free column (echelon-normal form), so equal
    kernels give byte-identical bases.
    """
    return xa._kernel(field, xa._dense_rows(mat), mat.shape[1])


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


def trace_matrix(ring, d: int) -> np.ndarray:
    """The matrix of Tr on S_d of a `GradedInvariantRing`: column m holds the
    coefficients of Tr(x^m)."""
    dim = ring.tower.coaction(d).dim
    return xa._dense(ring.field, *ring.trace_terms(d), (dim, dim))
