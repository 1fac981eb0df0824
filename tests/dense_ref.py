"""Dense exact products and eliminations, as references for the tests.

knopf computes on sparse terms; these dense forms state the same results the
textbook way, on numpy arrays of field scalars.  Products scale each operand
to integers once and multiply them with `exactalg._int_product`; the
eliminations are `exactalg._echelon` and `_back_substitute` with a dense
array as the boundary.
"""

from __future__ import annotations

import numpy as np

from knopf import exactalg as xa
from knopf.exactalg import FieldSpec


def _product(field: FieldSpec, a: np.ndarray, b: np.ndarray, k: int, mult) -> np.ndarray:
    """mult(a, b) exactly, where each output entry sums k products."""
    (na, sa, ma), (nb, sb, mb) = xa._integral(field, a), xa._integral(field, b)
    return xa._from_integral(field, xa._int_product(na, ma, nb, mb, k, mult), sa * sb)


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
