"""Dense symmetric positive definite linear algebra.

Small-dimension building blocks for depth computation: an eagerly factored
SPD matrix type and quadratic forms through triangular solves.  An explicit
inverse is never materialized; every solve goes through the cached
Cholesky factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, NotSymmetric
from .io import check_finite

SYMMETRY_TOL = 1e-12
PIVOT_FLOOR = 1e-300
_HALF_MAX = np.finfo(float).max / 2


def _checked_symmetric(matrix) -> np.ndarray:
    """Validate squareness and symmetry, then return the symmetrized copy.

    Accumulated covariances carry last-bit asymmetry, so inputs within the
    absolute tolerance are symmetrized as (A + A.T) / 2 instead of rejected.
    """
    a = check_finite(matrix, "matrix entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch("matrix must have at least one row")
    if float(np.max(np.abs(a))) > _HALF_MAX:  # A + A.T would overflow
        raise DomainError("matrix entries must be at most half the largest float")
    gap = float(np.max(np.abs(a - a.T)))
    if gap > SYMMETRY_TOL:
        raise NotSymmetric(
            f"max |a[i,j] - a[j,i]| = {gap:.3e} exceeds tolerance {SYMMETRY_TOL:.0e}"
        )
    return 0.5 * (a + a.T)


def cholesky_lower(matrices) -> np.ndarray:
    """Lower Cholesky factors of one (d, d) matrix or a (k, d, d) stack.

    Only the lower triangle is read.  Every pivot must exceed the floor
    1e-300; a failure names the index of the first failing matrix.

    Raises
    ------
    DomainError
        If an entry is not a finite number.
    NotPositiveDefinite
        If a pivot of some matrix is at or below the floor.
    """
    a = check_finite(matrices, "matrix entries")
    stack = a.reshape(-1, *a.shape[-2:])
    try:
        low = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        # LAPACK stops without naming the failing matrix: factor one by one
        low = np.stack([_cholesky_or_nan(m) for m in stack])
    low = low.reshape(a.shape)
    _check_pivots(low)
    return low


def _check_pivots(low: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless every pivot (squared diagonal entry)
    of a factor (d, d) or a stack of them (k, d, d) exceeds the floor."""
    pivots = np.diagonal(low, axis1=-2, axis2=-1) ** 2
    bad = np.flatnonzero(~np.all(pivots > PIVOT_FLOOR, axis=-1))
    if bad.size:
        where = f"matrix {bad[0]} of the stack: " if low.ndim > 2 else ""
        raise NotPositiveDefinite(f"{where}a Cholesky pivot is at or below {PIVOT_FLOOR:.0e}")


def _cholesky_or_nan(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return np.full_like(m, np.nan)


def whiten(low, cols) -> np.ndarray:
    """Solve ``L w = x`` for each column x by forward substitution.

    ``low`` is a lower factor (d, d) with columns ``cols`` of shape (d, n),
    or a stack of factors (k, d, d) with columns (k, d, n).  Each step of the
    solve is one elementwise pass over a coordinate of all n vectors: d is
    small and n large, and no BLAS call is made.
    """
    return _whiten_in_place(low, np.array(cols, dtype=float))


def _whiten_in_place(low, w: np.ndarray) -> np.ndarray:
    """:func:`whiten` overwriting the float columns ``w``, which it returns."""
    low = np.asarray(low, dtype=float)
    for j in range(w.shape[-2]):
        for m in range(j):
            w[..., j, :] -= w[..., m, :] * low[..., j, m, None]
        w[..., j, :] /= low[..., j, j, None]
    return w


def _column_norms(cols: np.ndarray, out=None) -> np.ndarray:
    """The squared norms of the columns of ``cols``, shape (..., d, n),
    summed coordinate by coordinate, into ``out`` (shape (..., n)) if given:
    the order, and so the bits, of each column's sum do not depend on n or
    on the memory layout."""
    sq = np.multiply(cols[..., 0, :], cols[..., 0, :], out=out)
    for i in range(1, cols.shape[-2]):
        sq += cols[..., i, :] * cols[..., i, :]
    return sq


def color(low, cols, out=None) -> np.ndarray:
    """Map each column z to ``L z``, the inverse of :func:`whiten`.

    ``low`` is a lower factor (d, d) and ``cols`` has shape (d, n), or a
    stack of column blocks (k, d, n) that one factor maps; columns with
    identity covariance come out with covariance ``L L'``.  Like
    :func:`whiten`, it makes one elementwise pass per term and no BLAS call.
    The result is written to ``out``, a float array of the shape of
    ``cols``, when one is given, and returned.
    """
    z = np.asarray(cols, dtype=float)
    low = np.asarray(low, dtype=float)
    x = np.empty(z.shape) if out is None else out
    for i in range(z.shape[-2]):
        np.multiply(z[..., 0, :], low[i, 0], out=x[..., i, :])
        for j in range(1, i + 1):
            x[..., i, :] += z[..., j, :] * low[i, j]
    return x


class SpdMatrix:
    """A symmetric positive definite matrix factored once at construction.

    Attributes
    ----------
    dim : int
        Matrix dimension.
    entries : ndarray
        The (symmetrized) dense matrix, read-only.
    chol : ndarray
        Lower-triangular Cholesky factor, read-only.  A caller that has
        already factored the matrix passes the factor as ``chol``; it is
        then checked for shape and pivots but not recomputed.

    Raises
    ------
    DomainError
        If an entry of the matrix or of ``chol`` is not a finite number.
    NotSymmetric
        If the input is asymmetric beyond 1e-12 (absolute, entrywise).
    NotPositiveDefinite
        If a Cholesky pivot is at or below 1e-300.

    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("dim", "entries", "chol")

    def __init__(self, entries, chol=None):
        a = _checked_symmetric(entries)
        if chol is None:
            chol = cholesky_lower(a)
        else:
            chol = np.array(check_finite(chol, "chol"))
            if chol.shape != a.shape:
                raise DimensionMismatch(f"factor shape {chol.shape} differs from {a.shape}")
            _check_pivots(chol)
        self.dim = a.shape[0]
        self.entries = a
        self.chol = chol
        self.entries.setflags(write=False)
        self.chol.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(dim={self.dim})"


def build_spd(entries, chol=None) -> SpdMatrix:
    """Construct an :class:`SpdMatrix`, validating symmetry and definiteness."""
    return SpdMatrix(entries, chol)


def quad_forms(m: SpdMatrix, rows, center=None) -> np.ndarray:
    """Quadratic forms ``v' m^{-1} v`` of the rows v of an (n, dim) array,
    less ``center`` (a dim-vector) when one is given, through the Cholesky
    factor; each is nonnegative, and zero exactly for a zero v.  They are
    the :func:`_column_forms` of the rows, so the result depends neither on
    the input's memory order nor on the number of rows."""
    r = np.atleast_2d(check_finite(rows, "rows"))
    c = np.zeros(m.dim) if center is None else check_finite(center, "center")
    if r.ndim != 2 or r.shape[1] != m.dim or c.shape != (m.dim,):
        raise DimensionMismatch(f"expected vectors of length {m.dim}, got {r.shape} and {c.shape}")
    return _column_forms(m.chol, r.T, c)


def _column_forms(low, cols, center=0.0) -> np.ndarray:
    """The forms |L^{-1} (x - center)|^2 of the columns x of ``cols``
    (..., d, n), for lower factors L ``low`` (..., d, d) and locations
    ``center`` (..., d).  The centred columns fill one C-contiguous buffer,
    whitened in place and their squares summed by :func:`_column_norms`:
    each step is elementwise, so a column's bits do not depend on n, the
    stack or the memory layout."""
    w = np.subtract(cols, np.asarray(center, dtype=float)[..., None], order="C")
    return _column_norms(_whiten_in_place(low, w))
