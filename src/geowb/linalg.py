"""Small dense linear algebra, one object per scalar backend.

Matrices are lists of row lists of backend scalars (or their real parts),
and ``for_backend(backend)`` returns the object that owns
``pivot_columns``, ``rank``, ``solve`` and ``nullspace`` over them:

* exact -- Gaussian elimination over Q[i] (or plain Fractions) through the
  module-level ``rref``; results are exact.
* float -- numpy singular values with one rank rule: a singular value
  counts when it exceeds ``RANK_RTOL * max(1, s_0)``, s_0 the largest.
  ``solve`` calls a system consistent when appending the right-hand side
  leaves that rank unchanged.

Sizes here are tiny (dimensions of invariant-form spaces, at most a few
hundred), so straightforward row reduction is plenty.  ``operator_matrix``
builds the matrix of a linear operator on forms for either object.
"""

from __future__ import annotations

import numpy as np

from . import scalars
from .scalars import EXACT, FLOAT

RANK_RTOL = 1e-10


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


class ExactLinalg:
    """Exact pivots, rank, solve and nullspace by ``rref``.

    Entries may be GaussRationals or Fractions; vectors that come back hold
    the same kind of entries, with plain 0 and 1 where elimination leaves
    them.
    """

    def pivot_columns(self, matrix) -> list[int]:
        """The columns that raise the rank, scanned left to right."""
        return rref(matrix)[1]

    def rank(self, matrix) -> int:
        return len(rref(matrix)[1])

    def solve(self, matrix, rhs, ncols: int):
        """One solution of A x = b (A m x ncols), or None if inconsistent."""
        if not matrix:
            return [0] * ncols
        rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
        if ncols in pivots:
            return None  # pivot in the rhs column
        solution = [0] * ncols
        for r, c in enumerate(pivots):
            solution[c] = rows[r][ncols]
        return solution

    def nullspace(self, matrix, ncols: int):
        """Basis of the kernel of A (A m x ncols), as length-ncols vectors."""
        rows, pivots = rref(matrix)
        basis = []
        for fc in sorted(set(range(ncols)) - set(pivots)):
            vec = [0] * ncols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][fc]
            basis.append(vec)
        return basis


class FloatLinalg:
    """Numpy pivots, rank, solve and nullspace under the one rank rule."""

    @staticmethod
    def _rank_of(singular_values) -> int:
        if singular_values.size == 0:
            return 0
        cutoff = RANK_RTOL * max(1.0, float(singular_values[0]))
        return int(np.sum(singular_values > cutoff))

    def pivot_columns(self, matrix) -> list[int]:
        """The columns that raise the rank, scanned left to right."""
        a = np.array(matrix)
        pivots: list[int] = []
        for c in range(a.shape[1] if a.ndim == 2 else 0):
            if self.rank(a[:, pivots + [c]]) > len(pivots):
                pivots.append(c)
        return pivots

    def rank(self, matrix) -> int:
        a = np.array(matrix)
        if a.size == 0:
            return 0
        return self._rank_of(np.linalg.svd(a, compute_uv=False))

    def solve(self, matrix, rhs, ncols: int):
        """One (least-squares) solution of A x = b, or None if inconsistent."""
        if not matrix:
            return [0.0] * ncols
        a = np.array(matrix)
        b = np.array(rhs)
        if self.rank(np.column_stack([a, b])) > self.rank(a):
            return None
        if ncols == 0:
            return []
        return np.linalg.lstsq(a, b, rcond=None)[0].tolist()

    def nullspace(self, matrix, ncols: int):
        """Orthonormal basis of the kernel of A, as length-ncols vectors."""
        if not matrix or ncols == 0:
            return np.eye(ncols).tolist()
        _, s, vh = np.linalg.svd(np.array(matrix))
        return vh[self._rank_of(s):].conj().tolist()


_BY_BACKEND = {EXACT: ExactLinalg(), FLOAT: FloatLinalg()}


def for_backend(backend: str):
    """The linear-algebra object of a backend name."""
    try:
        return _BY_BACKEND[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}") from None


def operator_matrix(op, source_forms, target_basis, backend: str):
    """Matrix of a linear operator on forms.

    Column j holds the coefficients of ``op(source_forms[j])`` over the
    monomials ``target_basis``; every image must lie in their span.
    """
    zero = scalars.field(backend).zero
    index = {m: r for r, m in enumerate(target_basis)}
    matrix = [[zero] * len(source_forms) for _ in target_basis]
    for c, form in enumerate(source_forms):
        for m, coeff in op(form).terms.items():
            matrix[index[m]][c] = coeff
    return matrix
