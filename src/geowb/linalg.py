"""Small linear algebra, one object per scalar backend.

Matrices are lists of row lists of backend scalars (or their real parts),
and ``for_backend(backend)`` returns the object that owns ``rank``,
``leading_ranks``, ``solve``, ``nullspace`` and (exact only) ``pivot_columns``:

* exact -- Gauss-Jordan elimination over Q[i] (or plain Fractions)
  through the module-level ``rref``; results are exact.
* float -- numpy singular values with one rank rule: a singular value
  counts when it exceeds ``RANK_RTOL * max(1, s_0)``, s_0 the largest.
  ``solve`` calls a system consistent when appending the right-hand side
  leaves that rank unchanged.  numpy is imported by these methods on
  first use, so the exact backend runs without it.

Operator matrices on invariant forms (built by
``lie.StructurePresentation.matrix``) have at most a few hundred rows and
columns but are about 99% zeros: d, del and delbar send a monomial to a
handful of monomials.  ``rref`` therefore takes a dense matrix but
eliminates on sparse rows, so exact arithmetic is spent only on stored
nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalars
from .scalars import EXACT, FLOAT

RANK_RTOL = 1e-10

_ONE = Fraction(1)  # 1 / x stays exact for int, Fraction and GaussRational x
# the shared zeros that fill operator matrices and their real/imaginary rows
_ZERO = scalars.ZERO
_ZERO_RE = _ZERO.re


def _subtract(row: dict, factor, tail: dict) -> None:
    """row -= factor * tail, in place, deleting entries that cancel."""
    minus = -factor
    for c, x in tail.items():
        y = row.get(c)
        if y is None:
            row[c] = minus * x
        else:
            y = y + minus * x
            if y:
                row[c] = y
            else:
                del row[c]


def rref(matrix):
    """Reduced row echelon form of a dense matrix; returns (rows, pivots, sources).

    ``matrix`` is a list of equal-length rows of exact entries.  ``pivots``
    lists the pivot columns in increasing order, and ``rows[r]`` is the
    reduced row of pivot ``pivots[r]`` as a ``{column: entry}`` dict of its
    nonzero entries, with entry 1 at the pivot.  Zero rows are dropped.

    Rows enter one at a time: each is cleared at the pivot columns found
    so far, and what is left, if anything, pivots at its first column,
    which is then cleared from the earlier pivot rows.  A pivot row is
    zero left of its pivot throughout, so the result is the (unique)
    reduced row echelon form.  ``sources[r]`` is the index of the input
    row that made pivot ``pivots[r]``, so the first k input rows have rank
    ``sum(s < k for s in sources)``.
    """
    tails: dict[int, dict] = {}  # pivot column -> its row without the pivot 1
    made_by: dict[int, int] = {}  # pivot column -> index of the row that made it
    for i, dense in enumerate(matrix):
        # skip the shared zeros by identity before any value test
        row = {c: x for c, x in enumerate(dense) if x is not _ZERO and x is not _ZERO_RE and x}
        for p in [c for c in row if c in tails]:
            _subtract(row, row.pop(p), tails[p])
        if not row:
            continue
        pivot = min(row)
        inv = _ONE / row.pop(pivot)
        row = {c: x * inv for c, x in row.items()}
        for tail in tails.values():
            if pivot in tail:
                _subtract(tail, tail.pop(pivot), row)
        tails[pivot] = row
        made_by[pivot] = i
    pivots = sorted(tails)
    return [{p: 1, **tails[p]} for p in pivots], pivots, [made_by[p] for p in pivots]


class ExactLinalg:
    """Exact pivots, ranks, solve and nullspace by ``rref``.

    Entries may be GaussRationals or Fractions; vectors that come back hold
    the same kind of entries, with plain 0 where ``rref`` stores no entry
    and plain 1 at a free variable of a kernel vector.
    """

    def pivot_columns(self, matrix) -> list[int]:
        """The columns that raise the rank, scanned left to right."""
        return rref(matrix)[1]

    def rank(self, matrix) -> int:
        return len(rref(matrix)[1])

    def leading_ranks(self, matrix, k: int) -> tuple[int, int]:
        """(rank of the first k rows, rank of all rows), by one elimination."""
        sources = rref(matrix)[2]
        return sum(s < k for s in sources), len(sources)

    def solve(self, matrix, rhs, ncols: int):
        """One solution of A x = b (A m x ncols), or None if inconsistent."""
        rows, pivots, _ = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
        if ncols in pivots:
            return None  # pivot in the rhs column
        solution = [0] * ncols
        for row, c in zip(rows, pivots):
            solution[c] = row.get(ncols, 0)
        return solution

    def nullspace(self, matrix, ncols: int):
        """Basis of the kernel of A (A m x ncols), as length-ncols vectors."""
        rows, pivots, _ = rref(matrix)
        basis = []
        for fc in sorted(set(range(ncols)) - set(pivots)):
            vec = [0] * ncols
            vec[fc] = 1
            for row, pc in zip(rows, pivots):
                vec[pc] = -row.get(fc, 0)
            basis.append(vec)
        return basis


class FloatLinalg:
    """Numpy rank, solve and nullspace under the one rank rule."""

    @staticmethod
    def _rank_of(singular_values) -> int:
        if singular_values.size == 0:
            return 0
        cutoff = RANK_RTOL * max(1.0, float(singular_values[0]))
        return int((singular_values > cutoff).sum())

    def rank(self, matrix) -> int:
        import numpy as np

        a = np.array(matrix)
        if a.size == 0:
            return 0
        return self._rank_of(np.linalg.svd(a, compute_uv=False))

    def leading_ranks(self, matrix, k: int) -> tuple[int, int]:
        """(rank of the first k rows, rank of all rows), each by the rank rule."""
        return self.rank(matrix[:k]), self.rank(matrix)

    def solve(self, matrix, rhs, ncols: int):
        """One (least-squares) solution of A x = b, or None if inconsistent."""
        if not matrix:
            return [0.0] * ncols
        import numpy as np

        a = np.array(matrix)
        b = np.array(rhs)
        if self.rank(np.column_stack([a, b])) > self.rank(a):
            return None
        if ncols == 0:
            return []
        return np.linalg.lstsq(a, b, rcond=None)[0].tolist()

    def nullspace(self, matrix, ncols: int):
        """Orthonormal basis of the kernel of A, as length-ncols vectors."""
        import numpy as np

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

