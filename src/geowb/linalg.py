"""Small linear algebra on sparse rows, one object per scalar backend.

A matrix is a list of rows, each a ``{column: entry}`` dict of the row's
nonzero backend scalars or their real parts (a stored zero is skipped).
Operator matrices on invariant forms (``lie.StructurePresentation.matrix``)
have up to a few hundred rows and columns but are about 99% zeros.
``for_backend(backend)`` returns the object that owns ``rank``,
``leading_ranks``, ``solve``, ``nullspace`` and (exact only)
``pivot_columns``:

* exact -- elimination over Q[i] (or plain Fractions) on stored entries
  only: forward-only for ranks and pivots, to the reduced row echelon
  form for ``solve`` and ``nullspace``.
* float -- numpy singular values of the rows as a dense array, with one
  rank rule: a singular value counts when it exceeds
  ``RANK_RTOL * max(1, s_0)``, s_0 the largest.  ``solve`` calls a system
  consistent when appending the right-hand side leaves that rank
  unchanged.  numpy is imported by these methods on first use, so the
  exact backend runs without it.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import EXACT, FLOAT

RANK_RTOL = 1e-10

_ONE = Fraction(1)  # 1 / x stays exact for int, Fraction and GaussRational x


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


def _echelon(rows) -> tuple[dict[int, dict], dict[int, int]]:
    """Forward elimination; returns (tails, sources), keyed by pivot column.

    Each row, copied, is cleared at the pivots found so far in ascending
    column order and pivots at its first remaining column; no earlier row
    is touched.  ``tails[p]`` is that row scaled to 1 at p, without the 1,
    so it holds columns right of p only; ``sources[p]`` is its index.
    """
    tails: dict[int, dict] = {}
    sources: dict[int, int] = {}
    for i, row in enumerate(rows):
        row = dict(row)
        while row:
            p = min(row)
            x = row.pop(p)
            if not x:
                continue
            tail = tails.get(p)
            if tail is None:
                inv = _ONE / x
                tails[p] = {c: y * inv for c, y in row.items() if y}
                sources[p] = i
                break
            _subtract(row, x, tail)
    return tails, sources


def _reduce(rows) -> dict[int, dict]:
    """The reduced row echelon form as ``{pivot: tail}``: the tails of
    ``_echelon`` cleared at every later pivot, last pivot first."""
    tails = _echelon(rows)[0]
    for p in sorted(tails, reverse=True):
        tail = tails[p]
        for q in [c for c in tail if c in tails]:
            _subtract(tail, tail.pop(q), tails[q])
    return tails


class ExactLinalg:
    """Exact pivots and ranks by ``_echelon``, solve and nullspace by ``_reduce``.

    Entries may be GaussRationals or Fractions; vectors that come back hold
    the same kind of entries, with plain 0 where the reduced rows store no
    entry and plain 1 at a free variable of a kernel vector.
    """

    def pivot_columns(self, matrix) -> list[int]:
        """The columns that raise the rank, scanned left to right."""
        return sorted(_echelon(matrix)[0])

    def rank(self, matrix) -> int:
        return len(_echelon(matrix)[0])

    def leading_ranks(self, matrix, k: int) -> tuple[int, int]:
        """(rank of the first k rows, rank of all rows), by one elimination:
        the first k rows make the pivots whose source is below k."""
        sources = _echelon(matrix)[1].values()
        return sum(s < k for s in sources), len(sources)

    def solve(self, matrix, rhs, ncols: int):
        """One solution of A x = b (A m x ncols), or None if inconsistent."""
        tails = _reduce([{**row, ncols: b} for row, b in zip(matrix, rhs)])
        if ncols in tails:
            return None  # pivot in the rhs column
        return [tails[c].get(ncols, 0) if c in tails else 0 for c in range(ncols)]

    def nullspace(self, matrix, ncols: int):
        """Basis of the kernel of A (A m x ncols), as length-ncols vectors."""
        tails = _reduce(matrix)
        basis = []
        for fc in (c for c in range(ncols) if c not in tails):
            vec = [0] * ncols
            vec[fc] = 1
            for pc, tail in tails.items():
                vec[pc] = -tail.get(fc, 0)
            basis.append(vec)
        return basis


class FloatLinalg:
    """Numpy rank, solve and nullspace under the one rank rule."""

    @staticmethod
    def _dense(matrix, ncols: int | None = None):
        """The rows as an array, by default as wide as the last stored column."""
        import numpy as np

        if ncols is None:
            ncols = 1 + max((c for row in matrix for c in row), default=-1)
        return np.array([[row.get(c, 0.0) for c in range(ncols)] for row in matrix])

    @staticmethod
    def _rank_of(singular_values) -> int:
        """The rank rule on nonempty singular values, largest first."""
        cutoff = RANK_RTOL * max(1.0, float(singular_values[0]))
        return int((singular_values > cutoff).sum())

    def rank(self, matrix) -> int:
        import numpy as np

        a = self._dense(matrix)
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
        if self.rank([{**row, ncols: b} for row, b in zip(matrix, rhs)]) > self.rank(matrix):
            return None
        if ncols == 0:
            return []
        import numpy as np

        return np.linalg.lstsq(self._dense(matrix, ncols), np.array(rhs), rcond=None)[0].tolist()

    def nullspace(self, matrix, ncols: int):
        """Orthonormal basis of the kernel of A, as length-ncols vectors."""
        import numpy as np

        if not matrix or ncols == 0:
            return np.eye(ncols).tolist()
        _, s, vh = np.linalg.svd(self._dense(matrix, ncols))
        return vh[self._rank_of(s):].conj().tolist()


_BY_BACKEND = {EXACT: ExactLinalg(), FLOAT: FloatLinalg()}


def for_backend(backend: str):
    """The linear-algebra object of a backend name."""
    try:
        return _BY_BACKEND[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}") from None
