"""Invariant Hermitian metrics and the special-metric classifier.

A metric is an n x n Hermitian coefficient matrix H; its fundamental form
is ``omega = (i/2) * sum_{j,k} H[j][k] phi^j ^ phibar^k``.

Every minor of H comes from one table, built once per metric:
``HermitianMetric.minors()`` holds det H[I, J] for every pair of index sets
I, J of equal size, by Laplace expansion from the minors one size smaller.
Positive definiteness is read off its leading principal minors (exact on
the exact backend), and the powers of omega straight off the table:

    omega^k = k! (i/2)^k (-1)^(k(k-1)/2) sum_{|I|=|J|=k} det H[I,J] phi^I ^ phibar^J

(``metric_power``), for any Hermitian H: positive definiteness is the
caller's one decision, at its tolerance (``classify-metric`` at
``--epsilon``).  ``form_power``, the iterated wedge, stays for forms
that are not metric powers, and is the reference the tests compare with.

Classifier flags (omega the fundamental form, n the rank):

    kahler             d omega = 0
    skt                del delbar omega = 0
    astheno            del delbar omega^(n-2) = 0
    balanced           d omega^(n-1) = 0
    gauduchon          del delbar omega^(n-1) = 0
    strongly_gauduchon del omega^(n-1) is delbar-exact (a linear solve
                       over the invariant (n, n-2) basis: exact, or under
                       the float rank rule of ``linalg``)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, scalars
from .forms import InvariantForm, Monomial, bidegree_basis, wedge
from .lie import StructurePresentation
from .scalars import EXACT


class HermitianMetric:
    """n x n Hermitian coefficient matrix over either backend."""

    def __init__(self, entries, backend: str = EXACT, tol: float | None = None):
        field = scalars.field(backend)
        rows = [[field.coerce(x) for x in row] for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("metric matrix must be square")
        for j in range(n):
            for k in range(n):
                if not field.close(rows[j][k], rows[k][j].conjugate(), tol):
                    raise ValueError(
                        f"matrix is not Hermitian at entry ({j + 1},{k + 1})"
                    )
        self.n = n
        self.backend = backend
        self.entries = tuple(tuple(r) for r in rows)
        self._minors = None

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "HermitianMetric":
        return cls.diagonal([1] * n, backend)

    @classmethod
    def diagonal(cls, diag, backend: str = EXACT) -> "HermitianMetric":
        n = len(diag)
        return cls(
            [[diag[j] if j == k else 0 for k in range(n)] for j in range(n)],
            backend,
        )

    def minors(self) -> list[dict[tuple[int, int], object]]:
        """Every minor det H[rows, cols], built on the first call.

        Entry k of the list maps each pair (rows, cols) of k-element index
        bitmasks (bit i-1 for index i, as in ``forms``) to its k x k minor;
        entry 0 is ``{(0, 0): 1}``.
        """
        if self._minors is None:
            self._minors = _minor_table(self.entries, scalars.field(self.backend))
        return self._minors

    def leading_minors(self):
        """Determinants of the leading principal blocks (all real)."""
        table = self.minors()
        return [table[k][(1 << k) - 1, (1 << k) - 1] for k in range(1, self.n + 1)]

    def is_positive_definite(self, tol: float | None = None) -> bool:
        is_positive = scalars.field(self.backend).is_positive
        return all(is_positive(minor, tol) for minor in self.leading_minors())

    def to_json(self) -> dict:
        to_json = scalars.field(self.backend).to_json
        return {
            "n": self.n,
            "backend": self.backend,
            "H": [[to_json(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianMetric":
        backend = obj.get("backend", EXACT)
        from_json = scalars.field(backend).from_json
        return cls([[from_json(x) for x in row] for row in obj["H"]], backend)


@functools.cache
def _index_pairs(n: int, size: int) -> tuple[tuple[int, int], ...]:
    """Every (rows, cols) pair of ``size``-element index masks of rank n.

    Ordered by the interleaved sorted indices (r1, c1, r2, c2, ...): the
    order in which the iterated wedge omega^k first meets its monomials
    when no minor of H vanishes.  ``metric_power`` keeps it, so a form
    derived from a power lists its terms as it did from ``form_power``.
    """

    def pairs(size, first_row, first_col):
        if size == 0:
            yield 0, 0
            return
        for r in range(first_row, n):
            for c in range(first_col, n):
                for rows, cols in pairs(size - 1, r + 1, c + 1):
                    yield rows | 1 << r, cols | 1 << c

    return tuple(pairs(size, 0, 0))


def _minor_table(h, field) -> list[dict[tuple[int, int], object]]:
    """The minors of the Hermitian matrix h, size by size.

    det H[rows, cols] is expanded along its lowest row, over the minors one
    size smaller; det H[cols, rows] is its conjugate, and det H[rows, rows]
    is real.
    """
    n = len(h)
    table = [{(0, 0): field.one}]
    for size in range(1, n + 1):
        smaller = table[-1]
        level = {}
        for rows, cols in _index_pairs(n, size):
            mirror = level.get((cols, rows))
            if mirror is not None:
                level[rows, cols] = mirror.conjugate()
                continue
            low = rows & -rows
            row = h[low.bit_length() - 1]
            rest = rows ^ low
            det = field.zero
            odd = False
            bits = cols
            while bits:
                bit = bits & -bits
                entry = row[bit.bit_length() - 1]
                if entry:
                    minor = smaller[rest, cols ^ bit]
                    if minor:
                        det = det - entry * minor if odd else det + entry * minor
                odd = not odd
                bits ^= bit
            # a principal minor of a Hermitian matrix is real
            level[rows, cols] = field.as_real(det) if rows == cols else det
        table.append(level)
    return table


def fundamental_form(metric: HermitianMetric) -> InvariantForm:
    """omega = (i/2) sum H[j][k] phi^j ^ phibar^k."""
    return metric_power(metric, 1)


def metric_power(metric: HermitianMetric, k: int) -> InvariantForm:
    """omega^k of a Hermitian metric, read off its minors table.

    omega^k = k! (i/2)^k (-1)^(k(k-1)/2) sum_{|I|=|J|=k} det H[I,J]
    phi^I ^ phibar^J, equal to ``form_power(fundamental_form(metric), k)``;
    k = 0 gives the unit.
    """
    n = metric.n
    if not 0 <= k <= n:
        raise ValueError(f"power must be in 0..{n}")
    sign = -1 if (k * (k - 1) // 2) & 1 else 1
    exact = scalars.field(EXACT).i_power(k) * Fraction(sign * math.factorial(k), 2**k)
    scale = scalars.field(metric.backend).coerce(exact)
    terms = {
        Monomial(rows, cols): scale * det
        for (rows, cols), det in metric.minors()[k].items()
    }
    return InvariantForm(n, terms, metric.backend)


def form_power(f: InvariantForm, k: int) -> InvariantForm:
    """f^k by iterated wedge products; ``metric_power`` for a metric's omega."""
    if k < 0:
        raise ValueError("power must be >= 0")
    out = InvariantForm.unit(f.n, f.backend)
    for _ in range(k):
        out = wedge(out, f)
    return out


@dataclass
class MetricReport:
    """Classifier flags plus one evidence line per flag.

    All statements are at the invariant level.  On the float backend every
    flag is tolerance-dependent; the report records the tolerance used.
    """

    flags: dict[str, bool]
    evidence: dict[str, str]
    backend: str
    tolerance: float | None = None
    notes: list[str] = field(default_factory=list)

    def __getitem__(self, key: str) -> bool:
        return self.flags[key]

    def to_json(self) -> dict:
        return {
            "flags": dict(self.flags),
            "evidence": dict(self.evidence),
            "backend": self.backend,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


def classify(
    pres: StructurePresentation,
    metric: HermitianMetric,
    tol: float | None = None,
) -> MetricReport:
    """Evaluate the special-metric conditions for this metric; the
    presentation refuses first what ``require_double_complex`` refuses."""
    pres.require_double_complex(tol)
    if metric.n != pres.n or metric.backend != pres.backend:
        raise ValueError("metric and presentation must share rank and backend")
    n = pres.n
    field = scalars.field(pres.backend)
    omega = fundamental_form(metric)
    omega_n1 = metric_power(metric, n - 1)

    flags: dict[str, bool] = {}
    evidence: dict[str, str] = {}

    def record(name: str, form_value: InvariantForm, statement: str):
        zero = form_value.is_zero(tol)
        flags[name] = zero
        if zero:
            evidence[name] = f"{statement} = 0"
        else:
            mono = next(iter(form_value.terms))
            evidence[name] = (
                f"{statement} != 0; coefficient of {mono} is "
                f"{field.format(form_value.terms[mono])}"
            )

    record("kahler", pres.d(omega), "d omega")
    record("skt", pres.del_delbar(omega), "del delbar omega")
    if n >= 2:
        record(
            "astheno",
            pres.del_delbar(metric_power(metric, n - 2)),
            f"del delbar omega^{n - 2}",
        )
    record("balanced", pres.d(omega_n1), f"d omega^{n - 1}")
    record("gauduchon", pres.del_delbar(omega_n1), f"del delbar omega^{n - 1}")

    sg, sg_evidence = _strongly_gauduchon(pres, omega_n1)
    flags["strongly_gauduchon"] = sg
    evidence["strongly_gauduchon"] = sg_evidence

    notes = []
    tolerance = field.tolerance(tol)
    if tolerance is not None:
        notes.append(
            "float backend: every flag but strongly_gauduchon is decided within "
            f"the absolute tolerance {tolerance}, "
            "strongly_gauduchon by numeric rank (relative cutoff "
            f"{linalg.RANK_RTOL:g})"
        )
    return MetricReport(flags, evidence, pres.backend, tolerance, notes)


def _strongly_gauduchon(pres, omega_n1):
    """Solvability of  del omega^(n-1) = delbar Gamma  over Lambda^{n, n-2}."""
    n = pres.n
    target = pres.del_(omega_n1)  # an (n, n-1)-form
    sources = bidegree_basis(n, n, n - 2)
    target_basis = bidegree_basis(n, n, n - 1)
    matrix = pres.matrix("delbar", sources, target_basis)
    rhs = [target.coeff(m) for m in target_basis]
    if linalg.for_backend(pres.backend).solve(matrix, rhs, len(sources)) is None:
        return False, "del omega^(n-1) is not delbar-exact over the invariant basis"
    return True, "del omega^(n-1) = delbar Gamma has an invariant solution"
