"""Invariant Hermitian metrics and the special-metric classifier.

A metric is an n x n Hermitian coefficient matrix H; its fundamental form
is ``omega = (i/2) * sum_{j,k} H[j][k] phi^j ^ phibar^k``.  For n = 3 the
traditional scalar letters are related to the matrix by

    r^2 = H11,  s^2 = H22,  t^2 = H33,
    u = i*H12,  v = i*H13,  w = i*H23,

so that omega reads ``(i/2)(r^2 a^{1 1b} + s^2 a^{2 2b} + t^2 a^{3 3b})
+ (u/2) a^{1 2b} - (ub/2) a^{2 1b} + ...``.  The letter mapping hides a
factor i relative to the matrix entries; it is fixed here once and used
consistently by the existence-analysis conditions.

Positive definiteness is decided through leading principal minors, which
is exact on the exact backend.

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

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, scalars
from .forms import InvariantForm, Monomial, bidegree_basis, wedge
from .lie import StructurePresentation
from .scalars import EXACT, GaussRational


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

    @classmethod
    def from_letters(cls, r2, s2, t2, u=0, v=0, w=0, backend: str = EXACT):
        """Build the n = 3 metric from the scalar letters (squares given)."""
        field = scalars.field(backend)
        minus_i = field.i_power(3)
        h12 = minus_i * field.coerce(u)
        h13 = minus_i * field.coerce(v)
        h23 = minus_i * field.coerce(w)
        return cls(
            [
                [r2, h12, h13],
                [h12.conjugate(), s2, h23],
                [h13.conjugate(), h23.conjugate(), t2],
            ],
            backend,
        )

    def letters(self):
        """The n = 3 letters (r2, s2, t2, u, v, w) of this metric."""
        if self.n != 3:
            raise ValueError("letters are defined for n = 3 only")
        i_unit = scalars.field(self.backend).i_power(1)
        h = self.entries
        return (
            h[0][0].real,
            h[1][1].real,
            h[2][2].real,
            i_unit * h[0][1],
            i_unit * h[0][2],
            i_unit * h[1][2],
        )

    def leading_minors(self):
        """Determinants of the leading principal blocks (all real)."""
        out = []
        for k in range(1, self.n + 1):
            block = [list(self.entries[j][:k]) for j in range(k)]
            out.append(_determinant(block, self.backend))
        return out

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


def _determinant(block, backend):
    # fraction-free not needed at n <= 6; plain elimination over the field
    n = len(block)
    rows = [list(r) for r in block]
    field = scalars.field(backend)
    det = field.one
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] / inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def fundamental_form(metric: HermitianMetric) -> InvariantForm:
    """omega = (i/2) sum H[j][k] phi^j ^ phibar^k (requires H > 0)."""
    if not metric.is_positive_definite():
        raise ValueError("metric is not positive definite")
    n = metric.n
    backend = metric.backend
    i_half = scalars.field(backend).coerce(GaussRational(0, Fraction(1, 2)))
    terms = {}
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            coeff = i_half * metric.entries[j - 1][k - 1]
            if coeff == 0:
                continue
            terms[Monomial.make([j], [k], n)] = coeff
    return InvariantForm(n, terms, backend)


def form_power(f: InvariantForm, k: int) -> InvariantForm:
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
    """Evaluate the special-metric conditions for this metric."""
    report = pres.validate(tol)
    if not report.ok:
        raise ValueError("presentation failed validation; classify refused")
    if metric.n != pres.n or metric.backend != pres.backend:
        raise ValueError("metric and presentation must share rank and backend")
    n = pres.n
    field = scalars.field(pres.backend)
    omega = fundamental_form(metric)
    powers = {1: omega}
    for k in (max(n - 2, 1), n - 1):
        if k >= 1 and k not in powers:
            powers[k] = form_power(omega, k)

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
            pres.del_delbar(powers[max(n - 2, 1)] if n > 2 else InvariantForm.unit(n, pres.backend)),
            f"del delbar omega^{n - 2}",
        )
    record("balanced", pres.d(powers[n - 1]), f"d omega^{n - 1}")
    record("gauduchon", pres.del_delbar(powers[n - 1]), f"del delbar omega^{n - 1}")

    sg, sg_evidence = _strongly_gauduchon(pres, powers[n - 1])
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
    sources = [
        InvariantForm(n, {m: 1}, pres.backend) for m in bidegree_basis(n, n, n - 2)
    ]
    target_basis = bidegree_basis(n, n, n - 1)
    matrix = linalg.operator_matrix(pres.delbar, sources, target_basis, pres.backend)
    rhs = [target.coeff(m) for m in target_basis]
    if linalg.for_backend(pres.backend).solve(matrix, rhs, len(sources)) is None:
        return False, "del omega^(n-1) is not delbar-exact over the invariant basis"
    return True, "del omega^(n-1) = delbar Gamma has an invariant solution"


@dataclass
class PluriclosedVerdict:
    """del delbar-closedness plus a transversality certificate kind."""

    closed: bool
    transversality: object  # TransversalityVerdict
    p: int

    @property
    def holds(self) -> bool:
        from .positivity import CERTIFIED_POSITIVE, NOT_FALSIFIED

        return self.closed and self.transversality.kind in (
            CERTIFIED_POSITIVE,
            NOT_FALSIFIED,
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "closed": self.closed,
            "transversality": self.transversality.to_json(),
            "holds": self.holds,
        }


def is_p_pluriclosed(
    pres: StructurePresentation,
    f: InvariantForm,
    p: int,
    samples: int = 2000,
    seed: int = 0,
    tol: float | None = None,
    certificate: str | None = None,
) -> PluriclosedVerdict:
    """del delbar f = 0 plus transversality of the real (p, p)-form f.

    Transversality is sampled unless ``certificate`` names an analytic
    reason (for instance ``"metric-power"`` when f is a power of a
    positive-definite fundamental form).
    """
    from . import positivity

    if f.bidegree() != (p, p):
        raise ValueError(f"form must be homogeneous of bidegree ({p},{p})")
    if not f.is_real(tol):
        raise ValueError("form must be real")
    closed = pres.del_delbar(f).is_zero(tol)
    if certificate is not None:
        verdict = positivity.certified(certificate)
    else:
        verdict = positivity.transversality_sample(f, samples=samples, seed=seed)
    return PluriclosedVerdict(closed=closed, transversality=verdict, p=p)
