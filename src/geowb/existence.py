"""Existence conditions, obstruction certificates and invariant cohomology.

Three closure problems recur for the built-in nilpotent families: an
ansatz ``Psi = lambda + fixed + conjugate(lambda)`` with ``fixed`` a real
(p, p)-form (typically omega^p of a positive-definite metric) and
``lambda`` a combination of off-diagonal monomials with free complex
coefficients.  ``closure_system`` solves ``d Psi = 0`` as a real linear
system in the free coefficients.  ``FAMILIES`` holds each family's ansatz
and the monomial whose coefficient in d Psi is its closedness condition,
so the condition is read off d Psi, never transcribed; the test suite
states the paper's closed-form conditions and checks them against that
coefficient and against the solver.

Obstruction certificates: if an invariant form beta of total degree
2n - 2p - 1 satisfies ``d beta = sum_i c_i psi^i ^ conj(psi^i)`` with the
psi^i simple (n-p, 0)-forms and the c_i real, nonzero and of one sign,
there is no p-symplectic structure (pairing the equation against the
transverse component of a closed form gives a positive integral of an
exact form).  The ``delbar-del`` variant with beta of degree 2n - 2p - 2
and the (n-p, n-p) part of del delbar beta excludes p-pluriclosed
structures.  ``certificate_search`` only proposes candidates; the one
judge, ``verify_obstruction_certificate``, re-computes the left-hand side
exactly and checks the decomposition.  Stokes' theorem gives the
contradiction only when no invariant volume form is exact, on a unimodular
algebra (d = 0 in degree 2n - 1), so both routines and the simple-form
search below refuse any other (``StructurePresentation.require_unimodular``).

On a presentation with purely (2,0) structure equations (a complex-
parallelizable quotient), existence of a p-structure of any of the three
kinds is equivalent to the absence of a nonzero exact simple holomorphic
(n-p, 0)-form.  ``exact_simple_holomorphic_search`` asks ``is_decomposable``
of a basis of the exact (q, 0)-forms, which decides q = 1, n-1 and n, and
for q = 2 solves the Pluecker quadric on pencils of basis pairs; it
verifies user certificates where that leaves the answer open.  It refuses
a float presentation: a root's rationality is decided exactly.

All cohomological statements here are invariant-level only and the
reports say so: they concern the finite complex of invariant forms.  They
need an integrable presentation with d*d = 0 and refuse any other with
``StructurePresentation.require_double_complex``; there the del-delbar
lemma at (p, q) is decided from two ranks of one elimination of d.

Linear algebra: every matrix here is a list of sparse rows read off the
presentation's cached monomial images by ``StructurePresentation.matrix``
and reduced by the presentation's backend object from ``linalg.for_backend``
-- exact elimination over Q[i] on the exact backend, numpy under one rank
rule on the float backend -- so each routine has a single code path for both.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field

from . import linalg, scalars
from .forms import InvariantForm, Monomial, bidegree_basis, wedge
from .lie import PresentationError, StructurePresentation
from .positivity import SimpleForm, is_decomposable


# ---------------------------------------------------------------------------
# closure systems
# ---------------------------------------------------------------------------


@dataclass
class AnsatzSolution:
    """Affine description of the closedness system d Psi = 0.

    Psi(c) = fixed + sum_i c_i mu_i + conjugate(sum_i c_i mu_i) with the
    mu_i the ansatz monomials.  ``particular`` is one coefficient vector
    solving the system (None when inconsistent) and ``kernel`` spans the
    homogeneous solutions over the reals (conjugations make the system
    real-linear, not complex-linear).
    """

    pres: StructurePresentation
    p: int
    fixed: InvariantForm
    basis: tuple[Monomial, ...]
    names: tuple[str, ...]
    particular: tuple | None
    kernel: tuple[tuple, ...]

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    def psi(self, coefficients) -> InvariantForm:
        if len(coefficients) != len(self.basis):
            raise ValueError("coefficient count does not match the ansatz basis")
        lam = InvariantForm.zero(self.fixed.n, self.fixed.backend)
        for mono, c in zip(self.basis, coefficients):
            lam = lam + InvariantForm(self.fixed.n, {mono: c}, self.fixed.backend)
        return lam + self.fixed + lam.conjugate()

    def closure_residual(self, coefficients) -> InvariantForm:
        return self.pres.d(self.psi(coefficients))

    def to_json(self) -> dict:
        to_json = scalars.field(self.pres.backend).to_json

        def vec(v):
            return [to_json(x) for x in v]

        return {
            "p": self.p,
            "consistent": self.consistent,
            "ansatz": [str(m) for m in self.basis],
            "names": list(self.names),
            "particular": None if self.particular is None else vec(self.particular),
            "kernel": [vec(v) for v in self.kernel],
            "note": "invariant-level closure system",
        }


def closure_system(
    pres: StructurePresentation,
    p: int,
    fixed: InvariantForm,
    ansatz_basis,
    names=None,
) -> AnsatzSolution:
    """Solve d(lambda + fixed + conj(lambda)) = 0 for the lambda coefficients.

    ``ansatz_basis`` lists the monomials of lambda; the typical choice is
    the (p+1, p-1) block but any monomials of total degree 2p are accepted
    (a (p, p) off-diagonal ansatz is occasionally useful).
    """
    n = pres.n
    basis = tuple(ansatz_basis)
    if fixed.n != n or fixed.backend != pres.backend:
        raise ValueError("fixed block must match the presentation's rank/backend")
    if fixed.terms and fixed.bidegree() != (p, p):
        raise ValueError(f"fixed block must be a ({p},{p})-form")
    if not fixed.is_real():
        raise ValueError("fixed block must be real")
    for mono in basis:
        if mono.degree() != 2 * p:
            raise ValueError(f"ansatz monomial {mono} has degree != {2 * p}")
        if (mono.holo | mono.anti) >> n:
            raise ValueError(f"ansatz monomial {mono} exceeds rank {n}")
    if names is None:
        names = tuple(f"c{i + 1}" for i in range(len(basis)))
    else:
        names = tuple(names)

    backend = pres.backend
    field = scalars.field(backend)
    la = linalg.for_backend(backend)
    i_unit = field.i_power(1)
    # lambda = sum_i (x_i + i y_i) mu_i: x_i multiplies mu_i + conj(mu_i),
    # y_i multiplies i (mu_i - conj(mu_i)); both are real forms.  conj(mu_i)
    # is the swapped monomial, negated when mu_i has bidegree (a, b), ab odd.
    # Columns 2i and 2i + 1 hold x_i and y_i.
    targets = _degree_basis(n, 2 * p + 1)
    size = len(basis)
    swapped = tuple(Monomial(m.anti, m.holo) for m in basis)
    matrix = []
    for row in pres.matrix("d", basis + swapped, targets):
        out = {}
        for j in {c % size for c in row}:
            m, a, b = basis[j], row.get(j, field.zero), row.get(size + j, field.zero)
            b = -b if (m.holo.bit_count() * m.anti.bit_count()) & 1 else b
            out[2 * j], out[2 * j + 1] = a + b, (a - b) * i_unit
        matrix.append(out)
    d_fixed = pres.d(fixed)
    rhs = [-d_fixed.coeff(m) for m in targets]
    rows = [{c: x.real for c, x in row.items() if x.real} for row in matrix] + [
        {c: x.imag for c, x in row.items() if x.imag} for row in matrix
    ]
    real_rhs = [b.real for b in rhs] + [b.imag for b in rhs]

    def complex_coefficients(v):
        return tuple(
            field.from_parts(v[2 * i], v[2 * i + 1]) for i in range(len(basis))
        )

    particular = la.solve(rows, real_rhs, 2 * len(basis))
    if particular is None:
        return AnsatzSolution(pres, p, fixed, basis, names, None, ())
    kernel = tuple(
        complex_coefficients(v) for v in la.nullspace(rows, 2 * len(basis))
    )
    return AnsatzSolution(
        pres, p, fixed, basis, names, complex_coefficients(particular), kernel
    )


# ---------------------------------------------------------------------------
# the built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A catalogue family's closure ansatz and where its condition is read.

    Psi = lambda + omega^p + conj(lambda), lambda = sum of the ``names``
    times the ``basis`` monomials.  d Psi has no term outside M and conj(M),
    M = ``condition_at``: on the identity metric, and on every metric where
    ``any_metric`` is set.  The M-coefficient of d Psi is then the family's
    closedness condition.
    """

    p: int
    basis: tuple[Monomial, ...]
    names: tuple[str, ...]
    condition_at: Monomial
    any_metric: bool = False


def _top_block(n: int, q: int) -> tuple[Monomial, ...]:
    """phi^{1..n} ^ phibar^J for the q-subsets J of 1..n, in lexicographic order."""
    top = range(1, n + 1)
    return tuple(Monomial.make(top, j, n) for j in itertools.combinations(top, q))


FAMILIES = {
    "fps6": Family(2, _top_block(3, 1), ("L", "M", "N"),
                   Monomial.make([1, 2, 3], [1, 2], 3), any_metric=True),
    "ft8": Family(3, _top_block(4, 2), ("L1", "L2", "L3", "M1", "M2", "N"),
                  Monomial.make([1, 2, 3], [1, 2, 3, 4], 4)),
    "st10": Family(4, _top_block(5, 3),
                   ("L1", "L2", "L3", "M1", "M2", "N1", "S1", "S2", "S3", "P"),
                   Monomial.make([1, 2, 3, 4], [1, 2, 3, 4, 5], 5)),
}


# ---------------------------------------------------------------------------
# obstruction certificates
# ---------------------------------------------------------------------------


@dataclass
class ObstructionCertificate:
    """beta plus a same-sign decomposition of its differential.

    mode "d": deg beta = 2n-2p-1 and d beta = sum_i c_i psi^i ^ conj(psi^i)
    excludes p-symplectic structures.  mode "delbar-del": deg beta =
    2n-2p-2 and the (n-p, n-p) part of del delbar beta decomposes the same
    way, excluding p-pluriclosed structures.  The c_i must be real,
    nonzero and all of one sign; the psi^i simple of bidegree (n-p, 0).
    """

    p: int
    mode: str  # "d" | "delbar-del"
    beta: InvariantForm
    decomposition: tuple[tuple[object, SimpleForm], ...]

    @property
    def conclusion(self) -> str:
        """What the certificate rules out, once verified."""
        kind = "symplectic" if self.mode == "d" else "pluriclosed"
        return f"no {self.p}-{kind} structure exists at the invariant level"

    def to_json(self) -> dict:
        from .forms import form_to_json

        return {
            "p": self.p,
            "mode": self.mode,
            "beta": form_to_json(self.beta),
            "decomposition": [
                {
                    "coefficient": scalars.field(self.beta.backend).to_json(c),
                    "factors": sf.to_json()["factors"],
                    "n": sf.n,
                }
                for c, sf in self.decomposition
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ObstructionCertificate":
        from .forms import form_from_json

        beta = form_from_json(obj["beta"])
        decomposition = []
        for item in obj["decomposition"]:
            coeff = scalars.field(beta.backend).from_json(item["coefficient"])
            sf = SimpleForm.from_json(
                {"n": item.get("n", beta.n), "factors": item["factors"]},
                beta.backend,
            )
            decomposition.append((coeff, sf))
        return cls(
            p=int(obj["p"]),
            mode=obj["mode"],
            beta=beta,
            decomposition=tuple(decomposition),
        )


@dataclass
class CertificateReport:
    valid: bool
    conclusion: str
    messages: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.valid

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "conclusion": self.conclusion,
            "messages": list(self.messages),
        }


def _beta_degree(n: int, p: int, mode: str) -> int:
    return 2 * n - 2 * p - 1 if mode == "d" else 2 * n - 2 * p - 2


def _certificate_lhs(pres, p, mode, beta) -> InvariantForm:
    """d beta, or the (n-p, n-p) part of del delbar beta."""
    if mode == "d":
        return pres.d(beta)
    return pres.del_delbar(beta).project(pres.n - p, pres.n - p)


def verify_obstruction_certificate(
    pres: StructurePresentation,
    cert: ObstructionCertificate,
    tol: float | None = None,
) -> CertificateReport:
    """Check a certificate exactly and state its invariant-level conclusion.

    Raises ``PresentationError`` on a presentation that is not unimodular.
    """
    pres.require_unimodular(tol)
    return _check_certificate(pres, cert, tol)


def _check_certificate(pres, cert, tol) -> CertificateReport:
    """The verifier's checks, on a presentation already found unimodular."""
    n = pres.n
    p = cert.p

    def reject(message):
        return CertificateReport(False, "", [message])

    if cert.mode not in ("d", "delbar-del"):
        return reject(f"unknown mode {cert.mode!r}")
    required = _beta_degree(n, p, cert.mode)
    if cert.beta.degree() != required:
        return reject(f"beta must have total degree {required}, got {cert.beta.degree()}")
    if cert.beta.n != n or cert.beta.backend != pres.backend:
        return reject("beta rank/backend mismatch")

    field = scalars.field(pres.backend)
    signs = set()
    rhs = InvariantForm.zero(n, pres.backend)
    for coeff, sf in cert.decomposition:
        coeff = field.coerce(coeff)
        if not field.is_zero(coeff.imag, tol):
            return reject(f"coefficient {field.format(coeff)} is not real")
        if field.is_zero(coeff, tol):
            return reject("zero coefficient in decomposition")
        signs.add(1 if coeff.real > 0 else -1)
        psi_form = sf.to_form(pres.backend)
        if psi_form.terms and psi_form.bidegree() != (n - p, 0):
            return reject(f"decomposition factor has bidegree {psi_form.bidegree()}, "
                          f"expected ({n - p}, 0)")
        rhs = rhs + wedge(psi_form, psi_form.conjugate()).scale(coeff)
    if len(signs) > 1:
        return reject("decomposition coefficients mix signs")

    lhs = _certificate_lhs(pres, p, cert.mode, cert.beta)
    if lhs.is_zero(tol):
        return reject("left-hand side vanishes; certificate carries no obstruction")
    if not lhs.equals(rhs, tol):
        diff = lhs - rhs
        mono = next(iter(diff.terms))
        return reject("decomposition mismatch; residual coefficient of "
                      f"{mono} is {field.format(diff.terms[mono])}")
    return CertificateReport(True, cert.conclusion, [
        f"decomposition verified with {len(cert.decomposition)} simple block(s), "
        f"uniform sign {'+' if 1 in signs else '-'}"
    ])


def certificate_search(
    pres: StructurePresentation,
    p: int,
    mode: str = "d",
    budget: int = 200,
    tol: float | None = None,
) -> list[ObstructionCertificate]:
    """Bounded brute force over single-monomial beta with unit coefficients.

    Proposes beta = s * (basis monomial) for s in {1, i}, the first
    ``budget`` of them, and keeps each whose relevant differential is a sum
    of diagonal blocks phi^I ^ phibar^I that ``verify_obstruction_certificate``
    accepts.  Only a limited certificate shape, but it is the shape every
    catalogued obstruction takes.  ``p`` must lie in 1..n-1 and ``mode`` be
    ``"d"`` or ``"delbar-del"``; anything else raises ``ValueError``.
    """
    n = pres.n
    if not 1 <= p <= n - 1:
        raise ValueError(f"p = {p} out of range 1..{n - 1} for rank {n}")
    if mode not in ("d", "delbar-del"):
        raise ValueError(f"mode must be 'd' or 'delbar-del', got {mode!r}")
    pres.require_unimodular(tol)
    required = _beta_degree(n, p, mode)
    field = scalars.field(pres.backend)
    candidates = (
        InvariantForm(n, {mono: scale}, pres.backend)
        for bid_p in range(required + 1)
        for mono in bidegree_basis(n, bid_p, required - bid_p)
        for scale in (field.one, field.i_power(1))
    )
    found = (_diagonal_certificate(pres, p, mode, beta, tol)
             for beta in itertools.islice(candidates, max(budget, 0)))
    return [cert for cert in found if cert is not None]


def _diagonal_certificate(pres, p, mode, beta, tol):
    """beta's certificate read off a nonzero left-hand side of diagonal
    blocks phi^I ^ phibar^I, if the verifier's checks accept it; None
    otherwise.  The caller has gated ``pres`` as unimodular."""
    lhs = _certificate_lhs(pres, p, mode, beta)
    if not lhs.terms or any(mono.holo != mono.anti for mono in lhs.terms):
        return None
    decomposition = tuple(
        (coeff, SimpleForm.coordinate(mono.holo_indices, pres.n))
        for mono, coeff in lhs.terms.items()
    )
    cert = ObstructionCertificate(p=p, mode=mode, beta=beta, decomposition=decomposition)
    return cert if _check_certificate(pres, cert, tol).valid else None


# ---------------------------------------------------------------------------
# exact simple holomorphic forms (complex-parallelizable presentations)
# ---------------------------------------------------------------------------


@dataclass
class SimpleSearchVerdict:
    kind: str  # "no-obstruction" | "obstruction" | "undecided"
    reason: str
    dim_image: int
    xi: InvariantForm | None = None
    minimal_polynomial: str | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "reason": self.reason,
            "dim_image": self.dim_image,
            "note": "invariant-level search",
        }
        if self.xi is not None:
            out["xi"] = str(self.xi)
        if self.minimal_polynomial is not None:
            out["minimal_polynomial"] = self.minimal_polynomial
        return out


def exact_simple_holomorphic_search(
    pres: StructurePresentation, q: int, xi: InvariantForm | None = None
) -> SimpleSearchVerdict:
    """Search d(Lambda^{q-1,0}) for a nonzero simple element.

    Requires a complex-parallelizable presentation (every d phi^i purely
    (2,0)), where d of a (q-1, 0)-form is again (q, 0) and every invariant
    (q, 0)-form is holomorphic, so the image V = d(Lambda^{q-1,0}) is
    exactly the space of exact holomorphic q-forms.  ``is_decomposable`` of
    each basis element of V decides q in {1, n-1, n}, where every nonzero
    form is simple, and q = 2 with dim V = 1.  For q = 2 the pencils of basis
    pairs follow, each through a gcd of binary quadrics (the Pluecker
    relation), which decides dim V = 2.  Other cases verify a supplied
    certificate xi or stay undecided.  Raises ``PresentationError`` on a
    presentation that is not complex-parallelizable, exact and unimodular.
    """
    n = pres.n
    if not 1 <= q <= n:
        raise ValueError(f"q must lie in 1..{n}")
    if not pres.is_complex_parallelizable():
        raise PresentationError("presentation is not complex-parallelizable: "
                                "some d phi^i has a component outside (2,0)")
    # a field that decides zero within a tolerance has no exact square roots
    if scalars.field(pres.backend).tolerance(None) is not None:
        raise PresentationError("presentation is not exact: the simple-form search "
                                "decides exactly whether a root lies in Q[i]")
    pres.require_unimodular()

    sources = bidegree_basis(n, q - 1, 0)
    targets = bidegree_basis(n, q, 0)
    la = linalg.for_backend(pres.backend)
    d_matrix = pres.matrix("d", sources, targets)
    # the first images that span V, in source order
    pivots = la.pivot_columns(d_matrix)
    dim_v = len(pivots)
    v_forms = [pres.d_monomial(sources[c]) for c in pivots]

    if xi is not None:
        return _verify_simple_certificate(pres, q, xi, d_matrix, sources, targets, dim_v)
    if dim_v == 0:
        return SimpleSearchVerdict(
            "no-obstruction", "the image d(Lambda^{q-1,0}) is zero", 0
        )
    for f in v_forms:
        if is_decomposable(f):
            return SimpleSearchVerdict(
                "obstruction", "an image basis element is simple", dim_v, xi=f
            )
    if q != 2:
        return SimpleSearchVerdict(
            "undecided", f"degree q = {q} is only certificate-checked; supply xi", dim_v
        )
    if dim_v == 1:
        return SimpleSearchVerdict(
            "no-obstruction", "the unique image line fails xi ^ xi = 0", dim_v
        )
    # V is the pencil itself when dim V = 2, so its verdict is final there
    for f1, f2 in itertools.combinations(v_forms, 2):
        verdict = _pencil_search(pres, f1, f2, dim_v)
        if verdict.kind == "obstruction" or dim_v == 2:
            return verdict
    return SimpleSearchVerdict(
        "undecided",
        "dim V > 2: pencil search found nothing; supply a certificate xi",
        dim_v,
    )


def _verify_simple_certificate(pres, q, xi, d_matrix, sources, targets, dim_v):
    if xi.is_zero():
        return SimpleSearchVerdict("undecided", "certificate xi is zero", dim_v)
    if xi.terms and xi.bidegree() != (q, 0):
        return SimpleSearchVerdict(
            "undecided", f"certificate must be a ({q},0)-form", dim_v
        )
    # exactness: xi = d(alpha) for some (q-1,0) alpha
    rhs = [xi.coeff(m) for m in targets]
    if linalg.for_backend(pres.backend).solve(d_matrix, rhs, len(sources)) is None:
        return SimpleSearchVerdict(
            "undecided", "certificate xi is not d-exact", dim_v
        )
    if not is_decomposable(xi):
        return SimpleSearchVerdict(
            "undecided", "certificate xi is not simple", dim_v
        )
    return SimpleSearchVerdict(
        "obstruction", "certificate verified: xi is exact, simple, holomorphic",
        dim_v, xi=xi,
    )


def _pencil_search(pres, f1, f2, dim_v) -> SimpleSearchVerdict:
    """Simple elements of span{f1, f2} for (2,0)-forms, decided exactly.

    xi(x) = x f1 + f2 gives xi ^ xi = x^2 (f1^f1) + 2x (f1^f2) + (f2^f2);
    f1 is not simple on entry, so the point at infinity is not a solution
    and x^2 (f1^f1) keeps the quadratics nonzero; a simple element exists
    iff they share a root."""
    a_form = wedge(f1, f1)
    b_form = wedge(f1, f2).scale(2)
    c_form = wedge(f2, f2)
    monos = set(a_form.terms) | set(b_form.terms) | set(c_form.terms)
    polys = []
    for m in monos:
        poly = [c_form.coeff(m), b_form.coeff(m), a_form.coeff(m)]
        while poly and not poly[-1]:
            poly.pop()
        if poly:
            polys.append(poly)
    g = []
    for poly in polys:
        g = _poly_gcd(g, poly)
        if len(g) == 1:
            break
    if len(g) == 1:
        return SimpleSearchVerdict(
            "no-obstruction",
            "the Pluecker quadratics on the pencil have no common root",
            dim_v,
        )
    field = scalars.field(pres.backend)
    if len(g) == 2:
        root = -g[0]
    else:
        # monic degree-2 gcd: a common root exists in C; it lies in the
        # field when the discriminant is a square there
        c0, c1, _ = g
        disc = c1 * c1 - 4 * c0
        sqrt_disc = field.sqrt(disc)
        root = None if sqrt_disc is None else (sqrt_disc - c1) / 2
    if root is not None:
        return SimpleSearchVerdict(
            "obstruction",
            "pencil has a rational simple element",
            dim_v,
            xi=f1.scale(root) + f2,
        )
    poly_str = f"(1) x^2 + ({field.format(c1)}) x + ({field.format(c0)})"
    root = (cmath.sqrt(complex(disc)) - complex(c1)) / 2
    xi_float = f1.to_float().scale(root) + f2.to_float()
    return SimpleSearchVerdict(
        "obstruction",
        "pencil has a simple element with quadratic-irrational parameter "
        "(float witness, exact minimal polynomial recorded)",
        dim_v,
        xi=xi_float,
        minimal_polynomial=poly_str,
    )


def _poly_gcd(a, b):
    """Monic gcd over Q[i][x]; polynomials as low-to-high coefficient lists,
    [] for the zero polynomial."""
    a = list(a)
    b = list(b)
    while b:
        a, b = b, _poly_mod(a, b)
    lead = a[-1]
    return [c / lead for c in a]


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b):
        if not a[-1]:
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# invariant del-delbar lemma and Bott-Chern dimensions
# ---------------------------------------------------------------------------


def _degree_basis(n, r):
    return [m for p in range(max(0, r - n), min(n, r) + 1) for m in bidegree_basis(n, p, r - p)]


def _ddbar_image_rank(pres, p, q) -> int:
    """dim del delbar(Lambda^{p-1,q-1}) inside Lambda^{p,q}."""
    n = pres.n
    matrix = pres.matrix(
        "del_delbar", bidegree_basis(n, p - 1, q - 1), bidegree_basis(n, p, q)
    )
    return linalg.for_backend(pres.backend).rank(matrix)


def invariant_ddbar_lemma_check(pres: StructurePresentation, p: int, q: int) -> bool:
    """ker del ^ ker delbar ^ im d == im (del delbar) inside Lambda^{p,q}.

    A d-exact (p, q)-form w has 0 = dw = del w + delbar w, two terms of
    different bidegrees, so the triple intersection is im d ^ Lambda^{p,q} =
    D(ker D_out), with D the matrix of d from degree p+q-1 to p+q and D_out
    its rows outside (p, q).  As ker D lies in ker D_out, its dimension is
    rank D - rank D_out.  That needs d = del + delbar and d*d = 0, so any
    other presentation raises ``PresentationError``.  The triple intersection
    contains im(del delbar), so the dimensions decide, exactly or under the
    float rank rule.
    """
    n = pres.n
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for rank {n}")
    pres.require_double_complex()
    la = linalg.for_backend(pres.backend)
    # the rows outside (p, q) first: one elimination of D passes rank D_out,
    # 41 ms at (2, 3) on suites.member("st10", Random(51)), against 43 + 19 ms
    # for D with the (p, q) rows first and D_out (CPython 3.11, 2-core Xeon)
    outside = [m for m in _degree_basis(n, p + q) if m.bidegree() != (p, q)]
    target = outside + list(bidegree_basis(n, p, q))
    d_matrix = pres.matrix("d", _degree_basis(n, p + q - 1), target)
    rank_out, rank_d = la.leading_ranks(d_matrix, len(outside))
    return rank_d - rank_out == _ddbar_image_rank(pres, p, q)


def bott_chern_dimensions(pres: StructurePresentation) -> dict[tuple[int, int], int]:
    """dim (ker del ^ ker delbar / im del delbar) per bidegree,
    on the invariant complex."""
    pres.require_double_complex()
    n = pres.n
    la = linalg.for_backend(pres.backend)
    out = {}
    for p in range(n + 1):
        for q in range(n + 1):
            # ker del ^ ker delbar: the kernel of [del; delbar] on (p, q)-forms
            sources = bidegree_basis(n, p, q)
            closed = pres.matrix("del", sources, bidegree_basis(n, p + 1, q))
            closed += pres.matrix("delbar", sources, bidegree_basis(n, p, q + 1))
            ker = len(sources) - la.rank(closed)
            out[(p, q)] = ker - _ddbar_image_rank(pres, p, q)
    return out
