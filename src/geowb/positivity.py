"""Transversality testing of real (p, p)-forms.

A real (p, p)-form psi on a rank-n coframe is *transverse* when

    sigma(n-p) * psi ^ beta ^ conjugate(beta)

is a strictly positive multiple of the volume form for every nonzero
simple (n-p, 0)-form beta (a wedge of n-p covectors).  ``pairing``
evaluates that quantity exactly; ``pairing_matrix`` writes it as a
Hermitian form T on the Pluecker coordinates of beta.
``transversality_sample`` searches for a violating beta with random draws,
each refined by one coordinate-descent pass, SAMPLE_CHUNK draws at a time
as one (chunk, n-p, n) stack, with one numpy svd/eigh call per step, the
Pluecker minors by Laplace expansion and Gram determinants by Cauchy-Binet.
Its seed contract: draw k is the k-th draw of
``numpy.random.default_rng(seed)`` whatever the chunking, and a falsified
verdict reports the 1-based index k of the first falsifying draw as
``samples``, although its whole chunk was refined.  Sampling can falsify
but never certify -- transversality is universally quantified -- so
positive outcomes are reported as ``not-falsified`` with the observed
minimum.  Analytic certificates (metric powers, top-degree forms, the
Om_a family below) are the only source of ``certified-positive`` verdicts.

numpy is imported on first use, by the sampler, ``pairing_matrix`` and
the falsifying Om_a witness.

For n = 4 the (2, 0)-forms

    Om^1 = phi^{12}, Om^2 = phi^{13}, Om^3 = phi^{14},
    Om^4 = phi^{23}, Om^5 = -phi^{24}, Om^6 = phi^{34}

satisfy Om^j ^ Om^k = phi^{1234} exactly when k = 7 - j.
``omega_a_transversality`` decides transversality exactly for the positive
multiples c Om_a (c > 0 real) of the one-parameter family

    Om_a = sum_l Om^l ^ conj(Om^l) + a Om^i ^ conj(Om^j)
                                   + conj(a) Om^j ^ conj(Om^i)

with (i, j) one of (1,6), (2,5), (3,4), which is transverse iff |a| < 2.
It reads c and a off the coefficients of the form (``recognize_omega_a``)
and returns None for every other form; those forms are left to sampling.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import scalars
from .forms import (
    InvariantForm,
    Monomial,
    bidegree_basis,
    sigma,
    volume_ratio,
    wedge,
    wedge_monomials,
)
from .scalars import EXACT

if TYPE_CHECKING:
    import numpy as np

CERTIFIED_POSITIVE = "certified-positive"
FALSIFIED = "falsified"
NOT_FALSIFIED = "not-falsified"

FALSIFICATION_TOL = 1e-9  # numeric slack: the boundary of the cone attains 0
SAMPLE_CHUNK = 64  # draws refined and evaluated together as one stack


@dataclass(frozen=True)
class SimpleForm:
    """A wedge of q covectors from the span of phi^1..phi^n.

    ``factors`` holds the coefficient vectors (length n each); the form is
    zero exactly when the factors are linearly dependent.
    """

    n: int
    factors: tuple[tuple[object, ...], ...]

    @classmethod
    def make(cls, factors, n: int | None = None) -> "SimpleForm":
        rows = tuple(tuple(row) for row in factors)
        if n is None:
            if not rows:
                raise ValueError("cannot infer n from an empty factor list")
            n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("all factors must have length n")
        return cls(n, rows)

    @classmethod
    def coordinate(cls, indices, n: int) -> "SimpleForm":
        """phi^{i1} ^ ... ^ phi^{iq} for the given indices."""
        rows = []
        for i in indices:
            row = [0] * n
            row[i - 1] = 1
            rows.append(tuple(row))
        return cls(n, tuple(rows))

    @property
    def degree(self) -> int:
        return len(self.factors)

    def to_form(self, backend: str = EXACT) -> InvariantForm:
        out = InvariantForm.unit(self.n, backend)
        for row in self.factors:
            terms = {Monomial.make([j], [], self.n): c for j, c in enumerate(row, start=1)}
            out = wedge(out, InvariantForm(self.n, terms, backend))
        return out

    def to_json(self) -> dict:
        rows = [[scalars.field_of(c).to_json(c) for c in row] for row in self.factors]
        return {"n": self.n, "factors": rows}

    @classmethod
    def from_json(cls, obj: dict, backend: str = EXACT) -> "SimpleForm":
        from_json = scalars.field(backend).from_json
        rows = tuple(tuple(from_json(c) for c in row) for row in obj["factors"])
        return cls(int(obj["n"]), rows)


@dataclass
class TransversalityVerdict:
    """Outcome of a transversality test.

    kind is one of ``certified-positive`` (analytic certificate, named),
    ``falsified`` (a witness simple form with non-positive pairing), or
    ``not-falsified`` (N samples searched; the minimum stayed positive).
    """

    kind: str
    certificate: str | None = None
    witness: SimpleForm | None = None
    value: float | None = None
    min_value: float | None = None
    samples: int | None = None
    seed: int | None = None
    tol: float | None = None
    note: str = ""

    @property
    def positive(self) -> bool:
        return self.kind in (CERTIFIED_POSITIVE, NOT_FALSIFIED)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.value is not None:
            out["value"] = self.value
        if self.min_value is not None:
            out["min_value"] = self.min_value
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        if self.tol is not None:
            out["tol"] = self.tol
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.note:
            out["note"] = self.note
        return out


def certified(name: str, note: str = "") -> TransversalityVerdict:
    return TransversalityVerdict(kind=CERTIFIED_POSITIVE, certificate=name, note=note)


# ---- the exact pairing ---------------------------------------------------


class PPFormError(ValueError):
    """The form given is not a real form of bidegree (p, p)."""


def pp_degree(psi: InvariantForm) -> int:
    """p for a real form psi of bidegree (p, p), PPFormError for any other
    form; the zero form counts as an (n, n)-form."""
    bideg = psi.bidegree()
    if psi.terms and (bideg is None or bideg[0] != bideg[1]):
        raise PPFormError("psi must be homogeneous of bidegree (p, p)")
    if not psi.is_real():
        raise PPFormError("psi must be real")
    return bideg[0] if bideg else psi.n


def pairing(psi: InvariantForm, beta: SimpleForm):
    """volume_ratio(sigma(n-p) * psi ^ beta ^ conj(beta)).

    psi must be real of bidegree (p, p) and beta of degree n - p.  The
    result is a real scalar (imaginary part exactly zero on the exact
    backend).
    """
    q = psi.n - pp_degree(psi)
    if beta.degree != q:
        raise ValueError(f"beta must have degree {q}, got {beta.degree}")
    if beta.n != psi.n:
        raise ValueError("rank mismatch between psi and beta")
    bform = beta.to_form(psi.backend)
    prod = wedge(wedge(psi, bform), bform.conjugate()).scale(sigma(q, psi.backend))
    return volume_ratio(prod)


@functools.cache
def _pairing_plan(n: int, q: int) -> dict:
    """{mu: (row, col, sign)} over the (n-q, n-q) monomials: the q-subsets
    complementary to mu's index sets, and the sign of mu ^ their monomial."""
    index = {s: k for k, s in enumerate(itertools.combinations(range(1, n + 1), q))}
    full = (1 << n) - 1
    plan = {}
    for mono in bidegree_basis(n, n - q, n - q):
        partner = Monomial(full & ~mono.holo, full & ~mono.anti)
        _, sign = wedge_monomials(mono, partner)
        plan[mono] = index[partner.holo_indices], index[partner.anti_indices], sign
    return plan


def pairing_matrix(psi: InvariantForm):
    """(subsets, T): pairing(psi, beta) = P @ T @ conj(P) for the Pluecker
    coordinates P of beta over the listed (n-p)-subsets.

    T is Hermitian whenever psi is real; it is computed exactly and then
    converted to complex.
    """
    import numpy as np

    n, bideg = psi.n, psi.bidegree()
    q = n - (bideg[0] if bideg else n)
    subsets = list(itertools.combinations(range(1, n + 1), q))
    t = np.zeros((len(subsets), len(subsets)), dtype=complex)
    sig = complex(sigma(q, psi.backend))
    vol_unit = complex(sigma(n, psi.backend))
    plan = _pairing_plan(n, q)
    for mono, coeff in psi.terms.items():
        if mono in plan:
            row, col, sign = plan[mono]
            t[row, col] += complex(coeff) * sign * sig / vol_unit
    return subsets, t


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


@functools.cache
def _expansion(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(subsets, minor, sign): by Laplace along row r-1, the minor on the
    r-subset of columns subsets[i] is the sum over t of sign[t] * entry(r-1,
    subsets[i, t]) * (the minor of rows 0..r-2 on the minor[i, t]-th subset)."""
    import numpy as np

    below = {s: i for i, s in enumerate(itertools.combinations(range(n), r - 1))}
    subsets = list(itertools.combinations(range(n), r))
    minor = [[below[s[:t] + s[t + 1:]] for t in range(r)] for s in subsets]
    return np.array(subsets), np.array(minor), (-1) ** np.arange(r - 1, 2 * r - 1)


def _plucker(b: np.ndarray) -> np.ndarray:
    """Pluecker coordinates (..., C(n, q)) of a stack (..., q, n) of factor
    matrices: its q x q minors, by Laplace row by row from the 0 x 0 minor 1."""
    import numpy as np

    q, n = b.shape[-2:]
    minors = np.ones(b.shape[:-2] + (1,), dtype=b.dtype)
    for r in range(1, q + 1):
        subsets, minor, sign = _expansion(n, r)
        minors = (b[..., r - 1, subsets] * minors[..., minor] * sign).sum(axis=-1)
    return minors


def _gram(minors: np.ndarray) -> np.ndarray:
    """det(b b^H) from the Pluecker coordinates of b (Cauchy-Binet)."""
    return (minors.real ** 2 + minors.imag ** 2).sum(axis=-1)


def _replaced_rows(minors: np.ndarray, n: int, q: int, k: int) -> np.ndarray:
    """Row j: the Pluecker coordinates of a q x n matrix with row k replaced
    by e_j, from the (q-1)-minors of its other rows.  By Laplace along row k
    that is (-1)^(k+t) times the minor on S minus j at S with S[t] = j."""
    import numpy as np

    subsets, minor, _ = _expansion(n, q)
    sign = (-1) ** (k + np.arange(q))
    out = np.zeros(minors.shape[:-1] + (n, len(subsets)), dtype=minors.dtype)
    out[..., subsets, np.arange(len(subsets))[:, None]] = minors[..., minor] * sign
    return out


def _sample_values(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gram-normalised pairings of a stack (batch, q, n) of draws; inf where
    the factors are degenerate (the caller skips those draws)."""
    import numpy as np

    p = _plucker(b)
    gram = _gram(p)
    raw = ((p @ t) * p.conj()).sum(axis=-1).real
    values = np.full(len(b), np.inf)
    ok = gram > 1e-300
    values[ok] = raw[ok] / gram[ok]
    return values


def _refine_pass(b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One coordinate-descent pass over a stack (batch, q, n) of draws:
    minimise each draw's Gram-normalised pairing over each factor in turn,
    holding the others fixed.  A draw whose other factors are (nearly)
    dependent keeps that factor."""
    import numpy as np

    batch, q, n = b.shape
    for k in range(q):
        others = np.delete(b, k, axis=-2)
        minors = _plucker(others)
        gram_others = _gram(minors)  # exactly 1 when q = 1
        keep = gram_others > 1e-12
        if q == 1:
            basis = np.broadcast_to(np.eye(n, dtype=complex), (batch, n, n))
        else:
            # null space of others.conj(), when its rank is q - 1: every
            # singular value is above max * eps * n
            _, sv, vh = np.linalg.svd(others.conj())
            keep &= sv[:, -1] > sv[:, 0] * np.finfo(float).eps * n
            basis = _adjoint(vh[:, q - 1:])
        sel = np.flatnonzero(keep)
        if not sel.size:
            continue
        basis = basis[sel]
        # row j of s: the Pluecker vector of b with factor k replaced by e_j
        s = _replaced_rows(minors[sel], n, q, k)
        m = s @ t @ _adjoint(s)
        # value(v) = v @ m @ conj(v) = v^H conj(m) v ; conj(m) is Hermitian
        reduced = _adjoint(basis) @ m.conj() @ basis / gram_others[sel, None, None]
        reduced = 0.5 * (reduced + _adjoint(reduced))
        _, eigvecs = np.linalg.eigh(reduced)
        v = (basis @ eigvecs[..., :1])[..., 0]
        norm = np.linalg.norm(v, axis=-1)
        moved = norm > 1e-12
        b[sel[moved], k] = v[moved] / norm[moved, None]
    return b


def transversality_sample(
    psi: InvariantForm,
    samples: int = 10000,
    seed: int = 0,
    tol: float = FALSIFICATION_TOL,
) -> TransversalityVerdict:
    """Randomised falsification search for transversality of psi.

    Draws ``samples`` simple forms with independent complex Gaussian factor
    entries, applies one local refinement pass per draw, and evaluates the
    Gram-normalised pairing.  Draws are made, refined and evaluated in
    chunks of SAMPLE_CHUNK, as stacked numpy arrays.  Returns ``falsified``
    with the first draw whose value drops to ``tol`` or below, otherwise
    ``not-falsified`` with the minimum.

    Seed contract: draw k (1-based) is the k-th (q, n) pair of real and
    imaginary parts from ``numpy.random.default_rng(seed)``, the same draw
    for any chunking, and a falsified verdict reports that k of the first
    falsifying draw as ``samples``, although its whole chunk was drawn and
    refined.  Identical seed and configuration reproduce the report
    bit-for-bit.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = psi.n
    q = n - pp_degree(psi)

    if q == 0:
        # top-degree case: transversality is just positivity of the volume ratio
        ratio = volume_ratio(psi).real
        positive = ratio > 0
        if positive:
            return TransversalityVerdict(
                kind=CERTIFIED_POSITIVE,
                certificate="top-degree",
                note="an (n, n)-form is transverse iff it is a positive "
                "multiple of the volume form",
            )
        return TransversalityVerdict(
            kind=FALSIFIED,
            witness=SimpleForm(n, ()),
            value=float(ratio),
            samples=0,
            seed=seed,
            tol=tol,
        )

    import numpy as np

    _, t = pairing_matrix(psi)
    rng = np.random.default_rng(seed)
    min_value = np.inf
    for start in range(0, samples, SAMPLE_CHUNK):
        draws = rng.standard_normal((min(SAMPLE_CHUNK, samples - start), 2, q, n))
        b = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        values = _sample_values(b, t)
        finite = np.isfinite(values)
        refined = _refine_pass(b[finite], t)
        b[finite] = refined
        values[finite] = _sample_values(refined, t)
        finite = np.isfinite(values)
        hits = np.flatnonzero(finite & (values <= tol))
        if hits.size:
            first = int(hits[0])
            return TransversalityVerdict(
                kind=FALSIFIED,
                witness=SimpleForm.make([tuple(row) for row in b[first]], n),
                value=float(values[first]),
                samples=start + first + 1,
                seed=seed,
                tol=tol,
            )
        if finite.any():
            min_value = min(min_value, values[finite].min())
    return TransversalityVerdict(
        kind=NOT_FALSIFIED,
        min_value=float(min_value),
        samples=samples,
        seed=seed,
        tol=tol,
    )


# ---- the Om_a family of (2,2)-forms on rank 4 ------------------------------

# Om^j as (holomorphic index pair, sign); Om^j ^ Om^{7-j} = phi^{1234}
OMEGA_BASIS: tuple[tuple[tuple[int, int], int], ...] = (
    ((1, 2), 1),
    ((1, 3), 1),
    ((1, 4), 1),
    ((2, 3), 1),
    ((2, 4), -1),
    ((3, 4), 1),
)

OMEGA_PAIRS = ((1, 6), (2, 5), (3, 4))

# the index bitmask of each Om^j
_OMEGA_MASKS = tuple(1 << (a - 1) | 1 << (b - 1) for (a, b), _ in OMEGA_BASIS)


def omega_basis_form(j: int, n: int = 4, backend: str = EXACT) -> InvariantForm:
    """The basis (2,0)-form Om^j (1-based)."""
    (a, b), sign = OMEGA_BASIS[j - 1]
    return InvariantForm(n, {Monomial.make([a, b], [], n): sign}, backend)


def omega_a_form(a, pair=(2, 5), backend: str = EXACT) -> InvariantForm:
    """Om_a as an invariant (2,2)-form on rank 4."""
    if tuple(pair) not in OMEGA_PAIRS:
        raise ValueError(f"pair must be one of {OMEGA_PAIRS}")
    a = scalars.field(backend).coerce(a)
    total = InvariantForm.zero(4, backend)
    for l in range(1, 7):
        om = omega_basis_form(l, backend=backend)
        total = total + wedge(om, om.conjugate())
    i, j = pair
    omi = omega_basis_form(i, backend=backend)
    omj = omega_basis_form(j, backend=backend)
    total = total + wedge(omi, omj.conjugate()).scale(a)
    total = total + wedge(omj, omi.conjugate()).scale(a.conjugate())
    return total


def omega_a_verdict(a) -> bool:
    """Transversality of Om_a: |a| < 2, exact for an exact a."""
    return (a * a.conjugate()).real < 4


def recognize_omega_a(psi: InvariantForm):
    """(a, pair) if psi is c Om_a for a real c > 0, else None; c Om_0 gives
    (0, None).

    Om^j ^ conj(Om^k) is phi^{S_j} ^ phibar^{S_k} times the two signs of
    OMEGA_BASIS, so psi is c Om_a when the six phi^S ^ phibar^S carry one
    real c > 0, at most one pair of ``OMEGA_PAIRS`` carries x at
    phi^{S_i} ^ phibar^{S_j} and conj(x) at phi^{S_j} ^ phibar^{S_i}, and
    nothing else is present.  Then a = x / c, and a = -x / c for the pair
    (2, 5), whose Om^5 is -phi^{24}.
    """
    if psi.n != 4:
        return None
    field = scalars.field(psi.backend)
    rest = dict(psi.terms)
    diagonal = [rest.pop(Monomial(s, s), field.zero) for s in _OMEGA_MASKS]
    c = diagonal[0]
    if not field.is_positive(c) or not all(field.close(x, c) for x in diagonal):
        return None
    rest = {mono: x for mono, x in rest.items() if not field.is_zero(x)}
    if not rest:
        return field.zero, None
    for i, j in OMEGA_PAIRS:
        cross = Monomial(_OMEGA_MASKS[i - 1], _OMEGA_MASKS[j - 1])
        back = Monomial(_OMEGA_MASKS[j - 1], _OMEGA_MASKS[i - 1])
        if cross not in rest and back not in rest:
            continue
        x, y = rest.pop(cross, field.zero), rest.pop(back, field.zero)
        if rest or not field.close(y, x.conjugate()):
            return None
        sign = OMEGA_BASIS[i - 1][1] * OMEGA_BASIS[j - 1][1]
        return x * sign / c, (i, j)
    return None


def _omega_a_boundary_witness(a: complex, pair) -> np.ndarray:
    """Om-basis coordinates z of a simple (2,0)-form sum z_l Om^l
    (z1 z6 + z2 z5 + z3 z4 = 0) at which the Hermitian form of Om_a,
    sum_l |z_l|^2 + 2 Re(a conj(z_i) z_j), equals 2|a|(2 - |a|)."""
    import numpy as np

    mag = abs(a)
    z = np.zeros(6, dtype=complex)
    i, j = pair
    z[i - 1] = np.sqrt(mag)
    z[j - 1] = -np.conj(a) / np.sqrt(mag)
    for c, d in OMEGA_PAIRS:
        if (c, d) == pair:
            continue
        root = np.sqrt(np.conj(a) / 2 + 0j)
        z[c - 1] = root
        z[d - 1] = root
    return z


def omega_a_transversality(psi: InvariantForm) -> TransversalityVerdict | None:
    """The exact verdict for a positive multiple c Om_a of the Om_a family:
    certified when |a| < 2, else falsified with a simple witness.  None for
    any other form."""
    hit = recognize_omega_a(psi)
    if hit is None:
        return None
    a, pair = hit
    field = scalars.field(psi.backend)
    c = psi.coeff(Monomial(_OMEGA_MASKS[0], _OMEGA_MASKS[0]))
    a_text = field.format(a)
    if not field.close(c, field.one):
        a_text += f" (scaled by {field.format(c)})"
    if omega_a_verdict(a):
        return certified("omega-a-family", note=f"|a| < 2 with a = {a_text}")
    ac = complex(a)
    z = _omega_a_boundary_witness(ac, pair)
    value = 2 * abs(ac) * (2 - abs(ac)) / float((z.conj() @ z).real)
    return TransversalityVerdict(
        kind=FALSIFIED,
        witness=_z_to_simple_form(z),
        value=complex(c).real * value,
        certificate="omega-a-family",
        tol=FALSIFICATION_TOL,
        note=f"|a| >= 2 with a = {a_text}",
    )


def _z_to_simple_form(z: np.ndarray) -> SimpleForm:
    """Factor xi = sum z_l Om^l (simple when z1 z6 + z2 z5 + z3 z4 = 0)
    into two covectors."""
    import numpy as np

    x = np.zeros((4, 4), dtype=complex)
    for l, ((a_idx, b_idx), sign) in enumerate(OMEGA_BASIS):
        x[a_idx - 1, b_idx - 1] += sign * z[l]
        x[b_idx - 1, a_idx - 1] -= sign * z[l]
    flat = np.abs(x)
    j0, k0 = np.unravel_index(np.argmax(flat), x.shape)
    pivot = x[j0, k0]
    if abs(pivot) < 1e-15:
        return SimpleForm.make([(0.0,) * 4, (0.0,) * 4])
    v1 = x[j0, :] / pivot  # interior product with e_{j0}, rescaled
    v2 = x[k0, :]
    return SimpleForm.make([tuple(v1), tuple(v2)])


# ---- decomposability (Pluecker) -------------------------------------------


def interior_product(index: int, f: InvariantForm) -> InvariantForm:
    """Contraction of a pure (q,0)-form with the holomorphic frame vector
    dual to phi^index."""
    terms = {}
    bit = 1 << (index - 1)
    for mono, coeff in f.terms.items():
        if mono.anti:
            raise ValueError("interior_product expects a (q,0)-form")
        if not (mono.holo & bit):
            continue
        below = (mono.holo & (bit - 1)).bit_count()
        contrib = -coeff if below & 1 else coeff
        new = Monomial(mono.holo & ~bit, 0)
        terms[new] = terms[new] + contrib if new in terms else contrib
    return InvariantForm(f.n, terms, f.backend)


def is_decomposable(f: InvariantForm, tol: float | None = None) -> bool:
    """Whether a (q,0)-form is a wedge of q covectors.

    Uses the contraction form of the Pluecker relations:
    (i_v f) ^ f = 0 for all frame vectors v.  Exact on the exact backend.
    """
    if f.is_zero(tol):
        return True
    if any(m.anti for m in f.terms):
        raise ValueError("decomposability test expects a (q,0)-form")
    for i in range(1, f.n + 1):
        if not wedge(interior_product(i, f), f).is_zero(tol):
            return False
    return True
