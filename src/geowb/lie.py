"""Complex Lie-algebra presentations and the derivations d, del, delbar.

A presentation is the dual picture of a Lie algebra: the rank n and the
values ``d phi^1, ..., d phi^n`` as invariant 2-forms, with
``d phibar^i = conjugate(d phi^i)``.  ``d*d = 0`` on the generators is
equivalent to the Jacobi identity and suffices for ``d*d = 0`` everywhere;
``validate`` checks exactly that.

d, del and delbar are odd derivations given by tables of their values on
the 2n generators.  A table lists, per generator in canonical order
(phi^1..phi^n, then phibar^1..phibar^n), the terms of its value as
``(w, mask, c)``: the canonical word ``w = holo | anti << n``, the XOR
``mask`` of ``(1 << k) - 1`` over the bits k of w, and the coefficient.
One pass over the terms of the ``d phi^i`` and their conjugates builds all
three tables, once per presentation, and reads off two facts: a nonzero
(0,2) part of some ``d phi^i`` makes the presentation not *integrable*
(the Nijenhuis tensor does not vanish), a nonzero part outside (2,0) not
*complex-parallelizable*.  One routine extends a table to monomials by the
graded Leibniz rule on these words; each presentation caches every
monomial image it makes as a ``{Monomial: coefficient}`` dict, per
operator, plus del delbar of a monomial built from the del and delbar
images.  ``d``, ``del_``, ``delbar`` and ``del_delbar`` sum those images
over a form's terms, and ``matrix`` reads them into the sparse rows of an
operator's matrix, the package's one builder of operator matrices.

The presentation owns every refusal of what it cannot serve, each a
``PresentationError`` with one message per fact: del and delbar refuse a
presentation that is not integrable (where d != del + delbar) before any
image is looked up, ``require_double_complex`` also one with d*d != 0, and
``require_unimodular`` one on which an invariant volume form is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import scalars
from .forms import InvariantForm, Monomial, bidegree_basis, wedge
from .scalars import EXACT


class PresentationError(ValueError):
    """A presentation the computation cannot serve (not integrable, d*d != 0,
    not unimodular, not complex-parallelizable)."""


class StructurePresentation:
    """Rank n plus the differentials of the coframe generators.

    Treat instances as immutable after construction; the operator caches
    are internal memoisation only.
    """

    def __init__(self, n: int, dphi, name: str = "", backend: str = EXACT):
        dphi = tuple(dphi)
        if len(dphi) != n:
            raise ValueError(f"expected {n} generator differentials, got {len(dphi)}")
        for i, f in enumerate(dphi, start=1):
            if not isinstance(f, InvariantForm):
                raise TypeError(f"d phi^{i} must be an InvariantForm")
            if f.n != n:
                raise ValueError(f"d phi^{i} has rank {f.n}, expected {n}")
            if f.backend != backend:
                raise ValueError(f"d phi^{i} backend {f.backend} != {backend}")
            if f.terms and f.degree() != 2:
                raise ValueError(f"d phi^{i} must be homogeneous of degree 2")
        self.n = n
        self.dphi = dphi
        self.name = name
        self.backend = backend
        is_zero = scalars.field(backend).is_zero
        d, del_, delbar = ([[] for _ in range(2 * n)] for _ in range(3))
        self._integrable = self._parallelizable = True
        for i, f in enumerate(dphi):
            for (h, a), c in f.terms.items():
                p = h.bit_count()
                # w has two bits, so mask = w - 2 * low bit; conj(c phi^I ^
                # phibar^J) = (-1)^(|I| |J|) conj(c) phi^J ^ phibar^I
                term = (w := h | a << n, w - 2 * (w & -w), c)
                c_bar = -c.conjugate() if p == 1 else c.conjugate()
                term_bar = (w := a | h << n, w - 2 * (w & -w), c_bar)
                d[i].append(term)
                d[n + i].append(term_bar)
                if p == 2:  # (2,0): del of phi^i; its conjugate, delbar of phibar^i
                    del_[i].append(term)
                    delbar[n + i].append(term_bar)
                elif p == 1:  # (1,1): delbar of phi^i; its conjugate, del of phibar^i
                    delbar[i].append(term)
                    del_[n + i].append(term_bar)
                if p != 2 and not is_zero(c):
                    self._parallelizable = False
                    if p == 0:  # (0,2): in neither del nor delbar
                        self._integrable = False
        self._tables = {"d": d, "del": del_, "delbar": delbar}
        # op(mono) as a {Monomial: nonzero coefficient} dict, per operator
        self._images = {op: {} for op in (*self._tables, "del_delbar")}

    def __repr__(self):
        label = self.name or f"rank-{self.n}"
        return f"StructurePresentation({label}, backend={self.backend})"

    # ---- the three derivations ------------------------------------------

    def _image(self, op: str, mono: Monomial) -> dict:
        """The cached image of a monomial; del delbar from del and delbar."""
        cache = self._images[op]
        image = cache.get(mono)
        if image is None:
            if op == "del_delbar":
                terms = self._combine("del", self._image("delbar", mono).items())
            else:
                terms = self._leibniz(op, mono)
            image = cache[mono] = {m: c for m, c in terms.items() if c}
        return image

    def _leibniz(self, op: str, mono: Monomial) -> dict:
        """op(mono) = sum_t (-1)^t op(theta_t) ^ (mono without theta_t) over
        the generators theta_t of mono in canonical order (op(theta_t) is a
        2-form, so it moves to the front without a sign).

        theta_t is the t-th set bit ``low`` of mono's word, ``rest = word ^
        low``.  A term (w, mask, c) of op(theta_t) with w & rest == 0 gives
        (-1)^(t + popcount(rest & mask)) c at ``w | rest``: a generator g of
        w passes the popcount(rest & ((1 << g) - 1)) generators of rest below
        it, and parities add, so the XOR of w's prefix masks counts both.
        Terms go in generator by generator, values in table order.
        """
        n, table = self.n, self._tables[op]
        full, word = (1 << n) - 1, mono.holo | mono.anti << n
        terms: dict[Monomial, object] = {}
        bits, t = word, 0
        while bits:
            low = bits & -bits
            bits ^= low
            rest = word ^ low
            for w, mask, c in table[low.bit_length() - 1]:
                if w & rest:
                    continue
                p = w | rest
                m = tuple.__new__(Monomial, (p & full, p >> n))
                if (t + (rest & mask).bit_count()) & 1:
                    c = -c
                terms[m] = terms[m] + c if m in terms else c
            t += 1
        return terms

    def _combine(self, op: str, terms) -> dict:
        """sum coeff * op(mono) over (mono, coeff) pairs; cancelled terms stay."""
        out: dict[Monomial, object] = {}
        for mono, coeff in terms:
            for m, c in self._image(op, mono).items():
                x = c * coeff
                out[m] = out[m] + x if m in out else x
        return out

    def _check(self, op: str) -> None:
        if op not in self._images:
            raise ValueError(f"unknown operator {op!r}")
        if op != "d" and not self._integrable:
            raise PresentationError(
                "presentation is not integrable: some d phi^i has a (0,2) part"
            )

    def _apply(self, op: str, f: InvariantForm) -> InvariantForm:
        self._check(op)
        if f.n != self.n:
            raise ValueError(f"rank mismatch: form has {f.n}, presentation has {self.n}")
        if f.backend != self.backend:
            raise ValueError(
                f"backend mismatch: form {f.backend}, presentation {self.backend}"
            )
        return InvariantForm(self.n, self._combine(op, f.terms.items()), self.backend)

    def d_monomial(self, mono: Monomial) -> InvariantForm:
        return InvariantForm(self.n, self._image("d", mono), self.backend)

    def d(self, f: InvariantForm) -> InvariantForm:
        return self._apply("d", f)

    def del_(self, f: InvariantForm) -> InvariantForm:
        """The (p+1, q) part of d on each (p, q) component."""
        return self._apply("del", f)

    def delbar(self, f: InvariantForm) -> InvariantForm:
        """The (p, q+1) part of d on each (p, q) component."""
        return self._apply("delbar", f)

    def del_delbar(self, f: InvariantForm) -> InvariantForm:
        return self.del_(self.delbar(f))

    def matrix(self, op: str, sources, targets) -> list[dict]:
        """The matrix of ``op`` ("d", "del", "delbar" or "del_delbar") from
        the span of the monomials ``sources`` to that of ``targets``, as the
        sparse rows of ``linalg``: row r maps j to the coefficient of
        targets[r] in op(sources[j]), read off the cached images.  ``targets``
        must hold every monomial of those images (``KeyError`` otherwise).
        """
        self._check(op)
        rows = [{} for _ in targets]
        row_of = dict(zip(targets, rows))
        cache = self._images[op]
        for j, mono in enumerate(sources):
            image = cache.get(mono)
            if image is None:
                image = self._image(op, mono)
            for m, c in image.items():
                row_of[m][j] = c
        return rows

    # ---- the facts a computation needs, and its refusals -----------------

    def is_integrable(self) -> bool:
        return self._integrable

    def is_complex_parallelizable(self) -> bool:
        """Whether every d phi^i is of type (2,0)."""
        return self._parallelizable

    def require_double_complex(self, tol: float | None = None) -> None:
        """Refuse a presentation whose d is not del + delbar with d*d = 0."""
        self._check("del_delbar")  # the integrability refusal
        if not all(self.d(f).is_zero(tol) for f in self.dphi):
            raise PresentationError("presentation fails d*d = 0")

    def exact_volume_source(self, tol: float | None = None) -> Monomial | None:
        """The first monomial of degree 2n - 1 whose d is nonzero, or None.

        None means the algebra is unimodular: no invariant volume form is
        exact, which every Stokes argument needs; only a unimodular group
        has a lattice (Milnor 1976).
        """
        n = self.n
        return next((m for m in bidegree_basis(n, n - 1, n) + bidegree_basis(n, n, n - 1)
                     if not self.d_monomial(m).is_zero(tol)), None)

    def require_unimodular(self, tol: float | None = None) -> None:
        """Refuse a presentation on which an invariant volume form is exact."""
        mono = self.exact_volume_source(tol)
        if mono is not None:
            raise PresentationError(
                f"presentation is not unimodular: d({mono}) = {self.d_monomial(mono)} "
                "is an exact volume form, so no Stokes argument applies"
            )

    # ---- validation -------------------------------------------------------

    def validate(self, tol: float | None = None, exhaustive: bool = False):
        residuals = {i: self.d(f) for i, f in enumerate(self.dphi, start=1)}
        ok = all(r.is_zero(tol) for r in residuals.values())
        warnings = []
        if ok and not is_J_nilpotent(self):
            warnings.append(
                "coframe is not nilpotently ordered: some d phi^i involves "
                "generators with index >= i"
            )
        if exhaustive and ok:
            for mono in map(Monomial._make, itertools.product(range(1 << self.n), repeat=2)):
                r = self.d(self.d_monomial(mono))
                if not r.is_zero(tol):
                    ok = False
                    warnings.append(f"d(d {mono}) != 0 (Leibniz extension is broken)")
                    break
        return ValidationReport(
            name=self.name,
            ok=ok,
            integrable=self._integrable,
            residuals=residuals,
            warnings=warnings,
            exhaustive=exhaustive,
        )


@dataclass
class ValidationReport:
    """Outcome of the generator-level d*d = 0 check.

    The generator check is sufficient for d*d = 0 on every invariant form,
    because d extends by the graded Leibniz rule; ``exhaustive=True`` runs
    the monomial-by-monomial check as well (a guard on the Leibniz
    implementation itself, not on the presentation).
    """

    name: str
    ok: bool
    integrable: bool
    residuals: dict[int, InvariantForm]
    warnings: list[str] = field(default_factory=list)
    exhaustive: bool = False

    note = (
        "d*d = 0 verified on generators; by the graded Leibniz rule this "
        "extends to every invariant form"
    )

    def __bool__(self):
        return self.ok

    def residual_summary(self) -> dict[int, str]:
        return {i: str(r) for i, r in self.residuals.items() if not r.is_zero()}

    def max_residual(self) -> float:
        worst = 0.0
        for r in self.residuals.values():
            for c in r.terms.values():
                worst = max(worst, abs(complex(c)))
        return worst

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "integrable": self.integrable,
            "residuals": {str(i): s for i, s in self.residual_summary().items()},
            "max_residual": self.max_residual(),
            "warnings": list(self.warnings),
            "exhaustive": self.exhaustive,
            "note": self.note,
        }


def is_J_nilpotent(pres: StructurePresentation, search_permutations: bool = False) -> bool:
    """Whether each d phi^i uses only generators of index < i.

    With ``search_permutations`` the check is repeated over all coframe
    reorderings (bounded to n <= 6).
    """
    if _nilpotent_in_order(pres, tuple(range(1, pres.n + 1))):
        return True
    if not search_permutations:
        return False
    if pres.n > 6:
        raise ValueError("permutation search is limited to n <= 6")
    for perm in itertools.permutations(range(1, pres.n + 1)):
        if _nilpotent_in_order(pres, perm):
            return True
    return False


def _nilpotent_in_order(pres: StructurePresentation, order: tuple[int, ...]) -> bool:
    # position[i] = place of original generator i in the new coframe order
    position = {gen: place for place, gen in enumerate(order, start=1)}
    for gen in range(1, pres.n + 1):
        allowed = 0
        for other in range(1, pres.n + 1):
            if position[other] < position[gen]:
                allowed |= 1 << (other - 1)
        for mono in pres.dphi[gen - 1].terms:
            if (mono.holo | mono.anti) & ~allowed:
                return False
    return True


# ---- real presentations -------------------------------------------------


def complexify_real_presentation(
    de,
    pairing,
    name: str = "",
    backend: str = EXACT,
) -> StructurePresentation:
    """Convert real structure equations to a complex presentation.

    ``de`` lists, for each real generator ``e^1 .. e^{2n}``, the value
    ``d e^a`` as a list of ``(i, j, coeff)`` triples meaning
    ``coeff * e^i ^ e^j`` (i < j).  ``pairing`` is a perfect matching of
    the 2n real generators into n pairs ``(a, b)`` with
    ``phi^j = e^a + i e^b``; the inverse substitution is
    ``e^a = (phi^j + phibar^j)/2`` and ``e^b = (phi^j - phibar^j)/(2i)``.
    """
    m = len(de)
    if m % 2 != 0:
        raise ValueError("need an even number of real generators")
    n = m // 2
    if len(pairing) != n:
        raise ValueError(f"pairing must have {n} pairs, got {len(pairing)}")
    used = set()
    for a, b in pairing:
        for x in (a, b):
            if not 1 <= x <= m or x in used:
                raise ValueError("pairing is not a perfect matching of 1..2n")
            used.add(x)

    field = scalars.field(backend)
    half = Fraction(1, 2)
    plus_half = field.coerce(scalars.GaussRational(half))
    i_half = field.coerce(scalars.GaussRational(0, half))

    # e^a = (phi^j + phibar^j)/2 ; e^b = (phi^j - phibar^j)/(2i)
    real_one_forms: dict[int, InvariantForm] = {}
    for j, (a, b) in enumerate(pairing, start=1):
        phi = InvariantForm.generator(n, j, backend)
        phibar = InvariantForm.generator(n, j, backend, conjugated=True)
        real_one_forms[a] = (phi + phibar).scale(plus_half)
        real_one_forms[b] = (phi - phibar).scale(-i_half)

    def real_two_form(entries) -> InvariantForm:
        total = InvariantForm.zero(n, backend)
        for i, j, coeff in entries:
            if not (1 <= i <= m and 1 <= j <= m) or i == j:
                raise ValueError(f"bad real generator pair ({i},{j})")
            total = total + wedge(real_one_forms[i], real_one_forms[j]).scale(coeff)
        return total

    dphi = []
    for a, b in pairing:
        # d phi^j = d e^a + i d e^b
        da = real_two_form(de[a - 1])
        db = real_two_form(de[b - 1])
        dphi.append(da + db.scale(field.i_power(1)))
    return StructurePresentation(n, dphi, name=name, backend=backend)


# ---- serialization --------------------------------------------------------


def presentation_to_json(pres: StructurePresentation) -> dict:
    from .forms import form_to_json

    return {
        "name": pres.name,
        "n": pres.n,
        "backend": pres.backend,
        "dphi": [form_to_json(f) for f in pres.dphi],
    }


def presentation_from_json(obj: dict) -> StructurePresentation:
    from .forms import form_from_json

    if "de" in obj:
        de = [
            [(int(e["i"]), int(e["j"]), e["coeff"]) for e in entries]
            for entries in obj["de"]
        ]
        pairing = [tuple(p) for p in obj["pairing"]]
        return complexify_real_presentation(
            de, pairing, name=obj.get("name", ""), backend=obj.get("backend", EXACT)
        )
    n = int(obj["n"])
    backend = obj.get("backend", EXACT)
    dphi = [form_from_json(f) for f in obj["dphi"]]
    return StructurePresentation(n, dphi, name=obj.get("name", ""), backend=backend)
