"""Randomised property suites, run by the unit tests."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from geowb import catalog
from geowb.forms import (
    InvariantForm,
    Monomial,
    _indices,
    bidegree_basis,
    normalize_monomial,
    sigma,
    wedge,
    wedge_monomials,
)
from geowb.lie import StructurePresentation
from geowb.positivity import SimpleForm, pairing
from geowb.scalars import EXACT, FLOAT, GaussRational


def random_scalar(rnd: random.Random) -> GaussRational:
    def frac():
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))

    return GaussRational(frac(), frac())


def member(key: str, rnd: random.Random) -> StructurePresentation:
    """A catalogue family with a nonzero random value for every parameter."""

    def nonzero():
        x = random_scalar(rnd)
        while not x:
            x = random_scalar(rnd)
        return x

    entry = catalog.entry(key)
    return entry.instantiate(**{p.name: nonzero() for p in entry.params})


def fps6_product(first, second) -> StructurePresentation:
    """The rank-6 product of two fps6 members, given by their letters."""
    halves = [catalog.fps6(*first), catalog.fps6(*second)]
    dphi = []
    for offset, half in zip((0, 3), halves):
        for f in half.dphi:
            shifted = {Monomial(m.holo << offset, m.anti << offset): c for m, c in f.terms.items()}
            dphi.append(InvariantForm(6, shifted))
    return StructurePresentation(6, dphi, name="fps6-x-fps6")


def float_copy(pres: StructurePresentation) -> StructurePresentation:
    return StructurePresentation(
        pres.n, [f.to_float() for f in pres.dphi], name=pres.name, backend=FLOAT
    )


class FractionPairGaussRational:
    """Reference Q[i] scalar: a pair of Fractions, one Fraction op per part.

    The arithmetic ``scalars.GaussRational`` had before it moved to a
    normalised integer triple; the scalar tests check the triple against it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, FractionPairGaussRational):
            return value
        return FractionPairGaussRational(value)  # an int or a Fraction

    def __add__(self, other):
        other = self._coerce(other)
        return FractionPairGaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FractionPairGaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return FractionPairGaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionPairGaussRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return FractionPairGaussRational(-self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return FractionPairGaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def random_monomial(rnd: random.Random, n: int, p=None, q=None) -> Monomial:
    if p is None:
        p = rnd.randint(0, n)
    if q is None:
        q = rnd.randint(0, n)
    holo = rnd.sample(range(1, n + 1), p)
    anti = rnd.sample(range(1, n + 1), q)
    return Monomial.make(holo, anti, n)


def random_form(rnd: random.Random, n: int, terms=3, p=None, q=None) -> InvariantForm:
    data = {}
    for _ in range(rnd.randint(1, terms)):
        data[random_monomial(rnd, n, p, q)] = random_scalar(rnd)
    return InvariantForm(n, data, EXACT)


def random_homogeneous(rnd: random.Random, n: int) -> InvariantForm:
    p = rnd.randint(0, n)
    q = rnd.randint(0, n)
    return random_form(rnd, n, p=p, q=q)


# ---- suite bodies ---------------------------------------------------------


def wedge_anticommutativity(cases: int = 1000, seed: int = 101):
    rnd = random.Random(seed)
    for _ in range(cases):
        n = rnd.randint(2, 5)
        f = random_homogeneous(rnd, n)
        g = random_homogeneous(rnd, n)
        df = f.degree() or 0
        dg = g.degree() or 0
        lhs = wedge(f, g)
        rhs = wedge(g, f)
        if (df * dg) % 2:
            rhs = -rhs
        assert lhs.equals(rhs)


def conjugation_morphism(cases: int = 1000, seed: int = 102):
    rnd = random.Random(seed)
    for _ in range(cases):
        n = rnd.randint(2, 5)
        f = random_form(rnd, n)
        g = random_form(rnd, n)
        assert f.conjugate().conjugate().equals(f)
        assert wedge(f, g).conjugate().equals(wedge(f.conjugate(), g.conjugate()))
        assert (f + f.conjugate()).is_real()


def bidegree_partition(cases: int = 1000, seed: int = 103):
    rnd = random.Random(seed)
    for _ in range(cases):
        n = rnd.randint(2, 5)
        f = random_form(rnd, n, terms=5)
        total = InvariantForm.zero(n)
        for p in range(n + 1):
            for q in range(n + 1):
                total = total + f.project(p, q)
        assert total.equals(f)


def normalize_matches_bubble_parity(cases: int = 1000, seed: int = 104):
    rnd = random.Random(seed)
    for _ in range(cases):
        n = rnd.randint(2, 6)
        length = rnd.randint(1, 6)
        word = [
            (rnd.choice("ha"), rnd.randint(1, n)) for _ in range(length)
        ]
        mono, sign = normalize_monomial(word, n)
        # brute-force bubble sort parity on the same key order
        keys = [(0 if k == "h" else 1, i) for k, i in word]
        arr = list(keys)
        swaps = 0
        for i in range(len(arr)):
            for j in range(len(arr) - 1):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    swaps += 1
        if len(set(keys)) != len(keys):
            assert sign == 0 and mono is None
        else:
            assert sign == (-1) ** swaps


_PRESENTATION_POOL = None


def _presentations():
    global _PRESENTATION_POOL
    if _PRESENTATION_POOL is None:
        _PRESENTATION_POOL = [
            catalog.get("nakamura-iv-3"),
            catalog.get("nakamura-iv-6"),
            catalog.get("nakamura-v-10"),
            catalog.get("eta-beta-5"),
            catalog.get("nakamura-v-17"),
            catalog.fps6(A=GaussRational(1, 1), B=GaussRational(0, 2),
                         C=GaussRational(1), D=GaussRational(2, -1),
                         E=GaussRational(1, -1)),
            catalog.ft8(a1=1, a3=GaussRational(1, 1), a8=GaussRational(0, -1),
                        a12=GaussRational(2)),
            catalog.st10(a1=GaussRational(1, 1), b4=1, c4=GaussRational(0, 1),
                         d4=GaussRational(1, -1)),
        ]
    return _PRESENTATION_POOL


def d_splits_as_del_plus_delbar(cases: int = 1000, seed: int = 105):
    rnd = random.Random(seed)
    pool = _presentations()
    for _ in range(cases):
        pres = rnd.choice(pool)
        f = random_form(rnd, pres.n)
        lhs = pres.d(f)
        rhs = pres.del_(f) + pres.delbar(f)
        assert lhs.equals(rhs)


def dolbeault_squares_vanish(cases: int = 1000, seed: int = 106):
    rnd = random.Random(seed)
    pool = _presentations()
    for _ in range(cases):
        pres = rnd.choice(pool)
        f = random_form(rnd, pres.n)
        assert pres.del_(pres.del_(f)).is_zero()
        assert pres.delbar(pres.delbar(f)).is_zero()
        anti = pres.del_(pres.delbar(f)) + pres.delbar(pres.del_(f))
        assert anti.is_zero()


def differential_commutes_with_conjugation(cases: int = 1000, seed: int = 107):
    rnd = random.Random(seed)
    pool = _presentations()
    for _ in range(cases):
        pres = rnd.choice(pool)
        f = random_form(rnd, pres.n)
        assert pres.d(f.conjugate()).equals(pres.d(f).conjugate())


def pairing_is_real(cases: int = 1000, seed: int = 108):
    rnd = random.Random(seed)
    done = 0
    while done < cases:
        n = rnd.randint(2, 4)
        p = rnd.randint(1, n)
        half = random_form(rnd, n, terms=2, p=p, q=p)
        psi = half + half.conjugate()
        if psi.is_zero():
            continue
        factors = [
            tuple(random_scalar(rnd) for _ in range(n)) for _ in range(n - p)
        ]
        beta = SimpleForm.make(factors, n)
        value = pairing(psi, beta)
        assert value.im == 0
        done += 1


def bott_chern_torus_dimensions():
    from geowb.existence import bott_chern_dimensions

    for n in (1, 2, 3):
        z = InvariantForm.zero(n)
        torus = StructurePresentation(n, [z] * n, name=f"torus-{n}")
        table = bott_chern_dimensions(torus)
        for p in range(n + 1):
            for q in range(n + 1):
                assert table[(p, q)] == math.comb(n, p) * math.comb(n, q)


def matrix_rows(images, targets):
    """Row r is the ``{j: coefficient}`` dict of the monomial ``targets[r]``
    in the forms ``images[j]``, nonzero coefficients only: the sparse rows of
    ``linalg`` by a reference builder that shares no code with
    ``StructurePresentation.matrix``."""
    row_of = {m: r for r, m in enumerate(targets)}
    out = [{} for _ in targets]
    for j, f in enumerate(images):
        for m, c in f.terms.items():
            if c:
                out[row_of[m]][j] = c
    return out


def dense(rows, ncols: int):
    """Sparse rows as dense row lists, with 0 where a row stores no entry."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def dense_rref(matrix):
    """Reference Gauss-Jordan on dense rows: (nonzero reduced rows, pivots)."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def generator_word(mono: Monomial) -> list[tuple[str, int]]:
    """The generators of a monomial in canonical order, tagged for
    ``normalize_monomial``."""
    return [("h", i) for i in mono.holo_indices] + [("a", i) for i in mono.anti_indices]


def leibniz_by_definition(pres: StructurePresentation, op: str, mono: Monomial) -> dict:
    """op(mono) for op in "d", "del", "delbar", from its definition.

    The sum over the generators theta_t of mono, in canonical order, of
    (-1)^t op(theta_t) ^ (mono without theta_t).  op(theta) is d phi^i, or
    its conjugate for phibar^i, projected for del and delbar to the
    bidegree of theta plus (1, 0) or (0, 1).  Each product's sign is that
    of sorting its generator word by ``normalize_monomial``.  Returns the
    nonzero ``{Monomial: coefficient}`` terms: a reference that shares no
    code with the presentation's tables or with ``wedge_monomials``.
    """
    word = generator_word(mono)
    out: dict[Monomial, object] = {}
    for t, (kind, i) in enumerate(word):
        value = pres.dphi[i - 1] if kind == "h" else pres.dphi[i - 1].conjugate()
        if op != "d":
            p, q = (1, 0) if kind == "h" else (0, 1)
            value = value.project(p + (op == "del"), q + (op == "delbar"))
        rest = word[:t] + word[t + 1:]
        for m, c in value.terms.items():
            product, sign = normalize_monomial(generator_word(m) + rest, pres.n)
            if sign == 0:
                continue
            x = -c if (sign < 0) ^ (t % 2 == 1) else c
            out[product] = out[product] + x if product in out else x
    return {m: c for m, c in out.items() if c}


def tables_by_definition(pres: StructurePresentation) -> dict:
    """The d, del and delbar tables of ``StructurePresentation`` from their
    definition: per generator in canonical order, the ``(w, mask, c)`` terms
    of d phi^i and of its conjugate for d, of their (2,0) and (1,1) parts for
    del, and of their (1,1) and (0,2) parts for delbar, each value built by
    ``InvariantForm.conjugate`` and ``project``.  The construction the
    presentation had before it read the tables off one pass over its
    structure constants; the tests check that pass against it.
    """
    n = pres.n
    dphi = list(pres.dphi)
    dphibar = [f.conjugate() for f in dphi]

    def table(values):
        return [[(w := h | a << n, w - 2 * (w & -w), c) for (h, a), c in f.terms.items()]
                for f in values]

    return {
        "d": table(dphi + dphibar),
        "del": table([f.project(2, 0) for f in dphi] + [f.project(1, 1) for f in dphibar]),
        "delbar": table([f.project(1, 1) for f in dphi] + [f.project(0, 2) for f in dphibar]),
    }


def ddbar_lemma_by_definition(pres: StructurePresentation, p: int, q: int) -> bool:
    """The invariant del-delbar lemma at (p, q) from its definition.

    The d-exact (p, q)-forms are d(k) for the (p+q-1)-forms k whose image
    has no component outside (p, q); the triple intersection
    ker del ^ ker delbar ^ im d is the kernel of [del; delbar] on them, and
    it is compared with del delbar(Lambda^{p-1,q-1}).  Every matrix comes
    from forms, by ``matrix_rows``.
    """
    from geowb import linalg
    from geowb.existence import _degree_basis

    n, backend = pres.n, pres.backend
    la = linalg.for_backend(backend)

    def unit_forms(basis):
        return [InvariantForm(n, {m: 1}, backend) for m in basis]

    def matrix(images, p, q):
        return matrix_rows(images, bidegree_basis(n, p, q))

    source = _degree_basis(n, p + q - 1)
    target = _degree_basis(n, p + q)
    d_matrix = matrix_rows([pres.d(f) for f in unit_forms(source)], target)
    d_outside = [row for row, m in zip(d_matrix, target) if m.bidegree() != (p, q)]
    images = [
        pres.d(InvariantForm(n, dict(zip(source, k)), backend)).project(p, q)
        for k in la.nullspace(d_outside, len(source))
    ]
    exact_dim = la.rank(matrix(images, p, q))
    closed_rows = matrix([pres.del_(f) for f in images], p + 1, q)
    closed_rows += matrix([pres.delbar(f) for f in images], p, q + 1)
    triple = exact_dim - la.rank(closed_rows)
    ddbar_sources = unit_forms(bidegree_basis(n, p - 1, q - 1))
    return triple == la.rank(matrix([pres.del_delbar(f) for f in ddbar_sources], p, q))


def backends_agree(cases: int = 1000, seed: int = 109):
    rnd = random.Random(seed)
    for _ in range(cases):
        n = rnd.randint(2, 4)
        f = random_form(rnd, n)
        g = random_form(rnd, n)
        p = rnd.randint(0, n)
        q = rnd.randint(0, n)
        exact = wedge(f, g) + f.conjugate() - g.project(p, q)
        floating = (
            wedge(f.to_float(), g.to_float())
            + f.to_float().conjugate()
            - g.to_float().project(p, q)
        )
        assert exact.to_float().equals(floating, tol=1e-9)



def pairing_matrix_by_terms(psi: InvariantForm):
    """(subsets, T) of ``positivity.pairing_matrix``, built term by term:
    each (p, p) monomial's partner over the complements of its index sets,
    and the sign of their wedge.  The body ``pairing_matrix`` had before it
    read a memoised table; the tests check the table against it."""
    n = psi.n
    bideg = psi.bidegree()
    p = bideg[0] if bideg else n
    q = n - p
    subsets = list(itertools.combinations(range(1, n + 1), q))
    index = {s: k for k, s in enumerate(subsets)}
    t = np.zeros((len(subsets), len(subsets)), dtype=complex)
    sig = complex(sigma(q, psi.backend))
    vol_unit = complex(sigma(n, psi.backend))
    full = (1 << n) - 1
    for mono, coeff in psi.terms.items():
        holo_c = _indices(full & ~mono.holo)
        anti_c = _indices(full & ~mono.anti)
        if len(holo_c) != q or len(anti_c) != q:
            continue
        partner = Monomial.make(holo_c, anti_c, n)
        _, sign = wedge_monomials(mono, partner)
        if sign == 0:
            continue
        value = complex(coeff) * sign * sig / vol_unit
        t[index[holo_c], index[anti_c]] += value
    return subsets, t
