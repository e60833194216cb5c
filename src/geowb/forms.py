"""Bigraded exterior algebra over a rank-n complex coframe.

The coframe is ``phi^1, ..., phi^n`` together with the conjugates
``phibar^1, ..., phibar^n``.  A monomial is ``phi^I ^ phibar^J`` for
ascending index sets I, J; the canonical generator order is the whole
holomorphic block first (ascending), then the antiholomorphic block
(ascending), and every sign in the package is derived from that single
convention.  Index sets are stored as bitmasks (bit ``i-1`` set means
index ``i`` is present), which keeps wedge products and sign bookkeeping
cheap for the ranks that occur here (n <= 6).

Normalisation constants: ``sigma(p) = i**(p*p) / 2**p``, and the volume
form is ``Vol = sigma(n) * phi^{1..n} ^ phibar^{1..n}``, so that a top
form is a positive multiple of Vol exactly when ``volume_ratio`` of it is
positive.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import scalars
from .scalars import EXACT, FLOAT, GaussRational


def _mask_from_indices(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _merge_inversions(a: int, b: int) -> int:
    """Number of pairs (x in a, y in b) with x > y."""
    count = 0
    while a:
        low = a & -a
        count += (b & (low - 1)).bit_count()
        a ^= low
    return count


class Monomial(NamedTuple):
    """phi^I ^ phibar^J with I, J ascending index bitmasks; hash (holo, anti)."""

    holo: int
    anti: int

    @classmethod
    def make(cls, holo: Iterable[int], anti: Iterable[int], n: int) -> "Monomial":
        return cls(_mask_from_indices(holo, n), _mask_from_indices(anti, n))

    @property
    def holo_indices(self) -> tuple[int, ...]:
        return _indices(self.holo)

    @property
    def anti_indices(self) -> tuple[int, ...]:
        return _indices(self.anti)

    def bidegree(self) -> tuple[int, int]:
        return (self.holo.bit_count(), self.anti.bit_count())

    def degree(self) -> int:
        return self.holo.bit_count() + self.anti.bit_count()

    def __str__(self):
        p = "".join(str(i) for i in self.holo_indices)
        q = "".join(str(i) for i in self.anti_indices)
        if not p and not q:
            return "1"
        parts = []
        if p:
            parts.append(f"phi^{{{p}}}")
        if q:
            parts.append(f"phibar^{{{q}}}")
        return "^".join(parts)


def wedge_monomials(a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
    """Product monomial and its sign; sign 0 on a repeated generator."""
    if (a.holo & b.holo) or (a.anti & b.anti):
        return None, 0
    # move b's holomorphic block left past a's antiholomorphic block
    swaps = b.holo.bit_count() * a.anti.bit_count()
    swaps += _merge_inversions(a.holo, b.holo)
    swaps += _merge_inversions(a.anti, b.anti)
    sign = -1 if swaps & 1 else 1
    return tuple.__new__(Monomial, (a.holo | b.holo, a.anti | b.anti)), sign


def normalize_monomial(
    generators: Sequence[tuple[str, int]], n: int
) -> tuple[Monomial | None, int]:
    """Sort a word of tagged generators into canonical order.

    ``generators`` is a sequence of ``(kind, index)`` with kind ``"h"``
    (holomorphic) or ``"a"`` (antiholomorphic).  Returns the canonical
    monomial and the permutation sign, or ``(None, 0)`` if a generator
    repeats.
    """
    keys = []
    for kind, index in generators:
        if kind not in ("h", "a"):
            raise ValueError(f"generator tag must be 'h' or 'a', got {kind!r}")
        if not 1 <= index <= n:
            raise ValueError(f"generator index {index} out of range 1..{n}")
        keys.append((0 if kind == "h" else 1, index))
    if len(set(keys)) != len(keys):
        return None, 0
    inversions = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] > keys[j]:
                inversions += 1
    holo = [idx for tag, idx in keys if tag == 0]
    anti = [idx for tag, idx in keys if tag == 1]
    sign = -1 if inversions & 1 else 1
    return Monomial.make(holo, anti, n), sign


class InvariantForm:
    """A sparse invariant form: finite map monomial -> nonzero scalar.

    Instances are immutable by convention; every operation returns a new
    form.  Binary operations require matching rank and backend.
    """

    __slots__ = ("n", "backend", "terms")

    def __init__(self, n: int, terms=None, backend: str = EXACT):
        coerce = scalars.field(backend).coerce
        self.n = n
        self.backend = backend
        clean: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if mono.holo >> n or mono.anti >> n:
                    raise ValueError(f"monomial {mono} exceeds rank {n}")
                coeff = coerce(coeff)
                if not coeff:
                    continue
                clean[mono] = coeff
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int, backend: str = EXACT) -> "InvariantForm":
        return cls(n, {}, backend)

    @classmethod
    def unit(cls, n: int, backend: str = EXACT) -> "InvariantForm":
        """The scalar 1 viewed as a 0-form (unit of the algebra)."""
        return cls(n, {Monomial(0, 0): 1}, backend)

    @classmethod
    def generator(
        cls, n: int, index: int, backend: str = EXACT, conjugated: bool = False
    ) -> "InvariantForm":
        mono = (
            Monomial.make([], [index], n)
            if conjugated
            else Monomial.make([index], [], n)
        )
        return cls(n, {mono: 1}, backend)

    # ---- queries ------------------------------------------------------

    def is_zero(self, tol: float | None = None) -> bool:
        is_zero = scalars.field(self.backend).is_zero
        return all(is_zero(c, tol) for c in self.terms.values())

    def coeff(self, mono: Monomial):
        return self.terms.get(mono, scalars.field(self.backend).zero)

    def bidegrees(self) -> set[tuple[int, int]]:
        return {m.bidegree() for m in self.terms}

    def bidegree(self) -> tuple[int, int] | None:
        degs = self.bidegrees()
        if len(degs) == 1:
            return degs.pop()
        return None

    def degree(self) -> int | None:
        degs = {m.degree() for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def equals(self, other: "InvariantForm", tol: float | None = None) -> bool:
        self._check_compatible(other)
        close = scalars.field(self.backend).close
        keys = self.terms.keys() | other.terms.keys()
        return all(close(self.coeff(k), other.coeff(k), tol) for k in keys)

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        return (
            self.n == other.n
            and self.backend == other.backend
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.backend, frozenset(self.terms.items())))

    # ---- algebra ------------------------------------------------------

    def _check_compatible(self, other: "InvariantForm"):
        if self.n != other.n:
            raise ValueError(f"rank mismatch: {self.n} vs {other.n}")
        if self.backend != other.backend:
            raise ValueError(
                f"backend mismatch: {self.backend} vs {other.backend}"
            )

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        self._check_compatible(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coeff if mono in terms else coeff
        return InvariantForm(self.n, terms, self.backend)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(
            self.n, {m: -c for m, c in self.terms.items()}, self.backend
        )

    def scale(self, scalar) -> "InvariantForm":
        scalar = scalars.field(self.backend).coerce(scalar)
        return InvariantForm(
            self.n, {m: c * scalar for m, c in self.terms.items()}, self.backend
        )

    def __mul__(self, other):
        if isinstance(other, InvariantForm):
            return wedge(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def conjugate(self) -> "InvariantForm":
        terms: dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            p, q = mono.bidegree()
            c = coeff.conjugate()
            terms[Monomial(mono.anti, mono.holo)] = -c if (p * q) & 1 else c
        return InvariantForm(self.n, terms, self.backend)

    def project(self, p: int, q: int) -> "InvariantForm":
        """The (p, q)-bidegree component."""
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            raise ValueError(f"bidegree ({p},{q}) out of range for rank {self.n}")
        terms = {m: c for m, c in self.terms.items() if m.bidegree() == (p, q)}
        return InvariantForm(self.n, terms, self.backend)

    def is_real(self, tol: float | None = None) -> bool:
        """conjugate().equals(self, tol) in one pass: the term c phi^I ^
        phibar^J against (-1)^(|I| |J|) conj(c) at phi^J ^ phibar^I."""
        field, terms = scalars.field(self.backend), self.terms
        for (holo, anti), c in terms.items():
            c = -c.conjugate() if holo.bit_count() & anti.bit_count() & 1 else c.conjugate()
            # a Monomial hashes and compares as the plain tuple (holo, anti)
            if not field.close(terms.get((anti, holo), field.zero), c, tol):
                return False
        return True

    def to_float(self) -> "InvariantForm":
        return InvariantForm(self.n, self.terms, FLOAT)

    def __str__(self):
        if not self.terms:
            return "0"
        fmt = scalars.field(self.backend).format
        parts = []
        for mono in sorted(self.terms, key=lambda m: (m.degree(), m.holo, m.anti)):
            parts.append(f"({fmt(self.terms[mono])}) {mono}")
        return " + ".join(parts)

    __repr__ = __str__


def wedge(f: InvariantForm, g: InvariantForm) -> InvariantForm:
    f._check_compatible(g)
    terms: dict[Monomial, object] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            mono, sign = wedge_monomials(ma, mb)
            if sign == 0:
                continue
            contrib = ca * cb if sign > 0 else -(ca * cb)
            if mono in terms:
                terms[mono] = terms[mono] + contrib
            else:
                terms[mono] = contrib
    return InvariantForm(f.n, terms, f.backend)


def sigma(p: int, backend: str = EXACT):
    """The normalisation constant i**(p*p) / 2**p, evaluated literally."""
    if p < 0:
        raise ValueError("sigma is defined for p >= 0")
    exact = scalars.field(EXACT).i_power(p * p) * GaussRational(Fraction(1, 2**p))
    return scalars.field(backend).coerce(exact)


def top_monomial(n: int) -> Monomial:
    full = (1 << n) - 1
    return Monomial(full, full)


def volume_form(n: int, backend: str = EXACT) -> InvariantForm:
    return InvariantForm(n, {top_monomial(n): sigma(n, backend)}, backend)


def volume_ratio(f: InvariantForm):
    """c / sigma(n) for a top-degree form c * phi^{1..n} ^ phibar^{1..n}.

    Positive result means the form is a positive multiple of the volume
    form.  Raises if the form has any non-top term.
    """
    top = top_monomial(f.n)
    for mono in f.terms:
        if mono != top:
            raise ValueError(f"form has a non-top term {mono}")
    return f.coeff(top) / sigma(f.n, f.backend)


@functools.cache
def bidegree_basis(n: int, p: int, q: int) -> tuple[Monomial, ...]:
    """All monomials of bidegree (p, q), in lexicographic order (memoised)."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    return tuple(
        Monomial.make(holo, anti, n)
        for holo in itertools.combinations(range(1, n + 1), p)
        for anti in itertools.combinations(range(1, n + 1), q)
    )


# ---- serialization ----------------------------------------------------


def form_to_json(f: InvariantForm) -> dict:
    to_json = scalars.field(f.backend).to_json
    terms = []
    for mono in sorted(f.terms, key=lambda m: (m.degree(), m.holo, m.anti)):
        entry = {"holo": list(mono.holo_indices), "anti": list(mono.anti_indices)}
        entry.update(to_json(f.terms[mono]))
        terms.append(entry)
    return {"n": f.n, "backend": f.backend, "terms": terms}


def form_from_json(obj: dict) -> InvariantForm:
    n = int(obj["n"])
    backend = obj.get("backend", EXACT)
    from_json = scalars.field(backend).from_json
    terms: dict[Monomial, object] = {}
    for entry in obj.get("terms", []):
        mono = Monomial.make(entry["holo"], entry["anti"], n)
        coeff = from_json(entry)
        if mono in terms:
            terms[mono] = terms[mono] + coeff
        else:
            terms[mono] = coeff
    return InvariantForm(n, terms, backend)
