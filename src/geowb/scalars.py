"""Scalar coefficient fields, one per backend.

Two backends are supported everywhere in the package, named by the strings
``"exact"`` and ``"float"`` (the names used in JSON and in every public
signature).  ``field(backend)`` returns the backend's field object, and
every exact-or-float decision in the package is made by that object:

* ``ExactField`` -- Gaussian rationals ``GaussRational``, numbers
  ``(a + b*i)/d`` stored as a triple of arbitrary-precision ints in lowest
  terms (d > 0, gcd(a, b, d) = 1).  Arithmetic is closed and lossless, so
  zero, equality and positivity are decided exactly and every ``tol``
  argument is ignored.
* ``FloatField`` -- Python ``complex`` (pairs of 64-bit floats).  Zero,
  closeness and positivity are decided within an absolute tolerance,
  ``DEFAULT_EPS`` unless one is given.

What a field decides:

* ``coerce`` -- the field's scalar for a value (floats and complex numbers
  are refused on the exact field); ``zero``, ``one``, ``i_power(k)`` and
  ``from_parts(re, im)`` build scalars; ``as_real(x)`` is a scalar known to
  be real with the rounding residue of its imaginary part dropped (x itself
  on the exact field);
* ``from_json``/``to_json`` -- the ``{"re": .., "im": ..}`` form of a
  scalar; ``format`` prints one, and ``parse`` reads every string
  ``format`` prints (``3/2``, ``2i``, ``1/2-3/4i``; a bare ``i`` is 1i);
* ``is_zero(x, tol)`` -- for a scalar or a real part; ``close(a, b, tol)``;
  ``is_positive(x, tol)`` -- real and > 0;
* ``sqrt(x)`` -- on the exact field only: a square root in Q[i], None
  when x is not a square there;
* ``tolerance(tol)`` -- the tolerance a decision used: None on the exact
  field, ``tol`` or ``DEFAULT_EPS`` on the float field.

The float backend exists for presentations with transcendental structure
constants (rotation angles and the like); everything with rational constants
should stay on the exact backend.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

EXACT = "exact"
FLOAT = "float"

DEFAULT_EPS = 1e-12


_FLOAT_REJECTED = (
    "a float cannot enter an exact computation; "
    'use an int, a Fraction or an exact "p/q" string'
)


class GaussRational:
    """An element of Q[i], stored as one normalised triple of ints.

    The value (a + b*i)/d is held as ``(a, b, d)`` with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal triples; zero is (0, 0, 1).
    Each of ``+ - * /`` forms the result's triple by integer products and
    brings it to that normal form with at most one three-argument gcd (none
    when d = 1); negation and conjugation only flip signs.  ``re`` and
    ``im`` (alias ``real`` and ``imag``) give the parts as ``Fraction``s, a
    zero part as the one shared ``Fraction(0)``.

    Each constructor part may be an ``int``, a ``Fraction`` (any
    ``numbers.Rational``) or an exact decimal or ``"p/q"`` string such as
    ``"-1/2"``; a single ``GaussRational`` argument is copied.  ``float``
    and ``complex`` parts, numpy float and complex scalars among them, raise
    ``TypeError``: their binary expansion would enter the exact calculus
    unnoticed.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussRational):
            if im != 0:
                raise ValueError("cannot combine a GaussRational with an extra imaginary part")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        # Concrete types, not an ABC: cheap, and numpy float scalars subclass float.
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError(_FLOAT_REJECTED)
        if isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction)):
            p, q = re.numerator, re.denominator
            r, s = im.numerator, im.denominator
        else:
            (p, q), (r, s) = _ratio(re), _ratio(im)
        # over lcm(q, s) the triple of p/q + (r/s) i is already in normal form
        if q == s:
            self._a, self._b, self._d = p, r, q
            return
        d = q * s // math.gcd(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @classmethod
    def i(cls):
        return cls(0, 1)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d) if self._a else _FRACTION_ZERO

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d) if self._b else _FRACTION_ZERO

    real = re
    imag = im

    def __add__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _normal(self._a + other._a, self._b + other._b, d)
        return _normal(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _normal(self._a - other._a, self._b - other._b, d)
        return _normal(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _normal(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _normal(f * (a * c + b * e), f * (b * c - a * e), self._d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value equals its rational real part, so it must hash like it
        return hash((self.re, self.im)) if self._b else hash(self.re)

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    def conjugate(self):
        return _triple(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_FRACTION_ZERO = Fraction(0)  # the shared zero part
_new = object.__new__
_gcd = math.gcd


def _triple(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d from a triple already in normal form, skipping ``__init__``."""
    z = _new(GaussRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _normal(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d) unless d = 1."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRational)
    z._a = a
    z._b = b
    z._d = d
    return z


_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(part) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms: an ASCII integer or "p/q"
    string by ``int`` and one gcd, anything else through ``Fraction``."""
    if type(part) is str and (match := _RATIO.fullmatch(part)):
        num, den = int(match[1]), int(match[2] or 1)
        if den:
            g = _gcd(num, den)
            return num // g, den // g
    if not isinstance(part, Fraction):
        part = Fraction(part)
    return part.numerator, part.denominator


def _coerce(value):
    if type(value) is int:
        return _triple(value, 0, 1)
    if isinstance(value, Rational):
        if not isinstance(value, Fraction):
            value = Fraction(value)  # bool, numpy ints: lowest terms as ints
        return _triple(value.numerator, 0, value.denominator)
    return NotImplemented


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)
_I_POWERS = (ONE, I, -ONE, -I)


def _split_complex(text: str) -> tuple[str, str]:
    """The real and imaginary part strings of ``x``, ``yi`` or ``x+yi``."""
    text = text.strip()
    if not text.endswith("i"):
        return text, "0"
    body = text[:-1]
    # the imaginary part starts at the last sign that is neither leading
    # nor the sign of an exponent
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re, im = body[:k], body[k:]
            break
    else:
        re, im = "0", body
    if im in ("", "+", "-"):
        im += "1"
    return re, im


class ExactField:
    """Q[i] as ``GaussRational``: every decision is exact, ``tol`` is ignored."""

    zero = ZERO
    one = ONE

    def coerce(self, value) -> GaussRational:
        """What ``GaussRational`` takes: ints, Fractions and exact strings."""
        return value if isinstance(value, GaussRational) else GaussRational(value)

    def i_power(self, k: int) -> GaussRational:
        return _I_POWERS[k % 4]

    def from_parts(self, re, im) -> GaussRational:
        return GaussRational(re, im)

    def as_real(self, x) -> GaussRational:
        """x unchanged: a value that is real in Q[i] has no residue to drop."""
        return x

    def from_json(self, obj) -> GaussRational:
        """Each part an ``int`` or an exact decimal or ``"p/q"`` string.

        A JSON float, a bool or anything else raises ``TypeError``, a
        malformed string ``ValueError``.
        """
        re, im = obj["re"], obj["im"]
        if isinstance(re, bool) or isinstance(im, bool):
            raise TypeError("a boolean is not an exact scalar part")
        return GaussRational(re, im)

    def to_json(self, value) -> dict:
        value = self.coerce(value)
        return {"re": str(value.re), "im": str(value.im)}

    def format(self, value) -> str:
        return str(self.coerce(value))

    def parse(self, text: str) -> GaussRational:
        return GaussRational(*_split_complex(text))

    def tolerance(self, tol: float | None) -> None:
        return None

    def is_zero(self, x, tol: float | None = None) -> bool:
        return not x

    def close(self, a, b, tol: float | None = None) -> bool:
        return a == b

    def is_positive(self, x, tol: float | None = None) -> bool:
        return not x.imag and x.real > 0

    def sqrt(self, value) -> GaussRational | None:
        """x + yi with x^2 = (r + a)/2, y^2 = (r - a)/2 for value = a + bi
        and r = |value|, when all three are rational."""
        z = self.coerce(value)
        r = _rational_sqrt(z.abs2())
        if r is None:
            return None
        x, y = _rational_sqrt((r + z.re) / 2), _rational_sqrt((r - z.re) / 2)
        if x is None or y is None:
            return None
        return GaussRational(x, y if z.im >= 0 else -y)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The square root of a non-negative rational, None if irrational."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        return None
    return Fraction(num, den)


class FloatField:
    """Python ``complex``, compared within an absolute tolerance."""

    zero = 0j
    one = 1 + 0j

    def coerce(self, value) -> complex:
        """Any number (a ``GaussRational`` included) as a ``complex``."""
        if isinstance(value, str):
            raise TypeError("cannot use str as a float scalar")
        return complex(value)

    def i_power(self, k: int) -> complex:
        return complex(_I_POWERS[k % 4])

    def from_parts(self, re, im) -> complex:
        return complex(re, im)

    def as_real(self, x) -> complex:
        """x with the rounding residue of its imaginary part dropped."""
        return complex(x.real, 0)

    def from_json(self, obj) -> complex:
        """Each part anything that ``float()`` takes."""
        return complex(float(obj["re"]), float(obj["im"]))

    def to_json(self, value) -> dict:
        value = complex(value)
        return {"re": repr(value.real), "im": repr(value.imag)}

    def format(self, value) -> str:
        value = complex(value)
        if value.imag == 0:
            return f"{value.real:g}"
        if value.real == 0:
            return f"{value.imag:g}i"
        sign = "+" if value.imag > 0 else "-"
        return f"{value.real:g}{sign}{abs(value.imag):g}i"

    def parse(self, text: str) -> complex:
        re, im = _split_complex(text)
        return complex(float(re), float(im))

    def tolerance(self, tol: float | None) -> float:
        return DEFAULT_EPS if tol is None else tol

    def is_zero(self, x, tol: float | None = None) -> bool:
        return abs(x) <= self.tolerance(tol)

    def close(self, a, b, tol: float | None = None) -> bool:
        return self.is_zero(a - b, tol)

    def is_positive(self, x, tol: float | None = None) -> bool:
        eps = self.tolerance(tol)
        return abs(x.imag) <= eps and x.real > eps


_EXACT_FIELD = ExactField()
_FLOAT_FIELD = FloatField()
_FIELDS = {EXACT: _EXACT_FIELD, FLOAT: _FLOAT_FIELD}


def field(backend: str):
    """The field object of a backend name."""
    try:
        return _FIELDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}") from None


def field_of(value):
    """The field of a value that carries no backend name (the factors of a
    ``positivity.SimpleForm``): exact for a GaussRational, float otherwise."""
    return _EXACT_FIELD if isinstance(value, GaussRational) else _FLOAT_FIELD

