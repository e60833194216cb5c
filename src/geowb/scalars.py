"""Scalar coefficient backends.

Two backends are supported everywhere in the package:

* ``"exact"`` -- Gaussian rationals, i.e. numbers ``a + b*i`` with ``a, b``
  arbitrary-precision ``Fraction``s.  Arithmetic is closed and lossless and
  equality is decidable, which is what makes the whole invariant calculus
  exact.
* ``"float"`` -- ordinary Python ``complex`` (pairs of 64-bit floats).
  Comparisons use an absolute tolerance, ``DEFAULT_EPS`` unless overridden.

The float backend exists for presentations with transcendental structure
constants (rotation angles and the like); everything with rational constants
should stay on the exact backend.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

DEFAULT_EPS = 1e-12


_FLOAT_REJECTED = (
    "floating-point value passed to the exact backend; "
    "use Fraction/GaussRational or switch to backend='float'"
)


class GaussRational:
    """An element of Q[i], stored as a pair of Fractions.

    Each part may be an ``int``, a ``Fraction`` (any ``numbers.Rational``)
    or an exact decimal or ``"p/q"`` string such as ``"-1/2"``; a single
    ``GaussRational`` argument is copied.  ``float`` and ``complex`` parts,
    numpy float and complex scalars among them, raise ``TypeError``: their
    binary expansion would enter the exact calculus unnoticed.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussRational):
            if im != 0:
                raise ValueError("cannot combine a GaussRational with an extra imaginary part")
            self.re = re.re
            self.im = re.im
            return
        # Concrete types, not an ABC: cheap, and numpy float scalars subclass float.
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError(_FLOAT_REJECTED)
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def i(cls):
        return cls(0, 1)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_fractions(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_fractions(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_fractions(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _from_fractions(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _from_fractions(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return _from_fractions(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _from_fractions(re: Fraction, im: Fraction) -> GaussRational:
    """Wrap two Fractions, skipping ``__init__``'s checks and conversions.

    For the results of Q[i] arithmetic, whose parts are Fractions already.
    """
    z = object.__new__(GaussRational)
    z.re = re
    z.im = im
    return z


def _coerce(value):
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, Rational):  # int, Fraction
        return GaussRational(value)
    return NotImplemented


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)
_I_POWERS = (ONE, I, -ONE, -I)


def to_scalar(value, backend):
    """Coerce ``value`` into the given backend's scalar type.

    Floats and complex numbers are rejected on the exact backend so that
    rounding never sneaks into an exact computation.
    """
    if backend == EXACT:
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, Rational):
            return GaussRational(value)
        if isinstance(value, (float, complex)):
            raise TypeError(_FLOAT_REJECTED)
        raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")
    if backend == FLOAT:
        if isinstance(value, GaussRational):
            return complex(value)
        if isinstance(value, (int, float, complex, Rational)):
            return complex(value)
        raise TypeError(f"cannot use {type(value).__name__} as a float scalar")
    raise ValueError(f"unknown backend {backend!r}")


def conj(value):
    return value.conjugate()


def is_zero(value, tol: float | None = None) -> bool:
    if isinstance(value, GaussRational):
        return not value
    if tol is None:
        tol = DEFAULT_EPS
    return abs(value) <= tol


def close(a, b, tol: float | None = None) -> bool:
    return is_zero(a - b, tol)


def i_power(k: int, backend: str = EXACT):
    """i**k, reduced exactly."""
    return to_scalar(_I_POWERS[k % 4], backend)


def from_parts(re, im, backend):
    """The scalar re + i im on the given backend, from two real parts."""
    if backend == EXACT:
        return GaussRational(re, im)
    return complex(re, im)


def real_part(value):
    if isinstance(value, GaussRational):
        return value.re
    return value.real


def imag_part(value):
    if isinstance(value, GaussRational):
        return value.im
    return value.imag


def scalar_to_json(value):
    if isinstance(value, GaussRational):
        return {"re": str(value.re), "im": str(value.im)}
    return {"re": repr(value.real), "im": repr(value.imag)}


def scalar_from_json(obj, backend):
    """Read a ``{"re": .., "im": ..}`` scalar, as ``scalar_to_json`` writes it.

    On the exact backend each part must be what ``GaussRational`` takes: from
    JSON, an ``int`` or an exact decimal or ``"p/q"`` string.  A JSON float,
    a bool or anything else raises ``TypeError``, a malformed string
    ``ValueError``.  The float backend reads any part that ``float()`` takes.
    """
    re, im = obj["re"], obj["im"]
    if backend == EXACT:
        if isinstance(re, bool) or isinstance(im, bool):
            raise TypeError("a boolean is not an exact scalar part")
        return GaussRational(re, im)
    return complex(float(re), float(im))


def format_scalar(value) -> str:
    if isinstance(value, GaussRational):
        return str(value)
    if value.imag == 0:
        return f"{value.real:g}"
    if value.real == 0:
        return f"{value.imag:g}i"
    sign = "+" if value.imag > 0 else "-"
    return f"{value.real:g}{sign}{abs(value.imag):g}i"
