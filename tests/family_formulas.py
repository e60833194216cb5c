"""The paper's closed-form statements about the fps6, ft8 and st10 families.

``geowb psymplectic`` reads each family's closedness condition off d Psi
(``existence.FAMILIES``).  The hand transcriptions below are the paper's
statements of those conditions, of the combined special-metric systems and
of the fps6 solution circle; the tests check them against d Psi, against
``closure_system`` and against ``classify``.

For n = 3 the traditional scalar letters of a Hermitian metric H are

    r^2 = H11,  s^2 = H22,  t^2 = H33,
    u = i*H12,  v = i*H13,  w = i*H23,

so that omega reads ``(i/2)(r^2 a^{1 1b} + s^2 a^{2 2b} + t^2 a^{3 3b})
+ (u/2) a^{1 2b} - (ub/2) a^{2 1b} + ...``.  The letter mapping hides a
factor i relative to the matrix entries; it is fixed here once and used
consistently by the fps6 condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from geowb import scalars
from geowb.metrics import HermitianMetric
from geowb.scalars import EXACT, GaussRational


def metric_from_letters(r2, s2, t2, u=0, v=0, w=0, backend: str = EXACT) -> HermitianMetric:
    """The n = 3 metric of the scalar letters (squares given)."""
    field = scalars.field(backend)
    minus_i = field.i_power(3)
    h12 = minus_i * field.coerce(u)
    h13 = minus_i * field.coerce(v)
    h23 = minus_i * field.coerce(w)
    return HermitianMetric(
        [
            [r2, h12, h13],
            [h12.conjugate(), s2, h23],
            [h13.conjugate(), h23.conjugate(), t2],
        ],
        backend,
    )


def metric_letters(metric: HermitianMetric):
    """The letters (r2, s2, t2, u, v, w) of a rank-3 metric."""
    if metric.n != 3:
        raise ValueError("letters are defined for n = 3 only")
    i_unit = scalars.field(metric.backend).i_power(1)
    h = metric.entries
    return (
        h[0][0].real,
        h[1][1].real,
        h[2][2].real,
        i_unit * h[0][1],
        i_unit * h[0][2],
        i_unit * h[1][2],
    )


def fps_psymplectic_condition(
    A, B, C, D, E, N=0, r2=1, s2=1, t2=1, u=0, v=0, w=0
):
    """Closedness scalar for the rank-3 family ansatz.

    Vanishes iff Psi = lambda + omega^2 + conj(lambda) is closed, where
    omega has the letters (r2, s2, t2, u, v, w) and lambda carries the
    free coefficient N (L and M never enter).  The summand i*t2*conj(u*A)
    is read with the conjugation over the whole product u*A; the direct
    d Psi computation in the tests pins this reading.
    """
    A, B, C, D, E, N = map(GaussRational, (A, B, C, D, E, N))
    u, v, w = map(GaussRational, (u, v, w))
    r2, s2, t2 = map(GaussRational, (r2, s2, t2))
    i = GaussRational(0, 1)
    half = GaussRational(Fraction(1, 2))
    bracket = (
        -r2 * t2 * B.conjugate()
        + s2 * t2 * C.conjugate()
        + GaussRational(v.abs2()) * B.conjugate()
        - GaussRational(w.abs2()) * C.conjugate()
        + i * t2 * u * D.conjugate()
        + i * t2 * (u * A).conjugate()
        + v * (w * D).conjugate()
        - v.conjugate() * w * A.conjugate()
    )
    return -N * E.conjugate() + half * bracket


def fps_skt_2symplectic_system(A, B, C, D, E, N) -> bool:
    """Diagonal-metric system: SKT identity plus the closedness scalar."""
    A, B, C, D, E, N = map(GaussRational, (A, B, C, D, E, N))
    skt = A.abs2() + D.abs2() + E.abs2() + 2 * (B.conjugate() * C).re
    half = GaussRational(Fraction(1, 2))
    closed = half * (C.conjugate() - B.conjugate()) - N * E.conjugate()
    return skt == 0 and not closed


@dataclass
class CircleLocus:
    """The diagonal-metric solution circle in the (x, y) = (Re B, Im B) plane
    for fixed C = u + iv and a = |N|^2 > 0:

        x^2 + y^2 + (8a - 2) x u + (8a - 2) y v + u^2 + v^2 = 0.
    """

    exists: bool
    center: tuple[Fraction, Fraction]
    radius2: Fraction


def fps_solution_circle(aN, u, v) -> CircleLocus:
    """Circle data for the locus above with a = aN; a circle exists iff
    8 aN (2 aN - 1)(u^2 + v^2) > 0, i.e. aN > 1/2 with (u, v) != 0."""
    a = Fraction(aN)
    if a <= 0:
        raise ValueError("aN = |N|^2 must be positive")
    u = Fraction(u)
    v = Fraction(v)
    shift = 4 * a - 1
    center = (-shift * u, -shift * v)
    radius2 = (shift * shift - 1) * (u * u + v * v)
    return CircleLocus(exists=radius2 > 0, center=center, radius2=radius2)


def ft8_3symplectic_condition(a, L3=0, M2=0, N=0):
    """Closedness scalar for the rank-4 family:
    (3/4) i (a3 + a8 + a12) - conj(L3) a6 + conj(M2) a2 - conj(N) a1."""
    a = [GaussRational(x) for x in a]
    if len(a) != 12:
        raise ValueError("expected 12 structure coefficients")
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = a
    L3, M2, N = map(GaussRational, (L3, M2, N))
    coeff = GaussRational(Fraction(3, 4)) * GaussRational(0, 1)
    return (
        coeff * (a3 + a8 + a12)
        - L3.conjugate() * a6
        + M2.conjugate() * a2
        - N.conjugate() * a1
    )


def ft8_combined_system(a, M2) -> bool:
    """Astheno identity with a8 = 0, the vanishing pattern, and the
    closedness scalar reduced to (3/4) i (a3 + a12) + conj(M2) a2 = 0."""
    a = [GaussRational(x) for x in a]
    if len(a) != 12:
        raise ValueError("expected 12 structure coefficients")
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 = a
    M2 = GaussRational(M2)
    if not (a8 == 0 and a1 == 0 and a4 == 0 and a6 == 0 and a7 == 0 and a9 == 0 and a11 == 0):
        return False
    astheno = a2.abs2() + a5.abs2() + a10.abs2() == 2 * (a3 * a12.conjugate()).re
    closed = (
        GaussRational(Fraction(3, 4)) * GaussRational(0, 1) * (a3 + a12)
        + M2.conjugate() * a2
    )
    return astheno and not closed


def st10_4symplectic_condition(a, b, c, d, L3=0, M2=0, N1=0, S2=0, S3=0, P=0):
    """Closedness scalar for the rank-5 family:
    (3/2)(d4+c4+b4+a4) - conj(L3) c1 + conj(M2) b2 - conj(N1) b1
    - conj(S2) a3 + conj(S3) a2 - conj(P) a1."""
    a = [GaussRational(x) for x in a]
    b = [GaussRational(x) for x in b]
    c = [GaussRational(x) for x in c]
    d = [GaussRational(x) for x in d]
    if (len(a), len(b), len(c), len(d)) != (7, 6, 5, 4):
        raise ValueError("expected letter counts (7, 6, 5, 4)")
    L3, M2, N1, S2, S3, P = map(GaussRational, (L3, M2, N1, S2, S3, P))
    threehalf = GaussRational(Fraction(3, 2))
    return (
        threehalf * (d[3] + c[3] + b[3] + a[3])
        - L3.conjugate() * c[0]
        + M2.conjugate() * b[1]
        - N1.conjugate() * b[0]
        - S2.conjugate() * a[2]
        + S3.conjugate() * a[1]
        - P.conjugate() * a[0]
    )


def st10_combined_system(a, b, c, d, L3=0, P=0) -> bool:
    """The five-line diagonal-metric system on the reduced parameter set
    (a2 = a3 = a5 = a6 = a7 = b1 = b2 = b3 = b5 = b6 = c2 = c3 = c5 =
    d1 = d2 = d3 = 0): astheno identity split into two real lines, two
    orthogonality lines, and the closedness scalar."""
    a = [GaussRational(x) for x in a]
    b = [GaussRational(x) for x in b]
    c = [GaussRational(x) for x in c]
    d = [GaussRational(x) for x in d]
    if (len(a), len(b), len(c), len(d)) != (7, 6, 5, 4):
        raise ValueError("expected letter counts (7, 6, 5, 4)")
    L3, P = map(GaussRational, (L3, P))
    pattern = (
        a[1] == 0 and a[2] == 0 and a[4] == 0 and a[5] == 0 and a[6] == 0
        and b[0] == 0 and b[1] == 0 and b[2] == 0 and b[4] == 0 and b[5] == 0
        and c[1] == 0 and c[2] == 0 and c[4] == 0
        and d[0] == 0 and d[1] == 0 and d[2] == 0
    )
    if not pattern:
        return False
    a1, a4, b4, c1, c4, d4 = a[0], a[3], b[3], c[0], c[3], d[3]
    line1 = 2 * (d4 * a4.conjugate() + d4 * b4.conjugate() + d4 * c4.conjugate()).re == c1.abs2()
    line2 = 2 * (c4 * a4.conjugate() + c4 * b4.conjugate() + b4 * a4.conjugate()).re == a1.abs2()
    line3 = (c4 * b4.conjugate() - d4 * a4.conjugate()).re == 0
    line4 = (b4 * d4.conjugate() - c4 * a4.conjugate()).re == 0
    closed = (
        GaussRational(Fraction(3, 2)) * (a4 + b4 + c4 + d4)
        - c1 * L3.conjugate()
        - a1 * P.conjugate()
    )
    return line1 and line2 and line3 and line4 and not closed
