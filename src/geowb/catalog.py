"""Built-in structure presentations.

Keys and contents:

* ``nakamura-iv-1`` .. ``nakamura-iv-7`` -- the rank-4 rows of Nakamura's
  classification of complex solvable Lie algebras (abelian / nilpotent /
  solvable as labelled there).
* ``nakamura-v-1`` .. ``nakamura-v-20`` -- the rank-5 rows.
* ``fps6`` -- the 6-dimensional 2-step nilpotent family with two closed
  generators and d a^3 = A ab^1 a^2 + B ab^2 a^2 + C a^1 ab^1 + D a^1 ab^2
  + E a^1 a^2 (Fino-Parton-Salamon type).
* ``ft8`` -- the 8-dimensional 2-step nilpotent family with one non-closed
  generator and twelve coefficients (Fino-Tomassini type).
* ``st10`` -- the 10-dimensional analogue with twenty-two coefficients
  (Sferruzza-Tomassini type).
* ``eta-beta-5`` -- the rank-5 Heisenberg-type parallelizable nilmanifold
  (d phi^5 = -phi^13 - phi^24), same algebra as nakamura-v-3.
* ``s1-pi2`` -- the 2-step solvable group R x (R x R^2 x R^2) with a
  quarter-turn rotation block; float backend, since pi/2 enters the real
  structure constants.

Family coefficients must be exact (ints, Fractions or Gaussian rationals);
catalogue entries never accept floats on the exact backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .forms import InvariantForm, Monomial, sigma
from .lie import StructurePresentation, complexify_real_presentation
from .scalars import EXACT, FLOAT, GaussRational


def _form(n: int, *terms) -> InvariantForm:
    """Helper: terms are (coefficient, holo indices, anti indices)."""
    data: dict[Monomial, GaussRational] = {}
    for coeff, holo, anti in terms:
        mono = Monomial.make(holo, anti, n)
        coeff = GaussRational(coeff)
        data[mono] = data[mono] + coeff if mono in data else coeff
    return InvariantForm(n, data, EXACT)


def _zero(n: int) -> InvariantForm:
    return InvariantForm.zero(n, EXACT)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: object


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    summary: str
    build: Callable[..., StructurePresentation]
    params: tuple[ParamSpec, ...] = ()
    constraint: Callable[[dict], bool] | None = None
    constraint_doc: str = ""
    provenance: str = ""
    label: str = ""
    backend: str = EXACT

    def defaults(self) -> dict:
        return {p.name: p.default for p in self.params}

    def instantiate(self, **overrides) -> StructurePresentation:
        values = self.defaults()
        unknown = set(overrides) - set(values)
        if unknown:
            raise ValueError(f"unknown parameters for {self.key}: {sorted(unknown)}")
        values.update(overrides)
        if self.constraint is not None and not self.constraint(values):
            raise ValueError(
                f"parameters for {self.key} violate the constraint "
                f"{self.constraint_doc}"
            )
        return self.build(**values)


# ---------------------------------------------------------------------------
# Nakamura type IV (rank 4)
# ---------------------------------------------------------------------------


def _nakamura_row(n: int, dphi, name: str) -> StructurePresentation:
    """The presentation whose d phi^j lists the (coefficient, holomorphic
    indices) terms dphi[j - 1]."""
    forms = [_form(n, *((c, holo, []) for c, holo in terms)) for terms in dphi]
    return StructurePresentation(n, forms, name=name, backend=EXACT)


def nakamura_iv(k: int, alpha=1) -> StructurePresentation:
    alpha = GaussRational(alpha)
    # row j lists d phi^1 .. d phi^4 as (coefficient, holomorphic indices)
    # terms, behind a lambda so that only row k is built
    rows = {
        1: lambda: [[], [], [], []],
        2: lambda: [[], [], [], [(-1, [2, 3])]],
        3: lambda: [[], [], [(-1, [1, 2])], [(-2, [1, 3])]],
        4: lambda: [[], [], [(1, [2, 3])], [(-1, [2, 4])]],
        5: lambda: [[], [(1, [1, 2])], [(alpha, [1, 3])], [(-(1 + alpha), [1, 4])]],
        6: lambda: [[], [(1, [1, 2])], [(-1, [1, 3])], [(-1, [2, 3])]],
        7: lambda: [[], [(1, [1, 2])], [(-2, [1, 3])], [(1, [1, 4]), (-1, [1, 2])]],
    }
    if k not in rows:
        raise ValueError("type IV rows are numbered 1..7")
    return _nakamura_row(4, rows[k](), f"nakamura-iv-{k}")


# ---------------------------------------------------------------------------
# Nakamura type V (rank 5)
# ---------------------------------------------------------------------------


def nakamura_v(k: int, alpha=1, beta=1, gamma=1, eta=1) -> StructurePresentation:
    alpha = GaussRational(alpha)
    beta = GaussRational(beta)
    gamma = GaussRational(gamma)
    eta = GaussRational(eta)
    # as in nakamura_iv, with d phi^1 .. d phi^5
    rows = {
        1: lambda: [[], [], [], [], []],
        2: lambda: [[], [], [], [], [(-1, [3, 4])]],
        3: lambda: [[], [], [], [], [(-1, [1, 3]), (-1, [2, 4])]],
        4: lambda: [[], [], [], [(-1, [1, 2])], [(-1, [1, 3])]],
        5: lambda: [[], [], [], [(-1, [2, 3])], [(-2, [2, 4])]],
        6: lambda: [[], [], [], [(-1, [1, 2])], [(-2, [1, 4]), (-1, [2, 3])]],
        7: lambda: [[], [], [], [(1, [3, 4])], [(-1, [3, 5])]],
        8: lambda: [[], [], [(-1, [1, 2])], [(-2, [1, 3])], [(-2, [2, 3])]],
        9: lambda: [[], [], [(-1, [1, 2])], [(-2, [1, 3])], [(-3, [1, 4])]],
        10: lambda: [[], [], [(-1, [1, 2])], [(-2, [1, 3])], [(-3, [1, 4]), (-1, [2, 3])]],
        11: lambda: [[], [], [(-1, [1, 2])], [(1, [1, 4])], [(1, [1, 5])]],
        12: lambda: [[], [], [(1, [1, 3])], [(1, [2, 4])], [(-1, [1, 5]), (-1, [2, 5])]],
        13: lambda: [[], [], [(1, [2, 3])], [(alpha, [2, 4])], [(-(1 + alpha), [2, 5])]],
        14: lambda: [[], [], [(1, [1, 3])], [(-2, [1, 4])], [(1, [1, 5]), (-1, [1, 3])]],
        15: lambda: [[], [], [(1, [2, 3])], [(-1, [2, 4])], [(-1, [3, 4])]],
        16: lambda: [[], [], [(1, [1, 3])], [(-1, [1, 4])], [(-1, [3, 4]), (-1, [1, 2])]],
        17: lambda: [
            [],
            [(1, [1, 2])],
            [(gamma, [1, 3])],
            [(beta, [1, 4])],
            [(-(1 + gamma + beta), [1, 5])],
        ],
        18: lambda: [
            [],
            [(-3, [1, 2])],
            [(1, [1, 3])],
            [(1, [1, 4]), (-1, [1, 3])],
            [(1, [1, 5]), (-1, [1, 3])],
        ],
        19: lambda: [
            [],
            [(1, [1, 2])],
            [(-1, [1, 3])],
            [(1, [1, 4]), (-1, [1, 2])],
            [(-1, [1, 5]), (-1, [1, 3])],
        ],
        20: lambda: [
            [],
            [(1, [1, 2])],
            [(1, [1, 3]), (-1, [1, 2])],
            [(eta, [1, 4])],
            [(-(2 + eta), [1, 5])],
        ],
    }
    if k not in rows:
        raise ValueError("type V rows are numbered 1..20")
    return _nakamura_row(5, rows[k](), f"nakamura-v-{k}")


# ---------------------------------------------------------------------------
# nilpotent families
# ---------------------------------------------------------------------------


def fps6(A=0, B=0, C=0, D=0, E=0) -> StructurePresentation:
    """Rank 3, d a^1 = d a^2 = 0 and
    d a^3 = A ab^1^a^2 + B ab^2^a^2 + C a^1^ab^1 + D a^1^ab^2 + E a^1^a^2."""
    n = 3
    A, B, C, D, E = map(GaussRational, (A, B, C, D, E))
    # ab^j ^ a^2 = -(a^2 ^ ab^j) in canonical order
    d3 = InvariantForm(
        n,
        {
            Monomial.make([2], [1], n): -A,
            Monomial.make([2], [2], n): -B,
            Monomial.make([1], [1], n): C,
            Monomial.make([1], [2], n): D,
            Monomial.make([1, 2], [], n): E,
        },
        EXACT,
    )
    return StructurePresentation(n, [_zero(n), _zero(n), d3], name="fps6", backend=EXACT)


def ft8(a1=0, a2=0, a3=0, a4=0, a5=0, a6=0, a7=0, a8=0, a9=0, a10=0, a11=0, a12=0):
    """Rank 4, generators 1..3 closed, d eta^4 with twelve coefficients."""
    n = 4
    coeffs = list(map(GaussRational, (a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12)))
    blocks = [
        ([1, 2], []), ([1, 3], []), ([1], [1]), ([1], [2]), ([1], [3]),
        ([2, 3], []), ([2], [1]), ([2], [2]), ([2], [3]),
        ([3], [1]), ([3], [2]), ([3], [3]),
    ]
    terms = {}
    for c, (holo, anti) in zip(coeffs, blocks):
        if c:
            terms[Monomial.make(holo, anti, n)] = c
    d4 = InvariantForm(n, terms, EXACT)
    return StructurePresentation(
        n, [_zero(n)] * 3 + [d4], name="ft8", backend=EXACT
    )


def st10(
    a1=0, a2=0, a3=0, a4=0, a5=0, a6=0, a7=0,
    b1=0, b2=0, b3=0, b4=0, b5=0, b6=0,
    c1=0, c2=0, c3=0, c4=0, c5=0,
    d1=0, d2=0, d3=0, d4=0,
):
    """Rank 5, generators 1..4 closed, d sigma^5 with twenty-two coefficients."""
    n = 5
    letters = list(map(GaussRational, (
        a1, a2, a3, a4, a5, a6, a7,
        b1, b2, b3, b4, b5, b6,
        c1, c2, c3, c4, c5,
        d1, d2, d3, d4,
    )))
    blocks = [
        ([1, 2], []), ([1, 3], []), ([1, 4], []),
        ([1], [1]), ([1], [2]), ([1], [3]), ([1], [4]),
        ([2, 3], []), ([2, 4], []),
        ([2], [1]), ([2], [2]), ([2], [3]), ([2], [4]),
        ([3, 4], []),
        ([3], [1]), ([3], [2]), ([3], [3]), ([3], [4]),
        ([4], [1]), ([4], [2]), ([4], [3]), ([4], [4]),
    ]
    terms = {}
    for c, (holo, anti) in zip(letters, blocks):
        if c:
            terms[Monomial.make(holo, anti, n)] = c
    d5 = InvariantForm(n, terms, EXACT)
    return StructurePresentation(
        n, [_zero(n)] * 4 + [d5], name="st10", backend=EXACT
    )


def eta_beta5() -> StructurePresentation:
    pres = nakamura_v(3)
    return StructurePresentation(5, pres.dphi, name="eta-beta-5", backend=EXACT)


def eta_beta5_three_kahler_form() -> InvariantForm:
    """The closed transverse (3,3)-form on eta-beta-5:
    sigma(3) * (sum_{i<j<k} phi^{ijk} ^ phibar^{ijk}
                - phi^{135} ^ phibar^{245} - phi^{245} ^ phibar^{135})."""
    import itertools

    n = 5
    terms = {}
    one = GaussRational(1)
    for trip in itertools.combinations(range(1, 6), 3):
        terms[Monomial.make(trip, trip, n)] = one
    terms[Monomial.make([1, 3, 5], [2, 4, 5], n)] = GaussRational(-1)
    terms[Monomial.make([2, 4, 5], [1, 3, 5], n)] = GaussRational(-1)
    return InvariantForm(n, terms, EXACT).scale(sigma(3))


def s1_pi2() -> StructurePresentation:
    """The quarter-turn solvable example on the float backend.

    Real structure equations de^1 = -e^12, de^3 = -(1/2) e^23,
    de^4 = -(1/2) e^24, de^5 = (pi/2) e^26, de^6 = -(pi/2) e^25 with the
    complex pairing phi^1 = e^1 + i e^2, phi^2 = e^3 + i e^4,
    phi^3 = e^5 + i e^6; pi/2 forces floats.
    """
    half_pi = math.pi / 2
    de = [
        [(1, 2, -1.0)],
        [],
        [(2, 3, -0.5)],
        [(2, 4, -0.5)],
        [(2, 6, half_pi)],
        [(2, 5, -half_pi)],
    ]
    pairing = [(1, 2), (3, 4), (5, 6)]
    return complexify_real_presentation(de, pairing, name="s1-pi2", backend=FLOAT)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# rows with parameters: (type, row) -> (names, the product that must not
# vanish, evaluated on the parameters in that order, and its text)
_ROW_PARAMS = {
    ("IV", 5): (("alpha",), lambda alpha: alpha * (1 + alpha), "alpha (1 + alpha) != 0"),
    ("V", 13): (("alpha",), lambda alpha: alpha * (1 + alpha), "alpha (1 + alpha) != 0"),
    ("V", 17): (
        ("gamma", "beta"),
        lambda gamma, beta: gamma * beta * (1 + gamma + beta),
        "gamma beta (1 + gamma + beta) != 0",
    ),
    ("V", 20): (("eta",), lambda eta: eta * (2 + eta), "eta (2 + eta) != 0"),
}


def _nakamura_entry(kind: str, k: int, label: str, note: str = "") -> CatalogEntry:
    build_row = nakamura_iv if kind == "IV" else nakamura_v
    names, product, constraint_doc = _ROW_PARAMS.get((kind, k), ((), None, ""))
    constraint = None
    if product is not None:
        constraint = lambda v: product(*(GaussRational(v[x]) for x in names)) != 0
    provenance = f"Nakamura classification, type {kind}, row {k} ({label})"
    if note:
        provenance += f"; {note}"
    return CatalogEntry(
        key=f"nakamura-{kind.lower()}-{k}",
        summary=f"type {kind} row {k}, {label}",
        build=lambda **kw: build_row(k, **kw),
        params=tuple(ParamSpec(x, 1) for x in names),
        constraint=constraint,
        constraint_doc=constraint_doc,
        provenance=provenance,
        label=label,
    )


_NO_QUOTIENT = "no compact quotient exists"
_UNKNOWN_QUOTIENT = "existence of a compact quotient is open"

_IV_LABELS = {
    1: ("abelian", ""),
    2: ("nilpotent", ""),
    3: ("nilpotent", ""),
    4: ("solvable", ""),
    5: ("solvable", _UNKNOWN_QUOTIENT),
    6: ("solvable", ""),
    7: ("solvable", _NO_QUOTIENT),
}

_V_LABELS = {
    1: ("abelian", ""),
    2: ("nilpotent", ""),
    3: ("nilpotent", ""),
    4: ("nilpotent", ""),
    5: ("nilpotent", ""),
    6: ("nilpotent", ""),
    7: ("solvable", ""),
    8: ("nilpotent", ""),
    9: ("nilpotent", ""),
    10: ("nilpotent", ""),
    11: ("solvable", "not unimodular as catalogued, so no lattice (Milnor 1976)"),
    12: ("solvable", ""),
    13: ("solvable", _UNKNOWN_QUOTIENT),
    14: ("solvable", ""),
    15: ("solvable", _NO_QUOTIENT),
    16: ("solvable", _UNKNOWN_QUOTIENT),
    17: ("solvable", ""),
    18: ("solvable", _NO_QUOTIENT),
    19: ("solvable", _UNKNOWN_QUOTIENT),
    20: ("solvable", _UNKNOWN_QUOTIENT),
}


def _family_params(names) -> tuple[ParamSpec, ...]:
    return tuple(ParamSpec(n, 0) for n in names)


CATALOG: dict[str, CatalogEntry] = {}

for _kind, _labels in (("IV", _IV_LABELS), ("V", _V_LABELS)):
    for _k, (_label, _note) in _labels.items():
        _entry = _nakamura_entry(_kind, _k, _label, _note)
        CATALOG[_entry.key] = _entry

CATALOG["fps6"] = CatalogEntry(
    key="fps6",
    summary="rank-3 nilpotent family, two closed generators, letters A..E",
    build=fps6,
    params=_family_params(["A", "B", "C", "D", "E"]),
    provenance="6-dimensional 2-step nilpotent family (Fino-Parton-Salamon type)",
    label="nilpotent family",
)
CATALOG["ft8"] = CatalogEntry(
    key="ft8",
    summary="rank-4 nilpotent family, letters a1..a12",
    build=ft8,
    params=_family_params([f"a{i}" for i in range(1, 13)]),
    provenance="8-dimensional 2-step nilpotent family (Fino-Tomassini type)",
    label="nilpotent family",
)
CATALOG["st10"] = CatalogEntry(
    key="st10",
    summary="rank-5 nilpotent family, letters a1..a7, b1..b6, c1..c5, d1..d4",
    build=st10,
    params=_family_params(
        [f"a{i}" for i in range(1, 8)]
        + [f"b{i}" for i in range(1, 7)]
        + [f"c{i}" for i in range(1, 6)]
        + [f"d{i}" for i in range(1, 5)]
    ),
    provenance="10-dimensional 2-step nilpotent family (Sferruzza-Tomassini type)",
    label="nilpotent family",
)
CATALOG["eta-beta-5"] = CatalogEntry(
    key="eta-beta-5",
    summary="rank-5 Heisenberg-type parallelizable nilmanifold",
    build=lambda: eta_beta5(),
    provenance="generalised Iwasawa nilmanifold (type V row 3)",
    label="nilpotent",
)
CATALOG["s1-pi2"] = CatalogEntry(
    key="s1-pi2",
    summary="rank-3 solvable quarter-turn example (float backend)",
    build=lambda: s1_pi2(),
    provenance="2-step solvable semidirect product R x (R x R^2 x R^2), "
    "rotation angle pi/2",
    label="solvable",
    backend=FLOAT,
)


def keys() -> list[str]:
    return list(CATALOG)


def get(key: str, **params) -> StructurePresentation:
    if key not in CATALOG:
        raise KeyError(f"unknown catalog key {key!r}")
    return CATALOG[key].instantiate(**params)


def entry(key: str) -> CatalogEntry:
    if key not in CATALOG:
        raise KeyError(f"unknown catalog key {key!r}")
    return CATALOG[key]


# ---------------------------------------------------------------------------
# certificate library
# ---------------------------------------------------------------------------


def certificate_library():
    """Named obstruction certificates for catalogued presentations.

    Returns {name: (structure_key, ObstructionCertificate)}.
    """
    from .existence import ObstructionCertificate
    from .positivity import SimpleForm

    lib = {}

    # row IV 6: d(phi^{12} ^ phibar^2) = phi^{12} ^ phibar^{12}, p = 2
    beta = InvariantForm(4, {Monomial.make([1, 2], [2], 4): 1}, EXACT)
    lib["nakamura-iv-6-p2"] = (
        "nakamura-iv-6",
        ObstructionCertificate(
            p=2,
            mode="d",
            beta=beta,
            decomposition=((GaussRational(1), SimpleForm.coordinate([1, 2], 4)),),
        ),
    )

    # row V 5: d(phi^{23} ^ phibar^4) = -phi^{23} ^ phibar^{23}, p = 3
    beta = InvariantForm(5, {Monomial.make([2, 3], [4], 5): 1}, EXACT)
    lib["nakamura-v-5-p3"] = (
        "nakamura-v-5",
        ObstructionCertificate(
            p=3,
            mode="d",
            beta=beta,
            decomposition=((GaussRational(-1), SimpleForm.coordinate([2, 3], 5)),),
        ),
    )

    # row V 14: d(phi^{123} ^ phibar^{23}) = -phi^{123} ^ phibar^{123}, p = 2
    beta = InvariantForm(5, {Monomial.make([1, 2, 3], [2, 3], 5): 1}, EXACT)
    lib["nakamura-v-14-p2"] = (
        "nakamura-v-14",
        ObstructionCertificate(
            p=2,
            mode="d",
            beta=beta,
            decomposition=((GaussRational(-1), SimpleForm.coordinate([1, 2, 3], 5)),),
        ),
    )

    # quarter-turn example: d(2i phi^1) = phi^1 ^ phibar^1, p = 2
    # (the raw equation d phi^1 = -(i/2) phi^{1 1b} has a unimodular factor
    #  which is absorbed into beta to make the coefficient real)
    beta = InvariantForm(3, {Monomial.make([1], [], 3): 2j}, FLOAT)
    lib["s1-pi2-p2"] = (
        "s1-pi2",
        ObstructionCertificate(
            p=2,
            mode="d",
            beta=beta,
            decomposition=((1.0 + 0j, SimpleForm.coordinate([1], 3)),),
        ),
    )
    return lib
