"""Closure systems, family formulas, simple-form search and invariant
cohomology, checked on exact presentations, their float copies and the
float catalogue entry."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import suites
from suites import float_copy, member
from geowb import catalog, linalg
from geowb import existence
from geowb.existence import (
    FAMILIES,
    bott_chern_dimensions,
    certificate_search,
    closure_system,
    exact_simple_holomorphic_search,
    invariant_ddbar_lemma_check,
    verify_obstruction_certificate,
)
from family_formulas import (
    fps_psymplectic_condition,
    fps_skt_2symplectic_system,
    fps_solution_circle,
    ft8_3symplectic_condition,
    ft8_combined_system,
    metric_from_letters,
    st10_4symplectic_condition,
    st10_combined_system,
)
from geowb.forms import InvariantForm, Monomial, bidegree_basis
from geowb.lie import PresentationError, StructurePresentation
from geowb.metrics import HermitianMetric, classify, form_power, fundamental_form
from geowb.positivity import is_decomposable
from geowb.scalars import EXACT, FLOAT, GaussRational


def gr(rnd: random.Random) -> GaussRational:
    def part():
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))

    return GaussRational(part(), part())


def nonzero_gr(rnd: random.Random) -> GaussRational:
    while True:
        x = gr(rnd)
        if x:
            return x


def metric_power(pres: StructurePresentation, p: int) -> InvariantForm:
    omega = fundamental_form(HermitianMetric.identity(pres.n, pres.backend))
    return form_power(omega, p)


def low_and_high_bidegrees(n: int):
    """Bidegrees of total degree at most 2 or at least 2n - 2."""
    return [
        (p, q)
        for p in range(n + 1)
        for q in range(n + 1)
        if p + q <= 2 or p + q >= 2 * n - 2
    ]


# exact presentations next to their float copies
EXACT_CASES = {
    "fps6": lambda: member("fps6", random.Random(11)),
    "nakamura-iv-5": lambda: catalog.get("nakamura-iv-5"),
    "ft8": lambda: member("ft8", random.Random(12)),
}


@pytest.fixture(scope="module", params=sorted(EXACT_CASES))
def pair(request):
    exact = EXACT_CASES[request.param]()
    return exact, float_copy(exact)


class TestBackendsAgree:
    def test_bott_chern_dimensions(self, pair):
        exact, floating = pair
        assert bott_chern_dimensions(floating) == bott_chern_dimensions(exact)

    def test_ddbar_lemma_low_and_high_degrees(self, pair):
        exact, floating = pair
        for p, q in low_and_high_bidegrees(exact.n):
            assert invariant_ddbar_lemma_check(
                floating, p, q
            ) == invariant_ddbar_lemma_check(exact, p, q), (p, q)

    def test_classify_flags(self, pair):
        exact, floating = pair
        rnd = random.Random(13)
        n = exact.n
        diag = [rnd.randint(2, 4) for _ in range(n)]
        entries = [[diag[j] if j == k else 0 for k in range(n)] for j in range(n)]
        entries[0][1] = GaussRational(Fraction(1, 2), Fraction(-1, 3))
        entries[1][0] = entries[0][1].conjugate()
        for metric in (HermitianMetric.identity(n), HermitianMetric(entries)):
            float_metric = HermitianMetric(metric.entries, FLOAT)
            want = classify(exact, metric).flags
            assert classify(floating, float_metric, tol=1e-10).flags == want

    def test_closure_system(self, pair):
        exact, floating = pair
        p = exact.n - 1
        basis = bidegree_basis(exact.n, p + 1, p - 1)
        want = closure_system(exact, p, metric_power(exact, p), basis)
        got = closure_system(floating, p, metric_power(floating, p), basis)
        assert got.consistent == want.consistent
        assert len(got.kernel) == len(want.kernel)


# rank-5 presentations, whose exact Bott-Chern tables take the sparse
# elimination through matrices of up to a few hundred rows
RANK5_CASES = {
    "eta-beta-5": lambda: catalog.get("eta-beta-5"),
    "nakamura-v-18": lambda: catalog.get("nakamura-v-18"),
    "st10": lambda: member("st10", random.Random(14)),
}


@pytest.mark.parametrize("key", sorted(RANK5_CASES))
def test_bott_chern_backends_agree_in_rank_5(key):
    exact = RANK5_CASES[key]()
    assert exact.n == 5
    assert bott_chern_dimensions(float_copy(exact)) == bott_chern_dimensions(exact)


class TestFloatCatalogueEntry:
    def test_bott_chern_table(self):
        table = bott_chern_dimensions(catalog.get("s1-pi2"))
        nonzero = {pq: v for pq, v in table.items() if v}
        assert nonzero == {
            (0, 0): 1,
            (1, 1): 2,
            (1, 2): 1,
            (2, 1): 1,
            (2, 2): 2,
            (2, 3): 1,
            (3, 2): 1,
            (3, 3): 1,
        }

    def test_ddbar_lemma_fails_at_11_and_22_only(self):
        pres = catalog.get("s1-pi2")
        failures = [
            (p, q)
            for p in range(4)
            for q in range(4)
            if not invariant_ddbar_lemma_check(pres, p, q)
        ]
        assert failures == [(1, 1), (2, 2)]


# ---- the del-delbar lemma against its definition ----------------------------

DDBAR_CASES = {
    **{key: lambda key=key: catalog.get(key) for key in catalog.keys()},
    **{
        f"{key}-seeded": lambda key=key, seed=seed: member(key, random.Random(seed))
        for key, seed in (("fps6", 41), ("ft8", 42), ("st10", 43))
    },
}


def ddbar_bidegrees(n: int):
    """Every bidegree up to rank 4; total degree at most 2 or at least 8 in
    rank 5, where the definition takes seconds per presentation in between."""
    return [
        (p, q)
        for p in range(n + 1)
        for q in range(n + 1)
        if n <= 4 or p + q <= 2 or p + q >= 8
    ]


@pytest.mark.parametrize("key", sorted(DDBAR_CASES))
def test_ddbar_lemma_matches_the_definition(key):
    pres = DDBAR_CASES[key]()
    copies = [pres]
    if pres.backend == EXACT and pres.n <= 4:
        copies.append(float_copy(pres))
    for copy in copies:
        for p, q in ddbar_bidegrees(copy.n):
            want = suites.ddbar_lemma_by_definition(copy, p, q)
            assert invariant_ddbar_lemma_check(copy, p, q) == want, (copy.backend, p, q)


def rank3_presentation(*dphi) -> StructurePresentation:
    """d phi^i = the sum of the monomials (holo, anti) listed at position i."""
    return StructurePresentation(3, [
        InvariantForm(3, {Monomial.make(holo, anti, 3): 1 for holo, anti in monos})
        for monos in dphi
    ])


REFUSED = {
    # d phi^3 = phibar^{12} has a (0,2) part
    "not-integrable": lambda: rank3_presentation([], [], [([], [1, 2])]),
    # d phi = (phi^{23}, phi^{12}, 0): d d phi^1 = phi^{123}
    "d-squared-nonzero": lambda: rank3_presentation([([2, 3], [])], [([1, 2], [])], []),
}


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_cohomology_refuses_what_the_calculus_cannot_serve(kind):
    pres = REFUSED[kind]()
    for p in range(4):
        for q in range(4):
            with pytest.raises(PresentationError):
                invariant_ddbar_lemma_check(pres, p, q)
    with pytest.raises(PresentationError):
        bott_chern_dimensions(pres)
    with pytest.raises(PresentationError):
        classify(pres, HermitianMetric.identity(3))


# ---- closed-form family conditions against d Psi and the closure solver ---
#
# ``psymplectic`` prints the coefficient of d Psi at the family's monomial M
# as its condition.  Each case checks, at generic and at closing
# coefficients, that d Psi has no term outside M and conj(M) and that its
# M-coefficient is the transcribed condition exactly.


def fps6_case(rnd: random.Random, letters_of_metric=None):
    letters = {k: nonzero_gr(rnd) for k in "ABCDE"}
    pres = catalog.fps6(**letters)
    if letters_of_metric is None:
        r2, s2, t2 = (rnd.randint(3, 5) for _ in range(3))
        u, v, w = (gr(rnd) * Fraction(1, 6) for _ in range(3))
        letters_of_metric = (r2, s2, t2, u, v, w)
    metric = metric_from_letters(*letters_of_metric)
    assert metric.is_positive_definite()
    fixed = form_power(fundamental_form(metric), 2)
    r2, s2, t2, u, v, w = letters_of_metric

    def condition(c):
        return fps_psymplectic_condition(
            *(letters[k] for k in "ABCDE"), N=c["N"], r2=r2, s2=s2, t2=t2, u=u, v=v, w=w
        )

    # condition = condition(N = 0) - N conj(E)
    def closing(c):
        return {"N": condition({**c, "N": 0}) / letters["E"].conjugate()}

    return pres, FAMILIES["fps6"], fixed, condition, closing


def fps6_identity_case(rnd: random.Random):
    return fps6_case(rnd, (1, 1, 1, 0, 0, 0))


def ft8_case(rnd: random.Random):
    a = [nonzero_gr(rnd) for _ in range(12)]
    pres = catalog.ft8(*a)

    def condition(c):
        return ft8_3symplectic_condition(a, L3=c["L3"], M2=c["M2"], N=c["N"])

    # condition = condition(N = 0) - conj(N) a1
    def closing(c):
        return {"N": (condition({**c, "N": 0}) / a[0]).conjugate()}

    return pres, FAMILIES["ft8"], metric_power(pres, 3), condition, closing


def st10_case(rnd: random.Random):
    a, b, c_, d = ([nonzero_gr(rnd) for _ in range(k)] for k in (7, 6, 5, 4))
    pres = catalog.st10(*a, *b, *c_, *d)

    def condition(c):
        return st10_4symplectic_condition(
            a, b, c_, d,
            L3=c["L3"], M2=c["M2"], N1=c["N1"], S2=c["S2"], S3=c["S3"], P=c["P"],
        )

    # condition = condition(P = 0) - conj(P) a1
    def closing(c):
        return {"P": (condition({**c, "P": 0}) / a[0]).conjugate()}

    return pres, FAMILIES["st10"], metric_power(pres, 4), condition, closing


@pytest.mark.parametrize(
    "make_case, seed",
    [(fps6_case, 21), (fps6_case, 22), (fps6_identity_case, 26), (ft8_case, 23),
     (ft8_case, 24), (st10_case, 25)],
    ids=["fps6-a", "fps6-b", "fps6-identity", "ft8-a", "ft8-b", "st10"],
)
def test_family_formula_matches_closure_solver(make_case, seed):
    rnd = random.Random(seed)
    pres, family, fixed, condition, closing = make_case(rnd)
    names = family.names
    solution = closure_system(pres, family.p, fixed, family.basis, names)
    assert solution.consistent
    at = family.condition_at
    pair = {at, Monomial(at.anti, at.holo)}

    generic = {name: gr(rnd) for name in names}
    closed = {**generic, **closing(generic)}
    assert condition(generic) != 0
    assert condition(closed) == 0
    for c in (generic, closed):
        residual = solution.closure_residual([c[name] for name in names])
        assert set(residual.terms) <= pair
        assert residual.coeff(at) == condition(c)
        assert residual.is_zero() == (condition(c) == 0)

    # every solver solution satisfies the formula and closes Psi
    particular = list(solution.particular)
    solutions = [particular] + [
        [x + y for x, y in zip(particular, k)] for k in solution.kernel
    ]
    for s in solutions:
        assert solution.closure_residual(s).is_zero()
        assert condition(dict(zip(names, s))) == 0


# ---- the diagonal-metric systems against classify and the solver ---------
#
# Each system claims: the flag of the identity metric holds and Psi is
# closed.  Every case builds a member where both hold, then perturbs it
# once so that only the flag fails and once so that only closedness fails;
# each yields (system verdict, flag, closed).


def solver_verdicts(pres, family, flag, coefficients):
    family = FAMILIES[family]
    solution = closure_system(
        pres, family.p, metric_power(pres, family.p), family.basis, family.names
    )
    residual = solution.closure_residual([coefficients[name] for name in family.names])
    return classify(pres, HermitianMetric.identity(pres.n))[flag], residual.is_zero()


def fps6_system_cases(rnd: random.Random):
    A, B, D, E = (nonzero_gr(rnd) for _ in range(4))
    # SKT: |A|^2 + |D|^2 + |E|^2 + 2 Re(conj(B) C) = 0
    C = -GaussRational(A.abs2() + D.abs2() + E.abs2()) / (2 * B.conjugate())
    # closed: (conj(C) - conj(B)) / 2 = N conj(E); A does not enter
    N = (C.conjugate() - B.conjugate()) / (2 * E.conjugate())
    L, M = gr(rnd), gr(rnd)
    for a, n in ((A, N), (2 * A, N), (A, N + 1)):
        pres = catalog.fps6(a, B, C, D, E)
        coefficients = {"L": L, "M": M, "N": n}
        yield (
            fps_skt_2symplectic_system(a, B, C, D, E, n),
            *solver_verdicts(pres, "fps6", "skt", coefficients),
        )


def ft8_system_cases(rnd: random.Random):
    # the vanishing pattern a1 = a4 = a6 = a7 = a8 = a9 = a11 = 0
    a = [GaussRational(0)] * 12
    for k in (2, 5, 10, 12):
        a[k - 1] = nonzero_gr(rnd)
    # astheno: |a2|^2 + |a5|^2 + |a10|^2 = 2 Re(a3 conj(a12))
    a[2] = GaussRational(a[1].abs2() + a[4].abs2() + a[9].abs2()) / (2 * a[11].conjugate())
    # closed: (3/4) i (a3 + a12) + conj(M2) a2 = 0; a5 does not enter
    M2 = (GaussRational(0, Fraction(-3, 4)) * (a[2] + a[11]) / a[1]).conjugate()
    free = {"L1": gr(rnd), "L2": gr(rnd), "L3": gr(rnd), "M1": gr(rnd), "N": gr(rnd)}
    off = a[:4] + [2 * a[4]] + a[5:]
    for letters, m2 in ((a, M2), (off, M2), (a, M2 + 1)):
        pres = catalog.ft8(*letters)
        coefficients = {**free, "M2": m2}
        yield (
            ft8_combined_system(letters, m2),
            *solver_verdicts(pres, "ft8", "astheno", coefficients),
        )


def st10_system_cases(rnd: random.Random):
    # on the reduced parameter set, a4 = b4 = s u and c4 = d4 = 2 s u with
    # |u| = 1 satisfy both orthogonality lines; the astheno lines then ask
    # |c1|^2 = 16 s^2 and |a1|^2 = 10 s^2
    s = Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
    u = rnd.choice([GaussRational(1), GaussRational(0, -1),
                    GaussRational(Fraction(3, 5), Fraction(4, 5))])
    a, b, c, d = ([GaussRational(0)] * k for k in (7, 6, 5, 4))
    a[3] = b[3] = u * s
    c[3] = d[3] = u * (2 * s)
    a[0] = rnd.choice([GaussRational(3, 1), GaussRational(-1, 3)]) * s
    c1 = rnd.choice([GaussRational(4 * s), GaussRational(0, -4 * s)])
    L3 = gr(rnd)
    free = {name: gr(rnd) for name in FAMILIES["st10"].names}

    def closing_p(c1):
        # closed: (3/2)(a4 + b4 + c4 + d4) = c1 conj(L3) + a1 conj(P)
        total = GaussRational(Fraction(3, 2)) * (a[3] + b[3] + c[3] + d[3])
        return ((total - c1 * L3.conjugate()) / a[0]).conjugate()

    for c1_value, p in ((c1, closing_p(c1)), (2 * c1, closing_p(2 * c1)), (c1, closing_p(c1) + 1)):
        c_letters = [c1_value] + c[1:]
        coefficients = {**free, "L3": L3, "P": p}
        pres = catalog.st10(*a, *b, *c_letters, *d)
        yield (
            st10_combined_system(a, b, c_letters, d, L3=L3, P=p),
            *solver_verdicts(pres, "st10", "astheno", coefficients),
        )


@pytest.mark.parametrize(
    "make_cases, seeds",
    [(fps6_system_cases, range(40, 46)), (ft8_system_cases, range(50, 54)),
     (st10_system_cases, range(60, 62))],
    ids=["fps6", "ft8", "st10"],
)
def test_family_system_matches_classify_and_solver(make_cases, seeds):
    for seed in seeds:
        verdicts = list(make_cases(random.Random(seed)))
        assert verdicts == [(True, True, True), (False, False, True), (False, True, False)]


@pytest.mark.parametrize(
    "N, C, hits",
    [(GaussRational(1), GaussRational(1), 4),
     (GaussRational(Fraction(3, 4)), GaussRational(2), 2),
     (GaussRational(Fraction(1, 2), Fraction(1, 2)), GaussRational(1, 1), 1),
     (GaussRational(Fraction(1, 2)), GaussRational(0, 1), 0),
     (GaussRational(1, 1), GaussRational(1), 0),
     (GaussRational(1), GaussRational(0), 1)],
    ids=["a1", "a9/16", "a1/2", "a1/4", "a2", "C0"],
)
def test_solution_circle_matches_the_fps_system(N, C, hits):
    # with A = D = 0 the closedness scalar fixes E = (C - B) / (2 conj(N)),
    # and the SKT identity then holds iff B lies on the circle of a = |N|^2
    a = N.abs2()
    circle = fps_solution_circle(a, C.re, C.im)
    assert circle.exists == (a > Fraction(1, 2) and C != 0)
    (cx, cy), on = circle.center, 0
    for x in range(-6, 7):
        for y in range(-6, 7):
            B = GaussRational(x, y)
            E = (C - B) / (2 * N.conjugate())
            on_circle = (x - cx) ** 2 + (y - cy) ** 2 == circle.radius2
            assert fps_skt_2symplectic_system(0, B, C, 0, E, N) == on_circle, (x, y)
            on += on_circle
    assert on == hits


def test_closure_system_reports_an_inconsistent_ansatz():
    # fps6 with E = 1 is not Kaehler: omega is not closed, and an empty
    # ansatz has nothing to correct it with
    pres = catalog.fps6(E=1)
    fixed = metric_power(pres, 1)
    solution = closure_system(pres, 1, fixed, [])
    assert not solution.consistent
    assert solution.particular is None


# ---- simple holomorphic forms on complex-parallelizable presentations -----


class TestSimpleHolomorphicSearch:
    def test_unique_line_that_is_not_simple(self):
        verdict = exact_simple_holomorphic_search(catalog.get("eta-beta-5"), 2)
        assert (verdict.kind, verdict.dim_image) == ("no-obstruction", 1)

    def test_first_spanning_image_is_the_witness(self):
        verdict = exact_simple_holomorphic_search(catalog.get("eta-beta-5"), 3)
        assert (verdict.kind, verdict.dim_image) == ("obstruction", 4)
        assert verdict.xi == InvariantForm(5, {Monomial.make([1, 2, 4], [], 5): 1})

    @pytest.mark.parametrize(
        "key, q, dim", [("nakamura-iv-3", 2, 2), ("nakamura-v-12", 3, 6)]
    )
    def test_image_dimensions(self, key, q, dim):
        verdict = exact_simple_holomorphic_search(catalog.get(key), q)
        assert (verdict.kind, verdict.dim_image) == ("obstruction", dim)

    def test_certificate_is_checked_for_exactness(self):
        pres = catalog.get("eta-beta-5")
        exact_xi = InvariantForm(5, {Monomial.make([1, 2, 4], [], 5): 1})
        verdict = exact_simple_holomorphic_search(pres, 3, xi=exact_xi)
        assert verdict.kind == "obstruction"
        # d(Lambda^{2,0}) is spanned by phi^{123}, phi^{124}, phi^{134}, phi^{234}
        closed_xi = InvariantForm(5, {Monomial.make([1, 2, 5], [], 5): 1})
        verdict = exact_simple_holomorphic_search(pres, 3, xi=closed_xi)
        assert (verdict.kind, verdict.reason) == (
            "undecided", "certificate xi is not d-exact"
        )

    def test_refuses_non_parallelizable(self):
        with pytest.raises(PresentationError, match="complex-parallelizable"):
            exact_simple_holomorphic_search(catalog.fps6(C=1), 2)


# exact_simple_holomorphic_search at q = 1..n on every complex-parallelizable
# unimodular catalogue key: O obstruction or N no-obstruction, then dim V
SIMPLE_SEARCH_TABLE = {
    "nakamura-iv-1": "N0 N0 N0 N0",
    "nakamura-iv-2": "N0 O1 O1 N0",
    "nakamura-iv-3": "N0 O2 O2 N0",
    "nakamura-iv-4": "N0 O2 O2 N0",
    "nakamura-iv-5": "N0 O3 O3 N0",
    "nakamura-iv-6": "N0 O3 O3 N0",
    "nakamura-iv-7": "N0 O3 O3 N0",
    "nakamura-v-1": "N0 N0 N0 N0 N0",
    "nakamura-v-2": "N0 O1 O2 O1 N0",
    "nakamura-v-3": "N0 N1 O4 O1 N0",
    "nakamura-v-4": "N0 O2 O2 O2 N0",
    "nakamura-v-5": "N0 O2 O4 O2 N0",
    "nakamura-v-6": "N0 O2 O4 O2 N0",
    "nakamura-v-7": "N0 O2 O4 O2 N0",
    "nakamura-v-8": "N0 O3 O4 O3 N0",
    "nakamura-v-9": "N0 O3 O4 O3 N0",
    "nakamura-v-10": "N0 O3 O4 O3 N0",
    "nakamura-v-12": "N0 O3 O6 O3 N0",
    "nakamura-v-13": "N0 O3 O6 O3 N0",
    "nakamura-v-14": "N0 O3 O6 O3 N0",
    "nakamura-v-15": "N0 O3 O6 O3 N0",
    "nakamura-v-16": "N0 O3 O6 O3 N0",
    "nakamura-v-17": "N0 O4 O6 O4 N0",
    "nakamura-v-18": "N0 O4 O6 O4 N0",
    "nakamura-v-19": "N0 O4 O4 O4 N0",
    "nakamura-v-20": "N0 O4 O6 O4 N0",
    "fps6": "N0 N0 N0",
    "ft8": "N0 N0 N0 N0",
    "st10": "N0 N0 N0 N0 N0",
    "eta-beta-5": "N0 N1 O4 O1 N0",
}


def test_simple_search_table_covers_the_catalogue():
    keys = {key for key in catalog.keys()
            if (pres := catalog.get(key)).is_complex_parallelizable()
            and pres.exact_volume_source() is None}
    assert keys == set(SIMPLE_SEARCH_TABLE)


@pytest.mark.parametrize("key", list(SIMPLE_SEARCH_TABLE))
def test_simple_search_table(key):
    pres = catalog.get(key)
    verdicts = []
    for q in range(1, pres.n + 1):
        verdict = exact_simple_holomorphic_search(pres, q)
        verdicts.append(f"{verdict.kind[0].upper()}{verdict.dim_image}")
        if verdict.kind == "obstruction":
            checked = exact_simple_holomorphic_search(pres, q, xi=verdict.xi)
            assert checked.kind == "obstruction", (q, checked.reason)
    assert " ".join(verdicts) == SIMPLE_SEARCH_TABLE[key]


STOKES_ROUTINES = {
    "simple-search": lambda pres: exact_simple_holomorphic_search(pres, 5),
    "certificate-search": lambda pres: certificate_search(pres, 2),
    "verify": lambda pres: verify_obstruction_certificate(
        pres, catalog.certificate_library()["nakamura-v-5-p3"][1]
    ),
}


@pytest.mark.parametrize("routine", list(STOKES_ROUTINES))
def test_stokes_arguments_refuse_what_is_not_unimodular(routine):
    # d(phi^{2345} ^ phibar^{12345}) = 2 vol: with an exact volume form the
    # Stokes argument proves nothing
    pres = catalog.get("nakamura-v-11")
    assert pres.exact_volume_source() is not None
    message = "not unimodular: d(phi^{2345}^phibar^{12345}) = (2) phi^{12345}^phibar^{12345}"
    with pytest.raises(PresentationError, match=re.escape(message)):
        STOKES_ROUTINES[routine](pres)


def test_exact_backend_stays_exact():
    pres = member("fps6", random.Random(31))
    assert pres.backend == EXACT
    fps6 = FAMILIES["fps6"]
    solution = closure_system(pres, 2, metric_power(pres, 2), fps6.basis, fps6.names)
    assert all(isinstance(x, GaussRational) for x in solution.particular)
    assert all(isinstance(x, GaussRational) for k in solution.kernel for x in k)


def pencil_presentation(c24) -> StructurePresentation:
    """Rank 6: d phi^5 = phi^12 + phi^34, d phi^6 = phi^13 + c24 phi^24."""
    n = 6
    zero = InvariantForm.zero(n)

    def two_form(*terms):
        return InvariantForm(n, {Monomial.make(ij, [], n): c for ij, c in terms})

    d5 = two_form(([1, 2], 1), ([3, 4], 1))
    d6 = two_form(([1, 3], 1), ([2, 4], c24))
    return StructurePresentation(n, [zero] * 4 + [d5, d6], name="pencil")


class TestPencil:
    def test_rational_roots_give_an_exact_witness(self):
        pres = pencil_presentation(1)
        verdict = exact_simple_holomorphic_search(pres, 2)
        assert (verdict.kind, verdict.dim_image) == ("obstruction", 2)
        assert verdict.minimal_polynomial is None
        assert verdict.xi.backend == EXACT
        assert is_decomposable(verdict.xi)
        # the certificate path re-checks d-exactness and simplicity
        checked = exact_simple_holomorphic_search(pres, 2, xi=verdict.xi)
        assert checked.kind == "obstruction", checked.reason

    def test_irrational_roots_keep_a_float_witness_and_a_monic_polynomial(self):
        verdict = exact_simple_holomorphic_search(pencil_presentation(2), 2)
        assert verdict.kind == "obstruction"
        assert verdict.minimal_polynomial == "(1) x^2 + (0) x + (-2)"
        assert verdict.xi.backend == FLOAT
        assert is_decomposable(verdict.xi)


# ---- one refusal table: each gated routine against each fact it requires ---


# each fact a computation may need, a presentation that lacks only that
# one, and the one message of its refusal
FACTS = {
    "not-integrable": (
        REFUSED["not-integrable"],
        "presentation is not integrable: some d phi^i has a (0,2) part",
    ),
    "d-squared-nonzero": (REFUSED["d-squared-nonzero"], "presentation fails d*d = 0"),
    "not-unimodular": (
        lambda: catalog.get("nakamura-v-11"),
        "presentation is not unimodular: d(phi^{2345}^phibar^{12345}) = "
        "(2) phi^{12345}^phibar^{12345} is an exact volume form, so no Stokes "
        "argument applies",
    ),
    "not-complex-parallelizable": (
        lambda: catalog.fps6(C=1),
        "presentation is not complex-parallelizable: some d phi^i has a "
        "component outside (2,0)",
    ),
    # the roots of this pencil are +-sqrt(2): FloatField has no exact square
    # root to tell that they lie outside Q[i]
    "not-exact": (
        lambda: float_copy(pencil_presentation(2)),
        "presentation is not exact: the simple-form search decides exactly "
        "whether a root lies in Q[i]",
    ),
}

DOUBLE_COMPLEX = ("not-integrable", "d-squared-nonzero")
GATED = {
    "bc-dims": (bott_chern_dimensions, DOUBLE_COMPLEX),
    "ddbar-00": (lambda pres: invariant_ddbar_lemma_check(pres, 0, 0), DOUBLE_COMPLEX),
    "ddbar-11": (lambda pres: invariant_ddbar_lemma_check(pres, 1, 1), DOUBLE_COMPLEX),
    "classify": (lambda pres: classify(pres, HermitianMetric.identity(pres.n)), DOUBLE_COMPLEX),
    "certificate-search": (lambda pres: certificate_search(pres, 2), ("not-unimodular",)),
    "verify": (
        lambda pres: verify_obstruction_certificate(
            pres, catalog.certificate_library()["nakamura-v-5-p3"][1]
        ),
        ("not-unimodular",),
    ),
    "simple-search": (
        lambda pres: exact_simple_holomorphic_search(pres, 2),
        ("not-unimodular", "not-complex-parallelizable", "not-exact"),
    ),
}


@pytest.mark.parametrize("routine, fact", [
    (routine, fact) for routine, (_, facts) in GATED.items() for fact in facts
])
def test_each_gate_refuses_with_its_fact_before_any_elimination(monkeypatch, routine, fact):
    call, _ = GATED[routine]
    make, message = FACTS[fact]
    pres = make()

    def eliminate(*args):
        raise AssertionError("linear algebra ran before the refusal")

    monkeypatch.setattr(linalg, "_echelon", eliminate)
    monkeypatch.setattr(linalg, "_reduce", eliminate)
    monkeypatch.setattr(linalg, "for_backend", eliminate)
    with pytest.raises(PresentationError) as refusal:
        call(pres)
    assert str(refusal.value) == message


# ---- certificate search ----------------------------------------------------


class TestCertificateSearch:
    @pytest.mark.parametrize(
        "library_name, count, library_beta_found",
        [("nakamura-iv-6-p2", 6, True), ("nakamura-v-5-p3", 4, True),
         ("nakamura-v-14-p2", 3, False)],
    )
    def test_library_structures(self, library_name, count, library_beta_found):
        key, cert = catalog.certificate_library()[library_name]
        pres = catalog.get(key)
        found = certificate_search(pres, cert.p)
        assert len(found) == count
        assert all(verify_obstruction_certificate(pres, c).valid for c in found)
        assert any(c.beta == cert.beta for c in found) == library_beta_found

    @pytest.mark.parametrize("mode", ["d", "delbar-del"])
    def test_conclusion_is_the_verified_one(self, mode):
        found = [(pres, c) for key in ("nakamura-iv-6", "nakamura-v-5")
                 for pres in [catalog.get(key)]
                 for p in range(1, pres.n) for c in certificate_search(pres, p, mode)]
        assert found
        for pres, c in found:
            assert c.conclusion == verify_obstruction_certificate(pres, c).conclusion

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_examines_at_most_the_budget(self, monkeypatch, budget):
        examined = []
        original = existence._diagonal_certificate

        def counting(pres, p, mode, beta, tol):
            examined.append(beta)
            return original(pres, p, mode, beta, tol)

        monkeypatch.setattr(existence, "_diagonal_certificate", counting)
        certificate_search(catalog.get("nakamura-iv-6"), 2, budget=budget)
        assert len(examined) == budget

    @pytest.mark.parametrize("mode", ["d", "delbar-del"])
    def test_gates_once_per_search(self, monkeypatch, mode):
        gates = []
        original = StructurePresentation.exact_volume_source

        def counting(pres, tol=None):
            gates.append(pres)
            return original(pres, tol)

        monkeypatch.setattr(StructurePresentation, "exact_volume_source", counting)
        for key in ("nakamura-iv-6", "nakamura-v-5"):
            pres = catalog.get(key)
            before = len(gates)
            found = certificate_search(pres, 2, mode)
            assert len(gates) == before + 1, (key, len(found))

    @pytest.mark.parametrize("key, mode, p", [
        ("nakamura-iv-6", "d", 4), ("nakamura-iv-6", "delbar-del", 4),
        ("nakamura-v-11", "d", 0), ("nakamura-v-11", "delbar-del", 0),
    ])
    def test_p_out_of_range_raises(self, key, mode, p):
        pres = catalog.get(key)
        with pytest.raises(ValueError, match=f"out of range 1..{pres.n - 1}"):
            certificate_search(pres, p, mode)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            certificate_search(catalog.get("nakamura-iv-6"), 2, "del")
