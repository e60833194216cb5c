import math
import random

import pytest

import suites
from geowb import catalog, linalg, scalars
from geowb.existence import _degree_basis
from geowb.forms import InvariantForm, Monomial, bidegree_basis, wedge
from geowb.lie import (
    PresentationError,
    StructurePresentation,
    complexify_real_presentation,
    is_J_nilpotent,
    presentation_from_json,
    presentation_to_json,
)
from geowb.scalars import EXACT, FLOAT, GaussRational


def torus(n):
    z = InvariantForm.zero(n)
    return StructurePresentation(n, [z] * n, name=f"torus-{n}")


def gen(n, i, bar=False):
    return InvariantForm.generator(n, i, conjugated=bar)


def non_integrable():
    # d phi^1 with a (0,2) part
    bad = InvariantForm(2, {Monomial.make([], [1, 2], 2): 1})
    return StructurePresentation(2, [bad, InvariantForm.zero(2)])


class TestDifferential:
    def test_torus_kills_everything(self):
        pres = torus(4)
        rnd = random.Random(1)
        for _ in range(20):
            f = suites.random_form(rnd, 4)
            assert pres.d(f).is_zero()

    def test_eta_beta5_phi5_phibar5(self):
        pres = catalog.eta_beta5()
        f = wedge(gen(5, 5), gen(5, 5, bar=True))
        expected = InvariantForm(
            5,
            {
                Monomial.make([1, 3], [5], 5): -1,
                Monomial.make([2, 4], [5], 5): -1,
                Monomial.make([5], [1, 3], 5): 1,
                Monomial.make([5], [2, 4], 5): 1,
            },
        )
        assert pres.d(f).equals(expected)

    def test_fps_ten_term_expansion(self):
        A = GaussRational(1, 2)
        B = GaussRational(-1, 1)
        C = GaussRational(2, -1)
        D = GaussRational(0, 3)
        E = GaussRational(1, 1)
        pres = catalog.fps6(A=A, B=B, C=C, D=D, E=E)
        f = wedge(gen(3, 3), gen(3, 3, bar=True))
        expected = InvariantForm(
            3,
            {
                Monomial.make([2], [1, 3], 3): -A,
                Monomial.make([2], [2, 3], 3): -B,
                Monomial.make([1], [1, 3], 3): C,
                Monomial.make([1], [2, 3], 3): D,
                Monomial.make([1, 2], [3], 3): E,
                Monomial.make([1, 3], [2], 3): A.conjugate(),
                Monomial.make([2, 3], [2], 3): B.conjugate(),
                Monomial.make([1, 3], [1], 3): -C.conjugate(),
                Monomial.make([2, 3], [1], 3): -D.conjugate(),
                Monomial.make([3], [1, 2], 3): -E.conjugate(),
            },
        )
        assert pres.d(f).equals(expected)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            catalog.eta_beta5().d(gen(3, 1))

    def test_commutes_with_conjugation(self):
        suites.differential_commutes_with_conjugation(300)


class TestDolbeault:
    def test_split(self):
        suites.d_splits_as_del_plus_delbar(300)

    def test_squares(self):
        suites.dolbeault_squares_vanish(300)

    def test_torus_del_vanishes(self):
        pres = torus(3)
        rnd = random.Random(2)
        for _ in range(20):
            f = suites.random_form(rnd, 3)
            assert pres.del_(f).is_zero()
            assert pres.delbar(f).is_zero()

    def test_non_integrable_rejected(self):
        pres = non_integrable()
        bad = pres.dphi[0]
        assert not pres.is_integrable()
        for op in (pres.del_, pres.delbar, pres.del_delbar):
            with pytest.raises(PresentationError, match="not integrable"):
                op(gen(2, 1))
        assert pres.d(gen(2, 1)).equals(bad)

    @pytest.mark.parametrize("op", ["del_", "delbar", "del_delbar"])
    def test_non_integrable_refused_on_a_zero_form(self, op):
        # the refusal comes first, not from a monomial image
        pres = non_integrable()
        with pytest.raises(PresentationError, match="not integrable"):
            getattr(pres, op)(InvariantForm.zero(2))

    @pytest.mark.parametrize("op", ["del", "delbar", "del_delbar"])
    def test_non_integrable_refused_by_matrix(self, op):
        pres = non_integrable()
        for sources in ([], [Monomial.make([1], [], 2)]):
            with pytest.raises(PresentationError, match="not integrable"):
                pres.matrix(op, sources, [])
        assert pres.matrix("d", [Monomial.make([1], [], 2)], [Monomial(0, 3)]) == [{0: 1}]

    @pytest.mark.parametrize("key", catalog.keys())
    def test_del_and_delbar_are_the_bidegree_parts_of_d(self, key):
        pres = catalog.get(key)
        assert pres.is_integrable()
        tol = 1e-9 if pres.backend == FLOAT else None
        rnd = random.Random(key)
        for _ in range(10):
            f = suites.random_form(rnd, pres.n, terms=6)
            if pres.backend == FLOAT:
                f = f.to_float()
            want_del = InvariantForm.zero(pres.n, pres.backend)
            want_delbar = InvariantForm.zero(pres.n, pres.backend)
            for p, q in f.bidegrees():
                d_part = pres.d(f.project(p, q))
                if p < pres.n:
                    want_del = want_del + d_part.project(p + 1, q)
                if q < pres.n:
                    want_delbar = want_delbar + d_part.project(p, q + 1)
            assert pres.del_(f).equals(want_del, tol)
            assert pres.delbar(f).equals(want_delbar, tol)

    def test_fps_del_delbar_omega(self):
        # diagonal metric: del delbar omega has the sign-definite coefficient
        from geowb.metrics import HermitianMetric, fundamental_form

        A = GaussRational(1)
        pres = catalog.fps6(A=A)
        omega = fundamental_form(HermitianMetric.identity(3))
        result = pres.del_delbar(omega)
        # (i/2) |A|^2 on a^{1 1b 2 2b}; canonical order gives -(i/2) phi^{12 12b}
        expected = InvariantForm(
            3,
            {Monomial.make([1, 2], [1, 2], 3): GaussRational(0, "-1/2")},
        )
        assert result.equals(expected)


class TestValidate:
    def test_nakamura_v10_generator_check(self):
        report = catalog.get("nakamura-v-10").validate()
        assert report.ok
        assert report.integrable

    def test_corrupted_eta_beta5_fails(self):
        base = catalog.eta_beta5()
        d5 = base.dphi[4] + InvariantForm(
            5, {Monomial.make([4, 5], [], 5): 1}
        )
        bad = StructurePresentation(5, list(base.dphi[:4]) + [d5], name="bad")
        report = bad.validate()
        assert not report.ok
        assert 5 in {i for i, r in report.residuals.items() if not r.is_zero()}

    def test_exhaustive_mode(self):
        report = catalog.get("nakamura-iv-3").validate(exhaustive=True)
        assert report.ok and report.exhaustive

    def test_all_monomials_d_squared(self):
        # exhaustive d(d m) = 0 over every monomial, a catalogue sample
        for key in ("nakamura-iv-6", "nakamura-v-5", "eta-beta-5"):
            pres = catalog.get(key)
            assert pres.validate(exhaustive=True).ok

    def test_report_json(self):
        doc = catalog.eta_beta5().validate().to_json()
        assert doc["ok"] is True
        assert "Leibniz" in doc["note"]


class TestJNilpotent:
    def test_eta_beta5(self):
        assert is_J_nilpotent(catalog.eta_beta5())

    def test_torus(self):
        assert is_J_nilpotent(torus(3))

    def test_iv4_fails_in_given_order(self):
        assert not is_J_nilpotent(catalog.get("nakamura-iv-4"))

    def test_nilpotent_rows_pass(self):
        for key, entry in catalog.CATALOG.items():
            if entry.label == "nilpotent":
                assert is_J_nilpotent(catalog.get(key), search_permutations=True), key

    def test_permutation_search(self):
        # d phi^1 = -phi^{23} is nilpotent after reordering (3,1,2) etc.
        pres = StructurePresentation(
            3,
            [
                InvariantForm(3, {Monomial.make([2, 3], [], 3): -1}),
                InvariantForm.zero(3),
                InvariantForm.zero(3),
            ],
        )
        assert not is_J_nilpotent(pres)
        assert is_J_nilpotent(pres, search_permutations=True)


class TestComplexify:
    def test_s1_pi2_dphi1(self):
        pres = catalog.s1_pi2()
        expected = InvariantForm(
            3, {Monomial.make([1], [1], 3): -0.5j}, FLOAT
        )
        assert pres.dphi[0].equals(expected, tol=1e-14)

    def test_s1_pi2_dphi3(self):
        pres = catalog.s1_pi2()
        quarter_pi = math.pi / 4
        expected = InvariantForm(
            3,
            {
                Monomial.make([1, 3], [], 3): -quarter_pi,
                Monomial.make([3], [1], 3): -quarter_pi,
            },
            FLOAT,
        )
        assert pres.dphi[2].equals(expected, tol=1e-12)
        assert pres.validate(tol=1e-10).ok

    def test_abelian_real_algebra(self):
        de = [[] for _ in range(4)]
        pres = complexify_real_presentation(de, [(1, 2), (3, 4)])
        assert all(f.is_zero() for f in pres.dphi)

    def test_exact_heisenberg(self):
        # de^3 = e^1 ^ e^2 stays exact and satisfies d^2 = 0
        de = [[], [], [(1, 2, 1)], [], [], []]
        pres = complexify_real_presentation(de, [(1, 2), (3, 4), (5, 6)])
        assert pres.backend == EXACT
        assert pres.validate().ok

    def test_bad_pairing(self):
        with pytest.raises(ValueError):
            complexify_real_presentation([[], [], [], []], [(1, 2), (2, 3)])


class TestSerialization:
    def test_round_trip(self):
        for key in ("eta-beta-5", "nakamura-iv-5", "fps6"):
            pres = catalog.get(key)
            doc = presentation_to_json(pres)
            back = presentation_from_json(doc)
            assert back.n == pres.n
            for f, g in zip(back.dphi, pres.dphi):
                assert f.equals(g)

    def test_real_presentation_json(self):
        doc = {
            "name": "heis",
            "backend": "exact",
            "de": [[], [], [{"i": 1, "j": 2, "coeff": "1"}], [], [], []],
            "pairing": [[1, 2], [3, 4], [5, 6]],
        }
        pres = presentation_from_json(doc)
        assert pres.validate().ok


# ---- operator matrices against the images of unit forms ---------------------


MATRIX_CASES = {
    **{key: lambda key=key: catalog.get(key) for key in catalog.keys()},
    **{
        f"{key}-seeded": lambda key=key, seed=seed: suites.member(key, random.Random(seed))
        for key, seed in (("fps6", 51), ("ft8", 52), ("st10", 53))
    },
}


def _matrix_cases():
    for key in sorted(MATRIX_CASES):
        yield key, False
        pres = MATRIX_CASES[key]()
        if pres.backend == EXACT and pres.n <= 4:
            yield key, True


@pytest.mark.parametrize("key,floating", list(_matrix_cases()))
def test_matrix_matches_images(key, floating):
    pres = MATRIX_CASES[key]()
    if floating:
        pres = suites.float_copy(pres)
    n, field = pres.n, scalars.field(pres.backend)
    la = linalg.for_backend(pres.backend)
    for p in range(n + 1):
        for q in range(n + 1):
            sources = bidegree_basis(n, p, q)
            units = [InvariantForm(n, {m: 1}, pres.backend) for m in sources]
            for op, form_op, targets in (
                ("d", pres.d, _degree_basis(n, p + q + 1)),
                ("del", pres.del_, bidegree_basis(n, p + 1, q)),
                ("delbar", pres.delbar, bidegree_basis(n, p, q + 1)),
                ("del_delbar", pres.del_delbar, bidegree_basis(n, p + 1, q + 1)),
            ):
                want = suites.matrix_rows([form_op(u) for u in units], targets)
                got = pres.matrix(op, sources, targets)
                assert len(got) == len(targets)
                assert all(x for row in got for x in row.values()), "a zero entry is stored"
                assert [row.keys() for row in got] == [row.keys() for row in want], (op, p, q)
                assert all(field.close(row[j], ref[j], 1e-12)
                           for row, ref in zip(got, want) for j in row), (op, p, q)
                if pres.backend == EXACT:
                    reference = suites.dense_rref(suites.dense(got, len(sources)))[1]
                    assert la.rank(got) == len(reference), (op, p, q)


# ---- the Leibniz tables against the definition ------------------------------


LEIBNIZ_SAMPLE = {5: 32, 6: 128}  # seeded monomials per presentation of rank 5, 6

LEIBNIZ_CASES = {
    **{key: lambda key=key: catalog.get(key) for key in catalog.keys()},
    **{
        f"{key}-seeded": lambda key=key, seed=seed: suites.member(key, random.Random(seed))
        for key, seed in (("fps6", 61), ("ft8", 62), ("st10", 63))
    },
    "fps6-x-fps6": lambda: suites.fps6_product(
        [GaussRational(1, 1), GaussRational(0, 2), GaussRational(1),
         GaussRational(2, -1), GaussRational(1, -1)],
        [GaussRational(0), GaussRational(1, 1), GaussRational(0), GaussRational(-1),
         GaussRational(1)],
    ),
    "nakamura-iv-6-float": lambda: suites.float_copy(catalog.get("nakamura-iv-6")),
}


@pytest.mark.parametrize("case", sorted(LEIBNIZ_CASES))
def test_leibniz_tables_match_the_definition(case):
    # every monomial up to rank 4, a seeded sample above
    pres = LEIBNIZ_CASES[case]()
    n, field = pres.n, scalars.field(pres.backend)
    monos = [Monomial(h, a) for h in range(1 << n) for a in range(1 << n)]
    if n in LEIBNIZ_SAMPLE:
        monos = random.Random(case).sample(monos, LEIBNIZ_SAMPLE[n])
    for mono in monos:
        unit = InvariantForm(n, {mono: 1}, pres.backend)
        for op, got in (
            ("d", pres.d_monomial(mono)),
            ("del", pres.del_(unit)),
            ("delbar", pres.delbar(unit)),
        ):
            want = suites.leibniz_by_definition(pres, op, mono)
            assert all(field.close(got.coeff(m), want.get(m, field.zero), 1e-12)
                       for m in got.terms.keys() | want.keys()), (op, str(mono))


# ---- the one-pass tables and facts against their definition -----------------


def nearly_integrable():
    """A float d phi^1 whose (0,2) coefficient 1e-13 is zero within the
    default tolerance: integrable, as a projection decides it too."""
    tiny = InvariantForm(2, {Monomial.make([], [1, 2], 2): 1e-13}, FLOAT)
    return StructurePresentation(2, [tiny, InvariantForm.zero(2, FLOAT)], backend=FLOAT)


TABLE_CASES = {
    **{key: lambda key=key: catalog.get(key) for key in catalog.keys()},
    **{
        f"{key}-seeded": lambda key=key, seed=seed: suites.member(key, random.Random(seed))
        for key, seed in (("fps6", 71), ("ft8", 72), ("st10", 73))
    },
    **{
        f"{key}-float": lambda key=key: suites.float_copy(catalog.get(key))
        for key in catalog.keys()
        if catalog.entry(key).backend == EXACT and catalog.get(key).n <= 4
    },
    "non-integrable": non_integrable,
    "nearly-integrable": nearly_integrable,
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tables_and_facts_match_their_definition(case):
    pres = TABLE_CASES[case]()
    # equal entry by entry, each entry's terms in the same order
    assert pres._tables == suites.tables_by_definition(pres)
    assert pres.is_integrable() == all(f.project(0, 2).is_zero() for f in pres.dphi)
    assert pres.is_complex_parallelizable() == all(
        f.project(2, 0).equals(f) for f in pres.dphi
    )


def test_construction_builds_no_form(monkeypatch):
    dphis = [(pres.n, pres.dphi, pres.backend)
             for pres in (catalog.get("eta-beta-5"), catalog.get("s1-pi2"), non_integrable())]

    def refuse(*args, **kwargs):
        raise AssertionError("construction built a form")

    monkeypatch.setattr(InvariantForm, "project", refuse)
    monkeypatch.setattr(InvariantForm, "conjugate", refuse)
    for n, dphi, backend in dphis:
        StructurePresentation(n, dphi, backend=backend)
