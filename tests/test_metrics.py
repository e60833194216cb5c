import random
from fractions import Fraction

import numpy as np
import pytest

import suites
from geowb import catalog, scalars
from geowb.forms import InvariantForm, Monomial, wedge, volume_ratio
from geowb.lie import StructurePresentation
from geowb.metrics import (
    HermitianMetric,
    classify,
    _strongly_gauduchon,
    form_power,
    fundamental_form,
    metric_power,
)
from geowb.scalars import EXACT, FLOAT, GaussRational
from family_formulas import metric_from_letters, metric_letters


def G(re=0, im=0):
    return GaussRational(re, im)


def torus(n):
    z = InvariantForm.zero(n)
    return StructurePresentation(n, [z] * n, name=f"torus-{n}")


def random_pd_metric(rnd, n, backend=EXACT):
    # H = M M* + I is Hermitian positive definite for any M
    m = [[suites.random_scalar(rnd) for _ in range(n)] for _ in range(n)]
    h = [[G(1 if j == k else 0) for k in range(n)] for j in range(n)]
    for j in range(n):
        for k in range(n):
            acc = G(0)
            for l in range(n):
                acc = acc + m[j][l] * m[k][l].conjugate()
            h[j][k] = h[j][k] + acc
    return HermitianMetric(h, backend)


def omega_of_entries(metric):
    """(i/2) sum H[j][k] phi^j ^ phibar^k, written out from the entries."""
    n = metric.n
    half_i = scalars.field(metric.backend).coerce(G(0, Fraction(1, 2)))
    terms = {
        Monomial.make([j + 1], [k + 1], n): half_i * metric.entries[j][k]
        for j in range(n)
        for k in range(n)
    }
    return InvariantForm(n, terms, metric.backend)


class TestHermitianMetric:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMetric([[G(1), G(1)], [G(2), G(1)]])

    def test_minors_match_letter_inequalities(self):
        r2, s2, t2 = Fraction(2), Fraction(3), Fraction(1)
        u, v, w = G(0, Fraction(1, 2)), G(Fraction(1, 3)), G(1, -1)
        metric = metric_from_letters(r2, s2, t2, u, v, w)
        m1, m2, m3 = metric.leading_minors()
        assert m1 == G(r2)
        assert m2 == G(r2 * s2 - u.abs2())
        det_letter = (
            G(r2 * s2 * t2)
            - G(r2) * G(w.abs2())
            - G(s2) * G(v.abs2())
            - G(t2) * G(u.abs2())
            - 2 * (G(0, 1) * u * v.conjugate() * w).re
        )
        assert m3.re == det_letter.re and m3.im == 0

    def test_positive_definite(self):
        assert HermitianMetric.identity(3).is_positive_definite()
        assert not HermitianMetric.diagonal([1, -1, 1]).is_positive_definite()

    def test_float_leading_minors_match_numpy(self):
        # leading minors up to order 1e5: the rounding residue of their
        # imaginary parts exceeds the absolute tolerance unless principal
        # minors are kept real
        metric = random_pd_metric(random.Random(2), 5, FLOAT)
        assert metric.is_positive_definite()
        h = np.array(metric.entries)
        for k, minor in enumerate(metric.leading_minors(), start=1):
            assert minor == pytest.approx(np.linalg.det(h[:k, :k]), rel=1e-12)

    def test_letters_round_trip(self):
        metric = metric_from_letters(
            Fraction(4), Fraction(9), Fraction(1),
            u=G(1, 1), v=G(0, -2), w=G(Fraction(1, 2)),
        )
        r2, s2, t2, u, v, w = metric_letters(metric)
        assert (r2, s2, t2) == (4, 9, 1)
        assert u == G(1, 1) and v == G(0, -2) and w == G(Fraction(1, 2))

    def test_json_round_trip(self):
        metric = random_pd_metric(random.Random(0), 3)
        back = HermitianMetric.from_json(metric.to_json())
        assert back.entries == metric.entries


class TestFundamentalForm:
    def test_identity_diagonal(self):
        omega = fundamental_form(HermitianMetric.identity(3))
        i_half = G(0, Fraction(1, 2))
        for j in (1, 2, 3):
            assert omega.coeff(Monomial.make([j], [j], 3)) == i_half

    def test_letter_u_sign_convention(self):
        # H12 = -i u0 puts +u0/2 on a^{1 2b} and -conj(u0)/2 on a^{2 1b}
        u0 = G(2, 1)
        metric = metric_from_letters(10, 10, 10, u=u0)
        omega = fundamental_form(metric)
        assert omega.coeff(Monomial.make([1], [2], 3)) == u0 * G(Fraction(1, 2))
        assert omega.coeff(Monomial.make([2], [1], 3)) == -u0.conjugate() * G(
            Fraction(1, 2)
        )

    def test_always_real(self):
        rnd = random.Random(11)
        for _ in range(25):
            metric = random_pd_metric(rnd, rnd.randint(2, 4))
            assert fundamental_form(metric).is_real()


class TestFormPower:
    def test_power_zero_is_unit(self):
        omega = fundamental_form(HermitianMetric.identity(2))
        unit = form_power(omega, 0)
        assert unit.equals(InvariantForm.unit(2))
        assert wedge(unit, omega).equals(omega)

    def test_diagonal_square_n3(self):
        omega = fundamental_form(HermitianMetric.identity(3))
        sq = form_power(omega, 2)
        minus_half = G(Fraction(-1, 2))
        # a^{1 1b 2 2b} = -phi^{12 12b} etc.
        for pair in ([1, 2], [1, 3], [2, 3]):
            assert sq.coeff(Monomial.make(pair, pair, 3)) == -minus_half

    def test_diagonal_cube_n4(self):
        omega = fundamental_form(HermitianMetric.identity(4))
        cube = form_power(omega, 3)
        for trip in ([1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]):
            coeff = cube.coeff(Monomial.make(trip, trip, 4))
            assert coeff == G(0, Fraction(3, 4))

    def test_general_square_n3_full_expansion(self):
        r2, s2, t2 = Fraction(2), Fraction(3), Fraction(5)
        u, v, w = G(1, 1), G(0, 2), G(-1, 1)
        metric = metric_from_letters(r2, s2, t2, u, v, w)
        omega = fundamental_form(metric)
        sq = form_power(omega, 2)
        half = G(Fraction(1, 2))
        i = G(0, 1)

        def a(holo, anti):
            from geowb.forms import normalize_monomial

            # letters arrive as interleaved pairs like a^{1 1b 3 2b}
            word = []
            for h_idx, a_idx in zip(holo, anti):
                word.append(("h", h_idx))
                word.append(("a", a_idx))
            return normalize_monomial(word, 3)

        expected = {}

        def put(holo, anti, value):
            mono, sign = a(holo, anti)
            expected[mono] = expected.get(mono, G(0)) + value * sign

        put([1, 2], [1, 2], -half * G(r2 * s2) + half * G(u.abs2()))
        put([1, 3], [1, 3], -half * G(r2 * t2) + half * G(v.abs2()))
        put([2, 3], [2, 3], -half * G(s2 * t2) + half * G(w.abs2()))
        put([1, 3], [1, 2], half * u * v.conjugate())
        put([1, 2], [1, 3], half * u.conjugate() * v)
        put([2, 1], [2, 3], -half * u * w)
        put([2, 3], [2, 1], -half * (u * w).conjugate())
        put([3, 1], [3, 2], half * v * w.conjugate())
        put([3, 2], [3, 1], half * v.conjugate() * w)
        put([1, 2], [1, 3], half * i * G(r2) * w)
        put([1, 3], [1, 2], -half * i * G(r2) * w.conjugate())
        put([2, 1], [2, 3], half * i * G(s2) * v)
        put([2, 3], [2, 1], -half * i * G(s2) * v.conjugate())
        put([3, 1], [3, 2], half * i * G(t2) * u)
        put([3, 2], [3, 1], -half * i * G(t2) * u.conjugate())
        assert sq.equals(InvariantForm(3, expected))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_metric_power_matches_form_power(self, n):
        metric = random_pd_metric(random.Random(40 + n), n)
        omega = omega_of_entries(metric)
        for k in range(n + 1):
            power = metric_power(metric, k)
            reference = form_power(omega, k)
            assert power == reference
            # the same term order, so the classifier's evidence is unchanged
            assert list(power.terms) == list(reference.terms)

    def test_float_metric_power_matches_form_power(self):
        metric = random_pd_metric(random.Random(7), 4, FLOAT)
        omega = omega_of_entries(metric)
        for k in range(5):
            assert metric_power(metric, k).equals(form_power(omega, k), tol=1e-9)

    def test_metric_power_of_sparse_metric(self):
        # zero entries and zero minors: the powers still agree as forms
        metric = HermitianMetric([[2, G(0, 1), 0], [G(0, -1), 1, 0], [0, 0, 3]])
        omega = omega_of_entries(metric)
        for k in range(4):
            assert metric_power(metric, k) == form_power(omega, k)

    def test_metric_power_of_indefinite_metric(self):
        # the minors formula holds for any Hermitian H; positive
        # definiteness is the caller's decision
        metric = HermitianMetric.diagonal([1, -1])
        for k in range(3):
            assert metric_power(metric, k) == form_power(fundamental_form(metric), k)

    def test_metric_power_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            metric_power(HermitianMetric.identity(2), 3)

    def test_top_power_positive(self):
        rnd = random.Random(23)
        for _ in range(20):
            n = rnd.randint(2, 4)
            metric = random_pd_metric(rnd, n)
            top = form_power(fundamental_form(metric), n)
            ratio = volume_ratio(top)
            assert ratio.im == 0 and ratio.re > 0


class TestClassify:
    def test_torus_all_flags(self):
        report = classify(torus(3), HermitianMetric.identity(3))
        assert all(report.flags.values())

    def test_fps_skt_condition(self):
        pres = catalog.fps6(A=G(0), B=G(0, -2), C=G(0, 1), D=G(0), E=G(0, 2))
        report = classify(pres, HermitianMetric.identity(3))
        assert report["skt"] and not report["kahler"]

    def test_fps_skt_violated(self):
        pres = catalog.fps6(A=G(1))
        report = classify(pres, HermitianMetric.identity(3))
        assert not report["skt"]

    def test_ft8_witness_astheno_and_skt(self):
        a = [G(0)] * 12
        a[1] = G(1, -1)
        a[2] = G(1)
        a[11] = G(1)
        pres = catalog.ft8(*a)
        report = classify(pres, HermitianMetric.identity(4))
        assert report["astheno"] and report["skt"]

    def test_kahler_implies_others(self):
        rnd = random.Random(31)
        keys = [k for k, e in catalog.CATALOG.items() if k != "s1-pi2" and not e.params]
        for key in keys:
            pres = catalog.get(key)
            for _ in range(3):
                metric = random_pd_metric(rnd, pres.n)
                report = classify(pres, metric)
                if report["kahler"]:
                    assert report["balanced"] and report["skt"] and report["astheno"]
                if report["strongly_gauduchon"]:
                    assert report["gauduchon"]

    @pytest.mark.parametrize("which", ["torus6", "fps6-product"])
    def test_rank6_matches_form_power_reference(self, which):
        rnd = random.Random(61)
        if which == "torus6":
            pres = torus(6)
        else:
            pres = suites.fps6_product(
                [G(1), G(0, -2), G(0, 1), G(0), G(0, 2)],
                [G(0), G(1, 1), G(0), G(-1), G(1)],
            )
        metric = random_pd_metric(rnd, 6)
        report = classify(pres, metric)

        # the same checks on iterated-wedge powers
        omega = omega_of_entries(metric)
        omega4, omega5 = form_power(omega, 4), form_power(omega, 5)
        checks = {
            "kahler": (pres.d(omega), "d omega"),
            "skt": (pres.del_delbar(omega), "del delbar omega"),
            "astheno": (pres.del_delbar(omega4), "del delbar omega^4"),
            "balanced": (pres.d(omega5), "d omega^5"),
            "gauduchon": (pres.del_delbar(omega5), "del delbar omega^5"),
        }
        flags, evidence = {}, {}
        for name, (value, statement) in checks.items():
            flags[name] = value.is_zero()
            if flags[name]:
                evidence[name] = f"{statement} = 0"
            else:
                mono = next(iter(value.terms))
                evidence[name] = (
                    f"{statement} != 0; coefficient of {mono} is {value.terms[mono]}"
                )
        flags["strongly_gauduchon"], evidence["strongly_gauduchon"] = (
            _strongly_gauduchon(pres, omega5)
        )
        assert report.flags == flags
        assert report.evidence == evidence
        if which == "fps6-product":
            assert not all(flags.values())

    def test_builds_one_minors_table_and_no_wedge_power(self, monkeypatch):
        from geowb import metrics

        built = []
        original = metrics._minor_table

        def counting(h, field):
            built.append(h)
            return original(h, field)

        def refused(f, k):
            raise AssertionError("classify took a power by iterated wedges")

        monkeypatch.setattr(metrics, "_minor_table", counting)
        monkeypatch.setattr(metrics, "form_power", refused)
        metric = random_pd_metric(random.Random(5), 5)
        assert metric.is_positive_definite()
        classify(catalog.eta_beta5(), metric)
        assert len(built) == 1

    def test_strongly_gauduchon_exact_solve(self):
        # parallelizable structures are balanced, hence strongly Gauduchon
        report = classify(catalog.eta_beta5(), HermitianMetric.identity(5))
        assert report["balanced"]
        assert report["strongly_gauduchon"]

    def test_float_backend_notes(self):
        pres = catalog.s1_pi2()
        report = classify(pres, HermitianMetric.identity(3, FLOAT), tol=1e-10)
        assert report["skt"]
        assert any("tolerance" in note for note in report.notes)

    def test_report_json(self):
        report = classify(torus(2), HermitianMetric.identity(2))
        doc = report.to_json()
        assert set(doc["flags"]) == {
            "kahler", "skt", "astheno", "balanced", "gauduchon",
            "strongly_gauduchon",
        }


class TestPluriclosed:
    def test_gauduchon_power_certificate(self):
        # omega^4 of the identity metric on eta-beta-5 is del delbar-closed
        metric = HermitianMetric.identity(5)
        assert catalog.eta_beta5().del_delbar(metric_power(metric, 4)).is_zero()

    def test_st10_omega2_pluriclosed(self):
        av = [G(0)] * 7
        bv = [G(0)] * 6
        cv = [G(0)] * 5
        dv = [G(0)] * 4
        cv[3] = G(0, 1)
        bv[3] = G(1)
        av[3] = G(1)
        av[0] = G(1, 1)
        pres = catalog.st10(*[*av, *bv, *cv, *dv])
        assert pres.del_delbar(metric_power(HermitianMetric.identity(5), 2)).is_zero()
