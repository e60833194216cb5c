import json
import time

import pytest

from geowb import catalog
from geowb.forms import InvariantForm, Monomial, bidegree_basis
from geowb.lie import is_J_nilpotent, presentation_from_json, presentation_to_json
from geowb.scalars import EXACT, FLOAT, GaussRational


def G(re=0, im=0):
    return GaussRational(re, im)


ALL_KEYS = catalog.keys()


class TestRegistry:
    def test_expected_keys(self):
        assert {f"nakamura-iv-{k}" for k in range(1, 8)} <= set(ALL_KEYS)
        assert {f"nakamura-v-{k}" for k in range(1, 21)} <= set(ALL_KEYS)
        assert {"fps6", "ft8", "st10", "eta-beta-5", "s1-pi2"} <= set(ALL_KEYS)
        assert len(ALL_KEYS) == 7 + 20 + 5

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            catalog.get("nakamura-vi-1")

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_every_entry_validates(self, key):
        pres = catalog.get(key)
        tol = 1e-10 if pres.backend == FLOAT else None
        assert pres.validate(tol=tol).ok

    def test_quotient_caveats_recorded(self):
        for key in ("nakamura-iv-7", "nakamura-v-15", "nakamura-v-18"):
            assert "no compact quotient" in catalog.entry(key).provenance
        for key in ("nakamura-iv-5", "nakamura-v-13",
                    "nakamura-v-16", "nakamura-v-19", "nakamura-v-20"):
            assert "open" in catalog.entry(key).provenance
        assert "not unimodular" in catalog.entry("nakamura-v-11").provenance

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_unimodular_except_v11(self, key):
        # a Lie algebra is unimodular iff d vanishes on degree 2n-1; only a
        # unimodular group can have a lattice (Milnor 1976)
        pres = catalog.get(key)
        tol = 1e-10 if pres.backend == FLOAT else None
        n = pres.n
        monos = [m for p in range(n + 1) for m in bidegree_basis(n, p, 2 * n - 1 - p)]
        assert len(monos) == 2 * n
        not_closed = [m for m in monos if not pres.d_monomial(m).is_zero(tol)]
        assert len(not_closed) == (2 if key == "nakamura-v-11" else 0)
        assert (pres.exact_volume_source(tol) is None) == (not not_closed)

    def test_nilpotent_rows_are_J_nilpotent(self):
        for key in ALL_KEYS:
            entry = catalog.entry(key)
            if entry.label == "nilpotent":
                assert is_J_nilpotent(catalog.get(key), search_permutations=True), key

    def test_solvable_rows_reported_without_error(self):
        # rows that fail the coframe test simply return False
        flags = {
            key: is_J_nilpotent(catalog.get(key))
            for key in ALL_KEYS
            if catalog.entry(key).label == "solvable"
        }
        assert flags and not all(flags.values())


class TestConstraints:
    def test_iv5_constraint(self):
        with pytest.raises(ValueError):
            catalog.get("nakamura-iv-5", alpha=-1)
        with pytest.raises(ValueError):
            catalog.get("nakamura-iv-5", alpha=0)
        assert catalog.get("nakamura-iv-5", alpha=2).validate().ok

    def test_v13_constraint(self):
        with pytest.raises(ValueError):
            catalog.get("nakamura-v-13", alpha=-1)

    def test_v17_constraint(self):
        assert catalog.get("nakamura-v-17", gamma=1, beta=1).validate().ok
        with pytest.raises(ValueError):
            catalog.get("nakamura-v-17", gamma=1, beta=-2)

    def test_v20_constraint(self):
        with pytest.raises(ValueError):
            catalog.get("nakamura-v-20", eta=-2)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            catalog.get("nakamura-iv-5", gamma=1)

    def test_exact_entries_reject_floats(self):
        with pytest.raises(TypeError):
            catalog.fps6(A=0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: catalog.get("nakamura-iv-5", alpha=0.5),
            lambda: catalog.ft8(0.5),
            lambda: catalog.st10(0.5),
        ],
        ids=["nakamura-iv-5", "ft8", "st10"],
    )
    def test_every_family_rejects_floats(self, build):
        with pytest.raises(TypeError):
            build()


class TestSpecificRows:
    def test_iv1_abelian(self):
        pres = catalog.get("nakamura-iv-1")
        assert all(f.is_zero() for f in pres.dphi)

    def test_iv3_row(self):
        pres = catalog.get("nakamura-iv-3")
        assert pres.dphi[2].equals(
            InvariantForm(4, {Monomial.make([1, 2], [], 4): -1})
        )
        assert pres.dphi[3].equals(
            InvariantForm(4, {Monomial.make([1, 3], [], 4): -2})
        )

    def test_v3_is_eta_beta5(self):
        row = catalog.get("nakamura-v-3")
        eb5 = catalog.eta_beta5()
        for f, g in zip(row.dphi, eb5.dphi):
            assert f.equals(g)

    def test_v10_row(self):
        pres = catalog.get("nakamura-v-10")
        expected = InvariantForm(
            5,
            {Monomial.make([1, 4], [], 5): -3, Monomial.make([2, 3], [], 5): -1},
        )
        assert pres.dphi[4].equals(expected)

    def test_v17_with_unit_parameters_valid(self):
        # 1 * 1 * (1 + 1 + 1) != 0
        pres = catalog.get("nakamura-v-17", gamma=1, beta=1)
        assert pres.validate().ok

    def test_fps6_zero_is_torus(self):
        pres = catalog.fps6()
        assert all(f.is_zero() for f in pres.dphi)

    def test_fps6_any_params_validate(self):
        pres = catalog.fps6(A=G(3, 1), B=G(-2), C=G(0, 5), D=G(1, 1), E=G(7))
        assert pres.validate().ok
        assert is_J_nilpotent(pres)

    def test_ft8_st10_zero_torus(self):
        assert all(f.is_zero() for f in catalog.ft8().dphi)
        assert all(f.is_zero() for f in catalog.st10().dphi)

    def test_ft8_witness_validates(self):
        pres = catalog.ft8(a2=G(1, -1), a3=G(1), a12=G(1))
        assert pres.validate().ok

    def test_st10_witness_validates(self):
        pres = catalog.st10(a4=1, b4=1, c4=G(0, 1), a1=G(1, 1))
        assert pres.validate().ok

    def test_eta_beta5_three_kahler_form(self):
        pres = catalog.eta_beta5()
        omega = catalog.eta_beta5_three_kahler_form()
        assert omega.bidegree() == (3, 3)
        assert omega.is_real()
        assert pres.d(omega).is_zero()

    def test_s1_pi2(self):
        pres = catalog.s1_pi2()
        assert pres.backend == FLOAT
        expected = InvariantForm(3, {Monomial.make([1], [1], 3): -0.5j}, FLOAT)
        assert pres.dphi[0].equals(expected, tol=1e-14)
        assert pres.validate(tol=1e-10).ok


class TestJsonRoundTrip:
    @pytest.mark.parametrize("key", [k for k in ALL_KEYS if k != "s1-pi2"])
    def test_bit_exact_round_trip(self, key):
        pres = catalog.get(key)
        doc = json.loads(json.dumps(presentation_to_json(pres)))
        back = presentation_from_json(doc)
        assert back.n == pres.n and back.backend == pres.backend
        for f, g in zip(back.dphi, pres.dphi):
            assert f.terms == g.terms  # exact comparison, bit for bit


class TestCertificateLibrary:
    def test_all_library_certificates_verify(self):
        from geowb.existence import verify_obstruction_certificate

        lib = catalog.certificate_library()
        assert set(lib) == {
            "nakamura-iv-6-p2",
            "nakamura-v-5-p3",
            "nakamura-v-14-p2",
            "s1-pi2-p2",
        }
        for name, (key, cert) in lib.items():
            pres = catalog.get(key)
            tol = 1e-10 if pres.backend == FLOAT else None
            report = verify_obstruction_certificate(pres, cert, tol)
            assert report.valid, name


def test_catalog_validation_speed():
    start = time.time()
    for key in ALL_KEYS:
        pres = catalog.get(key)
        tol = 1e-10 if pres.backend == FLOAT else None
        assert pres.validate(tol=tol).ok
    assert time.time() - start < 5.0
