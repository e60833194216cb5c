import json
import random
from fractions import Fraction

import numpy as np
import pytest

import suites
from geowb.forms import (
    InvariantForm,
    Monomial,
    bidegree_basis,
    form_from_json,
    form_to_json,
    normalize_monomial,
    sigma,
    volume_form,
    volume_ratio,
    wedge,
    wedge_monomials,
)
from geowb.scalars import EXACT, FLOAT, GaussRational, field


def gen(n, i, bar=False):
    return InvariantForm.generator(n, i, conjugated=bar)


class TestNormalizeMonomial:
    def test_transposition(self):
        mono, sign = normalize_monomial([("h", 2), ("h", 1)], 4)
        assert mono == Monomial.make([1, 2], [], 4)
        assert sign == -1

    def test_interleaved(self):
        mono, sign = normalize_monomial(
            [("h", 1), ("a", 1), ("h", 2), ("a", 2)], 4
        )
        assert mono == Monomial.make([1, 2], [1, 2], 4)
        assert sign == -1

    def test_repeated_generator(self):
        mono, sign = normalize_monomial([("h", 1), ("h", 1)], 4)
        assert mono is None and sign == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_monomial([("h", 5)], 4)

    def test_matches_bubble_sort(self):
        suites.normalize_matches_bubble_parity(300)


def _wedge_pairs(n, sample):
    """Every pair of rank-n monomials, or a seeded sample of them in which
    half the second factors avoid the first's generators."""
    monos = [Monomial(h, a) for h in range(1 << n) for a in range(1 << n)]
    if sample is None:
        yield from ((a, b) for a in monos for b in monos)
        return
    rnd = random.Random(n)
    for k in range(sample):
        a, b = rnd.choice(monos), rnd.choice(monos)
        if k % 2:
            b = Monomial(b.holo & ~a.holo, b.anti & ~a.anti)
        yield a, b


@pytest.mark.parametrize("n, sample", [(3, None), (6, 2000)])
def test_wedge_monomials_matches_normalize(n, sample):
    for a, b in _wedge_pairs(n, sample):
        product, sign = wedge_monomials(a, b)
        want = normalize_monomial(suites.generator_word(a) + suites.generator_word(b), n)
        assert (product, sign) == want, (str(a), str(b))
        assert sign == 0 or type(product) is Monomial


class TestWedge:
    def test_generators(self):
        f = wedge(gen(4, 1), gen(4, 2))
        assert f.coeff(Monomial.make([1, 2], [], 4)) == GaussRational(1)

    def test_diagonal_blocks_anticommute_to_sign(self):
        b1 = wedge(gen(4, 1), gen(4, 1, bar=True))
        b2 = wedge(gen(4, 2), gen(4, 2, bar=True))
        product = wedge(b1, b2)
        assert product.coeff(Monomial.make([1, 2], [1, 2], 4)) == GaussRational(-1)

    def test_volume_normalisation_n5(self):
        # sigma(3) phi^{123 123b} wedged with sigma(2) beta beta-bar, beta = phi^{45}
        n = 5
        left = InvariantForm(
            n, {Monomial.make([1, 2, 3], [1, 2, 3], n): sigma(3)}
        )
        beta = wedge(gen(n, 4), gen(n, 5))
        right = wedge(beta, beta.conjugate()).scale(sigma(2))
        ratio = volume_ratio(wedge(left, right))
        assert ratio == GaussRational(1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            wedge(gen(3, 1), gen(4, 1))

    def test_backend_mismatch(self):
        with pytest.raises(ValueError):
            wedge(gen(3, 1), gen(3, 1).to_float())

    def test_associativity_spot(self):
        rnd = random.Random(7)
        for _ in range(100):
            n = rnd.randint(2, 5)
            f = suites.random_form(rnd, n)
            g = suites.random_form(rnd, n)
            h = suites.random_form(rnd, n)
            assert wedge(wedge(f, g), h).equals(wedge(f, wedge(g, h)))

    def test_graded_anticommutativity(self):
        suites.wedge_anticommutativity(300)


class TestConjugate:
    def test_i_phi(self):
        f = gen(3, 1).scale(GaussRational(0, 1))
        assert f.conjugate().coeff(Monomial.make([], [1], 3)) == GaussRational(0, -1)

    def test_mixed_block_sign(self):
        f = InvariantForm(3, {Monomial.make([1, 2], [3], 3): 1})
        conj = f.conjugate()
        # (-1)^{2*1} = +1
        assert conj.coeff(Monomial.make([3], [1, 2], 3)) == GaussRational(1)

    def test_morphism(self):
        suites.conjugation_morphism(300)


class TestProjectAndReal:
    def test_projection_picks_component(self):
        f = gen(3, 1) + gen(3, 1, bar=True)
        assert f.project(1, 0).equals(gen(3, 1))
        assert f.project(0, 1).equals(gen(3, 1, bar=True))

    def test_projection_of_zero(self):
        assert InvariantForm.zero(3).project(1, 1).is_zero()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gen(3, 1).project(4, 0)

    def test_partition(self):
        suites.bidegree_partition(300)

    def test_real_diagonal(self):
        f = wedge(gen(2, 1), gen(2, 1, bar=True)).scale(GaussRational(0, 1))
        assert f.is_real()

    def test_not_real(self):
        assert not wedge(gen(2, 1), gen(2, 2, bar=True)).is_real()

    def test_is_real_matches_the_conjugate(self):
        # the definition: conjugate().equals(self, tol)
        rnd = random.Random(23)
        verdicts = set()
        for _ in range(300):
            n = rnd.randint(1, 4)
            f = suites.random_form(rnd, n, terms=4)
            for g in (f, f + f.conjugate(), f - f.conjugate()):
                verdicts.add(g.is_real())
                assert g.is_real() == g.conjugate().equals(g)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("tol", [None, 1e-6])
    def test_float_is_real_within_tol(self, tol):
        eps = field(FLOAT).tolerance(tol)
        rnd = random.Random(29)
        for _ in range(100):
            n = rnd.randint(2, 4)
            f = suites.random_form(rnd, n, terms=4)
            real = (f + f.conjugate()).to_float()
            mono = rnd.choice([m for m in real.terms if m.holo != m.anti] or [None])
            if mono is None:
                continue
            for delta, expected in ((0.9 * eps, True), (1.1 * eps, False)):
                shift = delta * complex(rnd.choice([1, -1, 1j, -1j]))
                perturbed = InvariantForm(
                    n, {**real.terms, mono: real.terms[mono] + shift}, FLOAT
                )
                assert perturbed.is_real(tol) == expected
                assert perturbed.conjugate().equals(perturbed, tol) == expected
                # a lone term whose partner is missing
                lone = InvariantForm(n, {mono: shift}, FLOAT)
                assert lone.is_real(tol) == expected
                assert lone.conjugate().equals(lone, tol) == expected


class TestSigmaVolume:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (0, GaussRational(1)),
            (1, GaussRational(0, Fraction(1, 2))),
            (2, GaussRational(Fraction(1, 4))),
            (3, GaussRational(0, Fraction(1, 8))),
            (4, GaussRational(Fraction(1, 16))),
        ],
    )
    def test_sigma_values(self, p, expected):
        assert sigma(p) == expected

    def test_sigma_literal_power(self):
        # i**(p*p) by repeated multiplication, never simplified by hand
        i = GaussRational(0, 1)
        for p in range(7):
            power = GaussRational(1)
            for _ in range(p * p):
                power = power * i
            assert sigma(p) == power * GaussRational(Fraction(1, 2**p))

    def test_volume_ratio_of_volume(self):
        assert volume_ratio(volume_form(3)) == GaussRational(1)

    def test_volume_ratio_of_zero(self):
        assert volume_ratio(InvariantForm.zero(3)) == GaussRational(0)

    def test_volume_ratio_n5(self):
        n = 5
        top = InvariantForm(
            n, {Monomial.make(range(1, 6), range(1, 6), n): sigma(5)}
        )
        assert volume_ratio(top) == GaussRational(1)

    def test_volume_ratio_rejects_non_top(self):
        with pytest.raises(ValueError):
            volume_ratio(gen(2, 1))


class TestSerialization:
    def test_round_trip_exact(self):
        rnd = random.Random(13)
        for _ in range(50):
            f = suites.random_form(rnd, rnd.randint(2, 5), terms=4)
            doc = json.loads(json.dumps(form_to_json(f)))
            assert form_from_json(doc).equals(f)

    def test_round_trip_float(self):
        f = suites.random_form(random.Random(3), 4).to_float()
        doc = json.loads(json.dumps(form_to_json(f)))
        assert form_from_json(doc).equals(f, tol=1e-15)

    def test_schema_fields(self):
        f = wedge(gen(3, 1), gen(3, 2, bar=True)).scale(
            GaussRational(Fraction(1, 2), Fraction(-3, 4))
        )
        doc = form_to_json(f)
        assert doc["n"] == 3
        (term,) = doc["terms"]
        assert term["holo"] == [1] and term["anti"] == [2]
        assert term["re"] == "1/2" and term["im"] == "-3/4"


class TestBackends:
    def test_exact_rejects_floats(self):
        with pytest.raises(TypeError):
            InvariantForm(2, {Monomial.make([1], [], 2): 0.5})

    @pytest.mark.parametrize(
        "args",
        [(0.5,), (1, 0.5), (1j,), (np.float64(0.5),), (0, np.complex128(1j))],
        ids=["float", "float-im", "complex", "numpy-float", "numpy-complex"],
    )
    def test_gauss_rational_rejects_floats(self, args):
        with pytest.raises(TypeError):
            GaussRational(*args)

    def test_gauss_rational_takes_exact_parts(self):
        assert GaussRational(0, "-1/2") == GaussRational(0, Fraction(-1, 2))
        assert GaussRational(Fraction(1, 3), 2).re == Fraction(1, 3)
        assert GaussRational(3) == 3

    def test_scalar_from_json_exact_rejects_floats(self):
        with pytest.raises(TypeError):
            field(EXACT).from_json({"re": 0.1, "im": "0"})
        with pytest.raises(TypeError):
            field(EXACT).from_json({"re": "0", "im": True})
        assert field(EXACT).from_json({"re": "1/10", "im": 2}) == GaussRational(
            Fraction(1, 10), 2
        )

    def test_scalar_from_json_float_reads_floats(self):
        assert field(FLOAT).from_json({"re": 0.1, "im": "0"}) == 0.1 + 0j

    def test_agreement(self):
        suites.backends_agree(300)


def test_bidegree_basis_counts():
    import math

    for n in range(1, 6):
        for p in range(n + 1):
            for q in range(n + 1):
                assert len(bidegree_basis(n, p, q)) == math.comb(n, p) * math.comb(n, q)
    assert isinstance(bidegree_basis(3, 1, 1), tuple)
    assert bidegree_basis(3, 1, 1) is bidegree_basis(3, 1, 1)
    assert bidegree_basis(3, 4, 0) == ()


def test_monomial_contract():
    m = Monomial.make([1, 3], [2], 3)
    assert (m.holo, m.anti) == (0b101, 0b010)
    assert hash(m) == hash((0b101, 0b010))
    assert m == Monomial(0b101, 0b010) and m != Monomial(0b010, 0b101)
    assert repr(m) == "Monomial(holo=5, anti=2)"
    assert str(m) == "phi^{13}^phibar^{2}"
    assert str(Monomial(0, 0)) == "1" and str(Monomial(0, 1)) == "phibar^{1}"
    with pytest.raises(AttributeError):
        m.holo = 1
    assert {m: 1}[Monomial(5, 2)] == 1
