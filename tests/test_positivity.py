import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import suites
from geowb import catalog
from geowb.forms import InvariantForm, Monomial, sigma, wedge
from geowb.metrics import HermitianMetric, form_power, fundamental_form, metric_power
from geowb.positivity import (
    CERTIFIED_POSITIVE,
    FALSIFICATION_TOL,
    FALSIFIED,
    NOT_FALSIFIED,
    PPFormError,
    SimpleForm,
    TransversalityVerdict,
    _gram,
    _orthonormal_rows,
    _plucker,
    _refine_pass,
    _replaced_rows,
    _sample_values,
    interior_product,
    is_decomposable,
    omega_a_form,
    omega_a_transversality,
    omega_a_verdict,
    omega_basis_form,
    pairing,
    pairing_matrix,
    pp_degree,
    recognize_omega_a,
    transversality_sample,
)
from geowb.scalars import EXACT, FLOAT, GaussRational


def G(re=0, im=0):
    return GaussRational(re, im)


A_VALUES = [G(0), G(1), G(Fraction(3, 2)), G(2), G(Fraction(5, 2))]


class TestPairing:
    def test_normalised_diagonal_block(self):
        psi = InvariantForm(2, {Monomial.make([1], [1], 2): sigma(1)})
        value = pairing(psi, SimpleForm.coordinate([2], 2))
        assert value == G(1)

    def test_dependent_factors_vanish(self):
        psi = omega_a_form(G(0))
        beta = SimpleForm.make([(1, 0, 0, 0), (2, 0, 0, 0)], 4)
        assert pairing(psi, beta) == G(0)

    def test_metric_power_positive(self):
        rnd = random.Random(5)
        for _ in range(10):
            n = rnd.randint(2, 4)
            p = rnd.randint(1, n - 1)
            diag = [rnd.randint(1, 4) for _ in range(n)]
            omega = fundamental_form(HermitianMetric.diagonal(diag))
            psi = form_power(omega, p)
            factors = [
                tuple(suites.random_scalar(rnd) for _ in range(n))
                for _ in range(n - p)
            ]
            beta = SimpleForm.make(factors, n)
            value = pairing(psi, beta)
            assert value.im == 0
            if not beta.to_form().is_zero():
                assert value.re > 0

    def test_realness_property(self):
        suites.pairing_is_real(300)

    def test_degree_mismatch(self):
        psi = omega_a_form(G(0))
        with pytest.raises(ValueError):
            pairing(psi, SimpleForm.coordinate([1], 4))

    def test_matrix_path_matches_direct(self):
        psi = catalog.eta_beta5_three_kahler_form()
        subsets, t = pairing_matrix(psi)
        rng = np.random.default_rng(7)
        for _ in range(5):
            b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
            p = np.array([np.linalg.det(b[:, [i - 1 for i in s]]) for s in subsets])
            via_matrix = (p @ t @ p.conj()).real
            direct = pairing(
                psi.to_float(), SimpleForm.make([tuple(map(complex, r)) for r in b])
            )
            assert abs(via_matrix - direct.real) < 1e-8 * max(1, abs(direct.real))


def tridiagonal_metric(n):
    """A positive-definite (diagonally dominant) non-diagonal exact metric."""
    off = G(Fraction(1, 2), Fraction(1, 3))
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = 2 + j
        if j + 1 < n:
            rows[j][j + 1], rows[j + 1][j] = off, off.conjugate()
    return HermitianMetric(rows)


PAIRING_FORMS = [
    *(
        (f"metric-power-n{n}p{p}", lambda n=n, p=p: metric_power(tridiagonal_metric(n), p))
        for n in range(2, 7)
        for p in range(0, n + 1)
    ),
    ("eta-beta-5", catalog.eta_beta5_three_kahler_form),
    ("om-a-3/2", lambda: omega_a_form(G(Fraction(3, 2)), pair=(1, 6))),
    ("om-a-i", lambda: omega_a_form(G(0, 1), pair=(2, 5))),
    ("om-a-float", lambda: omega_a_form(G(Fraction(1, 3), -2), pair=(3, 4), backend=FLOAT)),
]


class TestPairingMatrix:
    @pytest.mark.parametrize("name, make", PAIRING_FORMS, ids=[n for n, _ in PAIRING_FORMS])
    def test_matches_the_term_by_term_build(self, name, make):
        psi = make()
        subsets, t = pairing_matrix(psi)
        ref_subsets, ref_t = suites.pairing_matrix_by_terms(psi)
        assert subsets == ref_subsets
        assert np.array_equal(t, ref_t)  # bit for bit


def factor_stacks(n, q, rng):
    """A seeded (8, q, n) complex stack whose last two draws are rank
    deficient: a repeated row, and a row that combines the others (zero
    rows when q = 1)."""
    b = rng.standard_normal((8, q, n)) + 1j * rng.standard_normal((8, q, n))
    if q > 1:
        b[-2, -1] = b[-2, 0]
        b[-1, -1] = (1 - 2j) * b[-1, 0] + 0.5 * b[-1, -2]
    else:
        b[-2:] = 0
    return b


def det_minors(b):
    """q x q minors of a (..., q, n) stack by LAPACK, in combinations order."""
    q, n = b.shape[-2:]
    cols = np.array(list(itertools.combinations(range(n), q)))
    return np.linalg.det(np.swapaxes(b[..., :, cols], -3, -2))


KERNEL_SHAPES = [(n, q) for n in range(2, 7) for q in range(1, n)]


class TestLaplaceKernels:
    @pytest.mark.parametrize("n, q", KERNEL_SHAPES)
    def test_plucker_matches_det(self, n, q):
        b = factor_stacks(n, q, np.random.default_rng(100 * n + q))
        p = _plucker(b)
        assert p.shape == (8, math.comb(n, q))
        assert np.allclose(p, det_minors(b), rtol=0, atol=1e-12)
        assert np.allclose(p[-2:], 0, rtol=0, atol=1e-12)  # the rank-deficient draws
        assert np.allclose(_plucker(b[:, :0]), 1)  # the one 0 x 0 minor

    @pytest.mark.parametrize("n, q", KERNEL_SHAPES)
    def test_gram_is_cauchy_binet(self, n, q):
        b = factor_stacks(n, q, np.random.default_rng(200 * n + q))
        gram = np.linalg.det(b @ np.swapaxes(b, -1, -2).conj()).real
        # on the scale of Hadamard's bound prod |b_i|^2 on a Gram determinant
        scale = (np.abs(b) ** 2).sum(axis=-1).prod(axis=-1)
        assert np.all(np.abs(_gram(_plucker(b)) - gram) <= 1e-12 * scale)

    @pytest.mark.parametrize("n, q", KERNEL_SHAPES)
    def test_replaced_rows_from_cofactors(self, n, q):
        b = factor_stacks(n, q, np.random.default_rng(300 * n + q))
        eye = np.eye(n)
        for k in range(q):
            s = _replaced_rows(_plucker(np.delete(b, k, axis=-2)), n, q, k)
            replaced = np.repeat(b[:, None], n, axis=1)
            replaced[:, :, k] = eye
            assert np.allclose(s, det_minors(replaced), rtol=0, atol=1e-12)


def indefinite_metric(n):
    """``tridiagonal_metric(n)`` with its last diagonal entry -1: indefinite."""
    rows = [list(row) for row in tridiagonal_metric(n).entries]
    rows[-1][-1] = -1
    return HermitianMetric(rows)


INDEFINITE_SHAPES = [(4, 2), (4, 3), (5, 2), (5, 3)]


def oracle_stacks(n, q, rng):
    """A seeded (8, q, n) complex stack and a random Hermitian pairing on
    its Pluecker coordinates.  When q > 1 the last two draws end in two
    equal factors and in two factors dependent to 1e-14; when q > 2 the
    other factors of the first factor are then dependent."""
    b = rng.standard_normal((8, q, n)) + 1j * rng.standard_normal((8, q, n))
    if q > 1:
        b[-2, -1] = b[-2, -2]
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b[-1, -1] = (1 - 2j) * b[-1, -2] + 1e-14 * noise
    size = math.comb(n, q)
    h = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return b, h + h.conj().T


ORACLE_SHAPES = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3)]


class TestRefinePass:
    """The shifted eigenproblem against the SVD null-space pass it replaced."""

    @pytest.mark.parametrize("n, q", ORACLE_SHAPES)
    def test_matches_the_svd_pass(self, n, q):
        b, t = oracle_stacks(n, q, np.random.default_rng(400 * n + q))
        got = _refine_pass(b.copy(), t)
        ref = suites.svd_refine_pass(b.copy(), t)
        # the same factors move: the rank rule keeps the same draws
        moved = np.any(got != b, axis=-1)
        assert np.array_equal(moved, np.any(ref != b, axis=-1))
        if q > 2:
            assert not moved[-2:, 0].any()
        values, expected = _sample_values(got, t), _sample_values(ref, t)
        assert np.all(np.isfinite(expected))
        assert np.allclose(values, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, r", [(n, r) for n in range(3, 7) for r in (1, 2, 3) if r < n])
    def test_orthonormal_rows(self, n, r):
        rng = np.random.default_rng(600 * n + r)
        a = rng.standard_normal((8, r, n)) + 1j * rng.standard_normal((8, r, n))
        a[-1, -1] = 0
        if r > 1:
            a[-2, -1] = a[-2, 0]  # a repeated row leaves a rounding-size residual
        u, independent = _orthonormal_rows(a)
        dependent = 2 if r > 1 else 1
        assert independent.tolist() == [True] * (8 - dependent) + [False] * dependent
        u, a = u[independent], a[independent]
        gram = u @ u.conj().swapaxes(-1, -2)
        assert np.allclose(gram, np.eye(r), rtol=0, atol=1e-12)
        # the same span: each row of a is its projection onto the rows of u
        coeffs = a @ u.conj().swapaxes(-1, -2)
        assert np.allclose(coeffs @ u, a, rtol=0, atol=1e-12)

    def test_the_sampler_calls_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for make in BATCH_FORMS.values():
            transversality_sample(make(), samples=64, seed=5)

    @pytest.mark.parametrize("n, q", ORACLE_SHAPES)
    def test_refined_factors_are_unit_and_orthogonal(self, n, q):
        b, t = oracle_stacks(n, q, np.random.default_rng(500 * n + q))
        got = _refine_pass(b[:-2].copy(), t)
        # the last factor moved last: a unit vector orthogonal to the others
        last = got[:, -1]
        assert np.allclose(np.linalg.norm(last, axis=-1), 1, rtol=0, atol=1e-12)
        inner = (got[:, :-1].conj() * last[:, None]).sum(axis=-1)
        assert np.allclose(inner, 0, rtol=0, atol=1e-12)


class TestSampling:
    def test_eta_beta5_not_falsified(self):
        psi = catalog.eta_beta5_three_kahler_form()
        verdict = transversality_sample(psi, samples=1500, seed=42)
        assert verdict.kind == NOT_FALSIFIED
        assert verdict.min_value > 0

    def test_omega_a_3_falsified(self):
        verdict = transversality_sample(omega_a_form(G(3)), samples=2000, seed=1)
        assert verdict.kind == FALSIFIED
        assert verdict.value <= 1e-9
        assert verdict.witness is not None

    def test_negated_power_falsified_fast(self):
        omega = fundamental_form(HermitianMetric.identity(3))
        psi = -form_power(omega, 2)
        verdict = transversality_sample(psi, samples=50, seed=9)
        assert verdict.kind == FALSIFIED
        assert verdict.samples <= 2

    def test_zero_form_falsified(self):
        verdict = transversality_sample(InvariantForm.zero(3), samples=10, seed=0)
        assert verdict.kind == FALSIFIED

    def test_top_degree_certified(self):
        from geowb.forms import volume_form

        verdict = transversality_sample(volume_form(3), samples=10, seed=0)
        assert verdict.kind == CERTIFIED_POSITIVE

    def test_seed_reproducibility(self):
        psi = omega_a_form(G(1))
        v1 = transversality_sample(psi, samples=300, seed=77)
        v2 = transversality_sample(psi, samples=300, seed=77)
        assert v1.to_json() == v2.to_json()

    def test_witness_value_matches_exact_pairing(self):
        # Om_3 and the indefinite metric powers of every (n, q) stratum; a
        # witness is only defined up to a unit phase per factor, which the
        # pairing and the Gram determinant both ignore
        runs = [(omega_a_form(G(3)), 2000, 1)] + [
            (metric_power(indefinite_metric(n), n - q), 64, seed)
            for n, q in INDEFINITE_SHAPES
            for seed in range(3)
        ]
        for psi, samples, seed in runs:
            verdict = transversality_sample(psi, samples=samples, seed=seed)
            assert verdict.kind == FALSIFIED
            raw = pairing(psi.to_float(), verdict.witness)
            b = np.array(verdict.witness.factors, dtype=complex)
            gram_det = np.linalg.det(b @ b.conj().T).real
            assert abs(raw.real / gram_det - verdict.value) < 1e-9

    def test_cone_property_on_shared_samples(self):
        # pairing_matrix is linear in psi, so every sampled value of a sum
        # is the sum of the values: T(psi1 + psi2) = T(psi1) + T(psi2)
        omega = fundamental_form(HermitianMetric.identity(4))
        psi1 = form_power(omega, 2)
        psi2 = omega_a_form(G(1))
        subsets, t1 = pairing_matrix(psi1)
        subsets2, t2 = pairing_matrix(psi2)
        subsets_sum, t_sum = pairing_matrix(psi1 + psi2)
        assert subsets2 == subsets_sum == subsets
        assert np.allclose(t_sum, t1 + t2, rtol=1e-12, atol=0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            transversality_sample(omega_a_form(G(1)), samples=0)
        non_real = InvariantForm(2, {Monomial.make([1], [2], 2): 1})
        with pytest.raises(ValueError):
            transversality_sample(non_real, samples=10)


def one_draw_at_a_time(psi, samples, seed, tol=FALSIFICATION_TOL):
    """The sampler as a loop over draws, each refined and evaluated as a
    stack of one: (kind, samples, value, witness matrix or None)."""
    n = psi.n
    q = n - pp_degree(psi)
    _, t = pairing_matrix(psi)
    rng = np.random.default_rng(seed)
    min_value = np.inf
    for k in range(samples):
        b = (rng.standard_normal((q, n)) + 1j * rng.standard_normal((q, n))) / np.sqrt(2)
        b = b[None]
        value = _sample_values(b, t)[0]
        if np.isfinite(value):
            b = _refine_pass(b, t)
            value = _sample_values(b, t)[0]
        if not np.isfinite(value):
            continue
        min_value = min(min_value, value)
        if value <= tol:
            return FALSIFIED, k + 1, value, b[0]
    return NOT_FALSIFIED, samples, min_value, None


def rank5_metric():
    return HermitianMetric([
        [2, 1, 0, 0, 0],
        [1, 3, G(0, 1), 0, 0],
        [0, G(0, -1), 2, 0, 0],
        [0, 0, 0, 1, Fraction(1, 2)],
        [0, 0, 0, Fraction(1, 2), 1],
    ])


def rank4_metric():
    return HermitianMetric([
        [2, G(1, 1), 0, 0],
        [G(1, -1), 3, 0, 0],
        [0, 0, 1, Fraction(1, 3)],
        [0, 0, Fraction(1, 3), 2],
    ])


def indefinite_square():
    """omega^2 of the diagonal metric (1, 1, 1, -1/20) on rank 4."""
    diag = (1, 1, 1, Fraction(-1, 20))
    omega = InvariantForm(
        4, {Monomial.make([j], [j], 4): G(0, Fraction(h, 2)) for j, h in enumerate(diag, 1)}
    )
    return form_power(omega, 2)


BATCH_FORMS = {
    "metric-power-n5q2": lambda: metric_power(rank5_metric(), 3),
    "eta-beta-5": catalog.eta_beta5_three_kahler_form,
    "indefinite-n4q2": indefinite_square,
    "metric-power-n4q1": lambda: metric_power(rank4_metric(), 3),
}


class TestBatchedSampler:
    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("name", sorted(BATCH_FORMS))
    def test_matches_the_loop_over_draws(self, name, samples):
        psi = BATCH_FORMS[name]()
        verdict = transversality_sample(psi, samples=samples, seed=5)
        kind, count, value, witness = one_draw_at_a_time(psi, samples, seed=5)
        assert verdict.kind == kind and verdict.samples == count
        got = verdict.min_value if kind == NOT_FALSIFIED else verdict.value
        assert got == pytest.approx(value, rel=1e-12)
        if witness is not None:
            factors = np.array(verdict.witness.factors, dtype=complex)
            assert np.allclose(factors, witness, rtol=0, atol=1e-12)

    def test_a_witness_past_the_first_chunk(self):
        # at tol 4.52 the first falsifying draw lies in the second chunk:
        # the minimum over the first 64 draws is 4.5275
        psi = metric_power(rank5_metric(), 3)
        verdict = transversality_sample(psi, samples=130, seed=5, tol=4.52)
        kind, count, value, witness = one_draw_at_a_time(psi, 130, seed=5, tol=4.52)
        assert verdict.kind == kind == FALSIFIED
        assert verdict.samples == count > 64
        assert verdict.value == pytest.approx(value, rel=1e-12)
        factors = np.array(verdict.witness.factors, dtype=complex)
        assert np.allclose(factors, witness, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "name, expected",
        [("metric-power-n5q2", 4.513733403276565), ("eta-beta-5", 0.49999999999999967)],
    )
    def test_pinned_minima(self, name, expected):
        # recorded with the per-draw sampler that preceded the batched one
        verdict = transversality_sample(BATCH_FORMS[name](), samples=130, seed=5)
        assert verdict.kind == NOT_FALSIFIED
        assert verdict.min_value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [Fraction(1, 10**12), 10**12])
    @pytest.mark.parametrize("name", ["metric-power-n5q2", "eta-beta-5"])
    def test_scaled_form_scales_the_minimum(self, name, scale):
        # the shift that keeps the span of the other factors above the
        # spectrum scales with the matrix, so no absolute size leaks in
        psi = BATCH_FORMS[name]()
        verdict = transversality_sample(psi, samples=130, seed=5)
        scaled = transversality_sample(
            psi.scale(scale), samples=130, seed=5, tol=float(scale) * FALSIFICATION_TOL
        )
        assert scaled.kind == verdict.kind == NOT_FALSIFIED
        expected = float(scale) * verdict.min_value
        assert scaled.min_value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_samples_is_a_python_int(self):
        verdict = transversality_sample(indefinite_square(), samples=130, seed=5)
        assert verdict.kind == FALSIFIED
        assert type(verdict.samples) is int
        assert json.loads(json.dumps(verdict.to_json()))["samples"] == verdict.samples


def diagonal_form(diagonal):
    """sum_l d_l Om^l ^ conj(Om^l) on rank 4."""
    total = InvariantForm.zero(4)
    for l, d in enumerate(diagonal, start=1):
        om = omega_basis_form(l)
        total = total + wedge(om, om.conjugate()).scale(d)
    return total


class TestQuadricMatrix:
    """recognize_omega_a reads c and a off the coefficients of the form."""

    def test_omega_a_pattern(self):
        # x sits at phi^{S_i} ^ phibar^{S_j}, with the sign of Om^5 = -phi^{24}
        # on the pair (2, 5)
        a = G(1, 2)
        for pair, spot, x in [((1, 6), ([1, 2], [3, 4]), a), ((2, 5), ([1, 3], [2, 4]), -a),
                              ((3, 4), ([1, 4], [2, 3]), a)]:
            psi = omega_a_form(a, pair)
            assert len(psi.terms) == 8
            assert psi.coeff(Monomial.make(*spot, 4)) == x
            assert psi.coeff(Monomial.make(*spot[::-1], 4)) == x.conjugate()
            assert recognize_omega_a(psi) == (a, pair)

    def test_pair_outside_the_family_raises(self):
        with pytest.raises(ValueError, match="pair must be one of"):
            omega_a_form(G(1), (1, 2))

    def test_every_pair_and_complex_a(self):
        for pair in ((1, 6), (2, 5), (3, 4)):
            for a in A_VALUES + [G(1, 1), G(0, 2), G(Fraction(3, 2), Fraction(-3, 2))]:
                expected = (a, pair) if a else (G(0), None)
                assert recognize_omega_a(omega_a_form(a, pair)) == expected

    def test_positive_multiples(self):
        for c in (Fraction(1, 3), 5):
            for pair in ((1, 6), (2, 5), (3, 4)):
                psi = omega_a_form(G(2, -1), pair).scale(c)
                assert recognize_omega_a(psi) == (G(2, -1), pair)

    def test_float_backend(self):
        psi = omega_a_form(G(1, 2), (3, 4), FLOAT).scale(0.5)
        a, pair = recognize_omega_a(psi)
        assert pair == (3, 4) and abs(a - (1 + 2j)) < 1e-12

    def test_f_plus_theta_is_omega_1(self):
        # the diagonal (2,2) block plus the cross terms on slots (2,5)
        f = InvariantForm.zero(4)
        for pair_indices in ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]):
            m = InvariantForm(4, {Monomial.make(pair_indices, [], 4): 1})
            f = f + wedge(m, m.conjugate())
        theta = InvariantForm(
            4,
            {
                Monomial.make([1, 3], [2, 4], 4): -1,
                Monomial.make([2, 4], [1, 3], 4): -1,
            },
        )
        hit = recognize_omega_a(f + theta)
        assert hit is not None
        a, pair = hit
        assert a == G(1) and pair == (2, 5)

    def test_zero_form(self):
        assert recognize_omega_a(InvariantForm.zero(4)) is None

    def test_two_pairs_are_not_in_the_family(self):
        psi = omega_a_form(G(1), (1, 6)) + omega_a_form(G(1), (3, 4)) - diagonal_form([G(1)] * 6)
        assert recognize_omega_a(psi) is None

    def test_other_bidegrees_are_not_in_the_family(self):
        extra = InvariantForm(4, {Monomial.make([1], [1], 4): 1})
        assert recognize_omega_a(omega_a_form(G(1)) + extra) is None

    def test_wrong_rank(self):
        assert recognize_omega_a(InvariantForm.zero(3)) is None
        psi = form_power(fundamental_form(HermitianMetric.identity(3)), 2)
        assert omega_a_transversality(psi) is None


class TestQuadricTransversality:
    def test_analytic_family(self):
        for pair in ((1, 6), (2, 5), (3, 4)):
            for a in A_VALUES:
                verdict = omega_a_transversality(omega_a_form(a, pair))
                assert verdict.positive == omega_a_verdict(a)
                assert verdict.certificate == "omega-a-family"

    def test_identity_goes_numeric(self):
        # Om_0 is certified exactly, and sampling reaches the family
        # minimum 4 from above
        assert recognize_omega_a(omega_a_form(G(0))) == (G(0), None)
        verdict = omega_a_transversality(omega_a_form(G(0)))
        assert verdict.kind == CERTIFIED_POSITIVE
        sample = transversality_sample(omega_a_form(G(0)), samples=48, seed=4)
        assert sample.kind == NOT_FALSIFIED
        assert abs(sample.min_value - 4.0) < 1e-6

    def test_numeric_matches_boundary_values(self):
        # the family minimum of the Gram-normalised pairing is 2 (2 - |a|)
        for a, expected in [(G(1), 2.0), (G(Fraction(3, 2)), 1.0), (G(Fraction(5, 2)), -1.0)]:
            verdict = transversality_sample(omega_a_form(a), samples=48, seed=4)
            got = verdict.min_value if verdict.min_value is not None else verdict.value
            assert abs(got - expected) < 1e-6

    def test_boundary_a2(self):
        verdict = transversality_sample(omega_a_form(G(2)), samples=48, seed=4)
        got = verdict.min_value if verdict.min_value is not None else verdict.value
        assert abs(got) <= 1e-6

    def test_an_other_matrix_is_left_to_sampling(self):
        # omega^2 of the identity metric (Om_0 / 2) plus 1/4 on
        # Om^1 ^ conj(Om^2) and its conjugate, off the Om_a pairs
        om1, om2 = omega_basis_form(1), omega_basis_form(2)
        cross = wedge(om1, om2.conjugate()) + wedge(om2, om1.conjugate())
        psi = form_power(fundamental_form(HermitianMetric.identity(4)), 2)
        psi = psi + cross.scale(Fraction(1, 4))
        assert recognize_omega_a(psi) is None
        assert omega_a_transversality(psi) is None

    def test_a_positive_multiple_is_decided_exactly(self):
        half_identity = form_power(fundamental_form(HermitianMetric.identity(4)), 2)
        assert recognize_omega_a(half_identity) == (G(0), None)
        verdict = omega_a_transversality(half_identity)
        assert verdict.kind == CERTIFIED_POSITIVE
        assert verdict.certificate == "omega-a-family"

    def test_a_multiple_scales_the_witness_value(self):
        scaled = omega_a_form(G(3)).scale(Fraction(1, 3))
        assert recognize_omega_a(scaled) == (G(3), (2, 5))
        plain = omega_a_transversality(omega_a_form(G(3)))
        verdict = omega_a_transversality(scaled)
        assert verdict.kind == FALSIFIED
        assert verdict.witness == plain.witness
        assert verdict.value == pytest.approx(plain.value / 3, rel=1e-15)
        assert verdict.note == "|a| >= 2 with a = 3 (scaled by 1/3)"

    def test_other_diagonals_are_left_to_sampling(self):
        for diagonal in ([G(1)] * 5 + [G(2)], [G(-1)] * 6, [G(0)] * 6, [G(1, 1)] * 6,
                         [G(1)] * 5 + [G(0)]):
            psi = diagonal_form(diagonal)
            assert recognize_omega_a(psi) is None
            assert recognize_omega_a(psi + omega_a_form(G(1)) - diagonal_form([G(1)] * 6)) is None

    def test_falsified_witness_lies_on_quadric(self):
        verdict = omega_a_transversality(omega_a_form(G(3)))
        assert verdict.kind == FALSIFIED
        w = verdict.witness
        xi = w.to_form(FLOAT)
        assert wedge(xi, xi).is_zero(1e-8)
        raw = pairing(omega_a_form(G(3)).to_float(), w)
        assert raw.real < 0

    def test_rejects_non_hermitian(self):
        # a cross term without its conjugate: the form is not real, so it is
        # not in the family, and sampling refuses it
        for x, y in [(G(1), G(0)), (G(1), G(1, 1)), (G(0, 1), G(0, 1))]:
            psi = diagonal_form([G(1)] * 6) + InvariantForm(4, {
                Monomial.make([1, 3], [2, 4], 4): x,
                Monomial.make([2, 4], [1, 3], 4): y,
            })
            assert recognize_omega_a(psi) is None
            assert omega_a_transversality(psi) is None
            with pytest.raises(PPFormError, match="real"):
                transversality_sample(psi, samples=10)

    def test_sampling_agrees_in_sign(self):
        for a in A_VALUES:
            sample = transversality_sample(omega_a_form(a), samples=1200, seed=11)
            assert sample.kind in (FALSIFIED, NOT_FALSIFIED)  # never certifies
            analytic_positive = omega_a_verdict(a)
            if a == G(2):
                # boundary: minimum is exactly 0; accept either tiny side
                value = sample.min_value if sample.min_value is not None else sample.value
                assert abs(value) <= 1e-6
            else:
                assert sample.positive == analytic_positive

    def test_coordinate_directions_never_witness(self):
        import itertools

        for a in A_VALUES:
            psi = omega_a_form(a)
            for indices in itertools.combinations(range(1, 5), 2):
                value = pairing(psi, SimpleForm.coordinate(indices, 4))
                assert value.im == 0 and value.re > 0


class TestOmegaAVerdict:
    @pytest.mark.parametrize(
        "a, expected",
        [(G(0), True), (G(1), True), (G(Fraction(3, 2)), True), (G(2), False),
         (G(Fraction(5, 2)), False), (G(1, 1), True), (G(2, 1), False)],
    )
    def test_values(self, a, expected):
        assert omega_a_verdict(a) is expected

    def test_float_input(self):
        assert omega_a_verdict(1.9 + 0j)
        assert not omega_a_verdict(2.1 + 0j)


class TestDecomposability:
    def test_interior_product_sign(self):
        f = InvariantForm(4, {Monomial.make([1, 3], [], 4): 1})
        assert interior_product(1, f).coeff(Monomial.make([3], [], 4)) == G(1)
        assert interior_product(3, f).coeff(Monomial.make([1], [], 4)) == G(-1)

    def test_simple_two_form(self):
        f = wedge(
            InvariantForm.generator(4, 1) + InvariantForm.generator(4, 2),
            InvariantForm.generator(4, 3),
        )
        assert is_decomposable(f)

    def test_non_simple(self):
        f = InvariantForm(
            4,
            {Monomial.make([1, 2], [], 4): 1, Monomial.make([3, 4], [], 4): 1},
        )
        assert not is_decomposable(f)
