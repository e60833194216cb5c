"""The per-backend linear-algebra objects and the operator-matrix builder."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from geowb import catalog, linalg
from geowb.existence import exact_simple_holomorphic_search
from geowb.forms import InvariantForm, Monomial
from geowb.lie import StructurePresentation
from geowb.scalars import EXACT, FLOAT, GaussRational

EXACT_LA = linalg.for_backend(EXACT)
FLOAT_LA = linalg.for_backend(FLOAT)


def random_matrix(rnd: random.Random, m: int, k: int, rank: int):
    """An m x k Gaussian-rational matrix of the given rank."""

    def entry():
        return GaussRational(Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)), rnd.randint(-2, 2))

    left = [[entry() for _ in range(rank)] for _ in range(m)]
    right = [[entry() for _ in range(k)] for _ in range(rank)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(rank)), GaussRational(0)) for j in range(k)]
        for i in range(m)
    ]


def to_float(matrix):
    return [[complex(x) for x in row] for row in matrix]


def mat_vec(matrix, vector):
    return [sum(a * x for a, x in zip(row, vector)) for row in matrix]


@pytest.mark.parametrize("seed", range(6))
def test_backends_agree_on_random_matrices(seed):
    rnd = random.Random(seed)
    m, k = rnd.randint(1, 6), rnd.randint(1, 6)
    a = random_matrix(rnd, m, k, rnd.randint(0, min(m, k)))
    af = to_float(a)
    assert FLOAT_LA.rank(af) == EXACT_LA.rank(a)
    assert FLOAT_LA.pivot_columns(af) == EXACT_LA.pivot_columns(a)
    kernel = EXACT_LA.nullspace(a, k)
    assert len(FLOAT_LA.nullspace(af, k)) == len(kernel) == k - EXACT_LA.rank(a)
    for v in kernel:
        assert not any(mat_vec(a, v))
    for v in FLOAT_LA.nullspace(af, k):
        assert max(abs(x) for x in mat_vec(af, v)) < 1e-9
    # a right-hand side in the column space, and one outside it when there is room
    b = mat_vec(a, [GaussRational(j + 1) for j in range(k)])
    x = EXACT_LA.solve(a, b, k)
    assert mat_vec(a, x) == b
    assert FLOAT_LA.solve(af, [complex(y) for y in b], k) is not None
    if EXACT_LA.rank(a) < m:
        for i in range(m):
            c = list(b)
            c[i] += 1
            if EXACT_LA.solve(a, c, k) is None:
                assert FLOAT_LA.solve(af, [complex(y) for y in c], k) is None
                break
        else:
            pytest.fail("no inconsistent right-hand side found")


def test_float_rank_rule_is_relative_to_the_largest_singular_value():
    tiny = 0.5 * linalg.RANK_RTOL
    assert FLOAT_LA.rank([[1.0, 0.0], [0.0, tiny]]) == 1
    assert FLOAT_LA.rank([[1e3, 0.0], [0.0, 1e3 * tiny]]) == 1
    # below one the cutoff does not shrink further
    assert FLOAT_LA.rank([[1e-4, 0.0], [0.0, 1e-4 * tiny]]) == 1
    assert FLOAT_LA.rank([[1e-12]]) == 0
    assert FLOAT_LA.solve([[1.0], [0.0]], [1.0, tiny], 1) is not None
    assert FLOAT_LA.solve([[1.0], [0.0]], [1.0, 1e-6], 1) is None


@pytest.mark.parametrize("la", [EXACT_LA, FLOAT_LA], ids=["exact", "float"])
def test_empty_shapes(la):
    assert la.rank([]) == 0
    assert la.rank([[], []]) == 0
    assert la.pivot_columns([[], []]) == []
    assert la.solve([], [], 2) == [0, 0]
    assert la.nullspace([], 2) == [[1, 0], [0, 1]]
    assert la.nullspace([[], []], 0) == []
    # no unknowns: consistent exactly when the right-hand side is zero
    assert la.solve([[], []], [0, 0], 0) == []
    assert la.solve([[], []], [0, 1], 0) is None


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        linalg.for_backend("decimal")


def test_operator_matrix_columns_are_images():
    pres = catalog.fps6(E=1)  # d phi^3 = phi^12
    sources = [InvariantForm(3, {Monomial.make([3], [], 3): 1}), InvariantForm.zero(3)]
    targets = [Monomial.make([1, 2], [], 3), Monomial.make([1, 3], [], 3)]
    assert linalg.operator_matrix(pres.d, sources, targets, EXACT) == [[1, 0], [0, 0]]
    with pytest.raises(KeyError):
        linalg.operator_matrix(pres.d, sources, targets[1:], EXACT)


@pytest.mark.parametrize("key", ["nakamura-v-12", "eta-beta-5", "nakamura-iv-5"])
def test_simple_search_agrees_on_float_copies(key):
    exact = catalog.get(key)
    floating = StructurePresentation(
        exact.n, [f.to_float() for f in exact.dphi], backend=FLOAT
    )
    for q in range(1, exact.n + 1):
        want = exact_simple_holomorphic_search(exact, q)
        got = exact_simple_holomorphic_search(floating, q)
        assert (got.kind, got.dim_image) == (want.kind, want.dim_image), q
