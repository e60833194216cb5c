"""The per-backend linear-algebra objects and the operator matrices they reduce."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from suites import dense, dense_rref
from geowb import catalog, linalg
from geowb.existence import exact_simple_holomorphic_search
from geowb.forms import Monomial, bidegree_basis
from geowb.lie import PresentationError, StructurePresentation
from geowb.scalars import EXACT, FLOAT, ZERO, GaussRational

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


def sparse_rows(matrix):
    """Dense row lists as the sparse rows of ``linalg``."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def to_float(matrix):
    return [{c: complex(x) for c, x in row.items()} for row in matrix]


def left_of(matrix, c):
    """The columns of sparse rows left of column c."""
    return [{j: x for j, x in row.items() if j < c} for row in matrix]


def mat_vec(matrix, vector):
    return [sum((a * vector[c] for c, a in row.items()), 0) for row in matrix]


@pytest.mark.parametrize("seed", range(6))
def test_backends_agree_on_random_matrices(seed):
    rnd = random.Random(seed)
    m, k = rnd.randint(1, 6), rnd.randint(1, 6)
    a = sparse_rows(random_matrix(rnd, m, k, rnd.randint(0, min(m, k))))
    af = to_float(a)
    assert FLOAT_LA.rank(af) == EXACT_LA.rank(a)
    # the exact pivots are the columns that raise the rank of the columns before them
    assert EXACT_LA.pivot_columns(a) == [
        c for c in range(k)
        if EXACT_LA.rank(left_of(a, c + 1)) > EXACT_LA.rank(left_of(a, c))
    ]
    for lead in range(m + 1):
        want = (EXACT_LA.rank(a[:lead]), EXACT_LA.rank(a))
        assert EXACT_LA.leading_ranks(a, lead) == FLOAT_LA.leading_ranks(af, lead) == want
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


# ---- the sparse regime of operator matrices ------------------------------


# zeros stored in a row, as a cancellation leaves them: an elimination must
# never store one or pivot on one
COMPUTED_ZEROS = (GaussRational(1) - 1, Fraction(0), GaussRational(0, 0), ZERO, ZERO.re, 0)


def sparse_matrix(rnd: random.Random, m: int, k: int, rank: int):
    """m x k sparse rows of rank ``rank``, about 5% nonzero, with stored zeros.

    Base row t has a nonzero at its own column c_t and at most one more
    entry outside {c_1, ..., c_rank}, so the base rows are independent; the
    other rows are scaled sums of one or two base rows.  Every row stores a
    zero of some kind at two more columns, unless an entry is there.
    """

    def entry():
        return GaussRational(Fraction(rnd.randint(-4, 4) or 1, rnd.randint(1, 3)),
                             rnd.randint(-2, 2))

    own = rnd.sample(range(k), rank)
    others = [c for c in range(k) if c not in own]
    base = []
    for c in own:
        row = {c: entry()}
        if others and rnd.random() < 0.7:
            row[rnd.choice(others)] = entry()
        base.append(row)
    rows = list(base)
    while len(rows) < m:
        row = {}
        for t in rnd.sample(range(rank), min(rank, rnd.randint(1, 2))):
            scale = entry()
            for c, x in base[t].items():
                row[c] = row.get(c, ZERO) + scale * x  # may cancel to a computed zero
        rows.append(row)
    rnd.shuffle(rows)
    for row in rows:
        for c in rnd.sample(range(k), 2):
            row.setdefault(c, rnd.choice(COMPUTED_ZEROS))
    return rows


def real_and_imaginary_rows(matrix):
    """Fraction rows split from Q[i] rows, as ``closure_system`` splits them."""
    return [{c: x.real for c, x in row.items()} for row in matrix] + [
        {c: x.imag for c, x in row.items()} for row in matrix
    ]


SPARSE_COLUMNS = 30


def sparse_cases():
    for seed in range(4):
        rnd = random.Random(100 + seed)
        rank = rnd.randint(8, 20)
        a = sparse_matrix(rnd, 40, SPARSE_COLUMNS, rank)
        yield f"gauss-{seed}", a, rank
        yield f"fraction-{seed}", real_and_imaginary_rows(a), None


SPARSE_CASES = {name: (a, rank) for name, a, rank in sparse_cases()}


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_forward_elimination_matches_dense_gauss_jordan(name):
    a, rank = SPARSE_CASES[name]
    k = SPARSE_COLUMNS
    assert sum(1 for row in a for x in row.values() if x) <= 0.1 * len(a) * k
    assert any(not x for row in a for x in row.values()), "no stored zero"
    before = [dict(row) for row in a]
    full = dense(a, k)
    want = dense_rref(full)[1]
    if rank is not None:
        assert len(want) == rank
    assert EXACT_LA.pivot_columns(a) == want
    assert EXACT_LA.rank(a) == len(want)
    # the pivots of the transpose are the rows that raise the rank of the rows
    # before them
    raising = dense_rref([list(column) for column in zip(*full)])[1]
    assert len(raising) == len(want)
    for lead in range(len(a) + 1):
        assert EXACT_LA.leading_ranks(a, lead) == (sum(i < lead for i in raising), len(want))
    tails, sources = linalg._echelon(a)
    assert sorted(tails) == sorted(sources) == want
    for p, tail in tails.items():
        assert all(tail.values()), "a zero entry is stored"
        assert min(tail, default=k) > p
    assert a == before, "the input rows changed"


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_sparse_rref_matches_dense_gauss_jordan(name):
    a, _ = SPARSE_CASES[name]
    k = SPARSE_COLUMNS
    want_rows, want_pivots = dense_rref(dense(a, k))
    tails = linalg._reduce(a)
    assert sorted(tails) == want_pivots
    for p, want in zip(want_pivots, want_rows):
        tail = tails[p]
        assert all(tail.values()), "a zero entry is stored"
        assert min(tail, default=k) > p
        assert [1 if c == p else tail.get(c, 0) for c in range(k)] == want


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_sparse_nullspace_and_solve(name):
    a, _ = SPARSE_CASES[name]
    rnd = random.Random(name)
    k = SPARSE_COLUMNS
    rank = EXACT_LA.rank(a)
    kernel = EXACT_LA.nullspace(a, k)
    assert len(kernel) == k - rank
    for v in kernel:
        assert not any(mat_vec(a, v))
    x0 = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(k)]
    b = mat_vec(a, x0)
    assert mat_vec(a, EXACT_LA.solve(a, b, k)) == b
    inconsistent = 0
    for i in rnd.sample(range(len(a)), 6):
        c = list(b)
        c[i] += 1
        x = EXACT_LA.solve(a, c, k)
        augmented_rank = len(dense_rref([row + [y] for row, y in zip(dense(a, k), c)])[1])
        if augmented_rank > rank:
            assert x is None
            inconsistent += 1
        else:
            assert mat_vec(a, x) == c
    assert inconsistent


def test_rref_of_empty_and_zero_matrices():
    for la in (EXACT_LA, FLOAT_LA):
        assert la.rank([]) == 0
    assert linalg._echelon([]) == ({}, {})
    assert linalg._reduce([{}, {}, {}]) == {}
    zeros = [dict(enumerate(COMPUTED_ZEROS)) for _ in range(5)]
    assert linalg._echelon(zeros) == ({}, {})
    assert linalg._reduce(zeros) == {}
    assert EXACT_LA.rank(zeros) == 0
    assert EXACT_LA.leading_ranks(zeros, 3) == (0, 0)
    assert EXACT_LA.nullspace(zeros, 6) == [[int(i == j) for j in range(6)] for i in range(6)]
    assert EXACT_LA.solve(zeros, [ZERO] * 5, 6) == [0] * 6
    assert EXACT_LA.solve(zeros, [ZERO] * 4 + [GaussRational(0, 1)], 6) is None


def test_rref_keeps_integer_input_exact():
    rows = [{0: 2, 1: 1}, {0: 4, 1: 2}]
    assert linalg._echelon(rows) == ({0: {1: Fraction(1, 2)}}, {0: 0})
    tails = linalg._reduce(rows)
    assert tails == {0: {1: Fraction(1, 2)}}
    assert isinstance(tails[0][1], Fraction)
    assert EXACT_LA.nullspace(rows, 2) == [[Fraction(-1, 2), 1]]


def test_float_rank_rule_is_relative_to_the_largest_singular_value():
    tiny = 0.5 * linalg.RANK_RTOL
    assert FLOAT_LA.rank([{0: 1.0}, {1: tiny}]) == 1
    assert FLOAT_LA.rank([{0: 1e3}, {1: 1e3 * tiny}]) == 1
    # below one the cutoff does not shrink further
    assert FLOAT_LA.rank([{0: 1e-4}, {1: 1e-4 * tiny}]) == 1
    assert FLOAT_LA.rank([{0: 1e-12}]) == 0
    assert FLOAT_LA.solve([{0: 1.0}, {}], [1.0, tiny], 1) is not None
    assert FLOAT_LA.solve([{0: 1.0}, {}], [1.0, 1e-6], 1) is None


@pytest.mark.parametrize("la", [EXACT_LA, FLOAT_LA], ids=["exact", "float"])
def test_empty_shapes(la):
    assert la.rank([]) == 0
    assert la.rank([{}, {}]) == 0
    assert la.leading_ranks([{}, {}], 1) == (0, 0)
    if la is EXACT_LA:
        assert la.pivot_columns([{}, {}]) == []
    assert la.solve([], [], 2) == [0, 0]
    assert la.nullspace([], 2) == [[1, 0], [0, 1]]
    assert la.nullspace([{}, {}], 0) == []
    # no unknowns: consistent exactly when the right-hand side is zero
    assert la.solve([{}, {}], [0, 0], 0) == []
    assert la.solve([{}, {}], [0, 1], 0) is None


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        linalg.for_backend("decimal")


def test_operator_matrix_columns_are_images():
    pres = catalog.fps6(E=1)  # d phi^3 = phi^12, d phi^1 = 0
    sources = [Monomial.make([3], [], 3), Monomial.make([1], [], 3)]
    targets = [Monomial.make([1, 2], [], 3), Monomial.make([1, 3], [], 3)]
    # sparse rows: row r maps column j to the coefficient of targets[r] in
    # d(sources[j]), and stores no zero
    assert pres.matrix("d", sources, targets) == [{0: 1}, {}]
    assert pres.matrix("d", sources[::-1], targets) == [{1: 1}, {}]
    with pytest.raises(KeyError):
        pres.matrix("d", sources, targets[1:])
    with pytest.raises(ValueError, match="unknown operator"):
        pres.matrix("dd", sources, targets)


@pytest.mark.parametrize("key", ["nakamura-v-12", "eta-beta-5", "nakamura-iv-5"])
def test_simple_search_agrees_on_float_copies(key):
    exact = catalog.get(key)
    floating = StructurePresentation(
        exact.n, [f.to_float() for f in exact.dphi], backend=FLOAT
    )
    assert floating.is_complex_parallelizable() == exact.is_complex_parallelizable()
    for q in range(1, exact.n + 1):
        want = exact_simple_holomorphic_search(exact, q)
        # the float copy spans the same image d(Lambda^{q-1,0}) ...
        d_float = floating.matrix(
            "d", bidegree_basis(exact.n, q - 1, 0), bidegree_basis(exact.n, q, 0)
        )
        assert FLOAT_LA.rank(d_float) == want.dim_image, q
        # ... but a float square root always exists, so the search refuses it
        with pytest.raises(PresentationError, match="not exact"):
            exact_simple_holomorphic_search(floating, q)
