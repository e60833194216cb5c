import ast
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

import geowb
import suites
from geowb.scalars import DEFAULT_EPS, EXACT, FLOAT, ZERO, GaussRational, field

EXACT_FIELD = field(EXACT)
FLOAT_FIELD = field(FLOAT)


def test_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        field("decimal")


class TestHash:
    def test_real_values_hash_like_their_rational(self):
        assert len({1, GaussRational(1)}) == 1
        assert hash(GaussRational(Fraction(-1, 2))) == hash(Fraction(-1, 2))
        assert hash(GaussRational(Fraction(1, 3))) == hash(Fraction(1, 3))
        assert {Fraction(3, 4): "x"}[GaussRational(Fraction(3, 4))] == "x"

    def test_equal_values_hash_alike(self):
        rnd = random.Random(7)
        for _ in range(200):
            x = suites.random_scalar(rnd)
            assert hash(GaussRational(x.re, x.im)) == hash(x)


REFERENCE = suites.FractionPairGaussRational
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _operand(rnd: random.Random):
    """One operand as (value, reference value): a zero, an int, a Fraction,
    or a Gaussian rational with small, integer or large-denominator parts."""
    kind = rnd.randrange(6)
    if kind == 0:
        value = rnd.choice([0, Fraction(0)])
        return (value, value) if rnd.random() < 0.5 else (GaussRational(), REFERENCE())
    if kind == 1:
        value = rnd.randint(-20, 20)
        return value, value
    if kind == 2:
        value = Fraction(rnd.randint(-30, 30), rnd.randint(1, 30))
        return value, value
    if kind == 3:
        parts = [Fraction(rnd.randint(-6, 6), rnd.randint(1, 6)) for _ in range(2)]
    elif kind == 4:
        parts = [rnd.randint(-5, 5), rnd.choice([0, rnd.randint(-5, 5)])]
    else:
        parts = [Fraction(rnd.randint(-10**12, 10**12), rnd.randint(1, 10**15))
                 for _ in range(2)]
    return GaussRational(*parts), REFERENCE(*parts)


def _assert_normal(x: GaussRational) -> None:
    assert x._d > 0 and math.gcd(x._a, x._b, x._d) == 1


def _assert_same_value(got, want) -> None:
    assert isinstance(got, GaussRational)
    _assert_normal(got)
    re, im = got.re, got.imag
    assert (re, im) == (want.re, want.im)
    assert type(re) is Fraction and type(im) is Fraction


def _assert_matches(got, want) -> None:
    """The same value, and the same abs2, truth, hash and text."""
    _assert_same_value(got, want)
    assert got.abs2() == want.abs2()
    assert bool(got) == bool(want)
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert EXACT_FIELD.to_json(got) == want.to_json()


class TestTripleArithmetic:
    """The integer triple against the Fraction-pair reference class."""

    def test_operations_match_the_fraction_pair_reference(self):
        rnd = random.Random(13)
        for k in range(2000):
            (x, x_ref), (y, y_ref) = _operand(rnd), _operand(rnd)
            if not isinstance(x, GaussRational) and not isinstance(y, GaussRational):
                x, x_ref = GaussRational(x), REFERENCE(x)
            if isinstance(x, GaussRational):
                _assert_matches(-x, -x_ref)
                _assert_same_value(x.conjugate(), x_ref.conjugate())
            assert (x == y) == (x_ref == y_ref) == (y == x)
            for i, op in enumerate(OPERATORS):
                if op is operator.truediv and not y:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                # every value is checked; its text, hash and abs2 on one op in four
                check = _assert_matches if i == k % 4 else _assert_same_value
                check(op(x, y), op(x_ref, y_ref))

    def test_equal_values_have_equal_triples(self):
        x = GaussRational(Fraction(3, 4), Fraction(-5, 6))
        y = GaussRational(Fraction(2, 7), 3)
        half = GaussRational(Fraction(1, 2), Fraction(1, 2))
        quarter = GaussRational(Fraction(1, 4), Fraction(1, 4))
        thirds = GaussRational(Fraction(1, 3), Fraction(2, 3))
        for a, b in [
            (GaussRational(Fraction(2, 4), Fraction(3, 6)), half),
            (GaussRational(1, 1) / 2, half),
            (quarter + quarter, half),
            (x * y / y, x),
            (x + y - y, x),
            (thirds + thirds.conjugate() * GaussRational(0, 1), GaussRational(1, 1)),
            (x - x, ZERO),
            (x * 0, ZERO),
        ]:
            _assert_normal(a)
            assert (a._a, a._b, a._d) == (b._a, b._b, b._d)
        assert (ZERO._a, ZERO._b, ZERO._d) == (0, 0, 1)

    def test_zero_parts_are_the_shared_zero(self):
        x = GaussRational(Fraction(3, 4), Fraction(-5, 6))
        assert ZERO.re is ZERO.im
        for z in (x - x, GaussRational(7), x * 0, x + x.conjugate()):
            assert z.imag is ZERO.im
        assert GaussRational(0, 5).re is ZERO.re

    def test_division_by_zero(self):
        for zero in (0, Fraction(0), GaussRational(0), GaussRational(1) - 1):
            with pytest.raises(ZeroDivisionError):
                GaussRational(1, 2) / zero
        for one in (1, Fraction(1), GaussRational(1)):
            with pytest.raises(ZeroDivisionError):
                one / ZERO
        with pytest.raises(ZeroDivisionError):
            GaussRational("1/0")


class TestParse:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("3/2", GaussRational(Fraction(3, 2))),
            ("0.25", GaussRational(Fraction(1, 4))),
            ("1+1i", GaussRational(1, 1)),
            ("2i", GaussRational(0, 2)),
            ("-i", GaussRational(0, -1)),
            ("1/2-3/4i", GaussRational(Fraction(1, 2), Fraction(-3, 4))),
            ("-1/2i", GaussRational(0, Fraction(-1, 2))),
        ],
    )
    def test_exact_strings(self, text, value):
        assert EXACT_FIELD.parse(text) == value

    def test_exact_round_trip(self):
        rnd = random.Random(11)
        for _ in range(500):
            x = GaussRational(
                Fraction(rnd.randint(-50, 50), rnd.randint(1, 50)),
                Fraction(rnd.randint(-50, 50), rnd.randint(1, 50)),
            )
            assert EXACT_FIELD.parse(EXACT_FIELD.format(x)) == x

    @pytest.mark.parametrize("text", ["", "1/0", "x", "1+", "0.5+0.5j"])
    def test_exact_rejects_malformed(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            EXACT_FIELD.parse(text)

    @pytest.mark.parametrize(
        "value", [1.5, -2j, 1e-05 + 2j, 0.5 - 1e20j, complex("inf")]
    )
    def test_float_reads_what_it_prints(self, value):
        assert FLOAT_FIELD.parse(FLOAT_FIELD.format(value)) == pytest.approx(value, rel=1e-5)


# Exact part strings: the ASCII integers and "p/q" ratios that GaussRational
# reads without a Fraction, and strings that Fraction reads or refuses.
PART_STRINGS = [
    "0", "-0", "+0", "7", "-7", "+7", "007", "12345678901234567890123",
    "-1/2", "6/4", "-6/4", "+3/9", "0/5", "-0/3", "10/10", "007/014",
    "1/0", "0/0", "-5/0", "3/-4", "3/+4", "1/2/3", "1//2", "1/", "/2",
    "1.5", "-0.25", "1e3", "1E-2", ".5", "5.", "0.5/2",
    " 3", "3 ", " 1/2 ", "1 /2", "1/ 2", "\t4\n", "1_000", "1/2_0", "1__0",
    "\u0661\u0662", "\u0663/\u0664", "\u00b2", "\u00bd", "\uff13",
    "", "+", "-", "/", "--1", "+-1", "abc", "inf", "nan", "0x10", "1j",
]


def outcome(make, text):
    """make(text), or the type and message of what it raises."""
    try:
        return make(text)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


class TestExactStrings:
    @pytest.mark.parametrize("text", PART_STRINGS)
    def test_a_part_reads_as_fraction_reads_it(self, text):
        expected = outcome(Fraction, text)
        # (constructor, where the text lands, the other part's value)
        for make, parts in (
            (lambda t: GaussRational(t), lambda z: (z.re, z.im, 0)),
            (lambda t: GaussRational("0", t), lambda z: (z.im, z.re, 0)),
            (lambda t: GaussRational(t, "-1/3"), lambda z: (z.re, z.im, Fraction(-1, 3))),
        ):
            got = outcome(make, text)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                part, other_part, other = parts(got)
                assert part == expected and other_part == other

    @pytest.mark.parametrize("re_text", ["3", "-1/2", "6/4", "0", "5/10"])
    @pytest.mark.parametrize("im_text", ["9/4", "-2", "0/7", "4/6", "1/3"])
    def test_the_triple_is_normalised(self, re_text, im_text):
        z = GaussRational(re_text, im_text)
        reference = GaussRational(Fraction(re_text), Fraction(im_text))
        assert (z._a, z._b, z._d) == (reference._a, reference._b, reference._d)
        assert z.re == Fraction(re_text) and z.im == Fraction(im_text)

    @pytest.mark.parametrize("part", [1.5, 0.0, 2j, True])
    def test_floats_and_bools_are_still_refused(self, part):
        with pytest.raises(TypeError):
            EXACT_FIELD.from_json({"re": part, "im": "0"})
        with pytest.raises(TypeError):
            EXACT_FIELD.from_json({"re": "1/2", "im": part})
        if not isinstance(part, bool):
            with pytest.raises(TypeError):
                GaussRational("1/2", part)


class TestDecisions:
    def test_is_zero_takes_a_real_part(self):
        tiny = Fraction(1, 10**20)
        assert not EXACT_FIELD.is_zero(tiny)
        assert not EXACT_FIELD.is_zero(GaussRational(0, tiny), tol=1.0)
        assert FLOAT_FIELD.is_zero(float(tiny))
        assert not FLOAT_FIELD.is_zero(1e-3)
        assert FLOAT_FIELD.is_zero(1e-3, tol=1e-2)

    def test_is_positive(self):
        assert EXACT_FIELD.is_positive(GaussRational(Fraction(1, 10**20)))
        assert not EXACT_FIELD.is_positive(GaussRational(1, Fraction(1, 10**20)))
        assert not EXACT_FIELD.is_positive(GaussRational(0))
        assert FLOAT_FIELD.is_positive(1 + 1e-13j)
        assert not FLOAT_FIELD.is_positive(1e-13 + 0j)
        assert not FLOAT_FIELD.is_positive(1 + 1e-3j, tol=1e-6)

    def test_tolerance(self):
        assert EXACT_FIELD.tolerance(1e-3) is None
        assert FLOAT_FIELD.tolerance(None) == DEFAULT_EPS
        assert FLOAT_FIELD.tolerance(1e-3) == 1e-3

    @pytest.mark.parametrize(
        "root",
        [GaussRational(0), GaussRational(2), GaussRational(0, -2), GaussRational(1, 1),
         GaussRational(Fraction(-3, 2), Fraction(1, 5)), GaussRational(Fraction(2, 7), -3)],
    )
    def test_exact_sqrt_of_a_square(self, root):
        square = root * root
        got = EXACT_FIELD.sqrt(square)
        assert got * got == square
        assert got in (root, -root)

    @pytest.mark.parametrize(
        "value",
        [GaussRational(2), GaussRational(-3), GaussRational(0, 1), GaussRational(1, 1),
         GaussRational(Fraction(1, 2)), GaussRational(3, 4) + 1],
    )
    def test_exact_sqrt_outside_q_i(self, value):
        assert EXACT_FIELD.sqrt(value) is None

    def test_coerce(self):
        assert EXACT_FIELD.coerce("-1/2") == GaussRational(Fraction(-1, 2))
        with pytest.raises(TypeError, match="exact computation"):
            EXACT_FIELD.coerce(0.5)
        assert FLOAT_FIELD.coerce(GaussRational(1, 2)) == 1 + 2j
        with pytest.raises(TypeError):
            FLOAT_FIELD.coerce("1")

    def test_as_real(self):
        # a real exact value is returned as it is, with no round trip
        x = GaussRational(Fraction(-7, 3))
        assert EXACT_FIELD.as_real(x) is x
        assert FLOAT_FIELD.as_real(2.5 + 3e-17j) == 2.5 + 0j


def _backend_decisions(path: Path) -> list[str]:
    """Comparisons with the backend names and type tests on GaussRational."""
    names = {"EXACT", "FLOAT"}

    def is_backend_name(node):
        return (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Constant) and node.value in (EXACT, FLOAT))
        )

    def mentions_gauss_rational(node):
        return any(
            (isinstance(n, ast.Name) and n.id == "GaussRational")
            or (isinstance(n, ast.Attribute) and n.attr == "GaussRational")
            for n in ast.walk(node)
        )

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(is_backend_name(x) for op in operands for x in ast.walk(op)):
                found.append(f"{path.name}:{node.lineno} compares with a backend name")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and mentions_gauss_rational(node.args[1])
        ):
            found.append(f"{path.name}:{node.lineno} tests isinstance(..., GaussRational)")
    return found


def test_only_scalars_decides_exact_or_float():
    package = Path(geowb.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "scalars.py")
    assert modules
    assert [hit for p in modules for hit in _backend_decisions(p)] == []


def test_the_guard_sees_a_branch(tmp_path):
    module = tmp_path / "branchy.py"
    module.write_text(
        "def f(backend, x):\n"
        "    if backend == EXACT or scalars.FLOAT != backend or backend == 'float':\n"
        "        return isinstance(x, (int, scalars.GaussRational))\n"
    )
    assert len(_backend_decisions(module)) == 4
