"""Seeded inputs for the benchmark workloads.

A workload is a cycle of rounds.  Every round holds the same mix of query
kinds and (rank, bidegree) strata in the same order, whatever the seed;
the seed only picks parameter values, family letters, metrics and forms.
So any seed costs about the same, and a run that measures whole rounds
measures the same mix every time.  A round is built from one or more
mixes, each drawing its inputs from its own seeded stream.

Each query is one ``geowb`` CLI invocation.  Queries refer to their input
files by name (``@name`` in the argument list); the runner writes the files
and substitutes the paths.  ``expect`` carries what the construction of
the inputs guarantees (a positive-definite metric power is transverse, a
chosen free coefficient closes the ansatz, ...), for the oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cohomology-scan", "fresh-classify", "transverse-sampling")

# Rounds are cycled after this many distinct ones, so that the reference
# table can list every query a run of a default seed makes.  A
# transverse-sampling run is five short rounds, and the cost of a sampling
# query depends on its metric; that workload cycles only after two runs'
# worth of rounds, so that every round of a run is a different one and
# their mean cost varies less from seed to seed.
DISTINCT_ROUNDS = {"cohomology-scan": 4, "fresh-classify": 4, "transverse-sampling": 10}

# Sample count for sampled transversality: well below the CLI default.
TRANSVERSE_SAMPLES = 50

# Positive-definite metric powers per (n, p) and transverse-sampling round:
# enough queries for a run of a few rounds to put forty or more of each
# stratum around the 90th percentile, and enough time that the round's one
# quadric search is only a quarter of it.
METRIC_POWER_COPIES = 11


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = ()
    stratum: str = ""
    expect: tuple[tuple[str, object], ...] = ()
    options: tuple[str, ...] = ()  # global CLI options, before the subcommand

    def argv(self, paths: dict[str, str]) -> list[str]:
        out = ["--json", *self.options, self.kind]
        for a in self.args:
            out.append(paths[a[1:]] if a.startswith("@") else a)
        return out

    def digest(self) -> str:
        """Key of the query's inputs, independent of where files are written."""
        h = hashlib.sha1()
        text = json.dumps([list(self.options), self.kind, list(self.args), list(self.files)])
        h.update(text.encode())
        return h.hexdigest()[:20]

    def expected(self, key: str, default=None):
        return dict(self.expect).get(key, default)


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) Fraction pairs -- independent of geowb
# ---------------------------------------------------------------------------


def g(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gconj(a):
    return (a[0], -a[1])


def gdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    n = gmul(a, gconj(b))
    return (n[0] / d, n[1] / d)


def gjson(a) -> dict:
    return {"re": str(a[0]), "im": str(a[1])}


def gparam(a) -> list[str]:
    return [str(a[0]), str(a[1])]


ZERO = g(0)

_LETTER_VALUES = [g(1), g(-1), g(2), g(0, 1), g(1, 1), g(1, -1), g(Fraction(1, 2)), g(-2, 1)]
# Row parameters of one size, so that the cost of a row does not depend on
# the seed; invalid choices (alpha = -1, ...) are drawn again.
_ROW_PARAMS = [g(2), g(3), g(4), g(5), g(-2), g(-3), g(-4), g(-5)]


def _nonzero_letter(rng: random.Random):
    return rng.choice(_LETTER_VALUES)


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

FPS6_LETTERS = ["A", "B", "C", "D", "E"]
FT8_LETTERS = [f"a{i}" for i in range(1, 13)]
ST10_LETTERS = (
    [f"a{i}" for i in range(1, 8)] + [f"b{i}" for i in range(1, 7)]
    + [f"c{i}" for i in range(1, 6)] + [f"d{i}" for i in range(1, 5)]
)
FAMILY_LETTERS = {"fps6": FPS6_LETTERS, "ft8": FT8_LETTERS, "st10": ST10_LETTERS}


def _row_params(rng: random.Random, key: str) -> dict:
    """Seeded valid parameters for the parametrised Nakamura rows."""
    one = g(1)
    while True:
        if key in ("nakamura-iv-5", "nakamura-v-13"):
            alpha = rng.choice(_ROW_PARAMS)
            if gmul(alpha, gadd(one, alpha)) != ZERO:
                return {"alpha": alpha}
        elif key == "nakamura-v-17":
            gamma, beta = rng.choice(_ROW_PARAMS), rng.choice(_ROW_PARAMS)
            if gmul(gmul(gamma, beta), gadd(gadd(one, gamma), beta)) != ZERO:
                return {"gamma": gamma, "beta": beta}
        elif key == "nakamura-v-20":
            eta = rng.choice(_ROW_PARAMS)
            if gmul(eta, gadd(g(2), eta)) != ZERO:
                return {"eta": eta}
        else:
            return {}


def _family_letters(rng: random.Random, family: str, support) -> dict:
    """Seeded nonzero values on a fixed support of the family letters (the
    cost of a query depends on the support far more than on the values)."""
    return {name: _nonzero_letter(rng) if name in support else ZERO
            for name in FAMILY_LETTERS[family]}


@dataclass(frozen=True)
class Structure:
    """A catalog key with seeded parameters, or a structure file."""

    rank: int
    key: str | None = None
    params: tuple[tuple[str, tuple], ...] = ()
    document: str | None = None  # structure-file JSON, when not a catalog key
    torus: bool = False

    def spec_args(self, prefix: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """(structure argument + --params, files) for commands taking both."""
        if self.document is not None:
            return (f"@{prefix}s",), ((f"{prefix}s", self.document),)
        if not self.params:
            return (self.key,), ()
        text = json.dumps({k: gparam(v) for k, v in self.params}, sort_keys=True)
        return (self.key, "--params", f"@{prefix}p"), ((f"{prefix}p", text),)

    def as_file(self, prefix: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """A structure file, for commands without --params."""
        return (f"@{prefix}s",), ((f"{prefix}s", self.to_document()),)

    def to_document(self) -> str:
        if self.document is not None:
            return self.document
        from geowb import catalog
        from geowb.lie import presentation_to_json
        from geowb.scalars import GaussRational

        params = {k: GaussRational(v[0], v[1]) for k, v in self.params}
        pres = catalog.get(self.key, **params)
        return json.dumps(presentation_to_json(pres), sort_keys=True)


_RANKS = {"fps6": 3, "s1-pi2": 3, "ft8": 4, "st10": 5, "eta-beta-5": 5}


# the fixed letter supports of the family members in the exact workloads
SUPPORT = {
    "fps6": ("A", "B", "C", "D", "E"),
    "ft8": ("a1", "a3", "a8", "a12"),
    "st10": ("a1", "b4", "c4", "d4"),
}


def catalog_structure(rng: random.Random, key: str) -> Structure:
    rank = _RANKS.get(key) or (4 if key.startswith("nakamura-iv") else 5)
    if key in FAMILY_LETTERS:
        params = _family_letters(rng, key, SUPPORT[key])
    else:
        params = _row_params(rng, key)
    torus = key in ("nakamura-iv-1", "nakamura-v-1")
    return Structure(rank, key, tuple(sorted(params.items())), torus=torus)


def _fps6_dphi3(letters: dict, offset: int, n: int) -> dict:
    """d a^3 of fps6 (see geowb.catalog.fps6), shifted by ``offset``."""
    spec = [("A", [2], [1], -1), ("B", [2], [2], -1), ("C", [1], [1], 1),
            ("D", [1], [2], 1), ("E", [1, 2], [], 1)]
    terms = []
    for name, holo, anti, sign in spec:
        c = letters[name]
        if c == ZERO:
            continue
        c = (c[0] * sign, c[1] * sign)
        terms.append({"holo": [i + offset for i in holo],
                      "anti": [i + offset for i in anti], **gjson(c)})
    return {"n": n, "backend": "exact", "terms": terms}


def torus6() -> Structure:
    zero = {"n": 6, "backend": "exact", "terms": []}
    doc = {"name": "torus-6", "n": 6, "backend": "exact", "dphi": [zero] * 6}
    return Structure(6, document=json.dumps(doc, sort_keys=True), torus=True)


def fps6_product(rng: random.Random) -> Structure:
    """Product of two seeded fps6 members: a rank-6 structure file."""
    first = _family_letters(rng, "fps6", SUPPORT["fps6"])
    second = _family_letters(rng, "fps6", SUPPORT["fps6"])
    zero = {"n": 6, "backend": "exact", "terms": []}
    dphi = [zero, zero, _fps6_dphi3(first, 0, 6), zero, zero, _fps6_dphi3(second, 3, 6)]
    doc = {"name": "fps6-x-fps6", "n": 6, "backend": "exact", "dphi": dphi}
    return Structure(6, document=json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# metrics and forms
# ---------------------------------------------------------------------------


def hermitian_matrix(rng: random.Random, n: int, negative: int | None = None):
    """H = L D L* with L lower triangular, no zero entry, and D = diag(+-1).

    With ``negative`` None, H is positive definite and not diagonal; with
    ``negative`` = j, D has one -1 at j, so H has exactly one negative
    eigenvalue (Sylvester's law of inertia).
    """
    low = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        low[j][j] = g(rng.randint(1, 2))
        for k in range(j):
            low[j][k] = g(Fraction(rng.choice((-1, 1)), 2), Fraction(rng.choice((-1, 1)), 2))
    diag = [g(-1) if j == negative else g(1) for j in range(n)]
    h = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            total = ZERO
            for m in range(min(j, k) + 1):
                total = gadd(total, gmul(gmul(low[j][m], diag[m]), gconj(low[k][m])))
            h[j][k] = total
    return h


def metric_document(h) -> str:
    rows = [[gjson(x) for x in row] for row in h]
    return json.dumps({"n": len(h), "backend": "exact", "H": rows}, sort_keys=True)


def float_metric_document(rng: random.Random, n: int) -> str:
    h = hermitian_matrix(rng, n)
    rows = [[{"re": repr(float(x[0])), "im": repr(float(x[1]))} for x in row] for row in h]
    return json.dumps({"n": n, "backend": "float", "H": rows}, sort_keys=True)


def metric_power_document(h, p: int) -> str:
    """omega_H^p with omega_H = (i/2) sum H[j][k] phi^j ^ phibar^k."""
    from geowb.forms import InvariantForm, Monomial, form_to_json
    from geowb.metrics import form_power
    from geowb.scalars import GaussRational

    n = len(h)
    terms = {}
    for j in range(n):
        for k in range(n):
            if h[j][k] != ZERO:
                c = gmul(g(0, Fraction(1, 2)), h[j][k])
                terms[Monomial.make([j + 1], [k + 1], n)] = GaussRational(c[0], c[1])
    omega = InvariantForm(n, terms)
    return json.dumps(form_to_json(form_power(omega, p)), sort_keys=True)


# Om^j as (holomorphic index pair, sign), and the 0-based (j, k) spots of
# the Om_a family (see geowb.positivity)
OMEGA_BASIS = (((1, 2), 1), ((1, 3), 1), ((1, 4), 1), ((2, 3), 1), ((2, 4), -1), ((3, 4), 1))
OMEGA_A_SPOTS = ((0, 5), (1, 4), (2, 3))


def quadric_form_document(rng: random.Random) -> str:
    """A real rank-4 (2,2)-form sum A[j][k] Om^j ^ conj(Om^k) outside the Om_a family.

    A = I + P, with P Hermitian, zero on the diagonal and on the Om_a pair
    spots, and every row sum of |P| below 1, so A is positive definite and
    the form is transverse.
    """
    a = [[g(1) if j == k else ZERO for k in range(6)] for j in range(6)]
    spots = [(j, k) for j in range(6) for k in range(j + 1, 6) if (j, k) not in OMEGA_A_SPOTS]
    rng.shuffle(spots)
    used = [0] * 6
    placed = 0
    for j, k in spots:
        if placed == 4:
            break
        if used[j] >= 2 or used[k] >= 2:
            continue
        x = g(Fraction(rng.choice([-1, 1]), 8), Fraction(rng.choice([-1, 0, 1]), 8))
        a[j][k] = x
        a[k][j] = gconj(x)
        used[j] += 1
        used[k] += 1
        placed += 1
    terms = []
    for j, (pj, sj) in enumerate(OMEGA_BASIS):
        for k, (pk, sk) in enumerate(OMEGA_BASIS):
            if a[j][k] == ZERO:
                continue
            c = gmul(a[j][k], g(sj * sk))
            terms.append({"holo": list(pj), "anti": list(pk), **gjson(c)})
    return json.dumps({"n": 4, "backend": "exact", "terms": terms}, sort_keys=True)


def eta_beta5_form_document() -> str:
    from geowb import catalog
    from geowb.forms import form_to_json

    return json.dumps(form_to_json(catalog.eta_beta5_three_kahler_form()), sort_keys=True)


# ---------------------------------------------------------------------------
# family closedness scalars (re-derived here from the family docstrings)
# ---------------------------------------------------------------------------


def family_condition(family: str, letters: dict, free: dict):
    """The closedness scalar of the family ansatz for the identity metric.

    Psi = lambda + omega^p + conj(lambda) is closed iff it vanishes.
    """
    c = gconj
    f = lambda name: free.get(name, ZERO)  # noqa: E731
    if family == "fps6":
        # -N conj(E) + (1/2)(conj(C) - conj(B)) for r2 = s2 = t2 = 1, u = v = w = 0
        half = gmul(g(Fraction(1, 2)), gsub(c(letters["C"]), c(letters["B"])))
        return gadd(gmul(g(-1), gmul(f("N"), c(letters["E"]))), half)
    if family == "ft8":
        a = [letters[f"a{i}"] for i in range(1, 13)]
        total = gmul(g(0, Fraction(3, 4)), gadd(gadd(a[2], a[7]), a[11]))
        total = gsub(total, gmul(c(f("L3")), a[5]))
        total = gadd(total, gmul(c(f("M2")), a[1]))
        return gsub(total, gmul(c(f("N")), a[0]))
    a = [letters[f"a{i}"] for i in range(1, 8)]
    b = [letters[f"b{i}"] for i in range(1, 7)]
    cc = [letters[f"c{i}"] for i in range(1, 6)]
    d = [letters[f"d{i}"] for i in range(1, 5)]
    total = gmul(g(Fraction(3, 2)), gadd(gadd(d[3], cc[3]), gadd(b[3], a[3])))
    total = gsub(total, gmul(c(f("L3")), cc[0]))
    total = gadd(total, gmul(c(f("M2")), b[1]))
    total = gsub(total, gmul(c(f("N1")), b[0]))
    total = gsub(total, gmul(c(f("S2")), a[2]))
    total = gadd(total, gmul(c(f("S3")), a[1]))
    return gsub(total, gmul(c(f("P")), a[0]))


# the free coefficient solved for to close the ansatz, and its partner letter
_CLOSING = {"fps6": ("N", "E"), "ft8": ("N", "a1"), "st10": ("P", "a1")}
_FREE = {
    "fps6": ["L", "M", "N"],
    "ft8": ["L1", "L2", "L3", "M1", "M2", "N"],
    "st10": ["L1", "L2", "L3", "M1", "M2", "N1", "S1", "S2", "S3", "P"],
}


# the letters in each family's closedness scalar: a fixed support, seeded values
PSYMPLECTIC_SUPPORT = {
    "fps6": FPS6_LETTERS,
    "ft8": ("a1", "a2", "a3", "a6", "a8", "a12"),
    "st10": ("a1", "a2", "a3", "a4", "b1", "b2", "b4", "c1", "c4", "d4"),
}


def psymplectic_query(rng: random.Random, family: str, closed: bool, tag: str) -> Query:
    """A family member and free coefficients; the closing coefficient is
    solved for exactly (fps6: N, condition = rest - N conj(E); ft8 and
    st10: N or P, condition = rest - conj(N or P) a1), then moved off the
    solution when ``closed`` is false."""
    letters = _family_letters(rng, family, PSYMPLECTIC_SUPPORT[family])
    solve_for, partner = _CLOSING[family]
    free = {name: _nonzero_letter(rng) for name in _FREE[family]}
    free[solve_for] = ZERO
    rest = family_condition(family, letters, free)
    if family == "fps6":
        value = gdiv(rest, gconj(letters[partner]))
    else:
        value = gconj(gdiv(rest, letters[partner]))
    if not closed:
        value = gadd(value, _nonzero_letter(rng))
    free[solve_for] = value
    condition = family_condition(family, letters, free)
    params = {k: gparam(v) for k, v in {**letters, **free}.items() if v != ZERO}
    text = json.dumps(params, sort_keys=True)
    return Query(
        "psymplectic",
        ("--family", family, "--params", f"@{tag}p"),
        ((f"{tag}p", text),),
        stratum=f"psymplectic/{family}",
        expect=(("closed", condition == ZERO),),
    )


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _bidegrees(n: int, keep) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n + 1) for q in range(n + 1) if keep(p + q)]


def _every(r):
    return True


def _low(r):
    return r <= 2


def _low_high4(r):
    return r <= 3 or r >= 7


def _low_high5(r):
    return r <= 2 or r >= 9


# (catalog key, bc-dims?, ddbar-lemma total degrees).
# Mid-degree ddbar-lemma checks at rank 4 and 5 take 1-14 s each at the
# first benchmarked commit, and the rank-4 torus and ft8 members take 4-5 s
# for the rank-4 low/high set; those are left out so that a round stays under
# ten seconds.  bc-dims runs on one rank-5 structure, eta-beta-5 (about
# 1.3 s); on nakamura-v-13 it takes 1.6-2.7 s depending on the parameters,
# and that one query would set most of a round's time and of its spread.
# The 90th percentile lies among the 14 rank-4 degree-3 and rank-5 degree-9
# checks of a round (350-600 ms), well above their cheapest, and not on the
# step down to the next stratum (bc-dims at rank 4, about 250 ms).
COHOMOLOGY_MIX = (
    ("fps6", True, _every),
    ("s1-pi2", True, _every),
    ("nakamura-iv-5", True, _low_high4),
    ("ft8", True, _low),
    ("nakamura-iv-1", True, _low),
    ("eta-beta-5", True, _low_high5),
    ("nakamura-v-13", False, _low_high5),
    ("nakamura-v-17", False, _low_high5),
    ("nakamura-v-20", False, _low_high5),
    ("st10", False, _low_high5),
)


def _cohomology_round(rng: random.Random, index: int) -> list[Query]:
    queries = []
    for slot, (key, bc, degrees) in enumerate(COHOMOLOGY_MIX):
        st = catalog_structure(rng, key)
        args, files = st.spec_args(f"c{slot}")
        torus = (("torus", True),) if st.torus else ()
        if bc:
            queries.append(Query("bc-dims", args, files, f"bc-dims/rank{st.rank}",
                                 (("rank", st.rank),) + torus))
        for p, q in _bidegrees(st.rank, degrees):
            queries.append(Query(
                "ddbar-lemma", args[:1] + ("--p", str(p), "--q", str(q)) + args[1:], files,
                f"ddbar-lemma/rank{st.rank}/deg{p + q}", torus,
            ))
    return queries


# Three rank-3 exact and one float query, four each at rank 4, 5 and 6.
CLASSIFY_KEYS = (
    ("fps6", "fps6", "fps6"),
    ("nakamura-iv-5", "ft8", "nakamura-iv-6", "nakamura-iv-3"),
    ("nakamura-v-13", "nakamura-v-20", "eta-beta-5", "st10"),
)


def _classify_query(st: Structure, metric: str, tag: str, float_metric: bool = False) -> Query:
    args, files = st.spec_args(tag)
    torus = (("torus", True),) if st.torus else ()
    return Query(
        "classify-metric",
        args[:1] + ("--metric", f"@{tag}m") + args[1:],
        files + ((f"{tag}m", metric),),
        f"classify-metric/rank{st.rank}" + ("/float" if float_metric else ""),
        torus,
    )


def _classify_round(rng: random.Random, index: int) -> list[Query]:
    queries = []
    slot = 0
    for keys in CLASSIFY_KEYS:
        for key in keys:
            st = catalog_structure(rng, key)
            doc = metric_document(hermitian_matrix(rng, st.rank))
            queries.append(_classify_query(st, doc, f"k{slot}"))
            slot += 1
    float_st = catalog_structure(rng, "s1-pi2")
    queries.append(_classify_query(float_st, float_metric_document(rng, 3), "kf", True))
    for slot, rank6 in enumerate((torus6(), fps6_product(rng), torus6(), fps6_product(rng))):
        metric = metric_document(hermitian_matrix(rng, 6))
        queries.append(_classify_query(rank6, metric, f"k6{slot}"))
    return queries


FRESH_ROWS = ("nakamura-iv-5", "nakamura-v-13", "nakamura-v-17", "nakamura-v-20")


# psymplectic queries per family and round, half of them closed.
FRESH_PSYMPLECTIC = {"fps6": 8, "ft8": 4, "st10": 4}


def _fresh_round(rng: random.Random, index: int) -> list[Query]:
    queries = []
    for family, count in FRESH_PSYMPLECTIC.items():
        for k in range(count):
            queries.append(psymplectic_query(rng, family, k % 2 == 0, f"f{len(queries)}"))
    for slot, key in enumerate(FRESH_ROWS):
        st = catalog_structure(rng, key)
        args, files = st.spec_args(f"v{slot}")
        queries.append(Query("validate", args, files, f"validate/rank{st.rank}"))
        file_args, file_files = st.as_file(f"o{slot}")
        for p in (st.rank - 2, st.rank - 1):
            queries.append(Query(
                "obstruct", ("--search", "--structure") + file_args + ("--p", str(p)),
                file_files, f"obstruct/rank{st.rank}/p{p}",
            ))
    return queries


def _transverse_query(rng: random.Random, doc: str, tag: str, stratum: str,
                      transverse: bool, extra: tuple[str, ...] = ()) -> Query:
    options = ("--samples", str(TRANSVERSE_SAMPLES), "--seed", str(rng.randrange(2**31)))
    return Query(
        "transverse",
        ("--form", f"@{tag}") + extra,
        ((tag, doc),),
        stratum,
        (("transverse", transverse),),
        options,
    )


def _transverse_round(rng: random.Random, index: int) -> list[Query]:
    queries = [_transverse_query(rng, eta_beta5_form_document(), "t0", "transverse/eta-beta-5", True)]
    for n, p in ((4, 1), (4, 2), (5, 2), (5, 3)):
        extra = ("--no-quadric",) if (n, p) == (4, 2) else ()
        for copy in range(METRIC_POWER_COPIES):
            h = hermitian_matrix(rng, n)
            queries.append(_transverse_query(
                rng, metric_power_document(h, p), f"t{len(queries)}",
                f"transverse/metric-power/n{n}q{n - p}", True, extra,
            ))
        h = hermitian_matrix(rng, n, negative=rng.randrange(n))
        queries.append(_transverse_query(
            rng, metric_power_document(h, p), f"t{len(queries)}",
            f"transverse/indefinite/n{n}q{n - p}", False, extra,
        ))
    # One numeric quadric query per round.  The search takes 1-3 s depending
    # on the form and on its start points, and so seeded forms made this one
    # query set the spread between seeds; and the host's speed changes within
    # a query that long, which the speed probe around it cannot follow.  So
    # every round uses the same transverse form and search seed, drawn once
    # from a fixed stream (about 1 s).
    fixed = random.Random("quadric")
    queries.append(_transverse_query(
        fixed, quadric_form_document(fixed), f"t{len(queries)}",
        "transverse/quadric", True,
    ))
    return queries


_MIXES = {
    "cohomology-scan": _cohomology_round,
    "fresh-structures": _fresh_round,
    "metric-classify": _classify_round,
    "transverse-sampling": _transverse_round,
}

# fresh-classify: the per-presentation fixed costs of fresh-structures plus
# the form-power side of the program (classify-metric), which also builds a
# fresh presentation for every query.
WORKLOAD_MIXES = {
    "cohomology-scan": ("cohomology-scan",),
    "fresh-classify": ("fresh-structures", "metric-classify"),
    "transverse-sampling": ("transverse-sampling",),
}


def make_round(workload: str, seed: int, index: int) -> list[Query]:
    """Round ``index`` of a workload; rounds repeat after DISTINCT_ROUNDS."""
    if workload not in WORKLOAD_MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    index %= DISTINCT_ROUNDS[workload]
    return [
        query
        for mix in WORKLOAD_MIXES[workload]
        for query in _MIXES[mix](random.Random(f"{mix}/{seed}/{index}"), index)
    ]
