import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from geowb.cli import DEFAULT_SEED, main


def run(*args):
    return CliRunner().invoke(main, list(args))


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def rank3_structure(coefficient, backend="exact"):
    """d phi^1 = d phi^2 = 0, d phi^3 = coefficient * phi^12."""
    empty = {"n": 3, "backend": backend, "terms": []}
    term = {"holo": [1, 2], "anti": [], "im": "0", "re": coefficient}
    return {
        "n": 3,
        "backend": backend,
        "dphi": [empty, empty, {"n": 3, "backend": backend, "terms": [term]}],
    }


class TestExactInputsRefuseFloats:
    @pytest.mark.parametrize(
        "value",
        [0.5, {"re": 0.1, "im": 0}, [0.1, 0], [0, 0.25]],
        ids=["bare", "dict", "list", "list-im"],
    )
    def test_params(self, tmp_path, value):
        params = write_json(tmp_path / "params.json", {"A": value})
        result = run("catalog", "show", "fps6", "--params", params)
        assert result.exit_code == 2, result.output
        assert "cannot enter an exact computation" in result.output

    @pytest.mark.parametrize(
        "value", [{"re": "1/10", "im": 0}, ["1/10", 0]], ids=["dict", "list"]
    )
    def test_exact_params_still_read(self, tmp_path, value):
        params = write_json(tmp_path / "params.json", {"A": value})
        result = run("catalog", "show", "fps6", "--params", params)
        assert result.exit_code == 0, result.output
        assert "1/10" in result.output

    def test_psymplectic_params(self, tmp_path):
        params = write_json(tmp_path / "params.json", {"A": [0.5, 0]})
        result = run("psymplectic", "--family", "fps6", "--params", params)
        assert result.exit_code == 2, result.output

    def test_structure_file(self, tmp_path):
        exact = write_json(tmp_path / "exact.json", rank3_structure("1/10"))
        assert run("validate", exact).exit_code == 0
        rounded = write_json(tmp_path / "float.json", rank3_structure(0.1))
        result = run("validate", rounded)
        assert result.exit_code == 2, result.output
        assert "bad structure file" in result.output

    def test_float_backend_structure_reads_floats(self, tmp_path):
        path = write_json(tmp_path / "float.json", rank3_structure(0.1, "float"))
        assert run("validate", path).exit_code == 0


def test_malformed_structure_file_is_an_input_error(tmp_path):
    path = write_json(tmp_path / "bad.json", {"n": 3})
    result = run("validate", path)
    assert result.exit_code == 2, result.output
    assert "internal error" not in result.output


def test_backend_option_is_gone():
    result = run("--backend", "float", "catalog", "list")
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_float_refusal_does_not_advise_an_option(tmp_path):
    params = write_json(tmp_path / "params.json", {"A": 0.5})
    result = run("catalog", "show", "fps6", "--params", params)
    assert result.exit_code == 2
    assert "--backend" not in result.output
    assert '"p/q"' in result.output


def test_every_omega_a_help_example_runs():
    help_text = " ".join(run("transverse", "--help").output.split())
    start = help_text.index("--omega-a")
    examples = re.findall(r"'([^']+)'", help_text[start : help_text.index("--no-quadric")])
    assert examples
    for value in examples:
        result = run("--json", "transverse", f"--omega-a={value}")
        assert result.exit_code in (0, 1), (value, result.output)
        assert json.loads(result.output)["kind"]


def iwasawa_params(tmp_path):
    """fps6 with d phi^3 = phi^12: the Iwasawa manifold."""
    return write_json(tmp_path / "params.json", {"E": 1})


class TestBottChern:
    def test_float_entry_json(self):
        result = run("--json", "bc-dims", "s1-pi2")
        assert result.exit_code == 0, result.output
        dims = json.loads(result.output)["dimensions"]
        assert (dims["1,1"], dims["1,2"], dims["2,1"], dims["2,2"]) == (2, 1, 1, 2)
        assert dims["1,0"] == dims["0,1"] == 0

    def test_exact_key_json(self, tmp_path):
        result = run("--json", "bc-dims", "fps6", "--params", iwasawa_params(tmp_path))
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["structure"] == "fps6"
        assert (payload["dimensions"]["1,1"], payload["dimensions"]["2,1"]) == (4, 6)

    def test_text_table(self):
        result = run("bc-dims", "s1-pi2")
        assert result.exit_code == 0
        assert result.output.splitlines()[3].split() == ["1", "0", "2", "1", "0"]

    def test_unknown_structure(self):
        assert run("bc-dims", "no-such-key").exit_code == 2


class TestDdbarLemma:
    @pytest.mark.parametrize("p, q, code", [(1, 0, 0), (1, 1, 1), (2, 2, 1), (2, 1, 0)])
    def test_float_entry(self, p, q, code):
        result = run("--json", "ddbar-lemma", "s1-pi2", "--p", str(p), "--q", str(q))
        assert result.exit_code == code, result.output
        payload = json.loads(result.output)
        assert (payload["p"], payload["q"], payload["holds"]) == (p, q, code == 0)

    @pytest.mark.parametrize("p, q, code", [(1, 1, 0), (2, 1, 1)])
    def test_exact_key(self, tmp_path, p, q, code):
        params = iwasawa_params(tmp_path)
        result = run(
            "--json", "ddbar-lemma", "fps6", "--params", params, "--p", str(p), "--q", str(q)
        )
        assert result.exit_code == code, result.output
        assert json.loads(result.output)["holds"] is (code == 0)

    def test_text_output(self):
        result = run("ddbar-lemma", "s1-pi2", "--p", "1", "--q", "1")
        assert result.exit_code == 1
        assert "FAILS" in result.output


def rank3_document(*dphi):
    """d phi^i = the sum of the monomials (holo, anti) listed at position i."""
    return {
        "n": 3,
        "dphi": [
            {"n": 3, "terms": [{"holo": h, "anti": a, "re": "1", "im": "0"} for h, a in monos]}
            for monos in dphi
        ],
    }


# structures the calculus cannot serve: d phi^3 = phibar^{12} has a (0,2)
# part, and d phi = (phi^{23}, phi^{12}, 0) has d d phi^1 = phi^{123}
UNSERVED = {
    "not-integrable": (rank3_document([], [], [([], [1, 2])]), "not integrable"),
    "d-squared-nonzero": (
        rank3_document([([2, 3], [])], [([1, 2], [])], []),
        "d*d = 0",
    ),
}


@pytest.mark.parametrize("kind", sorted(UNSERVED))
class TestUnservedStructuresAreInputErrors:
    @staticmethod
    def refused(result, message=""):
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output

    def test_bc_dims(self, tmp_path, kind):
        doc, message = UNSERVED[kind]
        result = run("bc-dims", write_json(tmp_path / "s.json", doc))
        self.refused(result, message)

    @pytest.mark.parametrize("p, q", [(0, 0), (1, 1)])
    def test_ddbar_lemma(self, tmp_path, kind, p, q):
        doc, message = UNSERVED[kind]
        path = write_json(tmp_path / "s.json", doc)
        result = run("ddbar-lemma", path, "--p", str(p), "--q", str(q))
        self.refused(result, message)

    def test_classify_metric(self, tmp_path, kind):
        doc, message = UNSERVED[kind]
        result = run("classify-metric", write_json(tmp_path / "s.json", doc))
        self.refused(result, message)

    def test_validate_reports_without_refusing(self, tmp_path, kind):
        doc, _ = UNSERVED[kind]
        result = run("--json", "validate", write_json(tmp_path / "s.json", doc))
        report = json.loads(result.output)
        assert (report["integrable"], report["ok"]) == (
            kind != "not-integrable", kind != "d-squared-nonzero"
        )
        assert result.exit_code == (0 if report["ok"] else 1)


@pytest.mark.parametrize("p, q", [(4, 0), (1, -1)])
def test_ddbar_lemma_bidegree_out_of_range_is_an_input_error(p, q):
    result = run("ddbar-lemma", "s1-pi2", "--p", str(p), "--q", str(q))
    assert result.exit_code == 2, result.output
    assert "out of range" in result.output


def test_catalog_list():
    from geowb import catalog

    result = run("catalog", "list")
    assert result.exit_code == 0, result.output
    assert [line.split()[0] for line in result.output.splitlines()] == catalog.keys()
    assert "[params: gamma, beta]" in result.output
    payload = json.loads(run("--json", "catalog", "list").output)["catalog"]
    assert [entry["key"] for entry in payload] == catalog.keys()


class TestClassifyMetric:
    def test_exact_key_has_no_tolerance(self):
        result = run("--json", "--epsilon", "1e-6", "classify-metric", "nakamura-iv-6")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["tolerance"] is None and payload["notes"] == []
        assert payload["flags"]["balanced"] and not payload["flags"]["kahler"]

    @pytest.mark.parametrize("epsilon, code", [("1e-15", 0), ("1e-12", 2)])
    def test_positive_definiteness_is_decided_once_at_epsilon(self, tmp_path, epsilon, code):
        # diag(1, 1, 1e-13) is positive definite within 1e-15, not within 1e-12
        h = [[{"re": (1e-13 if j == 2 else 1.0) if j == k else 0.0, "im": 0.0}
              for k in range(3)] for j in range(3)]
        path = write_json(tmp_path / "m.json", {"n": 3, "backend": "float", "H": h})
        result = run("--epsilon", epsilon, "classify-metric", "s1-pi2", "--metric", path)
        assert result.exit_code == code, result.output
        assert ("metric is not positive definite" in result.output) == (code == 2)

    def test_float_key_names_the_epsilon(self):
        result = run("--json", "--epsilon", "1e-9", "classify-metric", "s1-pi2")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["tolerance"] == 1e-9
        assert "absolute tolerance 1e-09" in payload["notes"][0]


class TestMetricFileMismatch:
    @staticmethod
    def identity(tmp_path, n, backend):
        one, zero = ({"re": "1", "im": "0"}, {"re": "0", "im": "0"}) if backend == "exact" \
            else ({"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0})
        rows = [[one if j == k else zero for k in range(n)] for j in range(n)]
        return write_json(tmp_path / f"h{n}{backend}.json", {"n": n, "backend": backend, "H": rows})

    @pytest.mark.parametrize("n, backend", [(4, "exact"), (3, "float")])
    def test_classify_metric(self, tmp_path, n, backend):
        metric = self.identity(tmp_path, n, backend)
        result = run("classify-metric", "fps6", "--metric", metric)
        assert result.exit_code == 2, result.output
        assert f"metric is rank {n} on the {backend} backend" in result.output

    def test_classify_metric_float_key(self, tmp_path):
        result = run("classify-metric", "s1-pi2", "--metric", self.identity(tmp_path, 3, "exact"))
        assert result.exit_code == 2, result.output
        assert run("classify-metric", "s1-pi2", "--metric",
                   self.identity(tmp_path, 3, "float")).exit_code == 0

    @pytest.mark.parametrize("n, backend", [(4, "exact"), (3, "float")])
    def test_psymplectic(self, tmp_path, n, backend):
        params = iwasawa_params(tmp_path)
        result = run("psymplectic", "--family", "fps6", "--params", params,
                     "--metric", self.identity(tmp_path, n, backend))
        assert result.exit_code == 2, result.output
        assert "internal error" not in result.output
        assert run("psymplectic", "--family", "fps6", "--params", params, "--metric",
                   self.identity(tmp_path, 3, "exact")).exit_code in (0, 1)


FPS6_MEMBER = {"A": 1, "B": "1i", "C": 2, "D": -1, "E": "1+1i", "L": 1, "M": "1i"}
FT8_MEMBER = {"a1": 1, "a2": "1+1i", "a3": 1, "a6": 2, "a8": -1, "a12": "1/2", "L3": "1i",
              "M2": 1}
ST10_MEMBER = {"a1": "1-1i", "a2": 1, "a3": "2i", "a4": 2, "b1": 1, "b2": "1/2", "b4": -1,
               "c1": 3, "c4": "1i", "d4": 1, "L3": 1, "M2": "1i", "N1": 2, "S2": -1, "S3": "1/3"}


def metric_file(tmp_path, n=3):
    """The identity metric of rank n, or for n = 3 a positive-definite metric
    with H12 and H23 nonzero."""
    from geowb.metrics import HermitianMetric
    from geowb.scalars import GaussRational as G

    metric = HermitianMetric.identity(n)
    if n == 3:
        h12, h23 = G(Fraction(1, 2), Fraction(1, 3)), G(0, Fraction(1, 4))
        metric = HermitianMetric([[2, h12, 0], [h12.conjugate(), 3, h23],
                                  [0, h23.conjugate(), 1]])
    return write_json(tmp_path / f"metric{n}.json", metric.to_json())


class TestPsymplectic:
    """Members of each family, closed and not, with the printed condition
    pinned; the closing coefficient solves condition = rest - N conj(E)
    (fps6) or rest - conj(N or P) a1 (ft8, st10).  fps6 runs on a
    non-diagonal metric."""

    @pytest.mark.parametrize("family, params, extra, code, condition", [
        ("ft8", FT8_MEMBER, {}, 1, "1+27/8i"),
        ("ft8", FT8_MEMBER, {"N": "1-27/8i"}, 0, "0"),
        ("st10", ST10_MEMBER, {}, 1, "-5/3+3i"),
        ("st10", ST10_MEMBER, {"P": "-7/3-2/3i"}, 0, "0"),
        ("fps6", FPS6_MEMBER, {}, 1, "55/16+1i"),
        ("fps6", FPS6_MEMBER, {"N": "39/32+71/32i"}, 0, "0"),
    ], ids=["ft8-open", "ft8-closed", "st10-open", "st10-closed", "fps6-open", "fps6-closed"])
    def test_members(self, tmp_path, family, params, extra, code, condition):
        args = ["psymplectic", "--family", family,
                "--params", write_json(tmp_path / "params.json", {**params, **extra})]
        if family == "fps6":
            args += ["--metric", metric_file(tmp_path)]
        result = run(*args)
        assert result.exit_code == code, result.output
        p = {"fps6": 2, "ft8": 3, "st10": 4}[family]
        assert result.output.splitlines() == [
            f"family {family}, p = {p}",
            f"{p}-symplectic: {'YES' if code == 0 else 'NO'} (closedness condition = "
            f"{condition}; transversality: metric-power certificate)",
            "some lambda closes the ansatz: True",
        ]
        payload = json.loads(run("--json", *args).output)
        assert payload["closed"] == (code == 0)
        assert payload["p"] == p and payload["closure"]["consistent"]

    @pytest.mark.parametrize("family, n, params", [("ft8", 4, FT8_MEMBER),
                                                   ("st10", 5, ST10_MEMBER)])
    def test_a_metric_file_is_refused_outside_fps6(self, tmp_path, family, n, params):
        result = run("psymplectic", "--family", family,
                     "--params", write_json(tmp_path / "params.json", params),
                     "--metric", metric_file(tmp_path, n))
        assert result.exit_code == 2, result.output
        assert f"the rank-{n} family condition is for the diagonal metric" in result.output


class TestObstruct:
    def test_library(self):
        result = run("obstruct", "--library", "nakamura-iv-6-p2")
        assert result.exit_code == 0, result.output
        assert "no 2-symplectic structure" in result.output

    def test_cert_file(self, tmp_path):
        from geowb import catalog

        key, cert = catalog.certificate_library()["nakamura-v-5-p3"]
        doc = dict(cert.to_json(), structure=key)
        assert run("obstruct", "--cert", write_json(tmp_path / "c.json", doc)).exit_code == 0
        doc["decomposition"][0]["coefficient"] = {"re": "1", "im": "0"}  # wrong sign
        result = run("obstruct", "--cert", write_json(tmp_path / "bad.json", doc))
        assert result.exit_code == 1, result.output
        assert "mismatch" in result.output

    def test_search(self):
        result = run("--json", "obstruct", "--search", "--structure", "nakamura-iv-6", "--p", "2")
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["found"]) == 6

    @pytest.mark.parametrize("mode", ["d", "delbar-del"])
    def test_search_verifies_each_candidate_once(self, monkeypatch, mode):
        from geowb import catalog, existence

        calls = []
        original = existence._check_certificate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(existence, "_check_certificate", counting)
        found = existence.certificate_search(catalog.get("nakamura-iv-6"), 2, mode)
        in_search = len(calls)
        assert in_search > 0
        result = run("obstruct", "--search", "--structure", "nakamura-iv-6", "--p", "2",
                     "--mode", mode)
        assert result.exit_code == (0 if found else 1), result.output
        assert len(calls) == 2 * in_search
        kind = "symplectic" if mode == "d" else "pluriclosed"
        lines = result.output.splitlines()[1:]
        assert len(lines) == len(found)
        assert all(line.endswith(f"no 2-{kind} structure exists at the invariant level")
                   for line in lines)

    def test_epsilon_reaches_the_search(self):
        args = ("--json", "obstruct", "--search", "--structure", "s1-pi2", "--p", "2")
        default = run(*args)
        assert default.exit_code == 0, default.output
        assert len(json.loads(default.output)["found"]) == 2
        loose = run("--epsilon", "10", *args)
        assert loose.exit_code == 1, loose.output
        assert json.loads(loose.output)["found"] == []

    @pytest.mark.parametrize("p", ["9", "4", "0", "-1"])
    def test_search_degree_out_of_range_is_an_input_error(self, p):
        result = run("obstruct", "--search", "--structure", "nakamura-iv-6", "--p", p)
        assert result.exit_code == 2, result.output
        assert "out of range 1..3 for rank 4" in result.output
        assert "candidates found" not in result.output

    @pytest.mark.parametrize("mode", ["d", "delbar-del"])
    def test_search_at_degree_n_minus_1_is_a_negative_answer(self, mode):
        result = run("obstruct", "--search", "--structure", "nakamura-iv-6", "--p", "3",
                     "--mode", mode)
        assert result.exit_code == 1, result.output
        assert "candidates found: 0" in result.output

    @pytest.mark.parametrize("sources", [
        ["--library", "nakamura-iv-6-p2", "--search"],
        ["--cert", "CERT", "--library", "nakamura-iv-6-p2"],
        ["--cert", "CERT", "--search"],
        ["--cert", "CERT", "--library", "nakamura-iv-6-p2", "--search"],
    ], ids=["library-search", "cert-library", "cert-search", "all-three"])
    def test_more_than_one_source_is_an_input_error(self, tmp_path, sources):
        from geowb import catalog

        key, cert = catalog.certificate_library()["nakamura-iv-6-p2"]
        path = write_json(tmp_path / "c.json", dict(cert.to_json(), structure=key))
        args = [path if a == "CERT" else a for a in sources]
        result = run("obstruct", *args, "--structure", "nakamura-iv-6", "--p", "1",
                     "--budget", "0")
        assert result.exit_code == 2, result.output
        assert "give one of --cert FILE, --library NAME and --search" in result.output
        assert "certificate valid" not in result.output

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_search_budget_below_one_is_an_input_error(self, budget):
        result = run("obstruct", "--search", "--structure", "nakamura-iv-6", "--p", "2",
                     "--budget", budget)
        assert result.exit_code == 2, result.output
        assert "--budget must be at least 1" in result.output

    @pytest.mark.parametrize("source", ["library", "cert"])
    @pytest.mark.parametrize("options", [
        ["--p", "3"], ["--mode", "d"], ["--budget", "200"],
        ["--p", "3", "--mode", "delbar-del", "--budget", "0"],
    ], ids=["p", "mode", "budget", "all-three"])
    def test_search_options_without_search_are_an_input_error(self, tmp_path, source, options):
        from geowb import catalog

        key, cert = catalog.certificate_library()["nakamura-iv-6-p2"]
        path = write_json(tmp_path / "c.json", dict(cert.to_json(), structure=key))
        args = ["--library", "nakamura-iv-6-p2"] if source == "library" else ["--cert", path]
        result = run("obstruct", *args, *options)
        assert result.exit_code == 2, result.output
        assert "--p, --mode and --budget apply to --search only" in result.output
        assert "certificate valid" not in result.output

    def test_refuses_a_structure_that_is_not_unimodular(self, tmp_path):
        from geowb import catalog

        # d(phi^{2345} ^ phibar^{12345}) = 2 vol on nakamura-v-11
        message = "not unimodular: d(phi^{2345}^phibar^{12345})"
        result = run("obstruct", "--search", "--structure", "nakamura-v-11", "--p", "2")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "candidates found" not in result.output
        cert = catalog.certificate_library()["nakamura-v-5-p3"][1]
        path = write_json(tmp_path / "c.json", dict(cert.to_json(), structure="nakamura-v-11"))
        result = run("obstruct", "--cert", path)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "certificate valid" not in result.output


@pytest.mark.parametrize("a, code", [("1+1i", 0), ("2i", 1), ("3/2-3/2i", 1), ("0", 0)])
def test_complex_omega_a(a, code):
    result = run("--json", "transverse", f"--omega-a={a}")
    assert result.exit_code == code, result.output
    assert json.loads(result.output)["certificate"] == "omega-a-family"


class TestTransverseQuadricOption:
    @staticmethod
    def rank3_omega(tmp_path):
        """The (1,1)-form (i/2) sum_j phi^j ^ phibar^j on rank 3."""
        terms = [{"holo": [j], "anti": [j], "re": "0", "im": "1/2"} for j in (1, 2, 3)]
        return write_json(tmp_path / "omega.json", {"n": 3, "terms": terms})

    @pytest.mark.parametrize("flag", [[], ["--no-quadric"]], ids=["default", "no-quadric"])
    def test_an_ineligible_form_is_sampled(self, tmp_path, flag):
        form = self.rank3_omega(tmp_path)
        result = run("--json", "--samples", "50", "transverse", "--form", form, *flag)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["path"] == "sampling"

    @pytest.mark.parametrize(
        "flag, path", [([], "quadric"), (["--no-quadric"], "sampling")],
        ids=["default-quadric", "--no-quadric-sampling"],
    )
    def test_an_eligible_form(self, tmp_path, flag, path):
        from geowb.forms import form_to_json
        from geowb.positivity import omega_a_form

        form = write_json(tmp_path / "omega1.json", form_to_json(omega_a_form(1)))
        result = run("--json", "--samples", "50", "transverse", "--form", form, *flag)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["path"] == path

    @pytest.mark.parametrize("flag", [[], ["--no-quadric"]], ids=["default", "no-quadric"])
    def test_a_form_outside_the_family_is_sampled(self, tmp_path, flag):
        from geowb.forms import form_to_json, wedge
        from geowb.metrics import HermitianMetric, form_power, fundamental_form
        from geowb.positivity import omega_basis_form

        # omega^2 of the identity metric (I/2) plus 1/4 at the spots (1,2)
        # and (2,1), which lie off the Om_a pairs
        om1, om2 = omega_basis_form(1), omega_basis_form(2)
        cross = wedge(om1, om2.conjugate()) + wedge(om2, om1.conjugate())
        psi = form_power(fundamental_form(HermitianMetric.identity(4)), 2)
        psi = psi + cross.scale(Fraction(1, 4))
        form = write_json(tmp_path / "psi.json", form_to_json(psi))
        result = run("--json", "--samples", "50", "transverse", "--form", form, *flag)
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert out["path"] == "sampling" and out["kind"] == "not-falsified"

    def test_a_multiple_of_omega_0_is_decided_exactly(self, tmp_path):
        from geowb.forms import form_to_json
        from geowb.metrics import HermitianMetric, form_power, fundamental_form

        omega2 = form_power(fundamental_form(HermitianMetric.identity(4)), 2)
        form = write_json(tmp_path / "omega2.json", form_to_json(omega2))
        result = run("--json", "transverse", "--form", form)
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert out["path"] == "quadric" and out["certificate"] == "omega-a-family"

    def test_form_and_omega_a_together_are_an_input_error(self, tmp_path):
        result = run("transverse", "--omega-a", "1", "--form", self.rank3_omega(tmp_path))
        assert result.exit_code == 2, result.output
        assert "not both" in result.output

    def test_a_non_real_eligible_form_is_an_input_error(self, tmp_path):
        terms = [{"holo": [1, 3], "anti": [2, 4], "re": "1", "im": "0"}]
        form = write_json(tmp_path / "psi.json", {"n": 4, "terms": terms})
        result = run("transverse", "--form", form)
        assert result.exit_code == 2, result.output
        assert "bad form file" in result.output and "psi must be real" in result.output

    def test_a_sampled_form_is_validated_once(self, tmp_path, monkeypatch):
        from geowb.forms import InvariantForm

        calls = []
        original = InvariantForm.is_real

        def counting(self, tol=None):
            calls.append(self)
            return original(self, tol)

        monkeypatch.setattr(InvariantForm, "is_real", counting)
        result = run("--samples", "5", "transverse", "--form", self.rank3_omega(tmp_path))
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_a_numeric_failure_in_sampling_is_internal(self, tmp_path, monkeypatch):
        import numpy as np

        from geowb import cli

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(cli.positivity, "transversality_sample", broken)
        result = run("transverse", "--form", self.rank3_omega(tmp_path))
        assert result.exit_code == 3, result.output

    def test_structure_option_is_gone(self):
        result = run("transverse", "--omega-a", "1", "--structure", "nakamura-iv-1")
        assert result.exit_code == 2
        assert "No such option" in result.output


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"terms": []}, "'n'"),
        ({"n": 2, "terms": [{"holo": [1], "anti": [1], "re": 0.5, "im": 0}]},
         "cannot enter an exact computation"),
        ({"n": 2, "terms": [{"holo": [1], "anti": [2], "re": "1", "im": "0"}]},
         "psi must be real"),
        ({"n": 2, "terms": [{"holo": [1], "anti": [1], "re": "0", "im": "1/2"},
                            {"holo": [1, 2], "anti": [1, 2], "re": "1", "im": "0"}]},
         "must be homogeneous"),
    ],
    ids=["missing-n", "float", "not-real", "mixed-bidegree"],
)
def test_bad_transverse_form_is_an_input_error(tmp_path, doc, message):
    result = run("transverse", "--form", write_json(tmp_path / "form.json", doc))
    assert result.exit_code == 2, result.output
    assert "bad form file" in result.output and message in result.output


def test_every_public_name_resolves():
    import geowb

    missing = [name for name in geowb.__all__ if not hasattr(geowb, name)]
    assert missing == []
    assert len(set(geowb.__all__)) == len(geowb.__all__)


def fresh_python(code, *args):
    """stdout of ``code`` run in a new interpreter that imports this geowb."""
    from pathlib import Path

    import geowb

    env = {**os.environ, "PYTHONPATH": str(Path(geowb.__file__).parents[1])}
    env.pop("GEOWB_SEED", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


# the top-level packages of sys.modules among numpy and scipy
LOADED = "sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})"


def test_cli_import_loads_no_scipy():
    # nor numpy: only the float sampler and the float backend import it
    for module in ("geowb", "geowb.cli"):
        assert fresh_python(f"import sys, {module}; print({LOADED})").strip() == "[]", module


def test_exact_commands_run_without_numpy(tmp_path):
    params = write_json(tmp_path / "params.json", {"E": 1, "N": 1})
    form = TestTransverseQuadricOption.rank3_omega(tmp_path)
    exact = [
        ["validate", "nakamura-iv-1"],
        ["bc-dims", "nakamura-v-2"],
        ["--json", "ddbar-lemma", "nakamura-v-2", "--p", "1", "--q", "1"],
        ["classify-metric", "nakamura-iv-2"],
        ["psymplectic", "--family", "fps6", "--params", params],
        ["obstruct", "--search", "--structure", "nakamura-iv-6", "--p", "2"],
    ]
    numeric = [
        ["bc-dims", "s1-pi2"],
        ["--json", "--samples", "80", "--seed", "7", "transverse", "--form", form],
    ]
    code = f"""
import json, sys
from click.testing import CliRunner
from geowb.cli import main
exact, numeric = json.loads(sys.argv[1])
results = [CliRunner().invoke(main, argv) for argv in exact]
before = {LOADED}
out = [CliRunner().invoke(main, argv) for argv in numeric]
print(json.dumps({{"exact": [r.exit_code for r in results], "before": before,
                  "after": {LOADED}, "numeric": [[r.exit_code, r.stdout] for r in out]}}))
"""
    got = json.loads(fresh_python(code, json.dumps([exact, numeric])))
    assert all(c in (0, 1) for c in got["exact"]), got["exact"]
    assert got["before"] == []
    assert got["after"] == ["numpy"]
    # the same invocations where numpy was loaded before geowb ran
    import numpy  # noqa: F401

    expected = [[r.exit_code, r.stdout] for r in (run(*argv) for argv in numeric)]
    assert got["numeric"] == expected


@pytest.mark.parametrize("args, env", [
    (["--seed", "-1"], None),
    ([], "abc"),
    ([], "-3"),
])
def test_a_bad_seed_is_a_usage_error(monkeypatch, args, env):
    if env is None:
        monkeypatch.delenv("GEOWB_SEED", raising=False)
    else:
        monkeypatch.setenv("GEOWB_SEED", env)
    for command in (["validate", "nakamura-iv-1"], ["transverse", "--omega-a", "1"]):
        result = run(*args, *command)
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output and "internal error" not in result.output
    if env is not None:
        assert "GEOWB_SEED" in result.output


def test_seed_falls_back_to_the_environment(monkeypatch, tmp_path):
    form = TestTransverseQuadricOption.rank3_omega(tmp_path)

    def seed(*args):
        result = run("--json", "--samples", "10", *args, "transverse", "--form", form)
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout)["seed"]

    monkeypatch.setenv("GEOWB_SEED", "11")
    assert seed() == 11
    assert seed("--seed", "0") == 0
    monkeypatch.setenv("GEOWB_SEED", "")
    assert seed() == DEFAULT_SEED


def test_internal_error_exits_3(monkeypatch):
    from geowb import cli

    def broken(pres):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.existence, "bott_chern_dimensions", broken)
    result = run("bc-dims", "nakamura-iv-1")
    assert result.exit_code == 3
    assert "internal error: RuntimeError: boom" in result.output


def test_invocations_leave_no_captured_stream_alive():
    # click.echo without a file caches the current stdout or stderr in a
    # weak-key dictionary whose value can be the key itself, which keeps
    # every stream a CliRunner captures into alive
    import gc

    from click.testing import _NamedTextIOWrapper

    def alive():
        gc.collect()
        return sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())

    before = alive()
    runner = CliRunner()
    for _ in range(5):
        assert runner.invoke(main, ["--json", "catalog", "list"]).exit_code == 0
        assert runner.invoke(main, ["catalog", "show", "fps6"]).exit_code == 0
        assert runner.invoke(main, ["bc-dims", "nakamura-iv-1"]).exit_code == 0
        assert runner.invoke(main, ["bc-dims", "no-such-key"]).exit_code == 2
    assert alive() <= before
