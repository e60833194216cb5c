"""Command-line front end.

Exit codes: 0 the check ran and holds, 1 the check ran and fails,
2 usage or input error (a structure the computation cannot serve
included), 3 internal error.  Randomised reports embed
seed and sample count; identical seed and configuration reproduce them
bit-for-bit.  The seed falls back to the GEOWB_SEED environment variable,
then to a fixed default; a negative or non-integer seed is a usage error.
numpy loads only where it runs: in ``transverse`` when it samples or
builds an Om_a witness, and in the float linear algebra of a float-backend
structure or metric (s1-pi2).  Exact commands run without it.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import click

from . import catalog as cat
from . import existence, metrics, positivity, scalars
from .forms import form_from_json
from .lie import PresentationError, presentation_from_json, presentation_to_json
from .scalars import EXACT, GaussRational

DEFAULT_SEED = 20240


@dataclass
class RunConfig:
    epsilon: float = scalars.DEFAULT_EPS
    samples: int = 10000
    seed: int = DEFAULT_SEED
    as_json: bool = False


class InputError(Exception):
    """Bad user input (unparsable file, unknown key): exit code 2."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _parse_param_value(value, backend: str):
    """Read a number, a string such as "3/2" or "1-2i", [re, im] or
    {"re": .., "im": ..} into the backend's field.

    On the exact backend a JSON float is refused, alone or as a part.
    """
    if isinstance(value, bool):
        raise InputError(f"boolean is not a scalar: {value}")
    if isinstance(value, list):
        if len(value) != 2:
            raise InputError(f"scalar list must be [re, im], got {value}")
        value = {"re": value[0], "im": value[1]}
    field = scalars.field(backend)
    read = {str: field.parse, dict: field.from_json}.get(type(value), field.coerce)
    try:
        return read(value)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse scalar {value!r}: {exc}") from exc


def _load_params(path: str | None, backend: str) -> dict:
    if path is None:
        return {}
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise InputError("params file must be a JSON object of named scalars")
    return {k: _parse_param_value(v, backend) for k, v in raw.items()}


def _resolve_structure(spec: str, params_path: str | None = None):
    """A structure argument is an existing JSON file or a catalog key."""
    if os.path.exists(spec):
        obj = _load_json(spec)
        try:
            return presentation_from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad structure file {spec}: {exc}") from exc
    if spec in cat.CATALOG:
        entry = cat.entry(spec)
        params = _load_params(params_path, entry.backend)
        try:
            return entry.instantiate(**params)
        except (ValueError, TypeError) as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"{spec!r} is neither a readable file nor a catalog key")


def _load_metric(spec: str, pres) -> metrics.HermitianMetric:
    if spec == "diagonal" or spec == "identity":
        return metrics.HermitianMetric.identity(pres.n, pres.backend)
    obj = _load_json(spec)
    try:
        metric = metrics.HermitianMetric.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad metric file: {exc}") from exc
    if (metric.n, metric.backend) != (pres.n, pres.backend):
        raise InputError(
            f"metric is rank {metric.n} on the {metric.backend} backend, "
            f"the structure rank {pres.n} on the {pres.backend} backend"
        )
    return metric


def _emit(config: RunConfig, payload: dict, text_lines):
    if config.as_json:
        click.echo(json.dumps(payload, indent=2, default=str), file=sys.stdout)
    else:
        for line in text_lines:
            click.echo(line, file=sys.stdout)


def _guard(func):
    """Map exceptions to the documented exit codes."""
    import functools

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (InputError, PresentationError) as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except click.ClickException:
            raise
        except SystemExit:
            raise
        except BrokenPipeError:
            sys.exit(0)
        except Exception as exc:  # internal failure
            click.echo(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.exit(3)

    return wrapper


@click.group()
@click.option("--epsilon", type=float, default=scalars.DEFAULT_EPS,
              show_default=True, help="absolute tolerance on the float backend")
@click.option("--samples", type=int, default=10000, show_default=True,
              help="sample count for randomised transversality checks")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              envvar="GEOWB_SEED", show_envvar=True, show_default=True, help="RNG seed")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.pass_context
def main(ctx, epsilon, samples, seed, as_json):
    """Invariant-form calculus on complex nilmanifolds and solvmanifolds."""
    if samples <= 0:
        raise click.UsageError("--samples must be positive")
    if epsilon <= 0:
        raise click.UsageError("--epsilon must be positive")
    ctx.obj = RunConfig(
        epsilon=epsilon, samples=samples, seed=seed, as_json=as_json
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@main.group("catalog")
def catalog_group():
    """List or print the built-in structure presentations."""


@catalog_group.command("list")
@click.pass_obj
@_guard
def catalog_list(config):
    lines = []
    payload = []
    for key in cat.keys():
        entry = cat.entry(key)
        params = ", ".join(p.name for p in entry.params) or "-"
        lines.append(f"{key:18s} {entry.summary}  [params: {params}]")
        payload.append({
            "key": key,
            "summary": entry.summary,
            "params": [p.name for p in entry.params],
            "provenance": entry.provenance,
        })
    _emit(config, {"catalog": payload}, lines)


@catalog_group.command("show")
@click.argument("key")
@click.option("--params", "params_path", default=None, type=str,
              help="JSON file of parameter values")
@click.pass_obj
@_guard
def catalog_show(config, key, params_path):
    if key not in cat.CATALOG:
        raise InputError(f"unknown catalog key {key!r}")
    pres = _resolve_structure(key, params_path)
    doc = presentation_to_json(pres)
    doc["provenance"] = cat.entry(key).provenance
    click.echo(json.dumps(doc, indent=2), file=sys.stdout)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@main.command()
@click.argument("structure")
@click.option("--params", "params_path", default=None, type=str)
@click.option("--exhaustive", is_flag=True,
              help="also check d(d m) = 0 on every monomial")
@click.pass_obj
@_guard
def validate(config, structure, params_path, exhaustive):
    """Check d*d = 0 and integrability for a structure file or catalog key."""
    pres = _resolve_structure(structure, params_path)
    report = pres.validate(tol=config.epsilon, exhaustive=exhaustive)
    lines = [
        f"structure:   {pres.name or structure}",
        f"d*d = 0:     {'pass' if report.ok else 'FAIL'}",
        f"integrable:  {report.integrable}",
        f"max |d(d phi^i)| residual: {report.max_residual():.3e}",
    ]
    for i, residual in report.residual_summary().items():
        lines.append(f"  residual d(d phi^{i}) = {residual}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    _emit(config, report.to_json(), lines)
    sys.exit(0 if report.ok else 1)


# ---------------------------------------------------------------------------
# classify-metric
# ---------------------------------------------------------------------------


@main.command("classify-metric")
@click.argument("structure")
@click.option("--metric", "metric_spec", default="diagonal", show_default=True,
              help="metric JSON file, or 'diagonal' for the identity matrix")
@click.option("--params", "params_path", default=None, type=str)
@click.pass_obj
@_guard
def classify_metric(config, structure, metric_spec, params_path):
    """Evaluate the special-metric flags for a presentation and metric."""
    pres = _resolve_structure(structure, params_path)
    metric = _load_metric(metric_spec, pres)
    # the one positive-definiteness decision, at --epsilon
    if not metric.is_positive_definite(config.epsilon):
        raise InputError("metric is not positive definite")
    report = metrics.classify(pres, metric, config.epsilon)
    lines = [f"structure: {pres.name or structure}"]
    for flag, value in report.flags.items():
        lines.append(f"{flag:20s} {str(value):5s}  {report.evidence[flag]}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(config, report.to_json(), lines)


# ---------------------------------------------------------------------------
# transverse
# ---------------------------------------------------------------------------


@main.command()
@click.option("--form", "form_path", default=None, type=str,
              help="JSON file with the (p,p)-form to test")
@click.option("--omega-a", "omega_a", default=None, type=str,
              help="test the rank-4 family member Om_a with this exact a "
                   "(an integer, p/q, an exact decimal or a Gaussian "
                   "rational x+yi), e.g. '3/2', '-5/2', '0.25' or '1+1i'")
@click.option("--no-quadric", "no_quadric", is_flag=True,
              help="always sample; by default a rank-4 (2,2)-form that is a "
                   "positive multiple of an Om_a is decided from its "
                   "coefficients, and any other form is sampled")
@click.pass_obj
@_guard
def transverse(config, form_path, omega_a, no_quadric):
    """Transversality of a real (p,p)-form: the exact Om_a rule or sampling."""
    if omega_a is not None:
        if form_path is not None:
            raise InputError("give --form FILE or --omega-a VALUE, not both")
        a = _parse_param_value(omega_a, EXACT)
        verdict = positivity.omega_a_transversality(positivity.omega_a_form(a))
        lines = [
            f"quadric family member, a = {scalars.field(EXACT).format(a)}",
            f"verdict: {verdict.kind}"
            + (f" ({verdict.certificate})" if verdict.certificate else ""),
        ]
        _emit(config, verdict.to_json(), lines)
        sys.exit(0 if verdict.positive else 1)

    if form_path is None:
        raise InputError("provide --form FILE or --omega-a VALUE")
    try:
        form = form_from_json(_load_json(form_path))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad form file {form_path}: {exc}") from exc
    verdict = None
    if form.n == 4 and form.bidegree() == (2, 2) and not no_quadric:
        # only a real form is recognised, so this needs no pp_degree check
        verdict = positivity.omega_a_transversality(form)
        path = "quadric"
    if verdict is None:
        try:
            verdict = positivity.transversality_sample(
                form, samples=config.samples, seed=config.seed
            )
        except positivity.PPFormError as exc:
            raise InputError(f"bad form file {form_path}: {exc}") from exc
        path = "sampling"
    lines = [
        f"path: {path}",
        f"verdict: {verdict.kind}",
    ]
    if verdict.min_value is not None:
        lines.append(f"minimum over {verdict.samples} samples: {verdict.min_value:.6e}")
    if verdict.value is not None:
        lines.append(f"witness value: {verdict.value:.6e}")
    payload = verdict.to_json()
    payload["path"] = path
    _emit(config, payload, lines)
    sys.exit(0 if verdict.positive else 1)


# ---------------------------------------------------------------------------
# psymplectic
# ---------------------------------------------------------------------------

# each family's p, ansatz and condition monomial M live in existence.FAMILIES;
# its structure letters are the parameters of its catalogue entry and its free
# coefficients the ansatz names.  One d Psi gives both the verdict and the
# printed condition, its coefficient of M.


@main.command()
@click.option("--family", required=True, type=click.Choice(sorted(existence.FAMILIES)))
@click.option("--params", "params_path", required=True, type=str,
              help="JSON file with structure letters and free coefficients")
@click.option("--metric", "metric_spec", default="diagonal", show_default=True)
@click.pass_obj
@_guard
def psymplectic(config, family, params_path, metric_spec):
    """Closedness of the family ansatz Psi = lambda + omega^p + conj(lambda)."""
    ansatz = existence.FAMILIES[family]
    p = ansatz.p
    letter_names = [param.name for param in cat.entry(family).params]
    params = _load_params(params_path, EXACT)
    unknown = set(params) - set(letter_names) - set(ansatz.names)
    if unknown:
        raise InputError(f"unknown parameters: {sorted(unknown)}")

    pres = cat.get(family, **{k: params.get(k, GaussRational(0)) for k in letter_names})
    metric = _load_metric(metric_spec, pres)
    # the one positive-definiteness decision (an exact metric: no tolerance)
    if not metric.is_positive_definite():
        raise InputError("metric is not positive definite")
    if not ansatz.any_metric and metric_spec not in ("diagonal", "identity"):
        raise InputError(f"the rank-{pres.n} family condition is for the diagonal metric")

    fixed = metrics.form_power(metrics.fundamental_form(metric), p)
    solution = existence.closure_system(pres, p, fixed, ansatz.basis, ansatz.names)
    residual = solution.closure_residual(
        [params.get(name, GaussRational(0)) for name in ansatz.names]
    )
    condition = residual.coeff(ansatz.condition_at)
    closed = residual.is_zero()
    exact = scalars.field(EXACT)

    verdict = "YES" if closed else "NO"
    lines = [
        f"family {family}, p = {p}",
        f"{p}-symplectic: {verdict} "
        f"(closedness condition = {exact.format(condition)}; "
        "transversality: metric-power certificate)",
        f"some lambda closes the ansatz: {solution.consistent}",
    ]
    payload = {
        "family": family,
        "p": p,
        "condition": exact.to_json(condition),
        "closed": closed,
        "solvable": solution.consistent,
        "transversality": positivity.certified("metric-power").to_json(),
        "closure": solution.to_json(),
    }
    _emit(config, payload, lines)
    sys.exit(0 if closed else 1)


# ---------------------------------------------------------------------------
# obstruct
# ---------------------------------------------------------------------------


@main.command()
@click.option("--cert", "cert_path", default=None, type=str,
              help="certificate JSON file")
@click.option("--structure", "structure", default=None, type=str,
              help="structure file or catalog key (overrides the certificate's)")
@click.option("--library", "library_name", default=None, type=str,
              help="use a named certificate from the built-in library")
@click.option("--search", is_flag=True, help="brute-force single-monomial search")
@click.option("--p", "p_value", type=int, default=None)
@click.option("--mode", type=click.Choice(["d", "delbar-del"]), default="d")
@click.option("--budget", type=int, default=200, show_default=True)
@click.pass_obj
@_guard
def obstruct(config, cert_path, structure, library_name, search, p_value, mode, budget):
    """Verify (or search for) a same-sign obstruction certificate."""
    if (cert_path is not None) + (library_name is not None) + search > 1:
        raise InputError("give one of --cert FILE, --library NAME and --search, not several")
    if cert_path is not None or library_name is not None:
        source = click.get_current_context().get_parameter_source
        if any(source(name) is not click.core.ParameterSource.DEFAULT
               for name in ("p_value", "mode", "budget")):
            raise InputError("--p, --mode and --budget apply to --search only")
    if library_name is not None:
        lib = cat.certificate_library()
        if library_name not in lib:
            raise InputError(
                f"unknown library certificate {library_name!r}; "
                f"available: {sorted(lib)}"
            )
        structure_key, cert = lib[library_name]
        pres = _resolve_structure(structure or structure_key)
    elif search:
        if structure is None or p_value is None:
            raise InputError("--search needs --structure and --p")
        if budget < 1:
            raise InputError(f"--budget must be at least 1, got {budget}")
        pres = _resolve_structure(structure)
        if not 1 <= p_value <= pres.n - 1:
            raise InputError(f"--p {p_value} out of range 1..{pres.n - 1} for rank {pres.n}")
        found = existence.certificate_search(pres, p_value, mode, budget, config.epsilon)
        lines = [f"candidates found: {len(found)}"]
        payload = {"found": [c.to_json() for c in found]}
        for c in found:
            lines.append(f"  beta = {c.beta}: {c.conclusion}")
        _emit(config, payload, lines)
        sys.exit(0 if found else 1)
    else:
        if cert_path is None:
            raise InputError("provide --cert FILE, --library NAME or --search")
        obj = _load_json(cert_path)
        try:
            cert = existence.ObstructionCertificate.from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad certificate file: {exc}") from exc
        spec = structure or obj.get("structure")
        if spec is None:
            raise InputError("certificate carries no structure; pass --structure")
        pres = _resolve_structure(spec)

    report = existence.verify_obstruction_certificate(pres, cert, config.epsilon)
    lines = [
        f"certificate valid: {report.valid}",
    ]
    if report.valid:
        lines.append(report.conclusion + " (invariant certificate verified)")
    lines.extend(report.messages)
    _emit(config, report.to_json(), lines)
    sys.exit(0 if report.valid else 1)


# ---------------------------------------------------------------------------
# bc-dims and ddbar-lemma
# ---------------------------------------------------------------------------


@main.command("bc-dims")
@click.argument("structure")
@click.option("--params", "params_path", default=None, type=str)
@click.pass_obj
@_guard
def bc_dims(config, structure, params_path):
    """Invariant-level Bott-Chern dimensions for all bidegrees."""
    pres = _resolve_structure(structure, params_path)
    table = existence.bott_chern_dimensions(pres)
    lines = [f"structure: {pres.name or structure} (invariant-level)"]
    header = "p\\q " + " ".join(f"{q:3d}" for q in range(pres.n + 1))
    lines.append(header)
    for p in range(pres.n + 1):
        row = " ".join(f"{table[(p, q)]:3d}" for q in range(pres.n + 1))
        lines.append(f"{p:3d} {row}")
    payload = {
        "structure": pres.name or structure,
        "note": "invariant-level Bott-Chern dimensions",
        "dimensions": {f"{p},{q}": v for (p, q), v in table.items()},
    }
    _emit(config, payload, lines)


@main.command("ddbar-lemma")
@click.argument("structure")
@click.option("--p", "p_value", type=int, required=True)
@click.option("--q", "q_value", type=int, required=True)
@click.option("--params", "params_path", default=None, type=str)
@click.pass_obj
@_guard
def ddbar_lemma(config, structure, p_value, q_value, params_path):
    """Invariant-level del-delbar lemma check at one bidegree."""
    pres = _resolve_structure(structure, params_path)
    if not (0 <= p_value <= pres.n and 0 <= q_value <= pres.n):
        raise InputError(f"bidegree ({p_value},{q_value}) out of range for rank {pres.n}")
    holds = existence.invariant_ddbar_lemma_check(pres, p_value, q_value)
    lines = [
        f"structure: {pres.name or structure}",
        f"del-delbar lemma at ({p_value},{q_value}) (invariant-level): "
        f"{'holds' if holds else 'FAILS'}",
    ]
    payload = {
        "structure": pres.name or structure,
        "p": p_value,
        "q": q_value,
        "holds": holds,
        "note": "invariant-level check",
    }
    _emit(config, payload, lines)
    sys.exit(0 if holds else 1)


if __name__ == "__main__":
    main()
