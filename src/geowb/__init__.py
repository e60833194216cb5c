"""geowb: invariant-form calculus on complex nilmanifolds and solvmanifolds.

Exact bigraded exterior algebra over a complex coframe, Lie-algebra
structure equations with the operators d / del / delbar, special
Hermitian metric classification, transversality testing of (p,p)-forms,
a catalogue of structure presentations, and existence/obstruction
analysis for p-symplectic and p-pluriclosed structures -- everything at
the invariant (Lie-algebra) level, with exact Gaussian-rational
arithmetic wherever the structure constants are rational.
"""

from .scalars import EXACT, FLOAT, GaussRational
from .forms import (
    InvariantForm,
    Monomial,
    form_from_json,
    form_to_json,
    normalize_monomial,
    sigma,
    volume_form,
    volume_ratio,
    wedge,
)
from .lie import (
    StructurePresentation,
    ValidationReport,
    complexify_real_presentation,
    is_J_nilpotent,
    presentation_from_json,
    presentation_to_json,
)
from .metrics import (
    HermitianMetric,
    MetricReport,
    classify,
    form_power,
    fundamental_form,
    metric_power,
)
from .positivity import (
    SimpleForm,
    TransversalityVerdict,
    omega_a_form,
    omega_a_transversality,
    omega_a_verdict,
    pairing,
    transversality_sample,
)
from .existence import (
    AnsatzSolution,
    ObstructionCertificate,
    bott_chern_dimensions,
    closure_system,
    exact_simple_holomorphic_search,
    invariant_ddbar_lemma_check,
    verify_obstruction_certificate,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "GaussRational",
    "InvariantForm",
    "Monomial",
    "StructurePresentation",
    "ValidationReport",
    "HermitianMetric",
    "MetricReport",
    "SimpleForm",
    "TransversalityVerdict",
    "AnsatzSolution",
    "ObstructionCertificate",
    "catalog",
    "bott_chern_dimensions",
    "classify",
    "closure_system",
    "complexify_real_presentation",
    "exact_simple_holomorphic_search",
    "form_from_json",
    "form_power",
    "form_to_json",
    "fundamental_form",
    "invariant_ddbar_lemma_check",
    "is_J_nilpotent",
    "metric_power",
    "normalize_monomial",
    "omega_a_form",
    "omega_a_transversality",
    "omega_a_verdict",
    "pairing",
    "presentation_from_json",
    "presentation_to_json",
    "sigma",
    "transversality_sample",
    "verify_obstruction_certificate",
    "volume_form",
    "volume_ratio",
    "wedge",
]
