import inspect

import diskinterp

# The public surface, pinned: a change that adds or drops a public name
# edits this list, so the change shows in review.
PUBLIC_NAMES = [
    "Angle",
    "Arc",
    "BoundaryData",
    "BoundsCertificate",
    "CertificationError",
    "CheckResult",
    "Cluster",
    "Clustering",
    "DomainError",
    "FatouFunction",
    "FiniteBoundarySet",
    "Interpolant",
    "NoContractionError",
    "StageApproximant",
    "VerificationReport",
    "check_boundary_sup",
    "check_cauchy_identity",
    "check_max_modulus",
    "check_peak_values",
    "choose_power",
    "cluster_by_oscillation",
    "eval_fatou",
    "eval_interpolant",
    "eval_on_circle",
    "iterative_interpolant",
    "make_schedule",
    "single_stage",
    "sup_off_arc",
    "verify_interpolant",
]


def test_public_names_are_pinned():
    assert diskinterp.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in diskinterp.__all__:
        assert getattr(diskinterp, name).__module__.startswith("diskinterp.")


# The parameter names of every public function and class, pinned: a change
# that adds, drops or renames a parameter edits this table. The exceptions
# take a message.
SIGNATURES = {
    "Angle": ("theta",),
    "Arc": ("center", "half_width"),
    "BoundaryData": ("set", "values"),
    "BoundsCertificate": (
        "sup_norm_input",
        "eta",
        "boundary_sup_bound",
        "residual_bound_theoretical",
        "measured_max_residual_on_E",
        "safety_margin",
    ),
    "CheckResult": ("name", "passed", "measured", "threshold", "params"),
    "Cluster": ("start", "size", "n", "arc"),
    "Clustering": ("data", "clusters", "oscillation_bound"),
    "FatouFunction": ("peaks",),
    "FiniteBoundarySet": ("thetas",),
    "Interpolant": ("stages", "certificate"),
    "StageApproximant": (
        "clustering",
        "coefficients",
        "lambdas",
        "power",
        "certified_sup",
        "residual",
    ),
    "VerificationReport": ("checks",),
    "check_boundary_sup": ("interpolant",),
    "check_cauchy_identity": ("interpolant", "z0", "radius", "name"),
    "check_max_modulus": ("interpolant", "boundary", "seed"),
    "check_peak_values": ("interpolant", "data"),
    "choose_power": ("rho", "target"),
    "cluster_by_oscillation": ("data", "epsilon"),
    "eval_fatou": ("fatou", "z"),
    "eval_interpolant": ("interpolant", "z"),
    "eval_on_circle": ("interpolant", "thetas"),
    "iterative_interpolant": ("data", "eta", "n_max", "grid_size", "safety_margin"),
    "make_schedule": ("eta", "n_max"),
    "single_stage": ("data", "epsilon", "safety_margin"),
    "sup_off_arc": ("fatou", "excluded", "safety_margin"),
    "verify_interpolant": ("interpolant", "data", "grid_size", "seed"),
}


def test_public_signatures_are_pinned():
    signatures = {}
    for name in diskinterp.__all__:
        obj = getattr(diskinterp, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        signatures[name] = tuple(inspect.signature(obj).parameters)
    assert signatures == SIGNATURES


def test_stage_derives_what_its_sources_hold():
    # a stage's epsilon, normalization and certified residual are read-only
    # views of its clustering and its residual, not fields
    for name in ("epsilon", "normalization", "certified_residual"):
        assert isinstance(getattr(diskinterp.StageApproximant, name), property)
