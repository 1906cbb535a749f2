import importlib
import inspect

import diskinterp

# The public surface, pinned: a change that adds or drops a public name
# edits this list, so the change shows in review.
PUBLIC_NAMES = [
    "BoundaryData",
    "BoundsCertificate",
    "CertificationError",
    "CheckResult",
    "DomainError",
    "FatouFunction",
    "FiniteBoundarySet",
    "Interpolant",
    "NoContractionError",
    "StageApproximant",
    "VerificationReport",
    "eval_fatou",
    "eval_interpolant",
    "eval_on_circle",
    "iterative_interpolant",
    "verify_interpolant",
]

# The steps of the build and of the audit, pinned to the module each is
# imported from; the top level does not re-export them.
STEP_NAMES = [
    "circle.Angle",
    "circle.Arc",
    "circle.Cluster",
    "circle.Clustering",
    "circle.cluster_by_oscillation",
    "fatou.choose_power",
    "fatou.sup_off_arc",
    "interpolate.make_schedule",
    "interpolate.single_stage",
    "verify.check_boundary_sup",
    "verify.check_cauchy_identity",
    "verify.check_max_modulus",
    "verify.check_peak_values",
]


def _step(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"diskinterp.{module}"), name)


def test_public_names_are_pinned():
    assert diskinterp.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in diskinterp.__all__:
        assert getattr(diskinterp, name).__module__.startswith("diskinterp.")
    for path in STEP_NAMES:
        module, name = path.split(".")
        assert _step(path).__module__ == f"diskinterp.{module}"
        assert not hasattr(diskinterp, name)


# The parameter names of every public function and class and of every step,
# pinned: a change that adds, drops or renames a parameter edits this table.
# The exceptions take a message.
SIGNATURES = {
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
    "eval_fatou": ("fatou", "z"),
    "eval_interpolant": ("interpolant", "z"),
    "eval_on_circle": ("interpolant", "thetas"),
    "iterative_interpolant": ("data", "eta", "n_max", "grid_size", "safety_margin"),
    "verify_interpolant": ("interpolant", "data", "grid_size", "seed"),
    "circle.Angle": ("theta",),
    "circle.Arc": ("center", "half_width"),
    "circle.Cluster": ("start", "size", "arc"),
    "circle.Clustering": ("data", "clusters", "oscillation_bound"),
    "circle.cluster_by_oscillation": ("data", "epsilon"),
    "fatou.choose_power": ("rho", "target"),
    "fatou.sup_off_arc": ("fatou", "excluded", "safety_margin"),
    "interpolate.make_schedule": ("eta", "n_max"),
    "interpolate.single_stage": ("data", "epsilon", "safety_margin"),
    "verify.check_boundary_sup": ("interpolant",),
    "verify.check_cauchy_identity": ("interpolant", "z0", "radius", "name"),
    "verify.check_max_modulus": ("interpolant", "boundary", "seed"),
    "verify.check_peak_values": ("interpolant", "data"),
}


def test_public_signatures_are_pinned():
    signatures = {}
    for name in diskinterp.__all__:
        obj = getattr(diskinterp, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        signatures[name] = tuple(inspect.signature(obj).parameters)
    for path in STEP_NAMES:
        signatures[path] = tuple(inspect.signature(_step(path)).parameters)
    assert signatures == SIGNATURES


def test_stage_derives_what_its_sources_hold():
    # a stage's epsilon, normalization and certified residual are read-only
    # views of its clustering and its residual, not fields
    for name in ("epsilon", "normalization", "certified_residual"):
        assert isinstance(getattr(diskinterp.StageApproximant, name), property)
