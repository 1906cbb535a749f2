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
    "EtaSchedule",
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
    "eval_stage",
    "iterative_interpolant",
    "make_schedule",
    "residual_bound_after",
    "single_stage",
    "sup_off_arc",
    "verify_interpolant",
]


def test_public_names_are_pinned():
    assert diskinterp.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in diskinterp.__all__:
        assert getattr(diskinterp, name).__module__.startswith("diskinterp.")
