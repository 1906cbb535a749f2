"""Boundary interpolation in the disk algebra with measured certificates.

Given complex data on a finite set of unit-circle points, the pipeline
builds a function analytic on the open disk and continuous up to the
boundary that matches the data up to an explicit truncation bound while its
boundary modulus stays within a user budget of the data's sup norm. The
build bounds the boundary modulus without a grid; ``verify`` audits every
claim independently, and proves the boundary bound on the whole circle
from arc ends. The set and the data are read-only arrays, which every layer
reads; a cluster's peak set is a slice of the set's angles.
"""

from .circle import (
    Angle,
    Arc,
    BoundaryData,
    Cluster,
    Clustering,
    FiniteBoundarySet,
    angular_distance,
    cluster_by_oscillation,
    normalize_angle,
)
from .errors import (
    CertificationError,
    DomainError,
    NoContractionError,
)
from .fatou import (
    FatouFunction,
    choose_power,
    eval_fatou,
    sup_off_arc,
)
from .interpolate import (
    BoundsCertificate,
    EtaSchedule,
    Interpolant,
    StageApproximant,
    eval_interpolant,
    eval_on_circle,
    eval_stage,
    iterative_interpolant,
    make_schedule,
    residual_bound_after,
    single_stage,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_boundary_sup,
    check_cauchy_identity,
    check_max_modulus,
    check_peak_values,
    verify_interpolant,
)

__version__ = "0.1.0"

__all__ = [
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
    "angular_distance",
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
    "normalize_angle",
    "residual_bound_after",
    "single_stage",
    "sup_off_arc",
    "verify_interpolant",
]
