"""Boundary interpolation in the disk algebra with measured certificates.

Given complex data on a finite set of unit-circle points, the pipeline
builds a function analytic on the open disk and continuous up to the
boundary that matches the data up to an explicit truncation bound while its
boundary modulus stays within a user budget of the data's sup norm. The
build bounds the boundary modulus without a grid; ``verify`` audits every
claim independently, and proves the boundary bound on the whole circle
from arc ends. The set and the data are read-only arrays, which every layer
reads; a cluster's peak set is a slice of the set's angles.

The top level names what a pipeline user names: the set and its data, the
build, the audit and its report, evaluation, peak functions, the records a
build returns, and the errors. The steps of the build and of the audit
import from their own modules: angles, arcs and the clustering from
``diskinterp.circle``; ``choose_power`` and ``sup_off_arc`` from
``diskinterp.fatou``; ``make_schedule`` and ``single_stage`` from
``diskinterp.interpolate``; the ``check_*`` functions from
``diskinterp.verify``.
"""

from .circle import BoundaryData, FiniteBoundarySet
from .errors import CertificationError, DomainError, NoContractionError
from .fatou import FatouFunction, eval_fatou
from .interpolate import (
    BoundsCertificate,
    Interpolant,
    StageApproximant,
    eval_interpolant,
    eval_on_circle,
    iterative_interpolant,
)
from .verify import CheckResult, VerificationReport, verify_interpolant

__version__ = "0.1.0"

__all__ = [
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
