"""Independent numerical audits of interpolants.

Each check re-measures one certificate-level claim by evaluating the
interpolant on a declared grid or sample and records the grid parameters,
tolerance, and seed it used, so a report is reproducible. A full report
takes a grid size and a seed; its tolerances and sizes are the constants
below, and a ``check_*`` call with its own parameters tightens one claim.
The boundary grid is evaluated once per report: the maximum-modulus check
takes its ceiling from the boundary-sup check's grid maximum. Points on the
circle, the boundary grid and the data's set, are evaluated from their
angles (``eval_on_circle``); the interior samples and Cauchy contours from
points (``eval_interpolant``). Checks are pure and deterministic given
their parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import BoundaryData
# The checks call both evaluators by their names here, so a tracer can wrap them.
from .interpolate import Interpolant, eval_interpolant, eval_on_circle

DEFAULT_GRID_SIZE = 1 << 16
SUP_TOL = 1e-9          # boundary sup and maximum modulus
RESIDUAL_TOL = 1e-12    # values on the set beyond the truncation bound
IDENTITY_TOL = 1e-10    # Cauchy identities
INTERIOR_SAMPLES = 10_000
QUAD_POINTS = 4096      # nodes per Cauchy contour
CAUCHY_PAIRS = 10       # seeded (z0, radius) pairs per report
MIN_SUP_CHECK_GRID = 1 << 12
MIN_QUAD_POINTS = 1 << 10
MIN_INTERIOR_SAMPLES = 1000
INTERIOR_SHRINK = 1e-9  # random interior samples stay within radius 1 - this


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    params: Mapping[str, object]


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_peak_values(
    interpolant: Interpolant, data: BoundaryData, tol: float
) -> CheckResult:
    """Largest mismatch on the data's boundary set against the data values,
    with threshold the certificate's truncation bound plus ``tol``."""
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    vals = eval_on_circle(interpolant, data.set.thetas())
    threshold = interpolant.certificate.residual_bound_theoretical + tol
    measured = float(np.max(np.abs(vals - data.value_array())))
    return CheckResult(
        name="peak_values",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={"n_points": len(data.set), "tol": float(tol)},
    )


def boundary_grid(grid_size: int) -> np.ndarray:
    """The angles 2*pi*k/grid_size, k = 0..grid_size-1, of the boundary grid."""
    return 2.0 * math.pi * np.arange(grid_size) / grid_size


def check_boundary_sup(
    interpolant: Interpolant, bound: float, grid_size: int, tol: float
) -> CheckResult:
    """Maximum modulus over a uniform boundary grid against ``bound + tol``."""
    if grid_size < MIN_SUP_CHECK_GRID:
        raise ValueError(f"grid_size must be >= {MIN_SUP_CHECK_GRID}")
    values = eval_on_circle(interpolant, boundary_grid(grid_size))
    measured = float(np.max(np.abs(values)))
    threshold = float(bound) + float(tol)
    return CheckResult(
        name="boundary_sup",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={"grid_size": int(grid_size), "bound": float(bound), "tol": float(tol)},
    )


def check_max_modulus(
    interpolant: Interpolant,
    interior_samples: int,
    boundary: CheckResult,
    tol: float,
    seed: int = 0,
) -> CheckResult:
    """Interior maximum (seeded uniform disk samples) against the grid
    maximum of ``boundary``, a ``check_boundary_sup`` result, plus ``tol``;
    an analyticity witness."""
    if interior_samples < MIN_INTERIOR_SAMPLES:
        raise ValueError(f"interior_samples must be >= {MIN_INTERIOR_SAMPLES}")
    rng = np.random.default_rng(seed)
    radii = (1.0 - INTERIOR_SHRINK) * np.sqrt(rng.uniform(size=interior_samples))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=interior_samples)
    zs = radii * np.exp(1j * phases)
    measured = float(np.max(np.abs(eval_interpolant(interpolant, zs))))
    threshold = boundary.measured + float(tol)
    return CheckResult(
        name="max_modulus",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={
            "interior_samples": int(interior_samples),
            "grid_size": boundary.params["grid_size"],
            "tol": float(tol),
            "seed": int(seed),
        },
    )


def check_cauchy_identity(
    interpolant: Interpolant,
    z0: complex,
    radius: float,
    quad_points: int,
    tol: float,
    name: str = "cauchy_identity",
) -> CheckResult:
    """Contour mean (1/2pi) int g(r e^(it)) r e^(it)/(r e^(it) - z0) dt
    against g(z0).

    On a uniform periodic grid the trapezoid rule collapses to the plain
    node average, which converges geometrically for integrands analytic in
    a strip around the contour.
    """
    z0 = complex(z0)
    if not (abs(z0) < radius < 1.0):
        raise ValueError("need |z0| < radius < 1")
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(f"quad_points must be >= {MIN_QUAD_POINTS}")
    w = radius * np.exp(2j * math.pi * np.arange(quad_points) / quad_points)
    mean = np.mean(eval_interpolant(interpolant, w) * w / (w - z0))
    measured = float(abs(mean - eval_interpolant(interpolant, z0)))
    return CheckResult(
        name=name,
        passed=measured <= tol,
        measured=measured,
        threshold=float(tol),
        params={
            "z0_re": float(z0.real),
            "z0_im": float(z0.imag),
            "radius": float(radius),
            "quad_points": int(quad_points),
            "tol": float(tol),
        },
    )


def cauchy_sample_points(
    seed: int, count: int
) -> tuple[tuple[complex, float], ...]:
    """Seeded (z0, radius) pairs with radius - |z0| >= 0.1 and radius < 0.9."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        radius = float(rng.uniform(0.3, 0.9))
        r0 = (radius - 0.1) * math.sqrt(float(rng.uniform()))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        pairs.append((r0 * complex(math.cos(phase), math.sin(phase)), radius))
    return tuple(pairs)


def verify_interpolant(
    interpolant: Interpolant,
    data: BoundaryData,
    *,
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> VerificationReport:
    """Full audit of a pipeline output: value matching on the set, boundary
    sup against sup + eta, the maximum-modulus inequality, and a batch of
    seeded contour-integral identities, at the module's tolerances. A
    negative ``seed`` raises ValueError before anything is evaluated."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cert = interpolant.certificate
    boundary = check_boundary_sup(
        interpolant, cert.sup_norm_input + cert.eta, grid_size, SUP_TOL
    )
    checks = [
        check_peak_values(interpolant, data, RESIDUAL_TOL),
        boundary,
        check_max_modulus(interpolant, INTERIOR_SAMPLES, boundary, SUP_TOL, seed=seed),
    ]
    for i, (z0, radius) in enumerate(cauchy_sample_points(seed, CAUCHY_PAIRS)):
        checks.append(
            check_cauchy_identity(
                interpolant,
                z0,
                radius,
                QUAD_POINTS,
                IDENTITY_TOL,
                name=f"cauchy_identity_{i:02d}",
            )
        )
    return VerificationReport(tuple(checks))
