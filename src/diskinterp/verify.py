"""Independent numerical audits of interpolants.

Each check re-measures one certificate-level claim and records the
parameters, tolerance, and seed it used, so a report is reproducible. A
full report takes a seed; its tolerances and sizes are the constants below,
and a ``check_*`` call with its own parameters tightens one claim.

The boundary sup is proved on the whole circle, not sampled. Every peak of
every term is a point of the data's set E, so on an arc between two
neighbouring points of E each term's modulus is largest at an end of the
arc, and ``arc_envelope`` bounds |g| on the arc from its two ends. The
check starts from the arcs between consecutive points of E and bisects the
arcs whose envelope exceeds the certified ``boundary_sup_bound`` plus
``SUP_TOL``, for at most ``ENVELOPE_ROUNDS`` rounds and ``ENVELOPE_ARCS``
arcs per point of E; its measurement is the proved upper bound, and the
maximum-modulus check takes its ceiling from it. The envelope also hands
back g at the arc ends, whose largest modulus is a lower bound. The set is
evaluated from its angles (``eval_on_circle``); the interior samples and
Cauchy contours from points (``eval_interpolant``). Checks are pure and
deterministic given their parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import TWO_PI, BoundaryData
# The checks call the evaluators and the envelope by their names here, so a
# tracer can wrap them.
from .interpolate import (
    Interpolant,
    arc_envelope,
    eval_interpolant,
    eval_on_circle,
)

SUP_TOL = 1e-9          # boundary sup and maximum modulus
RESIDUAL_TOL = 1e-12    # values on the set beyond the truncation bound
IDENTITY_TOL = 1e-10    # Cauchy identities
INTERIOR_SAMPLES = 10_000
QUAD_POINTS = 4096      # nodes per Cauchy contour
CAUCHY_PAIRS = 10       # seeded (z0, radius) pairs per report
ENVELOPE_ROUNDS = 16    # bisection rounds of the boundary-sup proof
ENVELOPE_ARCS = 32      # arcs per point of E it may evaluate, over all rounds
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
    vals = eval_on_circle(interpolant, data.set.thetas)
    threshold = interpolant.certificate.residual_bound_theoretical + tol
    measured = float(np.max(np.abs(vals - data.values)))
    return CheckResult(
        name="peak_values",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={"n_points": len(data.set), "tol": float(tol)},
    )


def check_boundary_sup(
    interpolant: Interpolant, bound: float, tol: float
) -> CheckResult:
    """Proof that |g| <= T = ``bound + tol`` on the whole circle, by arc
    envelopes (``arc_envelope``) from the peak angles of the interpolant.

    The arcs run between consecutive peak angles, which are points of E, so
    no peak lies inside one. Each round evaluates the envelope of every open
    arc; an arc whose envelope is at most T is proved, and each other one is
    split at its midpoint for the next round. The check fails at once when
    the bound B at an evaluated angle exceeds T (no arc with that end can
    be proved), or is NaN, and fails as unresolved when arcs remain after
    ``ENVELOPE_ROUNDS`` rounds, or when the next round would take the arcs
    evaluated past ``ENVELOPE_ARCS`` per peak angle.

    ``measured`` is the largest envelope over arcs that cover the circle,
    the proved ones and the last round's: an upper bound on |g| that is
    finite whenever the moduli are. ``params`` give the rounds, the number
    of angles evaluated for envelopes, and ``evaluated_max``, the largest
    |g| at an arc end (the peak angles included), a lower bound on the sup
    read from the envelope's values, so each round traverses the terms once.
    """
    threshold = float(bound) + float(tol)
    sets = {lam.peaks for s in interpolant.stages for lam in s.lambdas}  # distinct
    peaks = np.sort(np.concatenate([p.thetas for p in sets] or [np.empty(0)]))
    peaks = peaks[np.diff(peaks, prepend=-math.inf) > 0.0]
    measured = proved = evaluated_max = 0.0
    rounds = evaluations = 0
    passed = not peaks.size and 0.0 <= threshold
    if peaks.size:
        budget = ENVELOPE_ARCS * peaks.size
        # the last arc wraps to the first peak; its end is evaluated there
        lo, hi = peaks, np.append(peaks[1:], peaks[0] + TWO_PI)
        wrap, arcs = hi[-1], 0
        while True:
            rounds += 1
            arcs += lo.size
            ends = np.stack([lo, np.where(hi == wrap, peaks[0], hi)], axis=1)
            envelope, at_ends, values = arc_envelope(interpolant, ends)
            evaluations += ends.size
            evaluated_max = max(evaluated_max, float(np.max(np.abs(values))))
            measured = float(np.max(np.append(envelope, proved)))
            if not np.all(at_ends <= threshold):
                break
            open_ = ~(envelope <= threshold)
            if not open_.any():
                passed = True
                break
            proved = max(proved, float(np.max(envelope[~open_], initial=0.0)))
            lo, hi = lo[open_], hi[open_]
            mid = lo + 0.5 * (hi - lo)
            if (
                rounds == ENVELOPE_ROUNDS
                or arcs + 2 * lo.size > budget
                or not np.all((lo < mid) & (mid < hi))
            ):
                break
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return CheckResult(
        name="boundary_sup",
        passed=passed,
        measured=measured,
        threshold=threshold,
        params={
            "bound": float(bound),
            "tol": float(tol),
            "rounds": rounds,
            "evaluations": evaluations,
            "evaluated_max": evaluated_max,
        },
    )


def check_max_modulus(
    interpolant: Interpolant,
    interior_samples: int,
    boundary: CheckResult,
    tol: float,
    seed: int = 0,
) -> CheckResult:
    """Interior maximum (seeded uniform disk samples) against the proved
    boundary bound of ``boundary``, a ``check_boundary_sup`` result, plus
    ``tol``; an analyticity witness."""
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
    grid_size: object = None,
    seed: int = 0,
) -> VerificationReport:
    """Full audit of a pipeline output: value matching on the set, the
    boundary sup proved against the certified ``boundary_sup_bound``, the
    maximum-modulus inequality against the proved bound, and a batch of
    seeded contour-integral identities, at the module's tolerances. The
    audit uses no boundary grid and does not read ``grid_size``; the keyword
    stays for callers that pass it. A negative ``seed`` raises ValueError
    before anything is evaluated."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    boundary = check_boundary_sup(
        interpolant, interpolant.certificate.boundary_sup_bound, SUP_TOL
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
