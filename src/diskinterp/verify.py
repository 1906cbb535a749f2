"""Independent numerical audits of interpolants.

Each check re-measures one claim of the interpolant's certificate, at the
tolerance and size that the constants below fix, and records the bound,
tolerance, sizes and seed it used, so a report is reproducible. The checks
read the constants when they are called; a report's only option is its
seed.

The boundary sup is proved on the whole circle, not sampled. Every peak of
every term is a point of the data's set E, so on an arc between two
neighbouring points of E each term's modulus is largest at an end of the
arc, and ``arc_envelope`` bounds |g| on the arc from its two ends. The
check starts from the arcs between consecutive points of E and bisects the
arcs whose envelope exceeds the certified ``boundary_sup_bound`` plus
``SUP_TOL``, for at most ``ENVELOPE_ARCS`` arcs per point of E. The
envelope is the only rule: a failing check also refines until that budget
or float resolution stops it. Its measurement is the proved upper bound,
and the maximum-modulus check takes its ceiling from it. The envelope also
hands back g at the arc ends, whose largest modulus is a lower bound. The
set is evaluated from its angles (``eval_on_circle``); the interior samples
and Cauchy contours from points (``eval_interpolant``). Every modulus a
check reports is the build's ``circle.modulus``, or Python's ``abs`` of one
complex. Checks are pure and deterministic given their arguments and the
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import TWO_PI, BoundaryData, modulus
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
ENVELOPE_ARCS = 32      # arcs per point of E it may evaluate, over all rounds
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


def check_peak_values(interpolant: Interpolant, data: BoundaryData) -> CheckResult:
    """Largest mismatch on the data's boundary set against the data values,
    with threshold the certificate's truncation bound plus ``RESIDUAL_TOL``."""
    vals = eval_on_circle(interpolant, data.set.thetas)
    threshold = interpolant.certificate.residual_bound_theoretical + RESIDUAL_TOL
    measured = float(modulus(vals - data.values).max())
    return CheckResult(
        name="peak_values",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={"n_points": len(data.set), "tol": RESIDUAL_TOL},
    )


def check_boundary_sup(interpolant: Interpolant) -> CheckResult:
    """Proof that |g| <= T = ``bound + SUP_TOL`` on the whole circle, with
    ``bound`` the certificate's ``boundary_sup_bound``, by arc envelopes
    (``arc_envelope``) from the peak angles of the interpolant.

    The arcs run between consecutive peak angles, which are points of E, so
    no peak lies inside one. Each round evaluates the envelope of every open
    arc; an arc whose envelope is at most T is proved, and each other one,
    a NaN envelope included, is split at its midpoint for the next round.
    The check fails as unresolved when the next round would take the arcs
    evaluated past ``ENVELOPE_ARCS`` per peak angle, or when a midpoint does
    not fall strictly inside its arc.

    ``measured`` is the largest envelope over arcs that cover the circle,
    the proved ones and the last round's: an upper bound on |g| that is
    finite whenever the moduli are, and on a failed check the tightest one
    those limits allow. ``params`` give the rounds, ``evaluations``, the
    arc ends evaluated for envelopes, two per arc (an end that neighbouring
    arcs share is evaluated once), and ``evaluated_max``, the largest |g|
    at an arc end (the peak angles included), a lower bound on the sup read
    from the envelope's values, so each round traverses the terms once.
    """
    bound, tol = interpolant.certificate.boundary_sup_bound, SUP_TOL
    threshold = bound + tol
    sets = {lam.peaks for s in interpolant.stages for lam in s.lambdas}  # distinct
    peaks = np.sort(np.concatenate([p.thetas for p in sets] or [np.empty(0)]))
    peaks = peaks[np.diff(peaks, prepend=-math.inf) > 0.0]
    measured = proved = evaluated_max = 0.0
    rounds = arcs = 0
    passed = not peaks.size and 0.0 <= threshold
    if peaks.size:
        budget = ENVELOPE_ARCS * peaks.size
        # the last arc wraps to the first peak; its end is evaluated there
        lo, hi = peaks, np.append(peaks[1:], peaks[0] + TWO_PI)
        wrap = hi[-1]
        while True:
            rounds += 1
            arcs += lo.size
            ends = np.stack([lo, np.where(hi == wrap, peaks[0], hi)], axis=1)
            envelope, values = arc_envelope(interpolant, ends)
            evaluated_max = max(evaluated_max, float(modulus(values).max()))
            measured = float(np.max(np.append(envelope, proved)))
            open_ = ~(envelope <= threshold)
            if not open_.any():
                passed = True
                break
            proved = max(proved, float(np.max(envelope[~open_], initial=0.0)))
            lo, hi = lo[open_], hi[open_]
            mid = lo + 0.5 * (hi - lo)
            if arcs + 2 * lo.size > budget or not np.all((lo < mid) & (mid < hi)):
                break
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return CheckResult(
        name="boundary_sup",
        passed=passed,
        measured=measured,
        threshold=threshold,
        params={
            "bound": bound,
            "tol": tol,
            "rounds": rounds,
            "evaluations": 2 * arcs,
            "evaluated_max": evaluated_max,
        },
    )


def check_max_modulus(
    interpolant: Interpolant, boundary: CheckResult, seed: int = 0
) -> CheckResult:
    """Maximum over ``INTERIOR_SAMPLES`` seeded uniform disk samples against
    the proved boundary bound of ``boundary``, a ``check_boundary_sup``
    result, plus ``SUP_TOL``; an analyticity witness."""
    samples, tol = INTERIOR_SAMPLES, SUP_TOL
    rng = np.random.default_rng(seed)
    radii = (1.0 - INTERIOR_SHRINK) * np.sqrt(rng.uniform(size=samples))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    zs = radii * np.exp(1j * phases)
    measured = float(modulus(eval_interpolant(interpolant, zs)).max())
    threshold = boundary.measured + tol
    return CheckResult(
        name="max_modulus",
        passed=measured <= threshold,
        measured=measured,
        threshold=threshold,
        params={"interior_samples": samples, "tol": tol, "seed": int(seed)},
    )


def check_cauchy_identity(
    interpolant: Interpolant,
    z0: complex,
    radius: float,
    name: str = "cauchy_identity",
) -> CheckResult:
    """Contour mean (1/2pi) int g(r e^(it)) r e^(it)/(r e^(it) - z0) dt
    against g(z0), on ``QUAD_POINTS`` nodes, within ``IDENTITY_TOL``.

    On a uniform periodic grid the trapezoid rule collapses to the plain
    node average, which converges geometrically for integrands analytic in
    a strip around the contour. The nodes and z0 are evaluated in one
    traversal of the terms, z0 last.
    """
    z0 = complex(z0)
    if not (abs(z0) < radius < 1.0):
        raise ValueError("need |z0| < radius < 1")
    nodes, tol = QUAD_POINTS, IDENTITY_TOL
    w = radius * np.exp(2j * math.pi * np.arange(nodes) / nodes)
    values = eval_interpolant(interpolant, np.append(w, z0))
    mean = np.mean(values[:-1] * w / (w - z0))
    measured = abs(complex(mean - values[-1]))
    return CheckResult(
        name=name,
        passed=measured <= tol,
        measured=measured,
        threshold=tol,
        params={
            "z0_re": float(z0.real),
            "z0_im": float(z0.imag),
            "radius": float(radius),
            "quad_points": nodes,
            "tol": tol,
        },
    )


def cauchy_sample_points(seed: int) -> tuple[tuple[complex, float], ...]:
    """``CAUCHY_PAIRS`` seeded (z0, radius) pairs with radius - |z0| >= 0.1
    and radius < 0.9."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(CAUCHY_PAIRS):
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
    stays for callers that pass it. A ``seed`` that is not a non-negative
    integer raises ValueError before anything is evaluated."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    boundary = check_boundary_sup(interpolant)
    checks = [
        check_peak_values(interpolant, data),
        boundary,
        check_max_modulus(interpolant, boundary, seed=seed),
    ]
    for i, (z0, radius) in enumerate(cauchy_sample_points(seed)):
        name = f"cauchy_identity_{i:02d}"
        checks.append(check_cauchy_identity(interpolant, z0, radius, name=name))
    return VerificationReport(tuple(checks))
