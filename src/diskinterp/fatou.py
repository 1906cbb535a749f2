"""Peak functions on the closed unit disk.

For a finite boundary set the rational function built here equals 1 at every
point of the set and has modulus strictly below 1 everywhere else on the
closed disk. It is assembled from the half-plane sum

    F(z) = sum_j (a_j + z) / (a_j - z),   a_j the peak points,

whose real part is positive on the open disk and vanishes on the circle off
the peaks. The peak function is F/(1+F), evaluated in the stable form
1 - 1/(1+F); the denominator never vanishes on the closed disk because
Re F >= 0 there.

The module also provides the boundary trace of Im F (a cotangent sum), the
induced boundary modulus identity |lambda| = |y|/sqrt(1+y^2), off-arc suprema
and the minimal power that contracts those suprema below a target. No grid is
needed for the suprema: off the peaks the cotangent sum is strictly
decreasing, so on a peak-free arc |lambda| is largest at an arc endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circle import Angle, Arc, FiniteBoundarySet, TWO_PI, angular_distance
from .errors import DomainError, NoContractionError, SingularityError

PEAK_SNAP = 1e-15     # euclidean snap-to-peak radius for evaluation
PEAK_ANGLE_SNAP = 1e-15  # angular guard radius for boundary traces
DISK_SLACK = 1e-12    # |z| tolerance beyond the closed disk


@dataclass(frozen=True)
class FatouFunction:
    """Peak function for a finite boundary set: exactly 1 on ``peaks`` and
    below 1 in modulus everywhere else on the closed disk."""

    peaks: FiniteBoundarySet


def require_closed_disk(zs: np.ndarray) -> None:
    """Raise DomainError unless every point is finite with |z| <= 1 +
    ``DISK_SLACK`` (a NaN fails the comparison, so it is rejected too)."""
    if not np.all(np.abs(zs) <= 1.0 + DISK_SLACK):
        raise DomainError("evaluation point outside the closed unit disk")


def eval_fatou(fatou: FatouFunction, z):
    """Evaluate the peak function at a point (or array) of the closed disk.

    Points within ``PEAK_SNAP`` of a peak return exactly 1; elsewhere the
    value is 1 - 1/(1+F(z)), which stays stable as |F| grows near peaks. One
    pass per peak forms d = a_j - z for both the snap test and the term of F.

    Raises DomainError unless every point is finite with |z| <= 1 +
    ``DISK_SLACK``.
    """
    zs = np.asarray(z, dtype=complex)
    require_closed_disk(zs)
    F = np.zeros(zs.shape, dtype=complex)
    near = np.zeros(zs.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for aj in fatou.peaks.complex_points():
            d = aj - zs
            near |= np.abs(d) <= PEAK_SNAP
            F += (aj + zs) / d
        lam = 1.0 - 1.0 / (1.0 + F)
    lam = np.where(near, 1.0 + 0.0j, lam)
    if zs.ndim == 0:
        return complex(lam[()])
    return lam


def _boundary_imag_grid(fatou: FatouFunction, thetas: np.ndarray) -> np.ndarray:
    """Im F(e^(i*theta)) as the cotangent sum; no peak-proximity guard."""
    y = np.zeros_like(thetas, dtype=float)
    for tj in fatou.peaks.thetas():
        y = y + 1.0 / np.tan((thetas - tj) / 2.0)
    return y


def _guard_peak_angle(fatou: FatouFunction, theta: Angle) -> None:
    for p in fatou.peaks.points:
        if angular_distance(theta, p) <= PEAK_ANGLE_SNAP:
            raise SingularityError(
                f"boundary trace undefined at peak angle {p.theta!r}"
            )


def boundary_imag(fatou: FatouFunction, theta: Angle) -> float:
    """Im F on the circle: sum of cot((theta - theta_j)/2) over the peaks.

    Off the peak set F is purely imaginary there, so this is the whole
    boundary trace of F. Raises SingularityError within ``PEAK_ANGLE_SNAP``
    of a peak angle.
    """
    _guard_peak_angle(fatou, theta)
    return float(_boundary_imag_grid(fatou, np.array([theta.theta]))[0])


def _boundary_modulus_grid(fatou: FatouFunction, thetas: np.ndarray) -> np.ndarray:
    y = _boundary_imag_grid(fatou, thetas)
    m = np.abs(y) / np.hypot(1.0, y)
    # y = +-inf (a grid node collided with a peak) gives nan; the limit is 1
    return np.where(np.isnan(m), 1.0, m)


def boundary_modulus(fatou: FatouFunction, theta: Angle) -> float:
    """|lambda| on the circle off the peaks: |y|/sqrt(1+y^2) with
    y = boundary_imag; strictly below 1."""
    y = boundary_imag(fatou, theta)
    return abs(y) / math.hypot(1.0, y)


def sup_off_arc(
    fatou: FatouFunction,
    excluded: Arc,
    safety_margin: float,
) -> float:
    """Supremum of |lambda| over the boundary outside ``excluded``, inflated
    by ``1 + safety_margin``. All peaks must lie inside the excluded arc.

    The complementary closed arc holds no peak, so the cotangent sum y, each
    of whose terms has derivative -csc^2/2, is strictly decreasing on it and
    |lambda| = |y|/sqrt(1+y^2) is largest at one of the two arc endpoints;
    the supremum is the larger endpoint value.

    Raises NoContractionError when the inflated supremum reaches 1.
    """
    if not (math.isfinite(safety_margin) and safety_margin > 0.0):
        raise ValueError("safety_margin must be positive")
    for p in fatou.peaks.points:
        if not excluded.contains(p):
            raise ValueError(
                f"peak at angle {p.theta!r} lies outside the excluded arc"
            )
    ends = np.array(
        [
            excluded.center.theta + excluded.half_width,
            excluded.center.theta + TWO_PI - excluded.half_width,
        ]
    )
    rho = float(np.max(_boundary_modulus_grid(fatou, ends)))
    rho *= 1.0 + safety_margin
    if not rho < 1.0:
        raise NoContractionError(
            f"off-arc modulus bound {rho} reached 1; separate close "
            "boundary points or reduce the safety margin"
        )
    return rho


def choose_power(rhos: Sequence[float], epsilon: float, n_clusters: int) -> int:
    """Smallest integer N >= 1 with rho^N < epsilon/n_clusters for every
    per-cluster off-arc supremum rho in ``rhos``, each in (0, 1)."""
    if not rhos:
        raise ValueError("at least one off-arc supremum is required")
    for rho in rhos:
        if not (math.isfinite(rho) and 0.0 < rho < 1.0):
            raise ValueError(f"off-arc supremum {rho!r} outside (0, 1)")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be positive and finite")
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    target = epsilon / n_clusters
    rho = max(rhos)
    if target >= 1.0:
        return 1
    n = max(1, math.ceil(math.log(target) / math.log(rho)))
    while rho**n >= target:
        n += 1
    while n > 1 and rho ** (n - 1) < target:
        n -= 1
    return n
