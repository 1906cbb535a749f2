"""Peak functions on the closed unit disk.

For a finite boundary set the rational function built here equals 1 at every
point of the set and has modulus strictly below 1 everywhere else on the
closed disk. It is assembled from the half-plane sum

    F(z) = sum_j (a_j + z) / (a_j - z),   a_j the peak points,

whose real part is positive on the open disk and vanishes on the circle off
the peaks. The peak function is F/(1+F), evaluated in the stable form
1 - 1/(1+F); the denominator never vanishes on the closed disk because
Re F >= 0 there.

Powers lambda^N with N up to about 1e10 are formed from the logarithm
log lambda = -log1p(1/F). With F = a + ib, |1 + 1/F|^2 = 1 + (1+2a)/|F|^2 and
arg(1 + 1/F) = -atan2(b, a + |F|^2); for a >= 0 neither form cancels, so
both parts of the log keep full relative precision however close |lambda|
is to 1.

The module also provides off-arc suprema and the minimal power that
contracts those suprema below a target. On the circle off the peaks F = iy,
y a cotangent sum, so |lambda| = |y|/sqrt(1+y^2). No grid is needed for the
suprema: off the peaks the cotangent sum is strictly decreasing, so on a
peak-free arc |lambda| is largest at an arc endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circle import Arc, FiniteBoundarySet, TWO_PI
from .errors import DomainError, NoContractionError

PEAK_SNAP = 1e-15     # euclidean snap-to-peak radius for evaluation
DISK_SLACK = 1e-12    # |z| tolerance beyond the closed disk


@dataclass(frozen=True)
class FatouFunction:
    """Peak function for a finite boundary set: exactly 1 on ``peaks`` and
    below 1 in modulus everywhere else on the closed disk."""

    peaks: FiniteBoundarySet
    # peak angles and points as arrays and the hash, made once; equality
    # goes by ``peaks``
    peak_thetas: np.ndarray = field(init=False, compare=False, repr=False)
    peak_points: np.ndarray = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        thetas = self.peaks.thetas()
        points = np.exp(1j * thetas)
        thetas.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "peak_thetas", thetas)
        object.__setattr__(self, "peak_points", points)
        object.__setattr__(self, "_hash", hash(self.peaks))

    def __hash__(self) -> int:
        return self._hash


def require_closed_disk(zs: np.ndarray) -> None:
    """Raise DomainError unless every point is finite with |z| <= 1 +
    ``DISK_SLACK`` (a NaN fails the comparison, so it is rejected too)."""
    if not np.all(np.abs(zs) <= 1.0 + DISK_SLACK):
        raise DomainError("evaluation point outside the closed unit disk")


def _half_plane_sum(
    fatou: FatouFunction, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(F(zs), near): the half-plane sum and the mask of points within
    ``PEAK_SNAP`` of a peak, where F is inf, nan or overflows. One pass per
    peak forms d = a_j - z for both the snap test and the term of F."""
    F = np.zeros(zs.shape, dtype=complex)
    near = np.zeros(zs.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for aj in fatou.peak_points:
            d = aj - zs
            near |= np.abs(d) <= PEAK_SNAP
            F += (aj + zs) / d
    return F, near


def eval_fatou(fatou: FatouFunction, z):
    """Evaluate the peak function at a point (or array) of the closed disk.

    Points within ``PEAK_SNAP`` of a peak return exactly 1; elsewhere the
    value is 1 - 1/(1+F(z)), which stays stable as |F| grows near peaks.

    Raises DomainError unless every point is finite with |z| <= 1 +
    ``DISK_SLACK``.
    """
    zs = np.asarray(z, dtype=complex)
    require_closed_disk(zs)
    F, near = _half_plane_sum(fatou, zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = 1.0 - 1.0 / (1.0 + F)
    lam = np.where(near, 1.0 + 0.0j, lam)
    if zs.ndim == 0:
        return complex(lam[()])
    return lam


def log_fatou(fatou: FatouFunction, zs: np.ndarray) -> np.ndarray:
    """log lambda = -log1p(1/F) on an array of points of the closed disk,
    which the caller has checked.

    Exactly 0 within ``PEAK_SNAP`` of a peak, so every power is exactly 1
    there, and -inf where F = 0, where lambda vanishes. The real part is
    -log1p((1+2a)/|F|^2)/2 and the imaginary part atan2(b, a + |F|^2), for
    F = a + ib.
    """
    F, near = _half_plane_sum(fatou, zs)
    a, b = F.real, F.imag
    L = np.empty_like(F)
    re, im = L.real, L.imag
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = a * a
        s += b * b  # |F|^2
        np.multiply(a, 2.0, out=re)
        re += 1.0
        re /= s
        np.log1p(re, out=re)
        re *= -0.5
        s += a
        np.arctan2(b, s, out=im)
    L[near] = 0.0
    return L


def _boundary_modulus(fatou: FatouFunction, thetas: np.ndarray) -> np.ndarray:
    """|lambda(e^(i*theta))| = |y|/sqrt(1+y^2) off the peaks, where F = iy and
    y is the sum of cot((theta - theta_j)/2) over the peaks.

    One (peaks x points) broadcast. The sum runs over the peaks in order
    (a cumulative sum), not pairwise, so it does not depend on the shape."""
    half = thetas[None, :] - fatou.peak_thetas[:, None]
    half /= 2.0
    y = np.cumsum(1.0 / np.tan(half), axis=0)[-1]
    m = np.abs(y) / np.hypot(1.0, y)
    # y = +-inf (a node collided with a peak) gives nan; the limit is 1
    return np.where(np.isnan(m), 1.0, m)


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
    # Arc.contains on plain floats: numpy's per-call overhead would cost more
    # than this loop for the few peaks most clusters have
    center, half_width = excluded.center.theta, excluded.half_width
    for theta in fatou.peak_thetas.tolist():
        d = abs(theta - center)
        if not (d < half_width or TWO_PI - d < half_width):
            raise ValueError(f"peak at angle {theta!r} lies outside the excluded arc")
    ends = np.array([center + half_width, center + TWO_PI - half_width])
    rho = float(np.max(_boundary_modulus(fatou, ends)))
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
