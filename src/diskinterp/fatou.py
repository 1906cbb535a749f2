"""Peak functions on the closed unit disk.

For a finite boundary set the rational function built here equals 1 at every
point of the set and has modulus strictly below 1 everywhere else on the
closed disk. It reads the peak angles from the set's array and makes the
peak points once. It is assembled from the half-plane sum

    F(z) = sum_j (a_j + z) / (a_j - z),   a_j the peak points,

whose real part is positive on the open disk and vanishes on the circle off
the peaks. The peak function is F/(1+F), evaluated from its logarithm
log lambda = -log1p(1/F); 1 + F never vanishes on the closed disk because
Re F >= 0 there. The same log gives the powers lambda^N, with N up to
about 1e10. With F = a + ib, |1 + 1/F|^2 = 1 + (1+2a)/|F|^2 and
arg(1 + 1/F) = -atan2(b, a + |F|^2); for a >= 0 neither form cancels, so
both parts of the log keep full relative precision however close |lambda|
is to 1.

On the circle off the peaks F = iy, with y = sum_j cot((theta - theta_j)/2)
a real cotangent sum of angle differences, so |lambda| = |y|/sqrt(1+y^2)
and, with u = 1/y, log lambda = -log1p(u^2)/2 + i atan(u). The evaluation
kernel takes its logs from points of the closed disk (``log_fatou``) or from
angles (``log_fatou_on_circle``), under one contract: given a ``floor``,
each returns (L, keep), log lambda where its real part is at least the
floor and the indices of those inputs. Only the point log drops inputs
before forming anything, with two skips: the points inside the Schwarz-Pick
radius of the floor (``_skip_radius``), and the points beyond the floor's
reach from the peaks (``_reach``), where |F| is too small for lambda to
meet it. Both margins for rounding hold for powers up to ``MAX_POWER`` =
10^12 at the kernel's floor, and a stage refuses a larger power. The angle
log forms the real part at every angle and keeps those at or above the
floor. So the kernel does not branch on geometry. The angle form never
rounds a point e^(i*theta) or a peak point, so it stays accurate next to a
peak for powers up to about 1e10.

The module also provides off-arc suprema and the minimal power that
contracts those suprema below a target. No grid is needed for the suprema:
off the peaks the cotangent sum is strictly decreasing, so on a peak-free
arc |lambda| is largest at an arc endpoint, and the suprema are read from
the angle log there. No logarithm is needed for the power: the least N with
rho^N < target is found by doubling N, then bisecting, on that predicate
itself, in at most 2*bit_length(N) evaluations of rho**N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import Arc, FiniteBoundarySet, TWO_PI
from .errors import DomainError, NoContractionError

DISK_SLACK = 1e-12    # |z| tolerance beyond the closed disk
SKIP_MARGIN = 2.0**-10  # relative margin on the floor of the skip radius
FEW_ANGLES = 256      # cotangent sums up to this many angles use one broadcast
MAX_POWER = 10**12    # largest power the skips' rounding margins cover (_skip_radius)


@dataclass(frozen=True)
class FatouFunction:
    """Peak function for a finite boundary set: exactly 1 on ``peaks`` and
    below 1 in modulus everywhere else on the closed disk. The angles are
    ``peaks.thetas``; ``peak_points``, the read-only array of the points
    e^(i*theta), is made on first read; equality and hash go by ``peaks``."""

    peaks: FiniteBoundarySet

    @cached_property
    def peak_points(self) -> np.ndarray:
        points = np.exp(1j * self.peaks.thetas)
        points.setflags(write=False)
        return points

    @cached_property
    def peak_disk(self) -> tuple[complex, float]:
        """(c, rho): the mean c of the peak points and rho >= max_j |a_j - c|,
        the largest distance rounded up, so the closed disk of radius rho
        about c holds every peak point a_j (``_reach``)."""
        points = self.peak_points
        center = complex(points.mean())
        return center, float(np.abs(points - center).max()) * (1.0 + 2.0**-50)


def require_closed_disk(z) -> np.ndarray:
    """``z`` as a complex array, after checking that every point is finite
    with |z| <= 1 + ``DISK_SLACK`` (a NaN fails the comparison, so it is
    rejected too); raise DomainError otherwise."""
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.abs(zs) <= 1.0 + DISK_SLACK):
        raise DomainError("evaluation point outside the closed unit disk")
    return zs


def eval_fatou(fatou: FatouFunction, z):
    """Evaluate the peak function at a point (or array) of the closed disk,
    as exp(log lambda) from ``log_fatou``: exactly 1 where F is infinite (on
    a peak, or by overflow next to one) and exactly 0 where F = 0.

    Raises DomainError unless every point is finite with |z| <= 1 +
    ``DISK_SLACK``.
    """
    zs = require_closed_disk(z)
    L, _ = log_fatou(fatou, zs.reshape(-1))  # no floor: every point is kept
    lam = np.exp(L).reshape(zs.shape)
    if zs.ndim == 0:
        return complex(lam[()])
    return lam


def _skip_radius(peak_count: int, floor: float) -> float:
    """Radius r such that Re log lambda < ``floor`` (< 0) wherever |z| < r,
    for a peak function with ``peak_count`` peaks, with room for rounding; 0
    when no such disk exists.

    F(0) = m, the peak count, so lambda(0) = mu = m/(m+1), and lambda maps
    the disk into itself; by Schwarz-Pick |lambda(z)| <= (mu + |z|)/(1 +
    mu|z|). That bound equals q at |z| = (q - mu)/(1 - mu q) = (1 - (m+1)s)/
    (1 + ms), s = 1 - q, the form computed here, with
    q = exp(floor (1 + SKIP_MARGIN)) instead of exp(floor).

    The margin covers rounding. The real part of each half-plane term is at
    least (1-|z|)/2 times its modulus, so the computed Re log lambda is
    within a relative c eps (m + 2/(1-|z|)) of the true one (c < 0.3 measured
    against mpmath), and inside the radius 1 - |z| > 1 - r = (1-q)(1+mu)/
    (1 - mu q), so 2/(1-|z|) < (4/3)/(1-q) < (4/3)(1 + 1/|floor|). With the
    rounding of |z| and of r, SKIP_MARGIN = 2^-10 covers floors down to
    about -4e-11, log(2^-60)/MAX_POWER at the kernel's 2^-60 term floor, so
    powers up to ``MAX_POWER`` = 10^12. Away from z = 0 the Schwarz-Pick
    bound has slack besides.
    """
    s = -math.expm1(floor * (1.0 + SKIP_MARGIN))
    return max(0.0, (1.0 - (peak_count + 1) * s) / (1.0 + peak_count * s))


def _reach(peak_count: int, spread: float, floor: float) -> float:
    """Reach R such that Re log lambda < ``floor`` (<= 0) wherever |z - c| >
    R and |z| <= 1 + ``DISK_SLACK``, for a peak function with ``peak_count``
    peaks within ``spread`` of a centre c (``FatouFunction.peak_disk``), with
    room for rounding; inf for a floor of -inf.

    Let m be the peak count, rho the spread, delta = DISK_SLACK and D = |z -
    c| - rho > 0. Every peak a_j is then at least D from z, so each term of
    F has modulus |a_j + z|/|a_j - z| <= (2 + delta)/D and real part (1 -
    |z|^2)/|a_j - z|^2 >= -(2 delta + delta^2)/D^2 (>= 0 on the closed disk).
    As 1/|lambda|^2 = 1 + (1 + 2 Re F)/|F|^2, log|lambda| <= floor once
    (D^2 - 2 (2 delta + delta^2) m)/((2 + delta)^2 m^2) >= E = expm1(-2
    floor), which R = rho + 2 sqrt(m (m E' + 2 delta)) meets, with E' =
    expm1(-2 floor (1 + SKIP_MARGIN)) >= (1 + SKIP_MARGIN) E.

    The margin covers rounding, with u = 2^-53. Beyond R, D > 2 m sqrt(E')
    and D^2 > 8 m delta, so 1 + 2 Re F > 1/2 - delta. The computed F is
    within (m + 8) u sum_j |a_j + z|/|a_j - z| of F (each term within a few
    u, then m - 1 additions), which moves the computed (1 + 2 Re F)/|F|^2 by
    a relative 4 (m + 8) u min(1/sqrt(E'), sqrt(m/(2 delta))) at most;
    |z - c|, rho and R are off by a few ulps of 2, far below the margin's
    share of R - rho > 2.8e-6. The reach is below 2, where the test runs,
    only when m sqrt(E') < 1, so at floors above -0.35. For m up to 10^4
    the rounding stays below SKIP_MARGIN/2 at every such floor, 0 included;
    for m up to 10^6 it does at floors down to about -4e-11 (powers up to
    ``MAX_POWER`` at the kernel's 2^-60 term floor).
    """
    s = math.expm1(-2.0 * floor * (1.0 + SKIP_MARGIN))
    return spread + 2.0 * math.sqrt(peak_count * (peak_count * s + 2.0 * DISK_SLACK))


def _unskipped(
    fatou: FatouFunction, zs: np.ndarray, floor: float, moduli: tuple[float, float]
) -> np.ndarray | None:
    """Indices of the points of ``zs`` outside the ``_skip_radius`` of
    ``floor`` and within its ``_reach`` of ``fatou.peak_disk``'s centre, or
    None when neither test drops a point; ``moduli`` bounds |z| over ``zs``
    from below and above, so a skip radius outside it needs no |z| pass."""
    m = len(fatou.peaks)
    radius = _skip_radius(m, floor)
    if radius > moduli[1]:
        return np.empty(0, dtype=np.intp)
    near = np.abs(zs) >= radius if radius > moduli[0] else None
    center, spread = fatou.peak_disk
    reach = _reach(m, spread, floor)
    if reach < 2.0:
        within = np.abs(zs - center) <= reach
        near = within if near is None else near & within
    if near is None:
        return None
    kept = near.nonzero()[0]
    return kept if kept.size < zs.size else None


def log_fatou(
    fatou: FatouFunction,
    zs: np.ndarray,
    floor: float = -math.inf,
    moduli: tuple[float, float] = (0.0, math.inf),
) -> tuple[np.ndarray, np.ndarray]:
    """(L, keep): log lambda = -log1p(1/F) at the points of a 1-d array of
    the closed disk, which the caller has checked, where its real part is at
    least ``floor``, and the indices of those points, so that L = log
    lambda(zs[keep]).

    Points inside the ``_skip_radius`` of ``floor`` (Schwarz-Pick) and points
    beyond its ``_reach`` from the peaks' centre are dropped before any term
    of F is formed (``_unskipped``), and when that drops them all nothing
    else runs; the test on the computed real part follows. ``moduli`` is
    (min, max) |z| over ``zs``, or bounds on them, as the kernel hands each
    chunk's. L is exactly 0 where F is not finite (on a peak, or where a
    term overflows next to one) and, by its form, where |F|^2 overflows, so
    every power is exactly 1 there; L is -inf where F = 0, where lambda
    vanishes. The real part is -log1p((1+2a)/|F|^2)/2 and the imaginary part
    atan2(b, a + |F|^2), for F = a + ib.
    """
    kept = _unskipped(fatou, zs, floor, moduli)
    if kept is not None:
        if not kept.size:
            return np.empty(0, dtype=complex), kept
        zs = zs[kept]
    F = np.zeros(zs.shape, dtype=complex)
    L = np.empty_like(F)
    re, im = L.real, L.imag
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for aj in fatou.peak_points:
            F += (aj + zs) / (aj - zs)
        a, b = F.real, F.imag
        s = a * a
        s += b * b  # |F|^2
        np.multiply(a, 2.0, out=re)
        re += 1.0
        re /= s
        np.log1p(re, out=re)
        re *= -0.5
        s += a
        np.arctan2(b, s, out=im)
    L[~np.isfinite(F)] = 0.0
    keep = (re >= floor).nonzero()[0]
    if keep.size < L.size:
        L = L[keep]
    return L, keep if kept is None else kept[keep]


def _cotangent_sum(fatou: FatouFunction, thetas: np.ndarray) -> np.ndarray:
    """y = sum_j cot((theta - theta_j)/2) on a 1-d array of angles, so that
    F(e^(i*theta)) = iy. On a peak y = +-inf, with a divide-by-zero that the
    caller may silence.

    The terms are added in peak order, never pairwise, so y does not depend
    on how the angles are split into arrays. Up to ``FEW_ANGLES`` angles,
    such as the two arc ends of ``sup_off_arc`` or a small set, one
    (peaks x angles) broadcast with a cumulative sum costs fewer numpy calls;
    beyond that one pass per peak keeps the work at the size of ``thetas``,
    where a blocked broadcast gives the same bits about a third slower. The
    difference of two nearby angles is exact, so y keeps full relative
    precision next to a peak."""
    if thetas.size <= FEW_ANGLES:
        d = thetas[None, :] - fatou.peaks.thetas[:, None]
        d *= 0.5
        np.tan(d, out=d)
        np.divide(1.0, d, out=d)
        return np.cumsum(d, axis=0)[-1]
    y = np.zeros(thetas.shape)
    d = np.empty(thetas.shape)
    for tj in fatou.peaks.thetas:
        np.subtract(thetas, tj, out=d)
        d *= 0.5
        np.tan(d, out=d)
        np.divide(1.0, d, out=d)
        y += d
    return y


def log_fatou_on_circle(
    fatou: FatouFunction, thetas: np.ndarray, floor: float = -math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """(L, keep): log lambda at the points e^(i*theta) of the circle, for a
    1-d array of angles, where its real part is at least ``floor``, and the
    indices of those angles, so that L = log lambda(e^(i*thetas[keep])).

    With F = iy and u = 1/y, lambda = 1/(1 - iu), so log lambda =
    -log1p(u^2)/2 + i atan(u), exactly 0 on a peak, where y = +-inf. The
    real part is formed at every angle and tested against the floor; the
    imaginary part only where that test keeps the angle.
    """
    with np.errstate(divide="ignore", over="ignore"):
        u = 1.0 / _cotangent_sum(fatou, thetas)
        re = u * u
        np.log1p(re, out=re)
        re *= -0.5
    keep = (re >= floor).nonzero()[0]
    if keep.size < re.size:
        u, re = u[keep], re[keep]
    L = np.empty(keep.shape, dtype=complex)
    L.real = re
    np.arctan(u, out=L.imag)
    return L, keep


def require_safety_margin(safety_margin: float) -> None:
    """ValueError unless ``safety_margin`` is positive and finite: the one
    rule on the margin, applied where a build starts and by each off-arc
    supremum it inflates."""
    if not (math.isfinite(safety_margin) and safety_margin > 0.0):
        raise ValueError(
            f"safety_margin must be positive and finite, got {safety_margin!r}"
        )


def sup_off_arc(
    fatou: FatouFunction,
    excluded: Arc,
    safety_margin: float,
) -> float:
    """Supremum of |lambda| over the boundary outside ``excluded``, inflated
    by ``1 + safety_margin`` (ValueError unless ``require_safety_margin``
    admits it). All peaks must lie inside the excluded arc.

    The complementary closed arc holds no peak, so the cotangent sum y, each
    of whose terms has derivative -csc^2/2, is strictly decreasing on it and
    |lambda| = |y|/sqrt(1+y^2) is largest at one of the two arc endpoints;
    the supremum is exp(max Re log lambda) there (``log_fatou_on_circle``).

    Raises NoContractionError when the inflated supremum reaches 1, also
    where an arc end rounds onto a peak, where log lambda = 0 (points a few
    ulps apart on the circle).
    """
    require_safety_margin(safety_margin)
    # a loop on plain floats: numpy's per-call overhead would cost more than
    # it for the few peaks most clusters have
    for theta in fatou.peaks.thetas.tolist():
        if not excluded.contains(theta):
            raise ValueError(f"peak at angle {theta!r} lies outside the excluded arc")
    center, half_width = excluded.center.theta, excluded.half_width
    ends = np.array([center + half_width, center + TWO_PI - half_width])
    L, _ = log_fatou_on_circle(fatou, ends)
    rho = math.exp(float(L.real.max())) * (1.0 + safety_margin)
    if not rho < 1.0:
        raise NoContractionError(
            f"off-arc modulus bound {rho} reached 1; separate close "
            "boundary points or reduce the safety margin"
        )
    return rho


def choose_power(rho: float, target: float) -> int:
    """Smallest integer N >= 1 with rho^N < target, for rho in (0, 1) and a
    positive finite target; a stage passes max rho and eps/k, k clusters.

    The search tests only that predicate, as the float power rho**n, which
    never rises with n: it doubles n from 1 until rho**n < target, then bisects
    between the last two tries. No logarithm is taken, and it evaluates
    rho**n at most 2*bit_length(N) times (126 for any N the floats allow).
    """
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise ValueError(f"off-arc supremum {rho!r} outside (0, 1)")
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError("target must be positive and finite")
    lo, hi = 0, 1  # the least N lies in (lo, hi] once the doubling stops
    while rho**hi >= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rho**mid < target else (mid, hi)
    return hi
