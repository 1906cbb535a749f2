"""Certified boundary interpolation by peak-function series.

One stage clusters the data by oscillation, builds a peak function per
cluster, raises each to the minimal power that kills its off-arc influence,
and forms the normalized sum

    h(z) = 1/(1+eps) * sum_k f(t_k) * lambda_k(z)^N .

Post-normalization, the stage's boundary modulus never exceeds the input sup
norm while the mismatch on the boundary set stays below eps*(1 + 2*sup).
Every stage shares the set's angle array; it keeps the residual it leaves
as a ``BoundaryData`` record, which is the next stage's data, and each peak
set is a slice of the angles, so no stage makes a per-point object. A stage
stores each fact once: its epsilon is its clustering's oscillation bound,
its normalization 1/(1+eps) and its certified residual its residual's sup.
Stacking stages against the successive residuals with the summable budgets
eta_n = eta/2^(n+1) yields a function analytic on the disk and continuous
up to the boundary whose boundary modulus stays below sup + eta and whose
values on the set match the data up to an explicit truncation bound.

No bound is measured on a grid. The cluster arcs are pairwise disjoint, so a
boundary point lies in at most one of them and every other term is at most
|c_j| rho_j^N there, rho_j the off-arc supremum of lambda_j. The stage sup is
therefore at most (max_k |c_k| + sum_j |c_j| rho_j^N)/(1+eps), and by the
maximum modulus principle the same bound holds on the whole disk. Residuals
are evaluated on the set itself. Violated bounds raise CertificationError
instead of being recorded.

All evaluation goes through one traversal of (lambda, N, scale) terms,
scale = c_k/(1+eps). Later stages often rebuild an earlier cluster, so an
interpolant groups its terms once, on first use, into a table of (lambda,
((N, scale), ...)) per distinct peak function, the powers ascending, and
each group costs one log call per chunk of ``CHUNK`` points, so memory does
not grow with the number of points beyond the result. The kernel takes its
log from the input's dtype: ``log_fatou`` on complex points of the closed
disk (``eval_interpolant``), ``log_fatou_on_circle`` on real angles of
points on the circle (``eval_on_circle``, and the build's values on the
set); both have one contract. Two reducers share that traversal: the
values, scale * exp(N log lambda), and the arc envelope ``arc_envelope``,
which takes each term's modulus |scale| * exp(N Re log lambda), with real
exponentials and no phase, at the two ends of an arc, keeps the larger, and
also sums the values there; so the audit bounds |g| on whole arcs from
their ends and reads g there in one traversal. A term is skipped where
|lambda|^N < TERM_FLOOR = 2^-60, in the values and the envelope alike, so a
value moves by less than 2^-60 * sum |scale|. The kernel hands the log the
floor log(TERM_FLOOR)/N of the group's lowest power; the log returns log
lambda only where that floor is met, with the indices of those points, and
each higher power tests its own floor on what is left. Each power is exp(N
log lambda) there; on the peaks log lambda is exactly 0, so a term there is
exactly its scale. What the log may drop unevaluated, and how it knows,
belongs to the log. Only the point log drops anything early: the points
within the Schwarz-Pick radius of the floor, and the points beyond the
floor's reach from a peak function's peaks; for the first test the kernel
hands it each chunk's range of |z|. The angle log forms the real part at
every angle and keeps those at or above the floor. The kernel does not
branch on geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .circle import BoundaryData, Clustering, cluster_by_oscillation
from .errors import CertificationError, DomainError
# The kernel looks the two logs up by their names here at call time, so a
# tracer can wrap them; eval_fatou is bound here for perfbench, which wraps it.
from .fatou import (
    FatouFunction,
    choose_power,
    eval_fatou,
    log_fatou,
    log_fatou_on_circle,
    require_closed_disk,
    sup_off_arc,
)

RESIDUAL_FLOOR = 1e-15    # residual sup norm below which iteration stops
TERM_FLOOR = 2.0**-60     # evaluation skips a term lambda^N where it is below this
LOG_TERM_FLOOR = math.log(TERM_FLOOR)
CHUNK = 8192              # points per evaluation pass


@dataclass(frozen=True)
class StageApproximant:
    """One normalized stage h, its bound on the sup over the closed disk and
    the residual it leaves on the set.

    ``epsilon`` is the clustering's oscillation bound, ``normalization``
    1/(1+epsilon) and ``certified_residual`` the residual's ``sup_norm``.
    """

    clustering: Clustering
    coefficients: tuple[complex, ...]
    lambdas: tuple[FatouFunction, ...]
    power: int
    certified_sup: float
    residual: BoundaryData

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be at least 1")

    @property
    def epsilon(self) -> float:
        return self.clustering.oscillation_bound

    @property
    def normalization(self) -> float:
        return 1.0 / (1.0 + self.epsilon)

    @property
    def certified_residual(self) -> float:
        return self.residual.sup_norm


@dataclass(frozen=True)
class BoundsCertificate:
    """Bounds attached to a finished interpolant.

    ``boundary_sup_bound`` is the sum of the stage sup bounds: it bounds the
    modulus on the closed disk and is at most sup_norm_input + eta.
    """

    sup_norm_input: float
    eta: float
    boundary_sup_bound: float
    residual_bound_theoretical: float
    measured_max_residual_on_E: float
    safety_margin: float


@dataclass(frozen=True)
class Interpolant:
    """Truncated correction series with its certificate. ``terms``, the
    table of its (lambda, N, scale) terms, scale = c_k/(1+eps), grouped by
    ``_group_terms``, is made on first read."""

    stages: tuple[StageApproximant, ...]
    certificate: BoundsCertificate

    @cached_property
    def terms(self):
        return _group_terms(
            (lam, s.power, s.normalization * c)
            for s in self.stages
            for lam, c in zip(s.lambdas, s.coefficients)
        )


def _group_terms(terms: Iterable[tuple[FatouFunction, int, complex]]):
    """The (lambda, N, scale) terms as a table of (lambda, ((N, scale),
    ...)) per distinct peak function: the terms sorted by power, stably, and
    the peak functions in the order they first appear there."""
    groups: dict[FatouFunction, list[tuple[int, complex]]] = {}
    for lam, power, scale in sorted(terms, key=lambda t: t[1]):
        groups.setdefault(lam, []).append((power, scale))
    return tuple((lam, tuple(group)) for lam, group in groups.items())


def _kept_terms(groups, flat: np.ndarray):
    """The kept (offset, idx, power, scale, L) of a ``_group_terms`` table
    on a 1-d array ``flat``, of complex points of the closed disk
    (``log_fatou``) or of real angles (``log_fatou_on_circle``): log lambda
    = L at ``flat[offset + idx]``, where Re L >= log(TERM_FLOOR)/N.

    Each peak function has one log call per chunk of ``CHUNK`` points, at
    the floor log(TERM_FLOOR)/N of its lowest power. A chunk of points also
    hands the log its (min, max) modulus, formed once for all the peak
    functions. A group's powers ascend, so each higher power keeps a subset
    of the points the previous one kept.
    """
    points = np.iscomplexobj(flat)
    log = log_fatou if points else log_fatou_on_circle
    for start in range(0, flat.size, CHUNK):
        chunk = flat[start : start + CHUNK]
        moduli = (_modulus_range(chunk),) if points else ()
        for lam, group in groups:
            lowest = group[0][0]
            L, idx = log(lam, chunk, LOG_TERM_FLOOR / lowest, *moduli)
            for power, scale in group:
                if power > lowest:
                    keep = (L.real >= LOG_TERM_FLOOR / power).nonzero()[0]
                    if keep.size < L.size:
                        L, idx = L[keep], idx[keep]
                if not idx.size:
                    break
                yield start, idx, power, scale, L


def _modulus_range(zs: np.ndarray) -> tuple[float, float]:
    """(min, max) |z| over a non-empty array of points; the moduli are freed
    on return, so nothing chunk-sized outlives the call."""
    r = np.abs(zs)
    return float(r.min()), float(r.max())


def _terms_sum(groups, xs: np.ndarray):
    """Sum of scale * lambda^N = scale * exp(N log lambda) over the kept
    terms of a ``_group_terms`` table at ``xs``, complex points of the
    closed disk or real angles; an array of the shape of ``xs``, or a
    complex for a 0-d ``xs``."""
    total = np.zeros(xs.size, dtype=complex)
    for start, idx, power, scale, L in _kept_terms(groups, xs.reshape(-1)):
        total[start : start + CHUNK][idx] += scale * np.exp(power * L)
    return complex(total[0]) if xs.ndim == 0 else total.reshape(xs.shape)


def single_stage(
    data: BoundaryData, epsilon: float, safety_margin: float
) -> StageApproximant:
    """One clustered, powered, normalized approximation pass over the data.

    Each peak function is raised to ``choose_power(max rho, eps/k)``, rho
    the k clusters' off-arc suprema, so it is below eps/k off its arc; after
    normalization the stage satisfies (and certifies) sup on the closed disk
    <= sup norm of the data, by the disjoint-arc bound, and residual on the
    set < epsilon*(1 + 2*sup), measured on the set. The residual it leaves,
    the data minus the stage's values on the set, is its ``residual``
    record; the pre-normalization function is the stage divided by its
    ``normalization``.
    """
    clustering = cluster_by_oscillation(data, epsilon)
    epsilon = clustering.oscillation_bound  # the stage's epsilon, as a float
    lambdas = tuple(
        FatouFunction(data.set._circular_range(c.start, c.size))
        for c in clustering.clusters
    )
    rhos = [
        sup_off_arc(lam, c.arc, safety_margin)
        for lam, c in zip(lambdas, clustering.clusters)
    ]
    power = choose_power(max(rhos), epsilon / len(rhos))
    representatives = [c.representative for c in clustering.clusters]
    coefficients = tuple(data.values[representatives].tolist())
    normalization = 1.0 / (1.0 + epsilon)

    terms = _group_terms(
        (lam, power, normalization * c) for lam, c in zip(lambdas, coefficients)
    )
    values_on_E = _terms_sum(terms, data.set.thetas)
    residual = BoundaryData(data.set, data.values - values_on_E)

    moduli = [abs(c) for c in coefficients]
    certified_sup = normalization * (
        max(moduli) + math.fsum(m * rho**power for m, rho in zip(moduli, rhos))
    )
    if certified_sup > data.sup_norm:
        raise CertificationError(
            f"stage boundary sup bound {certified_sup} exceeds input sup norm "
            f"{data.sup_norm}"
        )
    residual_bound = epsilon * (1.0 + 2.0 * data.sup_norm)
    if not residual.sup_norm < residual_bound:
        raise CertificationError(
            f"stage residual {residual.sup_norm} not below its contract "
            f"bound {residual_bound}"
        )
    return StageApproximant(
        clustering, coefficients, lambdas, int(power), certified_sup, residual
    )


def make_schedule(eta: float, n_max: int) -> tuple[float, ...]:
    """The budgets eta_n = eta/2^(n+1), n = 1..n_max, which sum strictly
    below eta; the last budget must not round to 0. ``eta`` must not be a
    bool or a numpy bool, and ``n_max`` must be an int or a numpy integer,
    not a bool."""
    if isinstance(eta, (bool, np.bool_)) or not (
        math.isfinite(eta := float(eta)) and eta > 0.0
    ):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if math.ldexp(eta, -(n_max + 1)) == 0.0:
        raise ValueError(f"last budget eta/2^(n_max+1) is 0 at n_max={n_max}")
    return tuple(math.ldexp(eta, -n) for n in range(2, n_max + 2))


def stage_epsilon(eta_n: float, sup: float) -> float:
    """The stage tolerance eps_n = eta_n/(1 + 2*sup) of budget eta_n against
    a residual of sup norm ``sup``; ValueError unless it is positive and
    finite. Only stage 1 can fail: a later stage has sup <= eta_(n-1) =
    2*eta_n, so eps_n >= eta_n/(1 + 4*eta_n) > 0."""
    eps = eta_n / (1.0 + 2.0 * sup)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(
            f"stage tolerance eta_n/(1 + 2*sup) = {eps!r} is not positive "
            f"and finite (eta_n = {eta_n!r}, sup = {sup!r})"
        )
    return eps


def iterative_interpolant(
    data: BoundaryData,
    eta: float,
    n_max: int,
    grid_size: int,
    safety_margin: float,
) -> Interpolant:
    """Stack stages against successive residuals into a certified interpolant.

    Stage n approximates the running residual with stage epsilon
    ``stage_epsilon(eta_n, res_sup)`` = eta_n/(1 + 2*res_sup), so its
    measured mismatch must come in below eta_n (enforced) while its sup
    bound stays below the residual sup. The running residual is ``data``,
    then the last stage's ``residual``, handed on unchanged; res_sup is its
    ``sup_norm``, measured once. Iteration stops after n_max stages or once
    res_sup drops below ``RESIDUAL_FLOOR``; data whose sup norm is already
    below it yields a zero interpolant, whose truncation bound is that sup
    norm, what the zero function leaves on the set (0 for zero data). The
    final certificate records the sum of the stage sup bounds and the last
    res_sup; the stage checks imply both totals. Stage 1's sup is at most
    sup and stage n's at most res_sup of stage n - 1, at most eta_(n-1), so
    the sum is at most sup + eta/2; and res_sup <= eta_k is at most half the
    truncation bound eta_k + sum of the budgets from k on after k stages.

    The build evaluates no boundary grid and does not read ``grid_size``;
    the parameter stays for callers that pass it positionally.
    """
    budgets = make_schedule(eta, n_max)
    eta = float(eta)
    residual = data
    stages: list[StageApproximant] = []
    for n, eta_n in enumerate(budgets, start=1):
        if residual.sup_norm < RESIDUAL_FLOOR:
            break
        eps_n = stage_epsilon(eta_n, residual.sup_norm)
        stage = single_stage(residual, eps_n, safety_margin)
        if stage.certified_residual > eta_n:
            raise CertificationError(
                f"stage {n} residual {stage.certified_residual} exceeds its "
                f"budget {eta_n}"
            )
        stages.append(stage)
        residual = stage.residual

    k = len(stages)
    bound = budgets[k - 1] + math.fsum(budgets[k - 1 :]) if k else data.sup_norm
    certificate = BoundsCertificate(
        sup_norm_input=data.sup_norm,
        eta=eta,
        boundary_sup_bound=math.fsum(s.certified_sup for s in stages),
        residual_bound_theoretical=bound,
        measured_max_residual_on_E=residual.sup_norm,
        safety_margin=float(safety_margin),
    )
    return Interpolant(tuple(stages), certificate)


def _finite_angles(thetas) -> np.ndarray:
    """``thetas`` as a float array, after checking that every angle is finite."""
    ts = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise DomainError("evaluation angle not finite")
    return ts


def eval_interpolant(interpolant: Interpolant, z):
    """Evaluate the stage sum on the closed disk (0 for a zero-stage result)."""
    return _terms_sum(interpolant.terms, require_closed_disk(z))


def eval_on_circle(interpolant: Interpolant, thetas):
    """Evaluate the stage sum at e^(i*theta) for a finite angle or an array
    of them. The values come from the angles, never from rounded points, so
    they stay accurate next to a peak for powers up to about 1e10."""
    return _terms_sum(interpolant.terms, _finite_angles(thetas))


def arc_envelope(interpolant: Interpolant, ends) -> tuple[np.ndarray, np.ndarray]:
    """(envelope, values) for arcs of the circle given by the angles of
    their two ends, an (arcs, 2) array of finite angles.

    ``values`` has the shape of ``ends`` and is g there, bit for bit
    ``eval_on_circle`` (same logs, same order). ``envelope`` is, per arc,
    sum |scale| max(exp(N Re log lambda(a)), exp(N Re log lambda(b))) over
    the terms the kernel keeps at either end, plus (TERM_FLOOR + s) * sum
    |scale|, s the ``envelope_slack``, for the dropped terms and the
    rounding, so it bounds the true moduli.

    On an arc with no peak of any term inside it, each term's modulus is
    largest at an end (``fatou.sup_off_arc``), so ``envelope`` bounds |g| on
    the whole arc; on the zero-length arc [theta, theta] it bounds
    |g(e^(i*theta))|. The arcs go to the kernel in blocks of ``CHUNK // 2``,
    each distinct angle of a block once, so an end that neighbouring arcs
    share is evaluated once and a block is one chunk.
    """
    ends = _finite_angles(ends)
    values = np.zeros(ends.shape, dtype=complex)
    envelope = np.zeros(ends.shape[0])
    terms = interpolant.terms
    for first in range(0, ends.shape[0], CHUNK // 2):
        block = slice(first, first + CHUNK // 2)
        angles, inverse = np.unique(ends[block].ravel(), return_inverse=True)
        block_values = np.zeros(angles.size, dtype=complex)
        for _, idx, power, scale, L in _kept_terms(terms, angles):
            block_values[idx] += scale * np.exp(power * L)
            moduli = np.zeros(angles.size)
            moduli[idx] = abs(scale) * np.exp(power * L.real)
            envelope[block] += moduli[inverse].reshape(-1, 2).max(axis=1)
        values[block] = block_values[inverse].reshape(-1, 2)
    allowance = (TERM_FLOOR + envelope_slack(interpolant)) * math.fsum(
        abs(scale) for _, group in terms for _, scale in group
    )
    return envelope + allowance, values


def envelope_slack(interpolant: Interpolant) -> float:
    """s = (84 (m + 2) + 7 m max(121, ceil(sqrt(N))) + K + 260) * 2^-53,
    rounded up to an even multiple of 2^-53, for an interpolant of K terms
    with at most m peaks per peak function and largest power N: the
    rounding of a term's modulus at an angle, in units of its |scale|, and
    of their sum.

    Let u = 2^-53, y the cotangent sum at the angle and ell = Re log lambda
    = -log1p(1/y^2)/2. A kept term has |N ell| <= 60 log 2 < 42; on its own
    peak it is exactly |scale|. To first order in u:
    - Given the computed y: 1/y, its square, log1p (within 1 ulp, and its
      condition number x/((1+x) log1p(x)) is at most 1), N * ell and exp
      put exp(N ell) within 6u * 42 + 3u < 255u of the exact value for that
      y; the product with |scale| adds u.
    - The cotangent sum: N d(ell)/d(log|y|) = N/(1+y^2) = 2 N |ell| x/((1+x)
      log1p(x)) <= 84, x = 1/y^2. Each cotangent and the m - 1 additions
      err by at most (m + 2)u times the sum of the moduli of the terms,
      which is |y| where the terms share a sign, as they do next to a
      peak; that moves exp(N ell) by at most 84 (m + 2)u relatively.
    - Each angle difference theta - theta_j (|.| < 4 pi) is rounded by at
      most a = 4 pi u, which moves its cotangent by (a/2)(1 + cot^2), so y
      by at most 2 pi u (m + y^2) where the terms share a sign, and N ell by
      2 pi u N (m + y^2)/(|y| (1 + y^2)) <= 2 pi u m N/|y|. Times the
      modulus M = exp(N ell) = (1 + 1/y^2)^(-N/2): for |y| >= 1, M N/|y|
      <= sqrt(N), its largest value over y; for |y| < 1, M <= 2^(-N/2) keeps
      only N <= 120, and M N/|y| <= N. So 7 m max(121, sqrt(N)) u covers
      it, 7 > 2 pi.
    - Summing K terms of modulus at most |scale| adds K u sum |scale|, and
      the allowance in ``arc_envelope`` and the final addition a few u more.
    The terms do not share a sign only where the cotangent sum cancels, away
    from the peaks of its peak function; the slack does not cover a sum that
    cancels to far below its terms. Tests check it against mpmath at arc
    ends next to peaks for powers up to 2.2e9, and at the audit's first
    bisection points, where a sum cancels to a twentieth of its terms.
    """
    terms = interpolant.terms
    if not terms:
        return 0.0
    m = max(len(lam.peaks) for lam, _ in terms)
    power = max(group[-1][0] for _, group in terms)
    root = max(121, math.isqrt(power - 1) + 1)
    count = sum(len(group) for _, group in terms)
    units = 84 * (m + 2) + 7 * m * root + count + 260
    return (units + units % 2) * 2.0**-53
