"""Certified boundary interpolation by peak-function series.

One stage clusters the data by oscillation, builds a peak function per
cluster, raises each to the minimal power that kills its off-arc influence,
and forms the normalized sum

    h(z) = 1/(1+eps) * sum_k f(t_k) * lambda_k(z)^N .

Post-normalization, the stage's boundary modulus never exceeds the input sup
norm while the mismatch on the boundary set stays below eps*(1 + 2*sup).
Stacking stages against the successive residuals with a summable budget
schedule yields a function analytic on the disk and continuous up to the
boundary whose boundary modulus stays below sup + eta and whose values on
the set match the data up to an explicit truncation bound.

No bound is measured on a grid. The cluster arcs are pairwise disjoint, so a
boundary point lies in at most one of them and every other term is at most
|c_j| rho_j^N there, rho_j the off-arc supremum of lambda_j. The stage sup is
therefore at most (max_k |c_k| + sum_j |c_j| rho_j^N)/(1+eps), and by the
maximum modulus principle the same bound holds on the whole disk. Residuals
are evaluated on the set itself. Violated bounds raise CertificationError
instead of being recorded.

All evaluation goes through one traversal of (lambda, N, scale) terms,
scale = c_k/(1+eps), and one of two logs with the same contract:
``log_fatou`` on points of the closed disk (``eval_interpolant`` and
``eval_stage``), or ``log_fatou_on_circle`` on angles of points on the
circle (``eval_on_circle``, and the build's values on the set). Later
stages often rebuild an earlier cluster, so terms with equal peak functions
are grouped, and each group costs one log call per chunk of ``CHUNK``
points, so memory does not grow with the number of points beyond the
result. Two reducers share that traversal: the values, scale * exp(N log
lambda), and the real modulus bound ``modulus_bound_on_circle``,
|scale| * exp(N Re log lambda), with real exponentials and no phase; so
the audit bounds the boundary at every grid angle and evaluates it only
where the bound reaches the maximum. A term is skipped where |lambda|^N <
TERM_FLOOR = 2^-60, in the values and the bound alike, so a value moves by
less than 2^-60 * sum |scale|. The kernel hands the log the floor
log(TERM_FLOOR)/N of the group's lowest power; the log returns log lambda
only where that floor is met, with the indices of those points, and each
higher power tests its own floor on what is left. Each power is
exp(N log lambda) there; on the peaks log lambda is exactly 0, so a term
there is exactly its scale. What the log may drop unevaluated, and how it
knows, belongs to the log: inside the disk, the points within the
Schwarz-Pick radius of the floor; on the circle, the angles whose cotangent
sum is too small. The kernel does not branch on geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circle import (
    BoundaryData,
    Clustering,
    FiniteBoundarySet,
    cluster_by_oscillation,
)
from .errors import CertificationError, DomainError
# The entry points look the two logs up by their names here at call time, so
# a tracer can wrap them.
# eval_fatou is no longer called here but stays bound: perfbench wraps it.
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
SUP_CERT_TOL = 1e-9       # slack for the final boundary-sup certificate check
RESIDUAL_CERT_TOL = 1e-12  # slack for the final residual certificate check
TERM_FLOOR = 2.0**-60     # evaluation skips a term lambda^N where it is below this
LOG_TERM_FLOOR = math.log(TERM_FLOOR)
CHUNK = 8192              # points per evaluation pass


@dataclass(frozen=True)
class StageApproximant:
    """One normalized stage h, its bound on the sup over the closed disk and
    its measured residual on the set."""

    clustering: Clustering
    coefficients: tuple[complex, ...]
    lambdas: tuple[FatouFunction, ...]
    power: int
    normalization: float
    epsilon: float
    certified_sup: float
    certified_residual: float

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be at least 1")
        if not 0.0 < self.normalization <= 1.0:
            raise ValueError("normalization must lie in (0, 1]")


@dataclass(frozen=True)
class EtaSchedule:
    """Per-stage positive budgets eta_1..eta_n with strict total below eta."""

    eta: float
    terms: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be positive and finite")
        if not self.terms:
            raise ValueError("schedule needs at least one term")
        if any(not (math.isfinite(t) and t > 0.0) for t in self.terms):
            raise ValueError("schedule terms must be positive and finite")
        if not math.fsum(self.terms) < self.eta:
            raise ValueError("schedule terms must sum strictly below eta")


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
    """Truncated correction series with its budget schedule and certificate."""

    stages: tuple[StageApproximant, ...]
    schedule: EtaSchedule
    certificate: BoundsCertificate


def _kept_terms(
    terms: Iterable[tuple[FatouFunction, int, complex]],
    flat: np.ndarray,
    log,
):
    """The kept (offset, idx, power, scale, L) of (lambda, N, scale) terms
    on a 1-d array ``flat`` of points or angles: log lambda = L at
    ``flat[offset + idx]``, where Re L >= log(TERM_FLOOR)/N.

    Terms with equal peak functions share one ``log`` call per chunk of
    ``CHUNK`` points, at the floor log(TERM_FLOOR)/N of their lowest power.
    Terms go in ascending power, so within a group each higher power keeps
    a subset of the points the previous one kept.
    """
    groups: dict[FatouFunction, list[tuple[int, complex]]] = {}
    for lam, power, scale in sorted(terms, key=lambda t: t[1]):
        groups.setdefault(lam, []).append((power, scale))
    for start in range(0, flat.size, CHUNK):
        chunk = flat[start : start + CHUNK]
        for lam, group in groups.items():
            lowest = group[0][0]
            L, idx = log(lam, chunk, LOG_TERM_FLOOR / lowest)
            for power, scale in group:
                if power > lowest:
                    keep = (L.real >= LOG_TERM_FLOOR / power).nonzero()[0]
                    if keep.size < L.size:
                        L, idx = L[keep], idx[keep]
                if not idx.size:
                    break
                yield start, idx, power, scale, L


def _terms_sum(terms, xs: np.ndarray, log) -> np.ndarray:
    """Sum of scale * lambda^N = scale * exp(N log lambda) over the kept
    terms at ``xs``, with log lambda from ``log``, ``log_fatou`` on points
    of the closed disk or ``log_fatou_on_circle`` on angles."""
    total = np.zeros(xs.size, dtype=complex)
    for start, idx, power, scale, L in _kept_terms(terms, xs.reshape(-1), log):
        total[start : start + CHUNK][idx] += scale * np.exp(power * L)
    return total.reshape(xs.shape)


def _terms_bound(terms, xs: np.ndarray, log) -> np.ndarray:
    """Sum of |scale| * exp(N Re log lambda) over the kept terms at ``xs``:
    a real bound on the modulus of ``_terms_sum`` (see ``bound_slack``)."""
    total = np.zeros(xs.size)
    for start, idx, power, scale, L in _kept_terms(terms, xs.reshape(-1), log):
        total[start : start + CHUNK][idx] += abs(scale) * np.exp(power * L.real)
    return total.reshape(xs.shape)


def _stage_terms(
    lambdas: Sequence[FatouFunction],
    coefficients: Sequence[complex],
    power: int,
    normalization: float,
):
    """The (lambda, N, scale) terms of a stage, scale = normalization * c_k."""
    return (
        (lam, power, normalization * c) for lam, c in zip(lambdas, coefficients)
    )


def _build_stage(data: BoundaryData, epsilon: float, safety_margin: float):
    """Build one stage; returns (stage, values on E)."""
    epsilon = float(epsilon)
    clustering = cluster_by_oscillation(data, epsilon)
    k = len(clustering)
    lambdas = tuple(
        FatouFunction(
            FiniteBoundarySet(tuple(data.set.points[i] for i in sorted(c.members)))
        )
        for c in clustering.clusters
    )
    rhos = [
        sup_off_arc(lam, c.arc, safety_margin)
        for lam, c in zip(lambdas, clustering.clusters)
    ]
    power = choose_power(rhos, epsilon, k)
    coefficients = tuple(
        data.values[c.representative] for c in clustering.clusters
    )
    normalization = 1.0 / (1.0 + epsilon)

    at_e = _terms_sum(
        _stage_terms(lambdas, coefficients, power, normalization),
        data.set.thetas(),
        log_fatou_on_circle,
    )

    moduli = [abs(c) for c in coefficients]
    certified_sup = normalization * (
        max(moduli) + math.fsum(m * rho**power for m, rho in zip(moduli, rhos))
    )
    certified_residual = float(np.max(abs(data.value_array() - at_e)))
    if certified_sup > data.sup_norm:
        raise CertificationError(
            f"stage boundary sup bound {certified_sup} exceeds input sup norm "
            f"{data.sup_norm}"
        )
    residual_bound = epsilon * (1.0 + 2.0 * data.sup_norm)
    if not certified_residual < residual_bound:
        raise CertificationError(
            f"stage residual {certified_residual} not below its contract "
            f"bound {residual_bound}"
        )
    stage = StageApproximant(
        clustering=clustering,
        coefficients=coefficients,
        lambdas=lambdas,
        power=int(power),
        normalization=normalization,
        epsilon=epsilon,
        certified_sup=certified_sup,
        certified_residual=certified_residual,
    )
    return stage, at_e


def single_stage(
    data: BoundaryData, epsilon: float, safety_margin: float
) -> StageApproximant:
    """One clustered, powered, normalized approximation pass over the data.

    Post-normalization the stage satisfies (and certifies) sup on the closed
    disk <= sup norm of the data, by the disjoint-arc bound, and residual on
    the set < epsilon*(1 + 2*sup), measured on the set. The
    pre-normalization function is the stage divided by its
    ``normalization`` field.
    """
    stage, _ = _build_stage(data, epsilon, safety_margin)
    return stage


def make_schedule(eta: float, n_max: int) -> EtaSchedule:
    """Geometric budget schedule eta_n = eta/2^(n+1), n = 1..n_max; the last
    budget must not round to 0."""
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if math.ldexp(eta, -(n_max + 1)) == 0.0:
        raise ValueError(f"last budget eta/2^(n_max+1) is 0 at n_max={n_max}")
    return EtaSchedule(eta, tuple(math.ldexp(eta, -n) for n in range(2, n_max + 2)))


def residual_bound_after(schedule: EtaSchedule, n_stages: int) -> float:
    """Truncation bound on the set after ``n_stages`` built stages:
    eta_n + sum of the remaining schedule terms from n on (0 for no stages)."""
    if n_stages == 0:
        return 0.0
    tail = math.fsum(schedule.terms[n_stages - 1 :])
    return schedule.terms[n_stages - 1] + tail


def iterative_interpolant(
    data: BoundaryData,
    eta: float,
    n_max: int,
    grid_size: int,
    safety_margin: float,
) -> Interpolant:
    """Stack stages against successive residuals into a certified interpolant.

    Stage n approximates the running residual with stage epsilon
    eta_n/(1 + 2*res_sup), so its measured mismatch must come in below
    eta_n (enforced) while its sup bound stays below the residual sup.
    Iteration stops after n_max stages or once the residual drops below
    ``RESIDUAL_FLOOR``; zero data yields a zero interpolant with a trivial
    certificate. The final certificate records the sum of the stage sup
    bounds (below sup + eta, enforced) and the measured residual on the set
    (below the truncation bound, enforced).

    The build evaluates no boundary grid and does not read ``grid_size``;
    the parameter stays for callers that pass it positionally.
    """
    schedule = make_schedule(eta, n_max)
    residual = data.value_array()
    stages: list[StageApproximant] = []
    for n in range(1, n_max + 1):
        res_sup = float(np.max(abs(residual)))
        if res_sup < RESIDUAL_FLOOR:
            break
        eta_n = schedule.terms[n - 1]
        eps_n = eta_n / (1.0 + 2.0 * res_sup)
        stage_data = BoundaryData(data.set, tuple(residual.tolist()))
        stage, at_e = _build_stage(stage_data, eps_n, safety_margin)
        if stage.certified_residual > eta_n:
            raise CertificationError(
                f"stage {n} residual {stage.certified_residual} exceeds its "
                f"budget {eta_n}"
            )
        residual = residual - at_e
        stages.append(stage)

    sup_bound = math.fsum(s.certified_sup for s in stages)
    measured_residual = float(np.max(abs(residual)))
    bound = residual_bound_after(schedule, len(stages))
    if sup_bound > data.sup_norm + schedule.eta + SUP_CERT_TOL:
        raise CertificationError(
            f"boundary sup bound {sup_bound} exceeds {data.sup_norm} + eta"
        )
    if measured_residual > bound + RESIDUAL_CERT_TOL:
        raise CertificationError(
            f"residual {measured_residual} exceeds truncation bound {bound}"
        )
    certificate = BoundsCertificate(
        sup_norm_input=data.sup_norm,
        eta=schedule.eta,
        boundary_sup_bound=sup_bound,
        residual_bound_theoretical=bound,
        measured_max_residual_on_E=measured_residual,
        safety_margin=float(safety_margin),
    )
    return Interpolant(tuple(stages), schedule, certificate)


def _all_terms(stages: Iterable[StageApproximant]):
    """The (lambda, N, scale) terms of ``stages``, stage by stage."""
    return (
        term
        for s in stages
        for term in _stage_terms(s.lambdas, s.coefficients, s.power, s.normalization)
    )


def _eval_stages(stages: Iterable[StageApproximant], xs: np.ndarray, log):
    """Sum of ``stages`` at checked points or angles ``xs``, with ``log`` the
    log that takes them; a 0-d array gives a complex."""
    vals = _terms_sum(_all_terms(stages), xs, log)
    if xs.ndim == 0:
        return complex(vals[()])
    return vals


def _finite_angles(thetas) -> np.ndarray:
    """``thetas`` as a float array, after checking that every angle is finite."""
    ts = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise DomainError("evaluation angle not finite")
    return ts


def eval_stage(stage: StageApproximant, z):
    """Evaluate one normalized stage on the closed disk."""
    return _eval_stages((stage,), require_closed_disk(z), log_fatou)


def eval_interpolant(interpolant: Interpolant, z):
    """Evaluate the stage sum on the closed disk (0 for a zero-stage result)."""
    return _eval_stages(interpolant.stages, require_closed_disk(z), log_fatou)


def eval_on_circle(interpolant: Interpolant, thetas):
    """Evaluate the stage sum at e^(i*theta) for a finite angle or an array
    of them. The values come from the angles, never from rounded points, so
    they stay accurate next to a peak for powers up to about 1e10."""
    return _eval_stages(interpolant.stages, _finite_angles(thetas), log_fatou_on_circle)


def modulus_bound_on_circle(interpolant: Interpolant, thetas) -> np.ndarray:
    """B(theta) = sum |scale| exp(N Re log lambda) over the terms that
    ``eval_on_circle`` keeps at e^(i*theta), for an array of finite angles.

    It takes the same logs and the same kept terms as the values, but real
    exponentials and no phase, and bounds the computed values:
    |eval_on_circle(interpolant, thetas)| <= B * (1 + bound_slack(interpolant))
    at every angle.
    """
    return _terms_bound(
        _all_terms(interpolant.stages), _finite_angles(thetas), log_fatou_on_circle
    )


def bound_slack(interpolant: Interpolant) -> float:
    """(2K + 16) * 2^-53 for an interpolant of K terms: the relative slack
    by which the computed modulus of a value may exceed its computed
    ``modulus_bound_on_circle``.

    Both take the same x = N Re log lambda: the real part of the complex
    product N * log lambda is the rounded real product. Let u = 2^-53 and
    exp, cos, sin and hypot be within 1 ulp (2u), as numpy tests them. A
    complex term scale * exp(N log lambda) then has modulus at most
    |scale| e^x (1 + 5u) (1 + sqrt(5) u): the exponential, cosine and sine,
    and their products; then the complex product. The real term
    |scale| * exp(x) is at least |scale| e^x (1 - 5u). So a term's ratio is
    below 1 + 12.3u to first order. A value adds at most K terms to 0, with
    K - 1 roundings: the complex sum is off by at most (K - 1) u sum |term|
    (componentwise, and the moduli add by Minkowski), and the real sum of
    nonnegative terms loses at most (K - 1) u, so 2(K - 1) u more. The final
    modulus adds 2u and the rounding of B * (1 + slack) u: 2K + 13.3 in all,
    and the second-order terms, of order (K u)^2, fit in the rest of 16.
    2K + 16 is even, so 1 + slack is exact.
    """
    terms = sum(len(s.lambdas) for s in interpolant.stages)
    return (2 * terms + 16) * 2.0**-53
