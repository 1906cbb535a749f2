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

All evaluation goes through one kernel over (lambda, N, scale) terms,
scale = c_k/(1+eps). It takes either points of the closed disk
(``eval_interpolant`` and ``eval_stage``) or angles of points on the circle
(``eval_on_circle``, and the build's values on the set). Later stages often
rebuild an earlier cluster, so terms with equal peak functions are grouped:
each group costs one log call, ``log_fatou`` on points, which gives
log lambda = -log1p(1/F) without cancellation, or ``log_fatou_on_circle``
on angles, which gives it from the cotangent sum without rounding a point.
Each of the group's powers is exp(N log lambda) on the points that survive
the floor. On the peaks log lambda is exactly 0, so a term there is exactly
its scale. A term is skipped where |lambda|^N < TERM_FLOOR = 2^-60, so a
value moves by less than 2^-60 * sum |scale|. On angles the modulus is
known before the phase, so the floor test for the group's lowest power runs
first. Inside the disk, a peak function with m peaks has lambda(0) =
m/(m+1) and maps the disk into itself, so by Schwarz-Pick every power of it
is below the floor inside a radius fixed by m and its lowest power; points
there are dropped before ``log_fatou`` runs, which changes no value. Points
go through in chunks of ``CHUNK``, so memory does not grow with the number
of points beyond the result.
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
# The kernel calls the two logs by their names here, so a tracer can wrap them.
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
SKIP_MARGIN = 2.0**-10    # relative margin on the exponent of the skip radius
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


def _skip_radius(peak_count: int, power: int) -> float:
    """Radius r such that the kernel's floor test drops every point with
    |z| < r at ``power``, for a peak function with ``peak_count`` peaks; 0
    when no such disk exists.

    F(0) = m, the peak count, so lambda(0) = mu = m/(m+1), and lambda maps
    the disk into itself; by Schwarz-Pick |lambda(z)| <= (mu + |z|)/(1 +
    mu|z|). That bound equals q at |z| = (q - mu)/(1 - mu q) = (1 - (m+1)s)/
    (1 + ms), s = 1 - q, the form computed here, with
    q = TERM_FLOOR^((1 + SKIP_MARGIN)/power) instead of TERM_FLOOR^(1/power).

    The margin covers rounding. The real part of each half-plane term is at
    least (1-|z|)/2 times its modulus, so the computed Re log lambda is
    within a relative c eps (m + 2/(1-|z|)) of the true one (c < 0.3 measured
    against mpmath), and inside the radius 2/(1-|z|) < 2 + power/60. With the
    rounding of |z| and of r, SKIP_MARGIN = 2^-10 covers powers up to about
    1e12. Away from z = 0 the Schwarz-Pick bound has slack besides.
    """
    s = -math.expm1(LOG_TERM_FLOOR * (1.0 + SKIP_MARGIN) / power)
    return max(0.0, (1.0 - (peak_count + 1) * s) / (1.0 + peak_count * s))


def _terms_sum(
    terms: Iterable[tuple[FatouFunction, int, complex]],
    xs: np.ndarray,
    on_circle: bool = False,
) -> np.ndarray:
    """Sum of scale * lambda^N over (lambda, N, scale) terms at ``xs``: points
    of the closed disk or, when ``on_circle``, the angles of points on the
    unit circle.

    Terms with equal peak functions share one log call per chunk of
    ``CHUNK`` points (``log_fatou`` on points, ``log_fatou_on_circle`` on
    angles), and each power is exp(N log lambda). A term is skipped where
    Re log lambda < log(TERM_FLOOR)/N. Terms go in ascending power, so within
    a group each power keeps a subset of the points the previous one kept.
    Inside the disk a point within the group's ``_skip_radius`` for its
    lowest power, which that test would drop, is not evaluated at all; on the
    circle the angle log forms the phase only where the lowest power passes
    the test.
    """
    groups: dict[FatouFunction, list[tuple[int, complex]]] = {}
    max_power = 1
    for lam, power, scale in sorted(terms, key=lambda t: t[1]):
        groups.setdefault(lam, []).append((power, scale))
        max_power = power
    # terms go in ascending power, and the skip radius grows with the power
    # and shrinks with the peak count, so no group's radius exceeds reach
    reach = _skip_radius(1, max_power)
    flat = xs.reshape(-1)
    total = np.zeros(flat.shape, dtype=complex)
    for start in range(0, flat.size, CHUNK):
        chunk = flat[start : start + CHUNK]
        out = total[start : start + CHUNK]
        modulus = None
        if not on_circle:
            modulus = np.abs(chunk)
            if modulus.min() >= reach:  # no point inside any skip radius
                modulus = None
        for lam, group in groups.items():
            points, idx = chunk, None  # idx: positions in the chunk of the kept values
            if modulus is not None:
                radius = _skip_radius(lam.peak_points.size, group[0][0])
                keep = (modulus >= radius).nonzero()[0]
                if keep.size < chunk.size:
                    if not keep.size:
                        continue
                    points, idx = chunk[keep], keep
            if on_circle:
                L, keep = log_fatou_on_circle(lam, points, LOG_TERM_FLOOR / group[0][0])
                if keep.size < points.size:
                    if not keep.size:
                        continue
                    idx = keep
            else:
                L = log_fatou(lam, points)
            for power, scale in group:
                keep = (L.real >= LOG_TERM_FLOOR / power).nonzero()[0]
                if keep.size < L.size:
                    if not keep.size:
                        break
                    L = L[keep]
                    idx = keep if idx is None else idx[keep]
                p = scale * np.exp(power * L)
                if idx is None:
                    out += p
                else:
                    out[idx] += p
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
        on_circle=True,
    )

    moduli = [abs(c) for c in coefficients]
    certified_sup = normalization * (
        max(moduli) + math.fsum(m * rho**power for m, rho in zip(moduli, rhos))
    )
    certified_residual = float(np.max(np.abs(data.value_array() - at_e)))
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
        res_sup = float(np.max(np.abs(residual)))
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
    measured_residual = float(np.max(np.abs(residual)))
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


def _eval_stages(stages: Iterable[StageApproximant], x, on_circle: bool = False):
    """Sum of ``stages`` at a point (a complex comes back) or an array of
    points of the closed disk or, when ``on_circle``, at finite angles, after
    checking them."""
    if on_circle:
        xs = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise DomainError("evaluation angle not finite")
    else:
        xs = np.asarray(x, dtype=complex)
        require_closed_disk(xs)
    vals = _terms_sum(
        (
            term
            for s in stages
            for term in _stage_terms(s.lambdas, s.coefficients, s.power, s.normalization)
        ),
        xs,
        on_circle,
    )
    if xs.ndim == 0:
        return complex(vals[()])
    return vals


def eval_stage(stage: StageApproximant, z):
    """Evaluate one normalized stage on the closed disk."""
    return _eval_stages((stage,), z)


def eval_interpolant(interpolant: Interpolant, z):
    """Evaluate the stage sum on the closed disk (0 for a zero-stage result)."""
    return _eval_stages(interpolant.stages, z)


def eval_on_circle(interpolant: Interpolant, thetas):
    """Evaluate the stage sum at e^(i*theta) for a finite angle or an array
    of them. The values come from the angles, never from rounded points, so
    they stay accurate next to a peak for powers up to about 1e10."""
    return _eval_stages(interpolant.stages, thetas, on_circle=True)
