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

The build's values on the set, ``eval_stage`` and ``eval_interpolant`` share
one kernel over (lambda, N, scale) terms, scale = c_k/(1+eps). Later stages
often rebuild an earlier cluster, so terms with equal peak functions are
grouped: each group costs one ``eval_fatou`` call, and each of its powers
is numpy's ``**`` on the values that survive the floor. A term is skipped
where |lambda|^N < TERM_FLOOR = 2^-60, so a value moves by less than
2^-60 * sum |scale|. Points go through in chunks of ``CHUNK``, so memory
does not grow with the number of points beyond the result.
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
from .errors import CertificationError
from .fatou import (
    FatouFunction,
    choose_power,
    eval_fatou,
    require_closed_disk,
    sup_off_arc,
)

RESIDUAL_FLOOR = 1e-15    # residual sup norm below which iteration stops
SUP_CERT_TOL = 1e-9       # slack for the final boundary-sup certificate check
RESIDUAL_CERT_TOL = 1e-12  # slack for the final residual certificate check
TERM_FLOOR = 2.0**-60     # evaluation skips a term lambda^N where it is below this
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


def _terms_sum(
    terms: Iterable[tuple[FatouFunction, int, complex]], zs: np.ndarray
) -> np.ndarray:
    """Sum of scale * lambda(zs)^N over (lambda, N, scale) terms; zs must lie
    in the closed disk.

    Terms with equal peak functions share one ``eval_fatou`` call per chunk
    of ``CHUNK`` points. A term is skipped where |lambda| <
    TERM_FLOOR^(1/N). Terms go in ascending power, so within a group each
    power keeps a subset of the points the previous one kept.
    """
    groups: dict[FatouFunction, list[tuple[int, complex]]] = {}
    for lam, power, scale in sorted(terms, key=lambda t: t[1]):
        groups.setdefault(lam, []).append((power, scale))
    flat = zs.reshape(-1)
    total = np.zeros(flat.shape, dtype=complex)
    for start in range(0, flat.size, CHUNK):
        out = total[start : start + CHUNK]
        for lam, group in groups.items():
            v = eval_fatou(lam, flat[start : start + CHUNK])
            mod = np.abs(v)
            idx = None  # positions in the chunk of the kept values
            for power, scale in group:
                keep = (mod >= TERM_FLOOR ** (1.0 / power)).nonzero()[0]
                if keep.size < mod.size:
                    if not keep.size:
                        break
                    v, mod = v[keep], mod[keep]
                    idx = keep if idx is None else idx[keep]
                p = scale * v**power
                if idx is None:
                    out += p
                else:
                    out[idx] += p
    return total.reshape(zs.shape)


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
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
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
        data.set.complex_points(),
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
    """Geometric budget schedule eta_n = eta/2^(n+1), n = 1..n_max."""
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return EtaSchedule(eta, tuple(eta / 2.0 ** (n + 1) for n in range(1, n_max + 1)))


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


def eval_stage(stage: StageApproximant, z):
    """Evaluate one normalized stage on the closed disk."""
    zs = np.asarray(z, dtype=complex)
    require_closed_disk(zs)
    vals = _terms_sum(
        _stage_terms(stage.lambdas, stage.coefficients, stage.power, stage.normalization),
        zs,
    )
    if zs.ndim == 0:
        return complex(vals[()])
    return vals


def eval_interpolant(interpolant: Interpolant, z):
    """Evaluate the stage sum on the closed disk (0 for a zero-stage result)."""
    zs = np.asarray(z, dtype=complex)
    require_closed_disk(zs)
    total = _terms_sum(
        (
            term
            for s in interpolant.stages
            for term in _stage_terms(s.lambdas, s.coefficients, s.power, s.normalization)
        ),
        zs,
    )
    if zs.ndim == 0:
        return complex(total[()])
    return total

