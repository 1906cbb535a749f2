"""Independent evaluation of interpolants and the benchmark's correctness checks.

Nothing here calls the library's evaluators.  A stage sum is rebuilt from the
stage's peak angles, coefficients, power and normalization:

    g = sum_stages normalization * sum_k c_k * lambda_k^N,
    lambda = F/(1+F) = 1/(1 + 1/F),  F(z) = sum_j (a_j + z)/(a_j - z),

and lambda^N is taken as exp(-N * log1p(1/F)) with a cancellation-free
complex log1p.  On the circle F = i*y with y the cotangent sum, computed from
angle differences, so that lambda^N stays accurate for N beyond 1e9.

Each check returns a failure message or None.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
VALUE_TOL = 1e-10      # on E, beyond the truncation bound
SUP_TOL = 1e-9         # dense boundary sup beyond sup + eta
INTERIOR_TOL = 1e-9    # interior max beyond the boundary ceiling
EVAL_TOL = 1e-6        # library eval_interpolant against this evaluator
DENSE_GRID = (1 << 16) + 1
REFINE_HALF_WIDTHS = 4.0   # refinement spans +-4 sqrt(8/N) around each point
REFINE_POINTS = 17
INTERIOR_SAMPLES = 4096
INTERIOR_DEPTHS = (1e-1, 1e-2, 1e-3, 1e-4)


def stage_terms(stage):
    """(peak angles, coefficient) per cluster of a stage, as plain floats."""
    return [
        (np.array([p.theta for p in lam.peaks.points]), complex(c))
        for lam, c in zip(stage.lambdas, stage.coefficients)
    ]


def _log1p_complex(w: np.ndarray) -> np.ndarray:
    """log(1 + w) without cancellation when Re w >= 0 or |w| is small."""
    re, im = w.real, w.imag
    return 0.5 * np.log1p(2.0 * re + re * re + im * im) + 1j * np.arctan2(im, 1.0 + re)


def _power_on_circle(peaks: np.ndarray, t: np.ndarray, power: int) -> np.ndarray:
    """lambda^N at boundary angles t: exp(N*(-log1p(u^2)/2 + i*atan(u))),
    u = 1/y, y = sum_j cot((t - t_j)/2).  Exactly 1 on the peaks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.zeros_like(t)
        for tj in peaks:
            y += 1.0 / np.tan((t - tj) / 2.0)
        u = 1.0 / y
        log_mod = -0.5 * np.log1p(u * u)
        phase = np.arctan(u)
        return np.exp(power * log_mod) * np.exp(1j * np.mod(power * phase, TWO_PI))


def _power_inside(peaks: np.ndarray, z: np.ndarray, power: int) -> np.ndarray:
    """lambda^N at points of the open disk, as exp(-N * log1p(1/F))."""
    a = np.exp(1j * peaks)
    F = np.zeros_like(z)
    for aj in a:
        F += (aj + z) / (aj - z)
    logs = _log1p_complex(1.0 / F)
    return np.exp(-power * logs.real) * np.exp(-1j * np.mod(power * logs.imag, TWO_PI))


def _stage_sum(interpolant, power_fn, x) -> np.ndarray:
    total = np.zeros(np.shape(x), dtype=complex)
    for stage in interpolant.stages:
        acc = np.zeros_like(total)
        for peaks, c in stage_terms(stage):
            acc += c * power_fn(peaks, x, stage.power)
        total += stage.normalization * acc
    return total


def values_on_circle(interpolant, t) -> np.ndarray:
    """g(e^(i t)) for boundary angles t."""
    return _stage_sum(interpolant, _power_on_circle, np.asarray(t, dtype=float))


def values_inside(interpolant, z) -> np.ndarray:
    """g(z) for points z of the open disk."""
    return _stage_sum(interpolant, _power_inside, np.asarray(z, dtype=complex))


def dense_boundary_angles(interpolant, e_thetas: np.ndarray) -> np.ndarray:
    """A uniform grid, the points of E, and around each point of E a window
    of half-width REFINE_HALF_WIDTHS * sqrt(8/N) for every stage power N."""
    grid = TWO_PI * np.arange(DENSE_GRID) / DENSE_GRID
    widths = sorted({math.sqrt(8.0 / s.power) for s in interpolant.stages})
    u = np.linspace(-REFINE_HALF_WIDTHS, REFINE_HALF_WIDTHS, REFINE_POINTS)
    offsets = np.concatenate([w * u for w in widths]) if widths else np.zeros(0)
    refined = (e_thetas[:, None] + offsets[None, :]).ravel()
    return np.concatenate([grid, e_thetas, refined])


def interior_points(e_thetas: np.ndarray, powers, seed: int) -> np.ndarray:
    """Seeded uniform disk samples plus radial points just inside each
    point of E: at fixed depths, at each peak width sqrt(8/N), and at
    0.01/N, where lambda^N still holds 99.5% of its boundary value."""
    rng = np.random.default_rng([seed, 7])
    r = np.sqrt(rng.uniform(size=INTERIOR_SAMPLES)) * (1.0 - 1e-9)
    z = r * np.exp(1j * rng.uniform(0.0, TWO_PI, INTERIOR_SAMPLES))
    scaled = {min(math.sqrt(8.0 / n), 0.5) for n in powers} | {0.01 / n for n in powers}
    depths = np.array(sorted(set(INTERIOR_DEPTHS) | scaled))
    radial = ((1.0 - depths)[None, :] * np.exp(1j * e_thetas)[:, None]).ravel()
    return np.concatenate([z, radial])


def check_values_on_E(interpolant, data_thetas, data_values):
    """|g - data| on E against the truncation bound plus VALUE_TOL."""
    g = values_on_circle(interpolant, data_thetas)
    bound = interpolant.certificate.residual_bound_theoretical + VALUE_TOL
    err = float(np.max(np.abs(g - data_values)))
    if not err <= bound:
        return f"values on E: max |g - data| = {err!r} above {bound!r}"
    return None


def dense_boundary_max(interpolant, data_thetas) -> float:
    t = dense_boundary_angles(interpolant, data_thetas)
    return float(np.max(np.abs(values_on_circle(interpolant, t))))


def check_boundary_sup(interpolant, sup_norm, eta, dense_max):
    """The refined dense boundary maximum against sup + eta + SUP_TOL."""
    bound = sup_norm + eta + SUP_TOL
    if not dense_max <= bound:
        return f"dense boundary max {dense_max!r} above sup + eta = {bound!r}"
    return None


def check_interior(interpolant, data_thetas, ceiling, seed):
    """Maximum over interior samples against ``ceiling``: the dense boundary
    maximum, capped at sup + eta (maximum modulus principle)."""
    z = interior_points(data_thetas, [s.power for s in interpolant.stages], seed)
    inner = float(np.max(np.abs(values_inside(interpolant, z))))
    if not inner <= ceiling + INTERIOR_TOL:
        return f"interior max {inner!r} above boundary ceiling {ceiling!r}"
    return None


def check_contraction(interpolant):
    """Every stage power contracts each cluster's peak function below
    epsilon/k on the complement of its arc.  |lambda| on a peak-free arc is
    largest at its endpoints, so the two endpoint values bound it."""
    for n, stage in enumerate(interpolant.stages, 1):
        clusters = stage.clustering.clusters
        target = stage.epsilon / len(clusters)
        for (peaks, _), cl in zip(stage_terms(stage), clusters):
            c, h = cl.arc.center.theta, cl.arc.half_width
            ends = np.array([c + h, c - h])
            rho = float(np.max(np.abs(_power_on_circle(peaks, ends, 1))))
            if not rho ** stage.power < target:
                return (
                    f"stage {n}: rho^N = {rho ** stage.power!r} not below "
                    f"epsilon/k = {target!r} (N = {stage.power})"
                )
    return None


def check_library_eval(interpolant, boundary_t, boundary_vals, inner_z, inner_vals):
    """Library eval_interpolant output against this evaluator."""
    worst = max(
        float(np.max(np.abs(boundary_vals - values_on_circle(interpolant, boundary_t)))),
        float(np.max(np.abs(inner_vals - values_inside(interpolant, inner_z)))),
    )
    if not worst <= EVAL_TOL:
        return f"eval_interpolant differs from the independent value by {worst!r}"
    return None


def check_cli_certificate(payload: dict, interpolant):
    """The CLI certificate passed its audit and chose the library's powers."""
    if payload.get("report", {}).get("overall") is not True:
        return "CLI certificate: report.overall is not true"
    powers = payload.get("certificate", {}).get("stage_powers")
    mine = [int(s.power) for s in interpolant.stages]
    if powers != mine:
        return f"CLI stage_powers {powers} differ from the library build {mine}"
    return None


def check_interpolant(interpolant, data_thetas, data_values, sup_norm, eta, seed):
    """All checks on one built interpolant; the list of failures."""
    dense_max = dense_boundary_max(interpolant, data_thetas)
    found = [
        check_values_on_E(interpolant, data_thetas, data_values),
        check_boundary_sup(interpolant, sup_norm, eta, dense_max),
        check_interior(interpolant, data_thetas, min(dense_max, sup_norm + eta), seed),
        check_contraction(interpolant),
    ]
    return [f for f in found if f is not None]
