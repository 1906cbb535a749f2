import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diskinterp import (
    BoundaryData,
    VerificationReport,
    check_boundary_sup,
    check_cauchy_identity,
    check_max_modulus,
    check_peak_values,
    eval_fatou,
    eval_interpolant,
    eval_on_circle,
    iterative_interpolant,
    verify_interpolant,
)
import diskinterp.interpolate as interpolate_mod
import diskinterp.verify as verify_mod
from diskinterp.cli import boundary_grid
from diskinterp.interpolate import arc_envelope, envelope_slack
from conftest import random_problem

GRID = 1 << 14


def zero_interpolant():
    data = BoundaryData.from_pairs([0.0, 1.0], [0.0, 0.0])
    return data, iterative_interpolant(data, 0.01, 3, GRID, 1e-9)


def pipeline_output(rng):
    data = random_problem(rng, 6)
    return data, iterative_interpolant(data, 0.01, 10, GRID, 1e-9)


def claiming(g, bound):
    """``g`` with a certificate that claims ``bound`` as its boundary sup."""
    certificate = dataclasses.replace(g.certificate, boundary_sup_bound=bound)
    return dataclasses.replace(g, certificate=certificate)


def peak_interpolant(thetas):
    """One-stage interpolant of the value 1 on ``thetas``: the points form
    one cluster, so it is lambda^N/(1+eps) for the set's peak function."""
    data = BoundaryData.from_pairs(thetas, [1.0] * len(thetas))
    g = iterative_interpolant(data, 0.5, 1, GRID, 1e-9)
    assert len(g.stages[0].lambdas) == 1
    return g


# ---------------------------------------------------------------- peak values


def test_peak_values_zero_interpolant():
    data, g = zero_interpolant()
    res = check_peak_values(g, data)
    assert res.passed
    assert res.measured == 0.0


def test_peak_values_one_stage_example():
    # one-stage h for E={1}, f=1, eps=0.01: mismatch 1 - 1/1.01 under 3*eps
    data = BoundaryData.from_pairs([0.0], [1.0])
    g = iterative_interpolant(data, 0.0303, 1, GRID, 1e-6)
    stage = g.stages[0]
    measured = abs(1.0 - eval_fatou(stage.lambdas[0], 1 + 0j) * stage.normalization)
    eps = stage.epsilon
    assert measured == pytest.approx(1 - 1 / (1 + eps), rel=1e-12)
    assert measured < eps * (1 + 2 * data.sup_norm)


def test_peak_values_interpolant_threshold(rng):
    data, g = pipeline_output(rng)
    res = check_peak_values(g, data)
    assert res.passed
    assert res.threshold == g.certificate.residual_bound_theoretical + 1e-12


# ---------------------------------------------------------------- boundary sup


def test_boundary_sup_zero():
    _, g = zero_interpolant()
    assert g.certificate.boundary_sup_bound == 0.0
    res = check_boundary_sup(g)
    assert res.passed
    assert res.measured == 0.0
    assert res.params["rounds"] == 0


def test_boundary_sup_peak_function():
    # one peak, so one arc from the peak round to itself: both of its ends
    # are the peak, where |lambda^N| attains its maximum 1
    g = peak_interpolant([0.0])
    res = check_boundary_sup(g)
    assert res.passed
    assert res.params["rounds"] == 1 and res.params["evaluations"] == 2
    assert res.params["evaluated_max"] == abs(eval_interpolant(g, 1 + 0j))
    assert abs(eval_interpolant(g, 1 + 0j)) <= res.measured <= 1.0


def test_boundary_sup_pipeline(rng):
    data, g = pipeline_output(rng)
    res = check_boundary_sup(g)
    assert res.passed
    assert res.threshold <= data.sup_norm + 0.01 + 1e-9


# opposite values 1e-3 apart: the last stages reach N of about 2e9
CLOSE_PAIR = ([1.0, 1.001, 3.2, 4.9], [1, -1, 0.6 + 0.3j, -0.2 + 0.7j])


def step_problem():
    thetas = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
    return BoundaryData.from_pairs(thetas, np.where(thetas < math.pi, 1.0, -1.0))


@settings(max_examples=25, deadline=None)
@example(*CLOSE_PAIR)
@given(
    st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=1, max_size=8),
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=8, max_size=8),
)
def test_modulus_bound_covers_the_values(thetas, values):
    # the proved bound is at least |g| on E and next to each point of E
    t = np.sort(thetas)
    assume(np.min(np.diff(t, append=t[0] + 2 * math.pi)) > 1e-3)
    data = BoundaryData.from_pairs(thetas, values[: len(thetas)])
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    res = check_boundary_sup(g)
    assert res.passed
    # exact angles within 4 sqrt(8/N) of each point, where the peaks of
    # width sqrt(8/N) sit
    width = 4 * math.sqrt(8 / max([s.power for s in g.stages], default=1))
    near = np.add.outer(data.set.thetas, np.linspace(-width, width, 257))
    angles = np.concatenate([data.set.thetas, near.ravel()])
    assert np.all(np.abs(eval_on_circle(g, angles)) <= res.measured)


@pytest.mark.parametrize("problem", ["random", "step", "close_pair", "zero"])
def test_boundary_sup_is_proved(rng, problem):
    # against the certified bound, in at most two rounds, and between the
    # largest value it formed (E among them) and that bound
    data = {
        "random": lambda: random_problem(rng, 12),
        "step": step_problem,
        "close_pair": lambda: BoundaryData.from_pairs(*CLOSE_PAIR),
        "zero": lambda: zero_interpolant()[0],
    }[problem]()
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    res = check_boundary_sup(g)
    assert res.passed
    assert res.params["rounds"] <= 2
    assert res.params["evaluations"] <= 2 * verify_mod.ENVELOPE_ARCS * len(data.set)
    on_e = np.max(np.abs(eval_on_circle(g, data.set.thetas)))
    assert on_e <= res.params["evaluated_max"] <= res.measured <= res.threshold
    grid = np.max(np.abs(eval_on_circle(g, boundary_grid(GRID))))
    assert grid <= res.measured


def test_close_pair_peaks_between_grid_nodes_are_bounded():
    # opposite values 1e-3 apart reach N = 2.2e9, so the peaks, of width
    # sqrt(8/N) = 6e-5, are narrower than the 2^16 grid spacing (9.6e-5):
    # the grid reads below max |g(E)|, the proof does not
    data = BoundaryData.from_pairs(*CLOSE_PAIR)
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    assert max(s.power for s in g.stages) > 2e9
    on_e = np.max(np.abs(eval_on_circle(g, data.set.thetas)))
    grid = np.max(np.abs(eval_on_circle(g, boundary_grid(1 << 16))))
    assert grid < on_e
    res = check_boundary_sup(g)
    assert res.passed
    assert on_e <= res.params["evaluated_max"] <= res.measured


def test_bound_slack_is_exact_in_one_plus_slack():
    g = pipeline_output(np.random.default_rng(5))[1]
    terms = [(lam, s.power) for s in g.stages for lam in s.lambdas]
    m = max(lam.peaks.thetas.size for lam, _ in terms)
    root = max(121, math.ceil(math.sqrt(max(power for _, power in terms))))
    units = 84 * (m + 2) + 7 * m * root + len(terms) + 260
    assert envelope_slack(g) == (units + units % 2) * 2.0**-53
    assert (1.0 + envelope_slack(g)) - 1.0 == envelope_slack(g)
    assert envelope_slack(zero_interpolant()[1]) == 0.0


# the pair across the seam at angle 0, also 1e-3 apart
SEAM_PAIR = ([2 * math.pi - 5e-4, 5e-4, 2.0, 4.0], CLOSE_PAIR[1])


def check_slack_against_mpmath(mpmath, g, angles):
    """Assert that each term's computed modulus at ``angles`` is within the
    slack of |lambda|^N formed in mpmath from the same double angles, and
    that the envelope of the zero-length arc [a, a] bounds the true sum at
    a. Returns the largest cancellation sum |cot| / |y| of a cotangent sum
    y at an angle where the kernel keeps the term."""
    slack = envelope_slack(g)
    true_bound = [mpmath.mpf(0)] * angles.size
    worst = cancellation = 0.0
    with mpmath.workdps(40):
        for stage in g.stages:
            for lam, c in zip(stage.lambdas, stage.coefficients):
                L, keep = interpolate_mod.log_fatou_on_circle(
                    lam, angles, interpolate_mod.LOG_TERM_FLOOR / stage.power
                )
                computed = np.zeros(angles.size)
                computed[keep] = np.exp(stage.power * L.real)
                scale = abs(stage.normalization * c)
                for i, a in enumerate(angles.tolist()):
                    d = [(mpmath.mpf(a) - mpmath.mpf(t)) / 2 for t in lam.peaks.thetas]
                    if any(mpmath.sin(x) == 0 for x in d):
                        true = mpmath.mpf(1)
                    else:
                        cots = [mpmath.cot(x) for x in d]
                        y = mpmath.fsum(cots)
                        true = (y * y / (1 + y * y)) ** (mpmath.mpf(stage.power) / 2)
                        if i in keep:
                            ratio = mpmath.fsum(abs(v) for v in cots) / abs(y)
                            cancellation = max(cancellation, float(ratio))
                    err = abs(computed[i] - true)
                    if i not in keep:
                        err -= interpolate_mod.TERM_FLOOR
                    worst = max(worst, float(err) / slack)
                    true_bound[i] += scale * true
    assert worst <= 1.0
    at_angle, _ = arc_envelope(g, np.stack([angles, angles], axis=1))
    assert all(float(t) <= b for t, b in zip(true_bound, at_angle))
    return cancellation


@pytest.mark.parametrize("problem", [CLOSE_PAIR, SEAM_PAIR], ids=["close", "seam"])
def test_envelope_slack_covers_the_rounding(problem):
    # at arc ends next to the peaks, out to 4 peak widths, and on the
    # unwrapped frame of the audit's last arc (angle + 2 pi)
    mpmath = pytest.importorskip("mpmath")
    data = BoundaryData.from_pairs(*problem)
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    top = max(s.power for s in g.stages)
    assert top > 2e9
    width = math.sqrt(8 / top)
    offsets = width * np.array([0, 1 / 8, 1 / 2, 1, 2, 4])
    near = np.add.outer(data.set.thetas, np.concatenate([-offsets, offsets[1:]]))
    angles = np.concatenate([near.ravel(), near.ravel() + 2 * math.pi])
    check_slack_against_mpmath(mpmath, g, angles)


def test_envelope_slack_covers_the_cancelling_sum():
    # at the audit's bisection points, the round-1 midpoints between
    # neighbouring points of E and the round-2 quarter points, formed as the
    # audit forms them (the last arc on the unwrapped frame), where the
    # cotangent sum of a peak function with peaks on both sides cancels;
    # on the random problem sum |cot| exceeds 10 |y| at a kept angle
    mpmath = pytest.importorskip("mpmath")
    cancellation = 0.0
    for data in (
        random_problem(np.random.default_rng(7), 12),
        BoundaryData.from_pairs(*CLOSE_PAIR),
    ):
        g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
        e = data.set.thetas
        hi = np.append(e[1:], e[0] + 2 * math.pi)
        mid = e + 0.5 * (hi - e)
        quarters = np.concatenate([e + 0.5 * (mid - e), mid + 0.5 * (hi - mid)])
        angles = np.concatenate([mid, quarters])
        cancellation = max(cancellation, check_slack_against_mpmath(mpmath, g, angles))
    assert cancellation > 10


def test_envelope_is_the_per_end_sum_of_term_moduli(monkeypatch):
    # reference: each end of each arc sent to the kernel on its own, with
    # the interpolant's term table, with no end shared; with CHUNK 8 the arcs
    # form blocks of 4, which share ends, repeat arcs, and hold 0.0 and -0.0
    # (one value for np.unique). The envelope of the zero-length arc [a, a]
    # is the per-end sum of term moduli at a
    data = BoundaryData.from_pairs(*CLOSE_PAIR)
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    e = data.set.thetas.tolist()
    mid = e[0] + 0.5 * (e[1] - e[0])
    ends = np.array(
        [[e[0], mid], [mid, e[1]], [e[1], e[2]], [e[1], e[2]], [-0.0, e[0]],
         [0.0, -0.0], [e[3], e[3]], [e[2], e[3]], [e[3], e[0] + 2 * math.pi]]
    )
    monkeypatch.setattr(interpolate_mod, "CHUNK", 8)
    envelope, values = arc_envelope(g, ends)
    flat = ends.ravel()
    at_ends, _ = arc_envelope(g, np.stack([flat, flat], axis=1))
    total, reference = np.zeros(flat.size), np.zeros(len(ends))
    kept = interpolate_mod._kept_terms(g.terms, flat)
    for start, idx, power, scale, L in kept:
        moduli = np.zeros(flat.size)
        moduli[start + idx] = abs(scale) * np.exp(power * L.real)
        total += moduli
        reference += moduli.reshape(-1, 2).max(axis=1)
    allowance = (interpolate_mod.TERM_FLOOR + envelope_slack(g)) * math.fsum(
        abs(s.normalization * c) for s in g.stages for c in s.coefficients
    )
    assert np.array_equal(at_ends, total + allowance)
    assert np.array_equal(envelope, reference + allowance)
    assert np.array_equal(values, eval_on_circle(g, ends))


def _scaled_stage_zero(g, factor):
    stage = dataclasses.replace(
        g.stages[0], coefficients=tuple(factor * c for c in g.stages[0].coefficients)
    )
    return dataclasses.replace(g, stages=(stage,) + g.stages[1:])


@pytest.mark.parametrize("problem", ["random", "close_pair"])
def test_boundary_sup_fails_on_mutants(problem):
    data = {
        "random": lambda: random_problem(np.random.default_rng(7), 12),
        "close_pair": lambda: BoundaryData.from_pairs(*CLOSE_PAIR),
    }[problem]()
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    assert check_boundary_sup(g).passed
    # stage 0's coefficients scaled by 1.01, against the same certificate
    res = check_boundary_sup(_scaled_stage_zero(g, 1.01))
    assert not res.passed and math.isfinite(res.measured)
    # a bound 1e-6 below the largest value on E: no refinement can help
    on_e = float(np.max(np.abs(eval_on_circle(g, data.set.thetas))))
    res = check_boundary_sup(claiming(g, on_e - 1e-6))
    assert not res.passed and res.measured > res.threshold
    assert on_e <= res.measured


@pytest.mark.parametrize("problem", ["random", "close_pair"])
def test_failing_boundary_sup_keeps_refining(problem):
    # the envelope alone proves or splits an arc: against a bound 1e-6 below
    # the largest value on E the check splits the arcs past round 1 until the
    # arc budget or float resolution stops it, and its upper bound stays
    # above the threshold
    data = {
        "random": lambda: random_problem(np.random.default_rng(7), 12),
        "close_pair": lambda: BoundaryData.from_pairs(*CLOSE_PAIR),
    }[problem]()
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    on_e = float(np.max(np.abs(eval_on_circle(g, data.set.thetas))))
    res = check_boundary_sup(claiming(g, on_e - 1e-6))
    assert res.params["rounds"] > 1
    assert not res.passed and res.measured > res.threshold


def test_boundary_sup_fails_on_a_nan_value(monkeypatch):
    # a NaN log at one angle makes that value and its modulus NaN
    g = peak_interpolant([0.0, 2.5])
    assert check_boundary_sup(g).passed
    log = interpolate_mod.log_fatou_on_circle

    def nan_log(fatou, thetas, *args):
        L, keep = log(fatou, thetas, *args)
        L[:1] = np.nan
        return L, keep

    monkeypatch.setattr(interpolate_mod, "log_fatou_on_circle", nan_log)
    res = check_boundary_sup(g)
    assert not res.passed
    assert math.isnan(res.measured)


def test_boundary_sup_evaluated_max_reads_every_round(monkeypatch):
    # the largest |g| the check reports is the largest over the values the
    # envelope handed back in every round
    data = BoundaryData.from_pairs([0.0, 2.5], [1.0, -0.5j])
    g = iterative_interpolant(data, 0.01, 3, GRID, 1e-9)
    envelope = verify_mod.arc_envelope
    values = []

    def recorded(g, ends):
        env, vals = envelope(g, ends)
        values.append(vals)
        return env, vals

    monkeypatch.setattr(verify_mod, "arc_envelope", recorded)
    res = check_boundary_sup(g)
    assert res.passed and res.params["rounds"] == len(values) == 2
    evaluated_max = max(float(np.max(np.abs(v))) for v in values)
    assert res.params["evaluated_max"] == evaluated_max


def test_boundary_sup_grid_validation():
    # the audit reads no grid: a grid_size the CLI would refuse, or none,
    # leaves the report unchanged
    data, g = pipeline_output(np.random.default_rng(3))
    report = verify_interpolant(g, data, seed=4)
    assert report.overall
    assert verify_interpolant(g, data, grid_size=1024, seed=4) == report
    assert verify_interpolant(g, data, grid_size=GRID, seed=4) == report


@pytest.mark.parametrize("cap", ["ENVELOPE_ARCS"])
def test_boundary_sup_unresolved_is_bounded_and_finite(monkeypatch, cap):
    # with the arc budget at 1 the arcs that need a split stay open: the
    # check fails as unresolved after one round, with a finite upper bound
    data = BoundaryData.from_pairs(*CLOSE_PAIR)
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    monkeypatch.setattr(verify_mod, cap, 1)
    res = check_boundary_sup(g)
    assert not res.passed
    assert res.params["rounds"] == 1
    assert res.params["evaluations"] == 2 * len(data.set)
    assert math.isfinite(res.measured) and res.measured > res.threshold


# ---------------------------------------------------------------- max modulus


def test_max_modulus_zero():
    _, g = zero_interpolant()
    boundary = check_boundary_sup(g)
    assert check_max_modulus(g, boundary, seed=3).passed


def test_max_modulus_peak_function():
    g = peak_interpolant([0.0, 2.5])
    boundary = check_boundary_sup(g)
    res = check_max_modulus(g, boundary, seed=5)
    assert res.passed
    assert res.measured < 1.0


def test_max_modulus_deterministic_given_seed():
    g = peak_interpolant([0.4])
    boundary = check_boundary_sup(g)
    a = check_max_modulus(g, boundary, seed=11)
    b = check_max_modulus(g, boundary, seed=11)
    assert a == b
    c = check_max_modulus(g, boundary, seed=12)
    assert c.measured != a.measured


# ---------------------------------------------------------------- cauchy


def test_cauchy_zero():
    _, g = zero_interpolant()
    res = check_cauchy_identity(g, 0.1 + 0.1j, 0.5)
    assert res.passed
    assert res.measured == 0.0


def test_cauchy_mean_value_single_peak():
    # lambda = (1+z)/2, so the contour mean at z0=0 recovers g(0) = 2^-N/(1+eps)
    g = peak_interpolant([0.0])
    stage = g.stages[0]
    w = 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    mean = np.mean(eval_interpolant(g, w) * w / (w - 0.0))
    assert mean == pytest.approx(stage.normalization / 2**stage.power, rel=1e-12)
    res = check_cauchy_identity(g, 0.0j, 0.5)
    assert res.passed


def test_cauchy_two_peak():
    g = peak_interpolant([0.0, math.pi])
    res = check_cauchy_identity(g, 0.3j, 0.8)
    assert res.passed
    assert res.measured <= 1e-10


def test_cauchy_geometry_validation():
    _, g = zero_interpolant()
    with pytest.raises(ValueError):
        check_cauchy_identity(g, 0.9 + 0j, 0.5)  # |z0| >= radius
    with pytest.raises(ValueError):
        check_cauchy_identity(g, 0.0j, 1.0)  # radius not < 1


# ---------------------------------------------------------------- reports


def test_full_report_passes_on_pipeline_output(rng):
    data, g = pipeline_output(rng)
    report = verify_interpolant(g, data, grid_size=GRID, seed=9)
    assert report.overall
    assert len(report.checks) == 13
    assert report.failed() == ()
    for c in report.checks:
        assert "tol" in c.params
    # the boundary sup is proved against the certified bound, and
    # max_modulus takes the proved upper bound as its ceiling
    by_name = {c.name: c for c in report.checks}
    boundary, max_modulus = by_name["boundary_sup"], by_name["max_modulus"]
    assert boundary.threshold == g.certificate.boundary_sup_bound + verify_mod.SUP_TOL
    assert max_modulus.threshold == boundary.measured + verify_mod.SUP_TOL
    assert "grid_size" not in max_modulus.params


def test_report_moduli_are_python_abs_bit_for_bit(monkeypatch, rng):
    # numpy's complex abs differs from abs(complex), the hypot the build
    # takes, in the last bit on about a third of values; the audit takes the
    # build's modulus
    data, g = pipeline_output(rng)
    seen = {"interior": [], "ends": []}
    for name, key in (("eval_interpolant", "interior"), ("arc_envelope", "ends")):
        original = getattr(verify_mod, name)

        def recorded(*args, original=original, key=key):
            out = original(*args)
            seen[key].append(out)
            return out

        monkeypatch.setattr(verify_mod, name, recorded)
    by_name = {c.name: c for c in verify_interpolant(g, data, seed=4).checks}

    def python_max(values):
        return max(abs(complex(v)) for v in np.ravel(values))

    mismatch = eval_on_circle(g, data.set.thetas) - data.values
    assert by_name["peak_values"].measured == python_max(mismatch)
    evaluated = max(python_max(values) for _, values in seen["ends"])
    assert by_name["boundary_sup"].params["evaluated_max"] == evaluated
    samples, *contours = seen["interior"]
    assert by_name["max_modulus"].measured == python_max(samples)
    for i, values in enumerate(contours):
        check = by_name[f"cauchy_identity_{i:02d}"]
        p = check.params
        z0, q = complex(p["z0_re"], p["z0_im"]), p["quad_points"]
        w = p["radius"] * np.exp(2j * math.pi * np.arange(q) / q)
        mean = np.mean(values[:-1] * w / (w - z0))
        assert check.measured == abs(complex(mean - values[-1]))
    # a value on which numpy's array abs takes the other last bit
    v = -0.5442589828573099 - 0.31630015636915454j
    _, zero = zero_interpolant()
    off = BoundaryData.from_pairs([0.0, 1.0], [v, 0.0])
    assert check_peak_values(zero, off).measured == abs(v)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_negative_seed_fails_before_any_evaluation(monkeypatch, seed):
    data = BoundaryData.from_pairs([0.0, 2.0], [1.0, -0.5j])
    g = iterative_interpolant(data, 0.01, 3, GRID, 1e-9)
    calls = []
    original = verify_mod.eval_on_circle

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify_mod, "eval_on_circle", counted)
    with pytest.raises(ValueError, match="seed"):
        verify_interpolant(g, data, grid_size=4096, seed=seed)
    assert not calls
    # the seeded check and the contour sampler apply the same rule
    boundary = check_boundary_sup(g)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        check_max_modulus(g, boundary, seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        verify_mod.cauchy_sample_points(seed)
    assert verify_interpolant(g, data, grid_size=4096, seed=0).overall
    assert calls


def test_report_deterministic(rng):
    data, g = pipeline_output(rng)
    a = verify_interpolant(g, data, grid_size=GRID, seed=21)
    b = verify_interpolant(g, data, grid_size=GRID, seed=21)
    assert a == b


def test_report_monotone_in_tol(rng, monkeypatch):
    # shrinking tol can only turn pass into fail, never the reverse
    data, g = pipeline_output(rng)

    def report(tol):
        for name in ("RESIDUAL_TOL", "SUP_TOL", "IDENTITY_TOL"):
            monkeypatch.setattr(verify_mod, name, tol)
        return verify_interpolant(g, data, seed=2)

    loose, tight = report(1e-6), report(1e-13)
    if tight.overall:
        assert loose.overall
    for lo, hi in zip(loose.checks, tight.checks):
        assert lo.name == hi.name
        if hi.passed:
            assert lo.passed
        assert hi.threshold <= lo.threshold


def test_report_overall_is_conjunction():
    # force one failing check by auditing a nonzero interpolant against bound 0
    g = peak_interpolant([0.0])
    failing = check_boundary_sup(claiming(g, 0.0))
    assert not failing.passed
    report = VerificationReport((failing, check_max_modulus(g, failing)))
    assert not report.overall
    assert report.failed() == (failing,)


def _stage_zero_mutants(g):
    """``g`` with its first stage broken in ways whose certificate claims no
    longer hold, each with the checks that must catch it."""
    stage = g.stages[0]

    def with_stage(**fields):
        return dataclasses.replace(
            g, stages=(dataclasses.replace(stage, **fields),) + g.stages[1:]
        )

    return {
        "coefficients x 1.01": (
            _scaled_stage_zero(g, 1.01),
            {"peak_values", "boundary_sup"},
        ),
        "dropped": (dataclasses.replace(g, stages=g.stages[1:]), {"peak_values"}),
        "conjugated": (
            with_stage(coefficients=tuple(c.conjugate() for c in stage.coefficients)),
            {"peak_values"},
        ),
        "power // 100": (
            with_stage(power=stage.power // 100),
            {"peak_values", "boundary_sup"},
        ),
    }


@pytest.mark.parametrize("problem", ["random", "close_pair"])
def test_report_rejects_mutants(problem):
    # the full audit tells a broken interpolant from the good one, and the
    # checks whose claims the break falsifies are among those that fail
    data = {
        "random": lambda: random_problem(np.random.default_rng(7), 12),
        "close_pair": lambda: BoundaryData.from_pairs(*CLOSE_PAIR),
    }[problem]()
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    assert verify_interpolant(g, data).overall
    for name, (mutant, expected) in _stage_zero_mutants(g).items():
        report = verify_interpolant(mutant, data)
        failed = {c.name for c in report.failed()}
        assert not report.overall, name
        assert expected <= failed, (name, failed)
