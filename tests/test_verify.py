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
import diskinterp.verify as verify_mod
from diskinterp.interpolate import bound_slack, modulus_bound_on_circle
from conftest import random_problem

GRID = 1 << 14


def zero_interpolant():
    data = BoundaryData.from_pairs([0.0, 1.0], [0.0, 0.0])
    return data, iterative_interpolant(data, 0.01, 3, GRID, 1e-9)


def pipeline_output(rng):
    data = random_problem(rng, 6)
    return data, iterative_interpolant(data, 0.01, 10, GRID, 1e-9)


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
    res = check_peak_values(g, data, tol=0.0)
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
    res = check_peak_values(g, data, tol=1e-12)
    assert res.passed
    assert res.threshold == g.certificate.residual_bound_theoretical + 1e-12


def test_peak_values_rejects_negative_tol():
    data, g = zero_interpolant()
    with pytest.raises(ValueError):
        check_peak_values(g, data, tol=-1.0)


# ---------------------------------------------------------------- boundary sup


def test_boundary_sup_zero():
    _, g = zero_interpolant()
    res = check_boundary_sup(g, 0.0, GRID, 1e-9)
    assert res.passed
    assert res.measured == 0.0


def test_boundary_sup_peak_function():
    g = peak_interpolant([0.0])
    res = check_boundary_sup(g, 1.0, GRID, 1e-9)
    assert res.passed
    assert res.measured <= 1.0
    # grid node 0 is the peak, where |lambda^N| attains its maximum 1
    assert res.measured == abs(eval_interpolant(g, 1 + 0j))


def test_boundary_sup_pipeline(rng):
    data, g = pipeline_output(rng)
    res = check_boundary_sup(g, data.sup_norm + 0.01, GRID, 1e-9)
    assert res.passed


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
    # at every grid angle, and at exact angles next to each point, where the
    # peaks of width sqrt(8/N) sit between grid nodes
    t = np.sort(thetas)
    assume(np.min(np.diff(t, append=t[0] + 2 * math.pi)) > 1e-3)
    data = BoundaryData.from_pairs(thetas, values[: len(thetas)])
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    width = 4 * math.sqrt(8 / max([s.power for s in g.stages], default=1))
    near = np.add.outer(data.set.thetas(), np.linspace(-width, width, 257))
    angles = np.concatenate([verify_mod.boundary_grid(GRID), near.ravel()])
    bound = modulus_bound_on_circle(g, angles)
    assert np.all(np.abs(eval_on_circle(g, angles)) <= bound * (1 + bound_slack(g)))


@pytest.mark.parametrize("problem", ["random", "step", "close_pair", "zero"])
def test_boundary_sup_is_the_grid_maximum(rng, problem):
    data = {
        "random": lambda: random_problem(rng, 12),
        "step": step_problem,
        "close_pair": lambda: BoundaryData.from_pairs(*CLOSE_PAIR),
        "zero": lambda: zero_interpolant()[0],
    }[problem]()
    g = iterative_interpolant(data, 0.01, 20, GRID, 1e-9)
    full = np.max(np.abs(eval_on_circle(g, verify_mod.boundary_grid(GRID))))
    assert check_boundary_sup(g, 2.0, GRID, 1e-9).measured == full


def test_bound_slack_is_exact_in_one_plus_slack():
    g = pipeline_output(np.random.default_rng(5))[1]
    terms = sum(len(s.lambdas) for s in g.stages)
    assert bound_slack(g) == (2 * terms + 16) * 2.0**-53
    assert (1.0 + bound_slack(g)) - 1.0 == bound_slack(g)
    assert bound_slack(zero_interpolant()[1]) == 16 * 2.0**-53


def test_boundary_sup_fails_on_a_nan_value(monkeypatch):
    g = peak_interpolant([0.0, 2.5])
    values = verify_mod.eval_on_circle

    def nan_values(g, thetas):
        out = values(g, thetas)
        out[:1] = np.nan
        return out

    monkeypatch.setattr(verify_mod, "eval_on_circle", nan_values)
    assert not check_boundary_sup(g, 1.0, GRID, 1e-9).passed


def test_boundary_sup_evaluates_where_the_bound_is_nan(monkeypatch):
    # two NaN bounds off the peaks: the first is the seed, whose value is
    # small; the second must still be evaluated, and its NaN value fails
    g = peak_interpolant([0.0, 2.5])
    assert check_boundary_sup(g, 1.0, GRID, 1e-9).passed
    grid = verify_mod.boundary_grid(GRID)
    seed, other = grid[GRID // 8], grid[GRID // 4]
    bound, values = verify_mod.modulus_bound_on_circle, verify_mod.eval_on_circle

    def nan_bound(g, thetas):
        out = bound(g, thetas)
        out[np.isin(thetas, [seed, other])] = np.nan
        return out

    def nan_at_other(g, thetas):
        out = values(g, thetas)
        out[thetas == other] = np.nan
        return out

    monkeypatch.setattr(verify_mod, "modulus_bound_on_circle", nan_bound)
    monkeypatch.setattr(verify_mod, "eval_on_circle", nan_at_other)
    res = check_boundary_sup(g, 1.0, GRID, 1e-9)
    assert math.isnan(res.measured)
    assert not res.passed


def test_boundary_sup_grid_validation():
    _, g = zero_interpolant()
    with pytest.raises(ValueError):
        check_boundary_sup(g, 0.0, 1024, 1e-9)


# ---------------------------------------------------------------- max modulus


def test_max_modulus_zero():
    _, g = zero_interpolant()
    grid = check_boundary_sup(g, 0.0, GRID, 1e-9)
    assert check_max_modulus(g, 1000, grid, 1e-9, seed=3).passed


def test_max_modulus_peak_function():
    g = peak_interpolant([0.0, 2.5])
    grid = check_boundary_sup(g, 1.0, GRID, 1e-9)
    res = check_max_modulus(g, 2000, grid, 1e-9, seed=5)
    assert res.passed
    assert res.measured < 1.0


def test_max_modulus_deterministic_given_seed():
    g = peak_interpolant([0.4])
    grid = check_boundary_sup(g, 1.0, GRID, 1e-9)
    a = check_max_modulus(g, 1500, grid, 1e-9, seed=11)
    b = check_max_modulus(g, 1500, grid, 1e-9, seed=11)
    assert a == b
    c = check_max_modulus(g, 1500, grid, 1e-9, seed=12)
    assert c.measured != a.measured


def test_max_modulus_sample_validation():
    _, g = zero_interpolant()
    grid = check_boundary_sup(g, 0.0, GRID, 1e-9)
    with pytest.raises(ValueError):
        check_max_modulus(g, 10, grid, 1e-9)


# ---------------------------------------------------------------- cauchy


def test_cauchy_zero():
    _, g = zero_interpolant()
    res = check_cauchy_identity(g, 0.1 + 0.1j, 0.5, 2048, 1e-10)
    assert res.passed
    assert res.measured == 0.0


def test_cauchy_mean_value_single_peak():
    # lambda = (1+z)/2, so the contour mean at z0=0 recovers g(0) = 2^-N/(1+eps)
    g = peak_interpolant([0.0])
    stage = g.stages[0]
    w = 0.5 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    mean = np.mean(eval_interpolant(g, w) * w / (w - 0.0))
    assert mean == pytest.approx(stage.normalization / 2**stage.power, rel=1e-12)
    res = check_cauchy_identity(g, 0.0j, 0.5, 4096, 1e-10)
    assert res.passed


def test_cauchy_two_peak():
    g = peak_interpolant([0.0, math.pi])
    res = check_cauchy_identity(g, 0.3j, 0.8, 4096, 1e-9)
    assert res.passed
    assert res.measured <= 1e-9


def test_cauchy_geometry_validation():
    _, g = zero_interpolant()
    with pytest.raises(ValueError):
        check_cauchy_identity(g, 0.9 + 0j, 0.5, 4096, 1e-9)  # |z0| >= radius
    with pytest.raises(ValueError):
        check_cauchy_identity(g, 0.0j, 1.0, 4096, 1e-9)  # radius not < 1
    with pytest.raises(ValueError):
        check_cauchy_identity(g, 0.0j, 0.5, 512, 1e-9)  # too few nodes


# ---------------------------------------------------------------- reports


def test_full_report_passes_on_pipeline_output(rng):
    data, g = pipeline_output(rng)
    report = verify_interpolant(g, data, grid_size=GRID, seed=9)
    assert report.overall
    assert len(report.checks) == 13
    assert report.failed() == ()
    for c in report.checks:
        assert "tol" in c.params
    # max_modulus reuses the boundary grid maximum as its ceiling
    by_name = {c.name: c for c in report.checks}
    boundary, max_modulus = by_name["boundary_sup"], by_name["max_modulus"]
    assert max_modulus.threshold == boundary.measured + verify_mod.SUP_TOL
    assert max_modulus.params["grid_size"] == GRID


def test_negative_seed_fails_before_any_evaluation(monkeypatch):
    data = BoundaryData.from_pairs([0.0, 2.0], [1.0, -0.5j])
    g = iterative_interpolant(data, 0.01, 3, GRID, 1e-9)
    calls = []
    original = verify_mod.eval_on_circle

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify_mod, "eval_on_circle", counted)
    with pytest.raises(ValueError, match="seed"):
        verify_interpolant(g, data, grid_size=4096, seed=-1)
    assert not calls
    assert verify_interpolant(g, data, grid_size=4096, seed=0).overall
    assert calls


def test_report_deterministic(rng):
    data, g = pipeline_output(rng)
    a = verify_interpolant(g, data, grid_size=GRID, seed=21)
    b = verify_interpolant(g, data, grid_size=GRID, seed=21)
    assert a == b


def test_report_monotone_in_tol(rng):
    # shrinking tol can only turn pass into fail, never the reverse
    data, g = pipeline_output(rng)
    cert = g.certificate

    def report(tol):
        boundary = check_boundary_sup(g, cert.sup_norm_input + cert.eta, GRID, tol)
        checks = [
            check_peak_values(g, data, tol),
            boundary,
            check_max_modulus(g, 10_000, boundary, tol, seed=2),
        ]
        for z0, radius in verify_mod.cauchy_sample_points(2, 3):
            checks.append(check_cauchy_identity(g, z0, radius, 4096, tol))
        return VerificationReport(tuple(checks))

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
    failing = check_boundary_sup(g, 0.0, GRID, 1e-9)
    assert not failing.passed
    from diskinterp import VerificationReport

    report = VerificationReport((failing, check_max_modulus(g, 1000, failing, 1e-9)))
    assert not report.overall
    assert report.failed() == (failing,)
