"""Fast tests of the benchmark's own code, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests

Every correctness check must reject a broken interpolant: a perturbed
coefficient, a dropped stage or a power off by one.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

from diskinterp import (  # noqa: E402
    BoundaryData,
    NoContractionError,
    eval_interpolant,
    iterative_interpolant,
)
from diskinterp import interpolate as interpolate_mod  # noqa: E402

GRID = 4096
ETA = 0.01
N_MAX = 4
THETAS = np.array([0.4, 2.3, 4.1])
VALUES = np.array([1.0 + 0.0j, -0.5 + 0.6j, 0.1 - 0.7j])


@pytest.fixture(scope="module")
def built():
    data = BoundaryData.from_pairs(THETAS, VALUES)
    return iterative_interpolant(data, ETA, N_MAX, GRID, 1e-9)


def _replace_stage(g, k, **changes):
    stages = list(g.stages)
    stages[k] = dataclasses.replace(stages[k], **changes)
    return dataclasses.replace(g, stages=tuple(stages))


def perturbed_coefficient(g):
    """The largest coefficient of stage 1 scaled up by 5%."""
    coeffs = list(g.stages[0].coefficients)
    k = int(np.argmax(np.abs(coeffs)))
    coeffs[k] *= 1.05
    return _replace_stage(g, 0, coefficients=tuple(coeffs))


def dropped_stage(g):
    return dataclasses.replace(g, stages=g.stages[1:])


def power_off_by_one(g, delta):
    return _replace_stage(g, 0, power=g.stages[0].power + delta)


def dense_max(g):
    return oracle.dense_boundary_max(g, THETAS)


# ------------------------------------------------------- independent evaluator


def test_oracle_matches_library_on_a_good_build(built):
    t = np.linspace(0.0, 2.0 * math.pi, 1001, endpoint=False)
    lib = eval_interpolant(built, np.exp(1j * t))
    assert np.max(np.abs(lib - oracle.values_on_circle(built, t))) < 1e-9
    z = 0.9 * np.exp(1j * t)
    assert np.max(np.abs(eval_interpolant(built, z) - oracle.values_inside(built, z))) < 1e-12


def test_oracle_matches_mpmath_near_a_peak_at_huge_power():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    peaks = np.array([1.0, 1.0 + 2e-3])
    power = 2_500_000_000
    t = np.array([1.0 - 3e-5, 1.0 - 1e-5, 1.0 + 1e-3, 3.0])
    mine = oracle._power_on_circle(peaks, t, power)
    for ti, got in zip(t, mine):
        z = mpmath.expjpi(mpmath.mpf(ti) / mpmath.pi)
        F = sum((mpmath.expjpi(mpmath.mpf(p) / mpmath.pi) + z)
                / (mpmath.expjpi(mpmath.mpf(p) / mpmath.pi) - z) for p in peaks)
        want = complex((1 - 1 / (1 + F)) ** power)
        assert abs(got - want) < 1e-10
    inner = np.array([0.999 * np.exp(1.0j), (1 - 1e-7) * np.exp(1.00001j)])
    for zi, got in zip(inner, oracle._power_inside(peaks, inner, power)):
        z = mpmath.mpc(zi.real, zi.imag)
        F = sum((mpmath.expjpi(mpmath.mpf(p) / mpmath.pi) + z)
                / (mpmath.expjpi(mpmath.mpf(p) / mpmath.pi) - z) for p in peaks)
        want = complex((1 - 1 / (1 + F)) ** power)
        assert abs(got - want) < 1e-10


def test_peaks_evaluate_to_one():
    peaks = np.array([0.5, 0.7])
    assert np.all(oracle._power_on_circle(peaks, peaks, 10**9) == 1.0)


# ------------------------------------------------------------- the checks pass


def test_all_checks_pass_on_a_good_build(built):
    assert oracle.check_interpolant(built, THETAS, VALUES, 1.0, ETA, 0) == []
    payload = {
        "report": {"overall": True},
        "certificate": {"stage_powers": [s.power for s in built.stages]},
    }
    assert oracle.check_cli_certificate(payload, built) is None


# --------------------------------------------------- each check rejects a mutant


def test_values_on_E_rejects_perturbed_coefficient_and_dropped_stage(built):
    assert oracle.check_values_on_E(perturbed_coefficient(built), THETAS, VALUES)
    assert oracle.check_values_on_E(dropped_stage(built), THETAS, VALUES)


def test_boundary_sup_rejects_perturbed_coefficient(built):
    bad = perturbed_coefficient(built)
    assert oracle.check_boundary_sup(bad, 1.0, ETA, dense_max(bad))


def test_interior_rejects_perturbed_coefficient(built):
    bad = perturbed_coefficient(built)
    ceiling = min(dense_max(bad), 1.0 + ETA)
    assert oracle.check_interior(bad, THETAS, ceiling, 0)


def test_interior_compares_against_the_dense_maximum(built):
    # a ceiling below what the interior reaches must be rejected
    assert oracle.check_interior(built, THETAS, 0.5, 0)


def test_contraction_rejects_power_one_lower(built):
    assert oracle.check_contraction(power_off_by_one(built, -1))


@pytest.mark.parametrize("delta", [-1, 1])
def test_cli_certificate_rejects_power_off_by_one(built, delta):
    payload = {
        "report": {"overall": True},
        "certificate": {"stage_powers": [s.power for s in built.stages]},
    }
    assert oracle.check_cli_certificate(payload, power_off_by_one(built, delta))
    failed = {"report": {"overall": False}, "certificate": payload["certificate"]}
    assert oracle.check_cli_certificate(failed, built)


@pytest.mark.parametrize(
    "mutate", [perturbed_coefficient, dropped_stage, lambda g: power_off_by_one(g, 1)]
)
def test_library_eval_check_rejects_values_of_another_interpolant(built, mutate):
    t = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    z = 0.99 * np.exp(1j * t)
    on, inner = eval_interpolant(built, np.exp(1j * t)), eval_interpolant(built, z)
    assert oracle.check_library_eval(built, t, on, z, inner) is None
    assert oracle.check_library_eval(mutate(built), t, on, z, inner)


# -------------------------------------------------------------------- workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_failing_close_pairs_do_not_depend_on_seed():
    a = [p for p in workloads.close_pairs_problems(1) if p.expect_no_contraction]
    b = [p for p in workloads.close_pairs_problems(2) if p.expect_no_contraction]
    assert a == b and len(a) == 2


def test_failing_close_pairs_raise_no_contraction():
    for p in workloads.close_pairs_problems(0):
        if p.expect_no_contraction:
            data = BoundaryData.from_pairs(p.thetas, p.values)
            with pytest.raises(NoContractionError):
                iterative_interpolant(data, ETA, N_MAX, GRID, 1e-9)


def test_spread_angles_keep_the_minimum_gap():
    rng = np.random.default_rng(0)
    for n in (4, 12, 64):
        t = np.sort(workloads._spread_angles(rng, n))
        gaps = np.diff(np.append(t, t[0] + 2.0 * math.pi))
        floor = workloads.MIN_GAP_SHARE * 2.0 * math.pi / n
        assert np.min(gaps) >= floor * (1.0 - 1e-9)


# ------------------------------------------------------------------------ spans


def test_spans_nest_and_self_time_excludes_children():
    tr = Tracer()
    tr.problem = "p"
    with tr.span("interpolate.build") as outer:
        with tr.span("circle.cluster"):
            sum(range(10000))
        with tr.span("fatou.eval_fatou") as inner:
            inner.counts["terms"] = 2_000_000
    assert [s.parent for s in tr.spans] == [None, outer, outer]
    assert all(s.problem == "p" for s in tr.spans)
    kids = sum(s.duration for s in tr.spans[1:])
    assert Tracer.self_time(outer) == pytest.approx(outer.duration - kids)
    m = layer_metrics(tr.spans)
    assert m["fatou.eval_fatou_build_mterms"] == 2.0
    assert m["fatou.eval_fatou_audit_mterms"] == 0.0
    assert m["interpolate.build_self_s"] == pytest.approx(Tracer.self_time(outer))


def test_wrap_records_and_unwrap_restores():
    tr = Tracer()
    original = interpolate_mod.cluster_by_oscillation
    tr.wrap(interpolate_mod, "cluster_by_oscillation", "circle.cluster")
    try:
        data = BoundaryData.from_pairs(THETAS, VALUES)
        with tr.span("interpolate.build"):
            iterative_interpolant(data, ETA, 2, GRID, 1e-9)
    finally:
        tr.unwrap_all()
    assert interpolate_mod.cluster_by_oscillation is original
    assert [s.name for s in tr.spans].count("circle.cluster") == 2


# ------------------------------------------------------------------------ speed


def test_interval_factor_scales_to_the_reference_speed(monkeypatch):
    times = iter([0.02, 0.03])
    monkeypatch.setattr(speed, "sample", lambda: next(times))
    with speed.Interval() as iv:
        pass
    assert iv.factor == pytest.approx(speed.REFERENCE_S / 0.025)


def test_kernel_runs_and_is_repeatable():
    assert speed.kernel() == speed.kernel()
    assert speed.sample() > 0.0
