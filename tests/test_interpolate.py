import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskinterp import (
    Angle,
    BoundaryData,
    CertificationError,
    DomainError,
    FiniteBoundarySet,
    NoContractionError,
    cluster_by_oscillation,
    eval_interpolant,
    eval_on_circle,
    iterative_interpolant,
    make_schedule,
    single_stage,
    verify_interpolant,
)
import diskinterp.interpolate
from diskinterp.fatou import (
    DISK_SLACK,
    FatouFunction,
    _reach,
    _skip_radius,
    eval_fatou,
    log_fatou,
    log_fatou_on_circle,
)
from diskinterp.interpolate import (
    CHUNK,
    LOG_TERM_FLOOR,
    RESIDUAL_FLOOR,
    TERM_FLOOR,
    _terms_sum,
)
from conftest import one_stage, random_problem

TWO_PI = 2.0 * math.pi
GRID = 1 << 14
MARGIN = 1e-9
EPS = 2.0**-52
SKIP_SLACK = 2.0**-60 + 4 * EPS  # evaluation's term floor plus rounding


# ---------------------------------------------------------------- schedule


def test_schedule_example():
    s = make_schedule(1.0, 3)
    assert s == (0.25, 0.125, 0.0625)
    assert sum(s) == pytest.approx(0.4375)
    assert sum(s) < 1.0


@given(st.floats(1e-12, 1e6), st.integers(1, 60))
def test_schedule_sums_below_eta(eta, n_max):
    s = make_schedule(eta, n_max)
    assert len(s) == n_max
    assert all(t > 0 for t in s)
    assert math.fsum(s) < eta


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_schedule(0.0, 3)
    with pytest.raises(ValueError):
        make_schedule(-1.0, 3)
    with pytest.raises(ValueError):
        make_schedule(1.0, 0)
    # a bool is no budget, and no stack is built from one
    for eta in (True, np.True_):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            make_schedule(eta, 2)
    data = BoundaryData.from_pairs([0.0, 2.0], [1.0, -0.5j])
    with pytest.raises(ValueError, match="eta"):
        iterative_interpolant(data, True, 3, 16, 1e-9)
    # n_max must be an int or a numpy integer, and a bool is no count
    for n_max in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="n_max"):
            make_schedule(0.01, n_max)
    assert make_schedule(0.01, np.int64(3)) == make_schedule(0.01, 3)
    # 2.0**1101 overflows and 0.01/2**1101 underflows: the last budget is 0
    with pytest.raises(ValueError, match="last budget"):
        make_schedule(0.01, 1100)
    with pytest.raises(ValueError, match="last budget"):
        make_schedule(1e-320, 20)


@example(eta=5e-324, n_max=1)
@example(eta=1.7976931348623157e308, n_max=1022)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.integers(1, 1022))
def test_schedule_terms_are_exact_halvings(eta, n_max):
    # each term is eta/2^(n+1) rounded once, whether or not it is subnormal
    expected = tuple(eta / 2.0 ** (n + 1) for n in range(1, n_max + 1))
    if expected[-1] == 0.0:
        with pytest.raises(ValueError, match="last budget"):
            make_schedule(eta, n_max)
    else:
        assert make_schedule(eta, n_max) == expected


def test_truncated_tail_bound(rng):
    # eta_k + sum_{j>=k} eta_j after k stages; at k = n_max it collapses to
    # eta/2^n_max, and a run that stops at the residual floor states its own k
    data = random_problem(rng, 4)
    for eta, n_max, full in ((0.01, 6, True), (1e-9, 40, False)):
        g = iterative_interpolant(data, eta, n_max, GRID, MARGIN)
        s, k = make_schedule(eta, n_max), len(g.stages)
        assert (k == n_max) == full
        bound = g.certificate.residual_bound_theoretical
        assert bound == s[k - 1] + math.fsum(s[k - 1 :])
        if full:
            assert bound == pytest.approx(eta / 2**n_max, rel=1e-12)


# ---------------------------------------------------------------- single stage


def test_stage_zero_data():
    data = BoundaryData.from_pairs([0.0, 2.0], [0.0, 0.0])
    st_ = single_stage(data, 0.1, MARGIN)
    assert all(c == 0 for c in st_.coefficients)
    assert st_.certified_sup == 0.0
    assert st_.certified_residual == 0.0
    assert eval_interpolant(one_stage(st_), 0.5 + 0j) == 0.0


def test_stage_single_point_closed_form():
    # E={1}, f=1, eps=0.01: arc half-width pi/2, power 14, h=(1/1.01)((1+z)/2)^14
    data = BoundaryData.from_pairs([0.0], [1.0])
    st_ = single_stage(data, 0.01, 1e-6)
    assert st_.power == 14
    assert st_.normalization == pytest.approx(1 / 1.01, rel=1e-15)
    g = one_stage(st_)
    assert eval_interpolant(g, 1 + 0j) == pytest.approx(1 / 1.01, rel=1e-14)
    for z in (0.0 + 0j, 0.3 - 0.6j, -1j):
        expected = (1 / 1.01) * ((1 + z) / 2) ** 14
        assert eval_interpolant(g, z) == pytest.approx(expected, abs=1e-15)


def test_stage_bounds_on_seeded_problems(rng):
    # pre-normalization: sup <= (1+eps)*supnorm, residual < eps*(1+supnorm)
    # post-normalization: sup <= supnorm, residual < eps*(1+2*supnorm)
    for _ in range(8):
        data = random_problem(rng, 8)
        eps = float(rng.uniform(0.03, 0.4))
        st_ = single_stage(data, eps, MARGIN)
        sup = data.sup_norm
        pre_sup = st_.certified_sup / st_.normalization
        assert pre_sup <= (1 + eps) * sup + 1e-9
        assert st_.certified_sup <= sup

        at_e = eval_interpolant(one_stage(st_), np.exp(1j * data.set.thetas))
        pre_res = np.max(np.abs(data.values - at_e / st_.normalization))
        assert pre_res < eps * (1 + sup)
        assert st_.certified_residual < eps * (1 + 2 * sup)


def test_stage_rejects_bad_epsilon():
    data = BoundaryData.from_pairs([0.0], [1.0])
    with pytest.raises(ValueError):
        single_stage(data, 0.0, MARGIN)
    with pytest.raises(ValueError):
        single_stage(data, -0.1, MARGIN)


def test_stage_propagates_no_contraction():
    # near-coincident points with far-apart values force split clusters with
    # tiny clearance; the inflated off-arc estimate reaches 1
    data = BoundaryData.from_pairs([0.0, 1e-5], [0.0, 1.0])
    with pytest.raises(NoContractionError):
        single_stage(data, 0.1, 1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "thetas, values",
    [
        ((2.196, 0.0, 6.2831853071795845), (0, 1, 0)),
        ((1.0, 0.0, 6.2831853071795845), (0, 0, 1)),
        ((0.0, 2.2, 5.9, 6.283185307179585), (1, 1j, -1, -1)),
    ],
)
def test_points_one_ulp_apart_across_the_seam_fail_typed(thetas, values):
    # 0.0 and a double just below 2 pi are 2.4e-16 or 8.9e-16 apart on the
    # circle. In the first two cases an end of a cluster's arc rounds onto
    # one of its own peaks, where |lambda| = 1; in the third the arc's
    # quarter-gap extension rounds away, so the arc cannot hold its last
    # member. Either way the build raises NoContractionError, with no
    # warning from the cotangent sum
    data = BoundaryData.from_pairs(thetas, values)
    with pytest.raises(NoContractionError):
        iterative_interpolant(data, 0.01, 20, GRID, MARGIN)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(1, 1, 0), (0, 0, 1)])
@pytest.mark.parametrize("gap", [5e-324, 1e-323, 1e-309])
def test_subnormal_neighbours_fail_typed(gap, values):
    # 1/tan(gap/2) is not finite: half of 5e-324 rounds to 0, and below
    # about 1.1e-308 the cotangent overflows, so no cotangent sum holds both
    # points; the clustering refuses them, with no warning
    data = BoundaryData.from_pairs([0.0, gap, 2.0], values)
    with pytest.raises(NoContractionError, match="too close"):
        iterative_interpolant(data, 0.01, 20, GRID, MARGIN)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(1, 1, 0), (0, 0, 1)])
def test_neighbours_2e_308_apart_build(values):
    data = BoundaryData.from_pairs([0.0, 2e-308, 2.0], values)
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    assert g.stages


def test_stage_pinned_power_certification_failure(monkeypatch):
    # power 1 leaves heavy cross-cluster leakage; the stage contract breaks
    monkeypatch.setattr(diskinterp.interpolate, "choose_power", lambda *a: 1)
    data = BoundaryData.from_pairs([0.0, 2.0], [1.0, 1.0 + 1.0j])
    with pytest.raises(CertificationError):
        single_stage(data, 1e-3, MARGIN)


def test_stage_residual_contract_enforced(monkeypatch):
    # values on E off by 0.1 miss the contract eps*(1 + 2 sup) = 0.003
    terms_sum = diskinterp.interpolate._terms_sum
    monkeypatch.setattr(
        diskinterp.interpolate, "_terms_sum", lambda *a: terms_sum(*a) + 0.1
    )
    data = BoundaryData.from_pairs([0.0, 2.1, 4.0], [1.0, -0.4 + 0.3j, 0.1 - 0.8j])
    with pytest.raises(CertificationError, match="not below its contract bound 0.003"):
        single_stage(data, 1e-3, MARGIN)


def test_stage_constructor_guards():
    stage = single_stage(BoundaryData.from_pairs([0.0, 2.0], [1.0, -1.0]), 1e-3, MARGIN)
    for power in (0, -3):
        with pytest.raises(ValueError, match="power"):
            dataclasses.replace(stage, power=power)


# ---------------------------------------------------------------- pipeline


def test_pipeline_zero_data():
    data = BoundaryData.from_pairs([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    g = iterative_interpolant(data, 0.01, 5, GRID, MARGIN)
    assert len(g.stages) == 0
    cert = g.certificate
    assert cert.boundary_sup_bound == 0.0
    assert cert.measured_max_residual_on_E == 0.0
    assert cert.residual_bound_theoretical == 0.0
    zs = np.array([0.0 + 0j, 0.5j, 1.0 + 0j])
    assert np.all(eval_interpolant(g, zs) == 0.0)


def test_pipeline_below_the_floor_bounds_its_residual():
    # data of sup norm below RESIDUAL_FLOOR, but not 0, builds no stage; the
    # zero interpolant leaves the data on E, so the truncation bound is the
    # data's sup norm
    data = BoundaryData.from_pairs([0.0, 2.0], [1e-16, -5e-16j])
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    assert len(g.stages) == 0
    cert = g.certificate
    assert cert.measured_max_residual_on_E == data.sup_norm == 5e-16
    assert cert.residual_bound_theoretical >= cert.measured_max_residual_on_E


def test_pipeline_certificate_bounds(rng):
    for _ in range(4):
        data = random_problem(rng, 6)
        g = iterative_interpolant(data, 0.02, 10, GRID, MARGIN)
        cert = g.certificate
        # the stage checks imply both totals, exactly: each stage sup is at
        # most its input residual, each residual at most its budget eta_n
        assert g.stages
        assert cert.boundary_sup_bound <= data.sup_norm + 0.02 / 2
        assert (
            cert.measured_max_residual_on_E <= cert.residual_bound_theoretical / 2
        )
        assert cert.sup_norm_input == data.sup_norm


def test_pipeline_telescoping_and_sup_chain(rng):
    data = random_problem(rng, 6)
    eta, n_max = 0.02, 8
    g = iterative_interpolant(data, eta, n_max, GRID, MARGIN)
    budgets = make_schedule(eta, n_max)
    residual = data.values
    res_sup = data.sup_norm
    e_pts = np.exp(1j * data.set.thetas)
    for n, stage in enumerate(g.stages, start=1):
        # stage sup never exceeds the sup norm of its input residual
        assert stage.certified_sup <= res_sup
        residual = residual - np.asarray(eval_interpolant(one_stage(stage), e_pts))
        res_sup = float(np.max(np.abs(residual)))
        # telescoping: |f - sum_{j<=n} H_j| on E below eta_n
        assert res_sup < budgets[n - 1]
        assert res_sup == pytest.approx(stage.certified_residual, abs=1e-14)


@pytest.mark.parametrize("eta, n_max, at_floor", [(0.01, 20, False), (1e-9, 40, True)])
def test_pipeline_measures_each_residual_once(monkeypatch, eta, n_max, at_floor):
    # data normalized by numpy's modulus: numpy's sup and Python's differ in
    # the last bit
    rng = np.random.default_rng(7)
    thetas = np.sort(rng.uniform(0.0, TWO_PI, 4))
    vals = rng.normal(size=4) + 1j * rng.normal(size=4)
    data = BoundaryData.from_pairs(thetas, vals / np.max(np.abs(vals)))
    assert float(np.max(np.abs(data.values))) != data.sup_norm
    build, received = diskinterp.interpolate.single_stage, []

    def recorded(data, epsilon, safety_margin):
        received.append(data)
        return build(data, epsilon, safety_margin)

    monkeypatch.setattr(diskinterp.interpolate, "single_stage", recorded)
    g = iterative_interpolant(data, eta, n_max, GRID, MARGIN)
    budgets = make_schedule(eta, n_max)
    assert len(received) == len(g.stages)
    previous = data
    for k, stage in enumerate(g.stages):
        # each stage receives the very record the previous stage left
        assert received[k] is previous and stage.clustering.data is previous
        sup = previous.sup_norm
        assert stage.epsilon == budgets[k] / (1.0 + 2.0 * sup)
        # the derived fields read their sources, bit for bit
        assert stage.epsilon == stage.clustering.oscillation_bound
        assert stage.normalization == 1.0 / (1.0 + stage.clustering.oscillation_bound)
        assert stage.certified_residual == stage.residual.sup_norm
        assert stage.residual.set is data.set
        previous = stage.residual
    res_sup = previous.sup_norm
    assert g.certificate.measured_max_residual_on_E == res_sup
    # the run stops at n_max, or once the residual drops below the floor
    assert (len(g.stages) < n_max) == at_floor == (res_sup < RESIDUAL_FLOOR)


def test_pipeline_eval_matches_stage_sum(rng):
    data = random_problem(rng, 5)
    g = iterative_interpolant(data, 0.05, 4, GRID, MARGIN)
    zs = 0.8 * np.exp(2j * np.pi * np.arange(64) / 64)
    total = sum(np.asarray(eval_interpolant(one_stage(s), zs)) for s in g.stages)
    assert np.max(np.abs(eval_interpolant(g, zs) - total)) < 1e-14


def test_pipeline_values_near_data(rng):
    data = random_problem(rng, 6)
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    vals = eval_interpolant(g, np.exp(1j * data.set.thetas))
    err = np.max(np.abs(vals - data.values))
    assert err <= g.certificate.residual_bound_theoretical + 1e-12


def test_pipeline_rejects_bad_parameters(rng):
    data = random_problem(rng, 3)
    with pytest.raises(ValueError):
        iterative_interpolant(data, 0.0, 5, GRID, MARGIN)
    with pytest.raises(ValueError):
        iterative_interpolant(data, 0.01, 0, GRID, MARGIN)


def test_pipeline_stage_budget_enforced(monkeypatch):
    # underpowered stages must not come back as a certified interpolant
    monkeypatch.setattr(diskinterp.interpolate, "choose_power", lambda *a: 1)
    data = BoundaryData.from_pairs([0.0, 2.0, 4.0], [1.0, -1.0, 1.0j])
    with pytest.raises(CertificationError):
        iterative_interpolant(data, 0.01, 3, GRID, MARGIN)


def test_pipeline_stage_over_budget_rejected(monkeypatch):
    # the stage contract keeps each residual below eta_n up to rounding, so
    # only a stage whose recorded residual is raised reaches this check
    build = diskinterp.interpolate.single_stage

    def over_budget(data, epsilon, safety_margin):
        stage = build(data, epsilon, safety_margin)
        eta_n = epsilon * (1.0 + 2.0 * data.sup_norm)
        raised = BoundaryData(data.set, np.full(len(data.set), 2.0 * eta_n))
        return dataclasses.replace(stage, residual=raised)

    monkeypatch.setattr(diskinterp.interpolate, "single_stage", over_budget)
    data = BoundaryData.from_pairs([0.0, 2.0, 4.0], [1.0, -1.0, 1.0j])
    with pytest.raises(CertificationError, match="exceeds its budget"):
        iterative_interpolant(data, 0.01, 3, GRID, MARGIN)


@pytest.mark.parametrize("value, eta, n_max", [(1e308, 0.01, 8), (1e30, 1e-300, 20)])
def test_zero_stage_tolerance_refused_before_clustering(monkeypatch, value, eta, n_max):
    # 1 + 2*sup overflows, or eta_1/(1 + 2*sup) underflows: eps_1 is 0, and
    # the build names the rule instead of handing 0 to the clustering
    def no_clustering(*args):
        raise AssertionError("clustered with a zero tolerance")

    monkeypatch.setattr(diskinterp.interpolate, "cluster_by_oscillation", no_clustering)
    data = BoundaryData.from_pairs([0.0, 2.0], [value, 1j])
    with pytest.raises(ValueError, match=r"eta_n/\(1 \+ 2\*sup\) = 0\.0 is not positive"):
        iterative_interpolant(data, eta, n_max, GRID, MARGIN)


def test_eval_outside_disk_rejected(rng):
    data = random_problem(rng, 3)
    g = iterative_interpolant(data, 0.05, 2, GRID, MARGIN)
    with pytest.raises(DomainError):
        eval_interpolant(g, 1.5 + 0j)
    with pytest.raises(DomainError):
        eval_interpolant(one_stage(g.stages[0]), np.array([2.0 + 0j]))
    # NaN fails every comparison, so only "all points inside" catches it
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan)):
        with pytest.raises(DomainError):
            eval_interpolant(g, z)
        with pytest.raises(DomainError):
            eval_interpolant(one_stage(g.stages[0]), np.array([0.5, z]))
        with pytest.raises(DomainError):
            eval_fatou(g.stages[0].lambdas[0], z)


# ---------------------------------------------------------------- evaluation kernel


def _term_by_term(stages, zs):
    """sum over the stage terms of normalization * c * exp(N log lambda(zs)),
    each term on every point, no skip."""
    total = np.zeros(zs.shape, dtype=complex)
    for s in stages:
        for lam, c in zip(s.lambdas, s.coefficients):
            total += s.normalization * c * np.exp(s.power * log_fatou(lam, zs)[0])
    return total


def _kernel_problems():
    spread = np.random.default_rng(7)
    n = 12
    thetas = TWO_PI * (np.arange(n) + 0.5 * spread.uniform(size=n)) / n
    values = spread.normal(size=n) + 1j * spread.normal(size=n)
    random12 = BoundaryData.from_pairs(thetas, values / np.max(np.abs(values)))
    # opposite values 1e-3 apart push the power to about 2e9
    close = BoundaryData.from_pairs(
        [1.0, 1.001, 3.2, 4.9], [1, -1, 0.6 + 0.3j, -0.2 + 0.7j]
    )
    # two points far apart: small powers
    far_pair = BoundaryData.from_pairs([0.0, 3.14], [1.0, -0.5j])
    return {"random12": random12, "close_pair": close, "far_pair": far_pair}


@pytest.mark.parametrize("name", ["random12", "close_pair", "far_pair"])
def test_skipped_terms_stay_within_floor_bound(name):
    data = _kernel_problems()[name]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    if name == "close_pair":
        assert max(s.power for s in g.stages) > 1e9
    if name == "far_pair":
        assert min(s.power for s in g.stages) < 100
    interior = np.random.default_rng(3)
    point_sets = {
        "grid": np.exp(2j * np.pi * np.arange(4096) / 4096),
        "E": np.exp(1j * data.set.thetas),
        "interior": np.sqrt(interior.uniform(size=1000))
        * np.exp(1j * interior.uniform(0.0, TWO_PI, 1000)),
        "contour": 0.9 * np.exp(2j * np.pi * np.arange(1024) / 1024),
    }
    scale_sum = sum(
        abs(s.normalization * c) for s in g.stages for c in s.coefficients
    )
    bound = SKIP_SLACK * scale_sum
    for label, zs in point_sets.items():
        diff = eval_interpolant(g, zs) - _term_by_term(g.stages, zs)
        assert np.max(np.abs(diff)) <= bound, label
        for s in g.stages:
            scale = sum(abs(s.normalization * c) for c in s.coefficients)
            diff = eval_interpolant(one_stage(s), zs) - _term_by_term([s], zs)
            assert np.max(np.abs(diff)) <= SKIP_SLACK * scale, label


def _floor_only_sum(terms, zs):
    """The kernel without the skip radius: every point of a chunk goes
    through log_fatou with no floor, and the floor test alone drops terms."""
    groups = {}
    for lam, power, scale in sorted(terms, key=lambda t: t[1]):
        groups.setdefault(lam, []).append((power, scale))
    flat = zs.reshape(-1)
    total = np.zeros(flat.shape, dtype=complex)
    for start in range(0, flat.size, CHUNK):
        out = total[start : start + CHUNK]
        for lam, group in groups.items():
            L, idx = log_fatou(lam, flat[start : start + CHUNK])
            for power, scale in group:
                keep = (L.real >= LOG_TERM_FLOOR / power).nonzero()[0]
                if keep.size < L.size:
                    if not keep.size:
                        break
                    L, idx = L[keep], idx[keep]
                out[idx] += scale * np.exp(power * L)
    return total.reshape(zs.shape)


def _terms(stages):
    return [
        (lam, s.power, s.normalization * c)
        for s in stages
        for lam, c in zip(s.lambdas, s.coefficients)
    ]


@pytest.mark.parametrize("name", ["random12", "close_pair", "far_pair"])
def test_skip_radius_matches_floor_bit_for_bit(name):
    data = _kernel_problems()[name]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    # the skip acts on these points: some radius reaches past the 0.5 contour
    radii = [
        _skip_radius(lam.peak_points.size, LOG_TERM_FLOOR / p)
        for lam, p, _ in _terms(g.stages)
    ]
    assert max(radii) > 0.5
    interior = np.random.default_rng(5)
    point_sets = {
        "zero": np.zeros(1, dtype=complex),
        "interior": np.sqrt(interior.uniform(size=1000))
        * np.exp(1j * interior.uniform(0.0, TWO_PI, 1000)),
    }
    for r in (0.3, 0.5, 0.9, 0.99, 0.999):
        point_sets[r] = r * np.exp(2j * np.pi * np.arange(1024) / 1024)
    for label, zs in point_sets.items():
        assert np.array_equal(
            eval_interpolant(g, zs), _floor_only_sum(_terms(g.stages), zs)
        ), label
        for s in g.stages:
            assert np.array_equal(
                eval_interpolant(one_stage(s), zs), _floor_only_sum(_terms([s]), zs)
            ), label


def test_skip_radius_keeps_the_tight_origin():
    # one peak: lambda(0) = 1/2, so lambda(0)^60 is TERM_FLOOR itself, which
    # the floor test keeps, and the skip radius for power 60 is exactly 0
    lam = FatouFunction(FiniteBoundarySet.from_thetas([0.0]))
    assert _skip_radius(1, LOG_TERM_FLOOR / 60) == 0.0
    zs = np.array([0j, 1e-300, 1e-3, -1e-3j, 0.01])
    for power in (59, 60, 61):
        table = [(lam, ((power, 1.0),))]
        assert np.array_equal(
            _terms_sum(table, zs), _floor_only_sum([(lam, power, 1.0)], zs)
        ), power
    assert _terms_sum([(lam, ((60, 1.0),))], zs)[0] == pytest.approx(
        TERM_FLOOR, rel=1e-13
    )


@pytest.mark.parametrize("peak_count", [1, 2, 3, 10, 300])
def test_skip_radius_covers_rounding(peak_count):
    # the kernel drops |z| < r unevaluated; the floor test drops z where the
    # computed Re log lambda is below the computed LOG_TERM_FLOOR/N. The
    # computed log is within a relative kappa of the true one, which is at
    # most the Schwarz-Pick bound, and |z| is off by an ulp at most
    mpmath = pytest.importorskip("mpmath")
    skipping = 0
    with mpmath.workdps(50):
        mu = mpmath.mpf(peak_count) / (peak_count + 1)
        for power in (20, 60, 61, 100, 10**3, 10**5, 10**7, 2 * 10**9, 10**11):
            r = _skip_radius(peak_count, LOG_TERM_FLOOR / power)
            if r == 0.0:
                continue
            skipping += 1
            rr = mpmath.mpf(r) * (1 + EPS)
            log_bound = mpmath.log((mu + rr) / (1 + mu * rr))
            kappa = 4 * EPS * (peak_count + 2 / (1 - rr))
            assert power * log_bound * (1 - kappa) < LOG_TERM_FLOOR * (1 + EPS), power
    assert skipping >= 4


@pytest.mark.parametrize("peak_count", [1, 2, 3, 10, 300])
def test_reach_covers_rounding(peak_count):
    # the kernel drops |z - c| > R unevaluated; the floor test drops z where
    # the computed Re log lambda is below the floor. At |z| = 1 + DISK_SLACK
    # and distance D = |z - c| - rho from every peak: |F| <= (2 + delta) m/D,
    # Re F >= -(2 delta + delta^2) m/D^2, the computed F is within (m + 8) u
    # (2 + delta) m/D of F, and |z - c| is off by an ulp or two at most
    mpmath = pytest.importorskip("mpmath")
    m = peak_count
    reaching = 0
    with mpmath.workdps(50):
        u = mpmath.mpf(EPS) / 2
        delta = mpmath.mpf(DISK_SLACK)
        for spread in (0.0, 1e-3, 0.5):
            for power in (20, 60, 100, 10**3, 10**5, 10**7, 2 * 10**9, 10**11):
                floor = LOG_TERM_FLOOR / power
                r = _reach(m, spread, floor)
                if r >= 2.0:
                    continue
                reaching += 1
                d = mpmath.mpf(r) * (1 - 4 * u) - spread
                f_max = (2 + delta + u) * m / d
                re_min = -(2 * delta + delta**2 + 2 * u) * m / d**2
                err = (m + 8) * u * f_max
                x = (1 + 2 * (re_min - err)) / ((f_max + err) ** 2 * (1 + 4 * u))
                re_max = -mpmath.log1p(x) * (1 - 2 * u) / 2
                assert re_max < floor, (spread, power)
    assert reaching >= 8


def _circle_points(center, distance, radius):
    """The points of |z| = radius at ``distance`` from ``center``."""
    cos = (radius**2 + abs(center) ** 2 - distance**2) / (2 * radius * abs(center))
    if abs(cos) > 1.0:
        return []
    phase, half = cmath.phase(center), math.acos(cos)
    return [radius * cmath.exp(1j * (phase + side * half)) for side in (1, -1)]


def test_reach_matches_floor_bit_for_bit():
    # points at R (1 +- 1e-6) from the peaks' centre, on the circle and
    # DISK_SLACK outside it: the reach drops those beyond R before the
    # per-peak loop, and each must be one the floor test drops; a reach
    # without rho keeps peaks beyond it, and one without the DISK_SLACK term
    # does not cover |z| > 1 at large powers
    peak_sets = {
        "one": [0.4],
        "pair": [1.0, 1.001],
        "three": [2.0, 2.01, 2.05],
        "ten": 4.0 + np.linspace(0.0, 0.2, 10),
        "wide": 0.5 + np.linspace(0.0, 1.0, 300),
    }
    powers = [10**k for k in range(2, 13)] + [3 * 10**k for k in range(2, 12)]
    dropped = tested = 0
    for name, thetas in peak_sets.items():
        lam = FatouFunction(FiniteBoundarySet.from_thetas(thetas))
        center, spread = lam.peak_disk
        for power in powers:
            floor = LOG_TERM_FLOOR / power
            r = _reach(len(thetas), spread, floor)
            if r >= 2.0:
                continue
            zs = np.array(
                [
                    z
                    for distance in (r * (1 - 1e-6), r * (1 + 1e-6))
                    for radius in (1.0, 1.0 + DISK_SLACK)
                    for z in _circle_points(center, distance, radius)
                ]
            )
            L, keep = log_fatou(lam, zs, floor)
            L_all, _ = log_fatou(lam, zs)
            above = (L_all.real >= floor).nonzero()[0]
            assert np.array_equal(keep, above), (name, power)
            assert np.array_equal(L, L_all[above]), (name, power)
            dropped += np.count_nonzero(np.abs(zs - center) > r)
            tested += zs.size
    assert dropped and tested > 300
    # the kernel on whole circles, where the reach is the only skip (inside
    # the disk check, which a rounded point at 1 + DISK_SLACK may fail)
    for data in _kernel_problems().values():
        g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
        for radius in (1.0, 1.0 + 0.99 * DISK_SLACK):
            zs = radius * np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
            assert np.array_equal(
                eval_interpolant(g, zs), _floor_only_sum(_terms(g.stages), zs)
            ), radius


def test_terms_on_their_peaks_are_exactly_scale():
    data = _kernel_problems()["close_pair"]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    for s in g.stages:
        for lam, c in zip(s.lambdas, s.coefficients):
            L, keep = log_fatou(lam, lam.peak_points)
            assert np.all(L == 0.0) and keep.size == lam.peak_points.size
            scale = s.normalization * c
            at_peaks = _terms_sum([(lam, ((s.power, scale),))], lam.peak_points)
            assert np.all(at_peaks == scale)


def test_terms_on_their_peak_angles_are_exactly_scale():
    data = _kernel_problems()["close_pair"]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    for s in g.stages:
        for lam, c in zip(s.lambdas, s.coefficients):
            L, keep = log_fatou_on_circle(lam, lam.peaks.thetas)
            assert np.all(L == 0.0) and keep.size == lam.peaks.thetas.size
            scale = s.normalization * c
            at_peaks = _terms_sum([(lam, ((s.power, scale),))], lam.peaks.thetas)
            assert np.all(at_peaks == scale)
    # so on E the interpolant is the sum of the stage scales of each point
    at_e = eval_on_circle(g, data.set.thetas)
    for i, theta in enumerate(data.set.thetas):
        own = [
            s.normalization * c
            for s in g.stages
            for lam, c in zip(s.lambdas, s.coefficients)
            if theta in lam.peaks.thetas
        ]
        assert abs(at_e[i] - sum(own)) <= 1e-15


def test_eval_is_exactly_zero_where_lambda_vanishes():
    # the single peak at 0 has F(-1) = 0, so every term vanishes at -1
    data = BoundaryData.from_pairs([0.0], [1.0])
    g = iterative_interpolant(data, 0.01, 5, GRID, MARGIN)
    assert len(g.stages) > 1
    L, keep = log_fatou(g.stages[0].lambdas[0], np.array([-1.0 + 0j]))
    assert L[0] == -math.inf and keep.size == 1
    zs = np.array([-1.0 + 0j, 0.5 + 0j])
    with np.errstate(all="raise"):
        assert eval_interpolant(g, -1.0 + 0j) == 0.0
        vals = eval_interpolant(g, zs)
        assert vals[0] == 0.0 and vals[1] != 0.0
        for s in g.stages:
            vals = eval_interpolant(one_stage(s), zs)
            assert vals[0] == 0.0 and np.isfinite(vals[1])


def test_eval_next_to_a_peak_takes_the_peak_value_without_warnings():
    # 1e-200 off the peak at angle 0 the half-plane sum is finite but |F|^2
    # overflows, so log lambda is 0 and the value is the value on the peak
    data = BoundaryData.from_pairs([0.0, 2.0], [1.0, -1.0])
    g = iterative_interpolant(data, 0.01, 5, GRID, MARGIN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_interpolant(g, 1 + 1e-200j) == eval_interpolant(g, 1 + 0j)


def _mp_interpolant(g, peak_point):
    """z -> g(z) in mpmath; ``peak_point(theta)`` gives a peak as an mpc."""
    import mpmath  # callers skip when it is missing
    peaks = {
        lam: [peak_point(t) for t in lam.peaks.thetas.tolist()]
        for s in g.stages
        for lam in s.lambdas
    }

    def value(z):
        z = mpmath.mpc(z.real, z.imag)
        lams = {}
        for lam, points in peaks.items():
            if z in points:
                lams[lam] = mpmath.mpc(1)
            else:
                F = mpmath.fsum((a + z) / (a - z) for a in points)
                lams[lam] = F / (1 + F)
        total = mpmath.fsum(
            s.normalization * c * lams[lam] ** s.power
            for s in g.stages
            for lam, c in zip(s.lambdas, s.coefficients)
        )
        return complex(total)

    return value


def test_kernel_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    data = _kernel_problems()["close_pair"]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    power = max(s.power for s in g.stages)
    assert power > 2e9
    # +-4 peak widths sqrt(8/N) around each point of E
    window = math.sqrt(8.0 / power) * np.linspace(-4.0, 4.0, 17)
    circle = np.exp(1j * (data.set.thetas[:, None] + window).ravel())
    # bound on the error in g against mpmath at the library's own double
    # precision peak points: the error of the kernel itself
    bounds = {1.0: 1e-10, 1.0 - 8.0 / power: 1e-11, 1.0 - 1e-6: 1e-17}
    with mpmath.workdps(60):
        at_double_peaks = _mp_interpolant(
            g, lambda t: mpmath.mpc(complex(np.exp(1j * t)))
        )
        for radius, bound in bounds.items():
            zs = radius * circle
            ref = [at_double_peaks(z) for z in zs]
            err = np.max(np.abs(eval_interpolant(g, zs) - ref))
            assert err <= bound, (radius, err)
        # 1, 2 and 4 ulps of angle either side of each point of E: 1.6e-16
        # to 3.6e-15 from the peak points, where F is finite but huge
        ks = np.array([-4, -2, -1, 1, 2, 4])
        ulps = np.spacing(data.set.thetas)[:, None] * ks
        zs = np.exp(1j * (data.set.thetas[:, None] + ulps)).ravel()
        ref = [at_double_peaks(z) for z in zs]
        err = np.max(np.abs(eval_interpolant(g, zs) - ref))
        assert err <= 1e-10, err
        # at the exact peak angles the rounding of the peak points
        # exp(i theta_j) moves g by a few 1e-8 near the peaks at this power
        at_exact_peaks = _mp_interpolant(g, mpmath.expj)
        ref = [at_exact_peaks(z) for z in circle]
        assert np.max(np.abs(eval_interpolant(g, circle) - ref)) <= 5e-8


@pytest.mark.parametrize("power", [10**6, 2_200_000_000, 10**10])
def test_eval_on_circle_matches_mpmath_at_exact_angles(power):
    mpmath = pytest.importorskip("mpmath")
    data = _kernel_problems()["close_pair"]
    built = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    # the built stages, every one raised to the same power
    g = dataclasses.replace(
        built,
        stages=tuple(dataclasses.replace(s, power=power) for s in built.stages),
    )
    # +-4 peak widths sqrt(8/N) around each point of E, as exact angles
    window = math.sqrt(8.0 / power) * np.linspace(-4.0, 4.0, 17)
    thetas = (data.set.thetas[:, None] + window).ravel()
    with mpmath.workdps(60):
        exact = _mp_interpolant(g, mpmath.expj)
        ref = [exact(mpmath.expj(t)) for t in thetas]
    err = np.max(np.abs(eval_on_circle(g, thetas) - ref))
    assert err <= 1e-10, err


@pytest.mark.parametrize("name", ["random12", "close_pair", "far_pair"])
def test_eval_on_circle_matches_eval_at_points(name):
    data = _kernel_problems()[name]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    power = max(s.power for s in g.stages)
    window = math.sqrt(8.0 / power) * np.linspace(-4.0, 4.0, 17)
    thetas = np.concatenate(
        [TWO_PI * np.arange(GRID) / GRID, (data.set.thetas[:, None] + window).ravel()]
    )
    on_circle = eval_on_circle(g, thetas)
    assert np.max(np.abs(on_circle - eval_interpolant(g, np.exp(1j * thetas)))) <= 1e-6
    assert eval_on_circle(g, thetas[1]) == on_circle[1]


def test_eval_on_circle_rejects_non_finite_angles():
    data = _kernel_problems()["far_pair"]
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    for bad in (math.nan, math.inf, [0.0, -math.inf]):
        with pytest.raises(DomainError, match="angle"):
            eval_on_circle(g, bad)


def test_no_python_object_per_point(monkeypatch):
    # E, each stage's data and every peak set are arrays: the build and the
    # audit make an Angle only for an arc centre, one per cluster per stage
    data = BoundaryData.from_pairs(
        np.linspace(0.0, TWO_PI, 48, endpoint=False) + 0.05,
        np.exp(2j * np.arange(48)) * np.linspace(1.0, 0.2, 48),
    )
    made = []
    check = Angle.__post_init__
    monkeypatch.setattr(Angle, "__post_init__", lambda a: made.append(check(a)))
    g = iterative_interpolant(data, 0.01, 20, GRID, MARGIN)
    report = verify_interpolant(g, data, seed=0)
    monkeypatch.undo()
    assert report.overall and len(g.stages) == 20
    assert 0 < len(made) <= sum(len(s.clustering) for s in g.stages)
    wrapped = 0
    for s in g.stages:
        assert s.clustering.data.set is data.set
        assert type(s.clustering.data.values) is np.ndarray
        for lam, c in zip(s.lambdas, s.clustering.clusters):
            # a slice of E's array, or the join of two slices across the seam
            crosses = c.start + c.size > c.n
            wrapped += crosses
            assert (lam.peaks.thetas.base is None) == crosses
            assert crosses or lam.peaks.thetas.base is data.set.thetas
    assert wrapped


# ---------------------------------------------------------------- properties


def test_phase_equivariance(rng):
    # a unit phase leaves every |f(a) - f(b)| and |f| in place, so the
    # adaptive build of c*f makes the choices of the build of f
    data = random_problem(rng, 6)
    g = iterative_interpolant(data, 0.02, 6, GRID, MARGIN)
    c = complex(np.exp(0.7j))
    scaled = BoundaryData(data.set, c * data.values)
    g_scaled = iterative_interpolant(scaled, 0.02, 6, GRID, MARGIN)
    assert [s.power for s in g_scaled.stages] == [s.power for s in g.stages]
    zs = np.concatenate(
        [
            np.exp(2j * np.pi * np.arange(256) / 256),
            0.6 * np.exp(2j * np.pi * np.arange(64) / 64),
        ]
    )
    diff = eval_interpolant(g_scaled, zs) - c * eval_interpolant(g, zs)
    assert np.max(np.abs(diff)) < 1e-10


def test_conjugation_symmetry(monkeypatch):
    # conjugate-symmetric data; singleton partition at every stage so the
    # adaptive clustering cannot break the mirror symmetry
    thetas = [0.0, 0.9, TWO_PI - 0.9, 2.2, TWO_PI - 2.2]
    vals = [0.8, 0.5 + 0.4j, 0.5 - 0.4j, -0.3 + 0.9j, -0.3 - 0.9j]
    data = BoundaryData.from_pairs(thetas, vals)

    def singletons(stage_data, epsilon):
        clustering = cluster_by_oscillation(stage_data, 1e-300)
        assert len(clustering) == len(thetas)
        return clustering

    monkeypatch.setattr(diskinterp.interpolate, "cluster_by_oscillation", singletons)
    g = iterative_interpolant(data, 0.01, 8, GRID, MARGIN)
    zs = np.concatenate(
        [
            np.exp(2j * np.pi * np.arange(256) / 256),
            0.7 * np.exp(2j * np.pi * np.arange(64) / 64),
        ]
    )
    diff = eval_interpolant(g, np.conj(zs)) - np.conj(eval_interpolant(g, zs))
    assert np.max(np.abs(diff)) < 1e-10


def test_max_modulus_consistency(rng):
    data = random_problem(rng, 5)
    g = iterative_interpolant(data, 0.02, 6, GRID, MARGIN)
    boundary = np.max(
        np.abs(eval_interpolant(g, np.exp(2j * np.pi * np.arange(GRID) / GRID)))
    )
    zr = (
        (1 - 1e-9)
        * np.sqrt(rng.uniform(size=10**4))
        * np.exp(1j * rng.uniform(0, TWO_PI, 10**4))
    )
    interior = np.max(np.abs(eval_interpolant(g, zr)))
    assert interior <= boundary + 1e-9


def test_sup_bound_covers_narrow_peaks():
    # the peaks at 1.0 and 1.001 are narrower than a 2^14 grid's spacing,
    # so a bound read off that grid would fall below max|g(E)|
    thetas = [1.0, 1.001, 3.2, 4.9]
    data = BoundaryData.from_pairs(thetas, [1, -1, 0.6 + 0.3j, -0.2 + 0.7j])
    g = iterative_interpolant(data, 0.01, 4, GRID, MARGIN)
    bound = g.certificate.boundary_sup_bound
    at_e = np.abs(eval_interpolant(g, np.exp(1j * data.set.thetas)))
    assert bound >= np.max(at_e)
    assert bound <= data.sup_norm + 0.01
    near = np.concatenate([t + np.linspace(-2e-3, 2e-3, 4001) for t in thetas])
    assert np.max(np.abs(eval_interpolant(g, np.exp(1j * near)))) <= bound
