import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskinterp import (
    BoundaryData,
    DomainError,
    FatouFunction,
    FiniteBoundarySet,
    NoContractionError,
    eval_fatou,
)
from diskinterp.circle import Angle, Arc, cluster_by_oscillation
from diskinterp.fatou import (
    FEW_ANGLES,
    _cotangent_sum,
    _skip_radius,
    choose_power,
    log_fatou,
    log_fatou_on_circle,
    sup_off_arc,
)

TWO_PI = 2.0 * math.pi
EPS = 2.0**-52


def single_peak():
    return FatouFunction(FiniteBoundarySet.from_thetas([0.0]))


def two_peaks():
    return FatouFunction(FiniteBoundarySet.from_thetas([0.0, math.pi]))


def reference_eval_fatou(fatou, zs):
    """lambda = 1 - 1/(1+F) straight from the half-plane sum, exactly 1
    where F is not finite: a second formula to hold eval_fatou to."""
    F = np.zeros(zs.shape, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for aj in fatou.peak_points:
            F += (aj + zs) / (aj - zs)
        lam = 1.0 - 1.0 / (1.0 + F)
    return np.where(np.isfinite(F), lam, 1.0 + 0.0j)


def random_disk_points(rng, size):
    """Uniform points of the open disk, the first quarter moved onto the
    circle."""
    r = np.sqrt(rng.uniform(size=size))
    r[: size // 4] = 1.0
    return r * np.exp(1j * rng.uniform(0, TWO_PI, size))


# ---------------------------------------------------------------- build/eval


def test_single_peak_closed_form():
    # F = (1+z)/(1-z) collapses F/(1+F) to (1+z)/2 identically
    f = single_peak()
    assert eval_fatou(f, 1 + 0j) == 1.0
    assert eval_fatou(f, -1 + 0j) == pytest.approx(0.0, abs=1e-15)
    assert abs(eval_fatou(f, 1j)) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    zs = np.exp(2j * np.pi * np.arange(257) / 257)
    assert np.max(np.abs(eval_fatou(f, zs) - (1 + zs) / 2)) < 1e-13


def test_two_peak_values():
    # F(z) = (2+2z^2)/(1-z^2): F(0)=2, F(i)=0, F(e^{i pi/4})=2i
    g = two_peaks()
    assert eval_fatou(g, 0j) == pytest.approx(2 / 3, abs=1e-14)
    assert abs(eval_fatou(g, 1j)) <= 1e-14
    z = cmath.exp(1j * math.pi / 4)
    val = eval_fatou(g, z)
    assert val == pytest.approx((4 + 2j) / 5, abs=1e-13)
    assert abs(val) == pytest.approx(2 / math.sqrt(5), abs=1e-13)


def test_peak_values_exactly_one(rng):
    for _ in range(20):
        n = int(rng.integers(1, 15))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        vals = eval_fatou(f, np.exp(1j * E.thetas))
        assert np.all(vals == 1.0)


def test_eval_matches_reference_formula(rng):
    # |lambda| <= 1 on the closed disk, and 1 - 1/(1+F) carries an absolute
    # rounding of a few ulps of 1, so the two agree to a few ulps of 1
    for _ in range(30):
        m = int(rng.integers(1, 201))
        f = FatouFunction(FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, m)))
        zs = random_disk_points(rng, 400)
        assert np.max(np.abs(eval_fatou(f, zs) - reference_eval_fatou(f, zs))) <= 4 * EPS
        assert np.all(eval_fatou(f, f.peak_points) == 1.0)
    assert eval_fatou(single_peak(), -1.0 + 0j) == 0.0


def test_eval_against_mpmath(rng):
    # at the same double points, relative to F/(1+F) formed in mpmath. The
    # half-plane sum carries a rounding of a few ulps of sum_j |t_j|, its
    # terms' moduli, which lambda = F/(1+F) scales by 1/|F(1+F)|; on the
    # circle the terms cancel and that condition number grows
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 160
    for _ in range(20):
        m = int(rng.integers(1, 201))
        f = FatouFunction(FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, m)))
        zs = random_disk_points(rng, 20)
        vals = eval_fatou(f, zs)
        peaks = [mpmath.mpc(a.real, a.imag) for a in f.peak_points]
        for z, v in zip(zs, vals):
            zm = mpmath.mpc(z.real, z.imag)
            terms = [(a + zm) / (a - zm) for a in peaks]
            F = mpmath.fsum(terms)
            exact = F / (1 + F)
            cond = 1 + mpmath.fsum(abs(t) for t in terms) / abs(F * (1 + F))
            assert abs(v - exact) <= 2 * EPS * cond * abs(exact)


def test_eval_scalar_and_array_agree():
    f = two_peaks()
    z = 0.3 - 0.4j
    scalar = eval_fatou(f, z)
    arr = eval_fatou(f, np.array([z]))
    assert isinstance(scalar, complex)
    assert scalar == arr[0]


def test_eval_outside_disk_rejected():
    f = single_peak()
    with pytest.raises(DomainError):
        eval_fatou(f, 1.1 + 0j)
    with pytest.raises(DomainError):
        eval_fatou(f, np.array([0.5 + 0j, 2.0 + 0j]))


@settings(max_examples=200, deadline=None)
@example(thetas=[5e-324], radius=1.0, phase=0.0)  # overflow next to the peak
@given(
    st.lists(
        st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=40, unique=True
    ),
    st.one_of(st.floats(0.0, 1.0), st.integers(1, 15).map(lambda k: 1.0 - 10.0**-k)),
    st.floats(0.0, TWO_PI),
)
def test_schwarz_pick_bound(thetas, radius, phase):
    # F(0) = m, so lambda(0) = m/(m+1) = mu, and lambda maps the disk into
    # itself: |lambda(z)| <= (mu + |z|)/(1 + mu|z|). The computed log obeys
    # the bound up to the relative rounding the evaluation kernel allows for
    f = FatouFunction(FiniteBoundarySet.from_thetas(thetas))
    m = len(f.peaks)
    mu = m / (m + 1)
    assert eval_fatou(f, 0j) == pytest.approx(mu, rel=4 * EPS, abs=0.0)
    z = radius * cmath.exp(1j * phase)
    r = abs(z)
    bound = (mu + r) / (1.0 + mu * r)
    assert abs(eval_fatou(f, z)) <= bound * (1.0 + 4 * EPS)
    if r < 1.0:
        kappa = 4 * EPS * (m + 2.0 / (1.0 - r))
        assert log_fatou(f, np.array([z]))[0].real[0] <= math.log(bound) * (1.0 - kappa)


def test_strict_contraction(rng):
    grid = np.exp(2j * np.pi * np.arange(10**5) / 10**5)
    for _ in range(3):
        n = int(rng.integers(1, 12))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        peaks = np.exp(1j * E.thetas)
        mask = np.ones(len(grid), dtype=bool)
        for a in peaks:
            mask &= np.abs(grid - a) > 1e-9
        assert np.max(np.abs(eval_fatou(f, grid)[mask])) < 1.0
        zr = (
            (1 - 1e-9)
            * np.sqrt(rng.uniform(size=10**4))
            * np.exp(1j * rng.uniform(0, TWO_PI, 10**4))
        )
        assert np.max(np.abs(eval_fatou(f, zr))) < 1.0


def test_radial_limit_monotone(rng):
    for _ in range(5):
        n = int(rng.integers(1, 8))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        for a in np.exp(1j * E.thetas):
            gaps = [abs(eval_fatou(f, a * (1 - 10.0**-k)) - 1) for k in range(2, 9)]
            assert all(g1 >= g2 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-6


def test_right_half_plane_inside(rng):
    # recompute F = lambda/(1-lambda) and check Re F > 0 on the open disk
    for _ in range(4):
        n = int(rng.integers(1, 10))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        zr = (
            (1 - 1e-9)
            * np.sqrt(rng.uniform(size=10**4))
            * np.exp(1j * rng.uniform(0, TWO_PI, 10**4))
        )
        lam = eval_fatou(f, zr)
        F = lam / (1 - lam)
        assert np.all(F.real > 0.0)


def test_power_monotonicity(rng):
    f = two_peaks()
    zs = np.concatenate(
        [
            np.exp(2j * np.pi * np.arange(512) / 512),
            0.7 * np.exp(2j * np.pi * np.arange(256) / 256),
        ]
    )
    lam = np.abs(eval_fatou(f, zs))
    for n in (1, 3, 9):
        assert np.all(lam ** (n + 1) <= lam**n)


def test_rotation_equivariance(rng):
    thetas = np.sort(rng.uniform(0, TWO_PI, 5))
    phi = 0.777
    f = FatouFunction(FiniteBoundarySet.from_thetas(thetas))
    frot = FatouFunction(FiniteBoundarySet.from_thetas((thetas + phi) % TWO_PI))
    zs = 0.9 * np.exp(2j * np.pi * np.arange(200) / 200)
    diff = eval_fatou(frot, np.exp(1j * phi) * zs) - eval_fatou(f, zs)
    assert np.max(np.abs(diff)) < 1e-12


# ---------------------------------------------------------------- boundary traces


def test_boundary_imag_examples():
    g = two_peaks()
    # on the circle F = iy: cot(pi/8) + cot(-3*pi/8) = 2, matching
    # F(e^{i pi/4}) = lambda/(1-lambda) computed directly
    y = _cotangent_sum(g, np.array([math.pi / 4]))[0]
    assert y == pytest.approx(2.0, abs=1e-12)
    lam = eval_fatou(g, cmath.exp(1j * math.pi / 4))
    assert (lam / (1 - lam)).real == pytest.approx(0.0, abs=1e-12)
    assert (lam / (1 - lam)).imag == pytest.approx(y, abs=1e-12)

    # F(-1) = 0 for the single peak, so lambda vanishes there
    f = single_peak()
    assert log_fatou(f, np.array([-1.0 + 0.0j]))[0][0] == -math.inf


def circle_modulus(fatou, thetas):
    """|lambda(e^(i*theta))| = exp(Re log lambda) from the angle log, the one
    formula the library reads the modulus on the circle from."""
    L, keep = log_fatou_on_circle(fatou, thetas)
    assert keep.size == thetas.size
    return np.exp(L.real)


def test_boundary_modulus_examples():
    g = two_peaks()
    # y = 2 at pi/4, so |lambda| = 2/sqrt(5), matching |lambda| computed directly
    m = circle_modulus(g, np.array([math.pi / 4]))[0]
    assert m == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    assert m == pytest.approx(abs(eval_fatou(g, cmath.exp(1j * math.pi / 4))), abs=1e-12)
    # lambda = (1+z)/2 for the single peak at 0 vanishes at -1
    f = single_peak()
    assert circle_modulus(f, np.array([math.pi]))[0] == pytest.approx(0.0, abs=1e-15)


def test_boundary_modulus_even_around_peak():
    f = single_peak()
    ts = np.array([0.3, 1.0, 2.5])
    assert circle_modulus(f, ts) == pytest.approx(
        circle_modulus(f, TWO_PI - ts), rel=1e-12
    )


def test_boundary_modulus_matches_eval(rng):
    for _ in range(3):
        n = int(rng.integers(1, 10))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        thetas = rng.uniform(0, TWO_PI, 10**4)
        dist = np.min(
            np.abs(np.exp(1j * thetas)[:, None] - np.exp(1j * E.thetas)[None, :]),
            axis=1,
        )
        thetas = thetas[dist > 1e-6]
        direct = np.abs(eval_fatou(f, np.exp(1j * thetas)))
        assert np.max(np.abs(direct - circle_modulus(f, thetas))) < 1e-10


def test_cotangent_sum_does_not_depend_on_the_split(rng):
    # many angles take one pass per peak, few take one broadcast; both add
    # the terms in peak order, so every split gives the same bits
    for n in (1, 3, 40):
        f = FatouFunction(FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n)))
        thetas = rng.uniform(0, TWO_PI, 4 * FEW_ANGLES + 3)
        whole = _cotangent_sum(f, thetas)
        for size in (2, FEW_ANGLES):
            parts = [_cotangent_sum(f, thetas[i : i + size]) for i in range(0, thetas.size, size)]
            assert np.array_equal(np.concatenate(parts), whole)


def test_log_on_circle_floor_keeps_exactly_the_points_above_it(rng):
    f = FatouFunction(FiniteBoundarySet.from_thetas([0.5, 0.6, 3.0]))
    thetas = np.concatenate([rng.uniform(0, TWO_PI, 3000), f.peaks.thetas])
    L, keep = log_fatou_on_circle(f, thetas)
    assert np.array_equal(keep, np.arange(thetas.size))
    assert np.all(L[-3:] == 0.0)
    # against log_fatou at the same (rounded) points, away from the peaks
    away = slice(0, -3)
    assert np.max(np.abs(L[away] - log_fatou(f, np.exp(1j * thetas[away]))[0])) < 1e-9
    # every floor works, as in log_fatou: far below any real part, and at
    # 0.0 and -0.0, where only the peaks are kept
    for floor in (-1e-1, -1e-4, -1e-7, -400.0, -355.0, 0.0, -0.0):
        Lf, kf = log_fatou_on_circle(f, thetas, floor)
        above = (L.real >= floor).nonzero()[0]
        assert np.array_equal(kf, above) and np.array_equal(Lf, L[above])
        if floor in (-1e-1, -1e-4, -1e-7):
            assert 0 < kf.size < thetas.size
        elif floor == 0.0:  # 0.0 and -0.0
            assert np.array_equal(kf, np.arange(thetas.size - 3, thetas.size))


def check_log_contract(L, keep, size, floor):
    """(L, keep) of a log at ``floor`` over ``size`` inputs: ascending
    indices, one value each, every real part at least the floor, and every
    index at no floor."""
    assert keep.dtype.kind == "i" and L.shape == keep.shape
    assert np.all(np.diff(keep) > 0) and np.all((keep >= 0) & (keep < size))
    assert np.all(L.real >= floor)
    if floor == -math.inf:
        assert np.array_equal(keep, np.arange(size))


FLOORS = (-math.inf, -1e-1, -1e-4, -1e-7, -1e-10)


def test_log_on_circle_retests_the_computed_real_part():
    # cotangent sums just below the edge y0 of the floor: their real part
    # lies below the floor, and the one test on it drops them
    lam = FatouFunction(FiniteBoundarySet.from_thetas([0.0]))
    floor = -1e-3
    y0 = 1.0 / math.sqrt(math.expm1(-2.0 * floor))
    ys = y0 * np.array([1.0 - 1e-10, 1.0 - 5e-10, 2.0, -2.0, 1.0 + 1e-10])
    thetas = np.mod(2.0 * np.arctan(1.0 / ys), TWO_PI)  # cot(theta/2) = y
    ratio = _cotangent_sum(lam, thetas[:2]) / y0
    assert np.all((1.0 - 1e-9 < ratio) & (ratio < 1.0))
    L, keep = log_fatou_on_circle(lam, thetas, floor)
    assert keep.tolist() == [2, 3, 4]
    assert np.all(L.real >= floor)


def test_both_logs_share_one_contract(rng):
    skipped = compared = 0
    for n in (1, 2, 5, 30):
        f = FatouFunction(FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n)))
        thetas = np.concatenate([rng.uniform(0, TWO_PI, 2000), f.peaks.thetas])
        radii = np.sqrt(rng.uniform(size=2000))
        interior = radii * np.exp(1j * rng.uniform(0, TWO_PI, 2000))
        skipped += np.count_nonzero(radii < _skip_radius(n, FLOORS[2]))
        inputs = (
            (log_fatou, interior),
            (log_fatou, np.exp(1j * thetas)),
            (log_fatou_on_circle, thetas),
        )
        for log, x in inputs:
            L_all, _ = log(f, x)
            for floor in FLOORS:
                L, keep = log(f, x, floor)
                check_log_contract(L, keep, x.size, floor)
                # a floor drops exactly the inputs below it and changes no
                # kept value, whatever the log drops before forming it
                above = (L_all.real >= floor).nonzero()[0]
                assert np.array_equal(keep, above) and np.array_equal(L, L_all[above])
        # the two logs agree on the circle, away from the peaks (where the
        # rounding of the points counts) and from the floor edge
        diff = thetas[:, None] - f.peaks.thetas[None, :]
        gap = np.abs((diff + np.pi) % TWO_PI - np.pi)
        away = np.min(gap, axis=1) > 1e-6
        L_all, _ = log_fatou_on_circle(f, thetas)
        for floor in FLOORS:
            Lc, kc = log_fatou_on_circle(f, thetas, floor)
            Lp, kp = log_fatou(f, np.exp(1j * thetas), floor)
            clear = away & (np.abs(L_all.real - floor) > 1e-9)
            assert np.array_equal(kc[clear[kc]], kp[clear[kp]])
            both = np.intersect1d(kc, kp)
            both = both[away[both]]
            diff = Lc[np.searchsorted(kc, both)] - Lp[np.searchsorted(kp, both)]
            assert np.all(np.abs(diff) < 1e-9)
            compared += both.size
    # the skip radius drops some interior points before the per-peak loop
    assert skipped and compared > 10_000


# ---------------------------------------------------------------- off-arc sup


def test_sup_off_arc_closed_form():
    # single peak: |lambda(e^{i t})| = |cos(t/2)|, sup over |t| >= pi/2 is cos(pi/4)
    f = single_peak()
    arc = Arc(Angle(0.0), math.pi / 2)
    rho = sup_off_arc(f, arc, 1e-6)
    assert rho == pytest.approx(math.sqrt(2) / 2 * (1 + 1e-6), rel=1e-12)
    assert rho < 1.0


def test_sup_off_arc_monotone_in_arc():
    f = single_peak()
    rhos = [
        sup_off_arc(f, Arc(Angle(0.0), hw), 1e-9)
        for hw in (0.5, 1.0, math.pi / 2, 2.0)
    ]
    assert all(a >= b for a, b in zip(rhos, rhos[1:]))


def test_sup_off_arc_peak_outside_arc_rejected():
    g = two_peaks()
    with pytest.raises(ValueError, match=repr(math.pi)):
        sup_off_arc(g, Arc(Angle(0.0), 0.5), 1e-6)
    # a peak exactly on the edge is outside the open arc
    f = single_peak()
    with pytest.raises(ValueError, match="angle 0.0 lies outside"):
        sup_off_arc(f, Arc(Angle(0.5), 0.5), 1e-6)
    three = FatouFunction(FiniteBoundarySet.from_thetas([1.0, 1.5, 2.0]))
    with pytest.raises(ValueError, match="angle 1.0 lies outside"):
        sup_off_arc(three, Arc(Angle(1.5), 0.5), 1e-6)
    assert sup_off_arc(three, Arc(Angle(1.5), 0.6), 1e-6) < 1.0


def test_sup_off_arc_parameter_validation():
    f = single_peak()
    arc = Arc(Angle(0.0), 1.0)
    with pytest.raises(ValueError):
        sup_off_arc(f, arc, 0.0)


def peak_functions_on_arcs(data, epsilon):
    """(peak function, arc) of each cluster, as the build forms them."""
    clustering = cluster_by_oscillation(data, epsilon)
    return [
        (FatouFunction(data.set._circular_range(c.start, c.size)), c.arc)
        for c in clustering.clusters
    ]


def sup_off_arc_cases(rng):
    cases = []
    for n in (3, 8, 20):
        data = BoundaryData.from_pairs(
            np.sort(rng.uniform(0, TWO_PI, n)), rng.uniform(-1, 1, n)
        )
        cases += peak_functions_on_arcs(data, 0.5)
    # the pair 1e-3 apart, where 1 - rho is about 8e-9
    pair = BoundaryData.from_pairs(
        [1.0, 1.001, 3.2, 4.9], [1, -1, 0.6 + 0.3j, -0.2 + 0.7j]
    )
    cases += peak_functions_on_arcs(pair, 0.1)
    return cases


def test_sup_off_arc_matches_mpmath_at_the_arc_ends(rng):
    # rho/(1 + m) is within 4 ulp of the larger |y|/sqrt(1 + y^2) at the two
    # arc ends, with y formed in mpmath at the same double ends
    mpmath = pytest.importorskip("mpmath")
    margin = 1e-9
    cases = sup_off_arc_cases(rng)
    assert any(len(f.peaks) > 1 for f, _ in cases)
    closest = 1.0
    with mpmath.workdps(40):
        for f, arc in cases:
            rho = sup_off_arc(f, arc, margin) / (1.0 + margin)
            center, hw = arc.center.theta, arc.half_width
            true = mpmath.mpf(0)
            for end in (center + hw, center + TWO_PI - hw):
                y = mpmath.fsum(
                    mpmath.cot((mpmath.mpf(end) - mpmath.mpf(t)) / 2)
                    for t in f.peaks.thetas.tolist()
                )
                true = max(true, abs(y) / mpmath.sqrt(1 + y * y))
            assert abs(rho - true) <= 4 * math.ulp(float(true))
            closest = min(closest, 1.0 - rho)
    assert closest < 1e-8


def test_sup_off_arc_bounds_the_complement_arc(rng):
    # no angle sampled densely on the complement arc reads a modulus above
    # the supremum, which the arc ends attain
    margin = 1e-12
    for f, arc in sup_off_arc_cases(rng):
        rho = sup_off_arc(f, arc, margin)
        center, hw = arc.center.theta, arc.half_width
        thetas = np.linspace(center + hw, center + TWO_PI - hw, 20_001)
        moduli = circle_modulus(f, thetas)
        assert np.max(moduli) <= rho
        assert np.max(moduli[[0, -1]]) == pytest.approx(rho, rel=1e-11)


def test_sup_off_arc_no_contraction():
    # arc ending a hair away from the peak leaves sup at ~1
    f = single_peak()
    arc = Arc(Angle(0.0), 1e-7)
    with pytest.raises(NoContractionError):
        sup_off_arc(f, arc, 1e-3)


# ---------------------------------------------------------------- power choice


def brute_force_power(rho: float, target: float) -> int:
    """Smallest n >= 1 with rho**n < target, the definition choose_power
    documents (a running product rho*rho*... can round the other way)."""
    n = 1
    while not rho**n < target:
        n += 1
    return n


def test_choose_power_examples():
    n = choose_power(math.sqrt(2) / 2, 0.01)
    assert n == 14
    assert n == brute_force_power(math.sqrt(2) / 2, 0.01)
    assert (math.sqrt(2) / 2) ** 13 >= 0.01
    assert (math.sqrt(2) / 2) ** 14 < 0.01

    assert choose_power(0.5, 0.6) == 1
    assert choose_power(0.5, 2.4) == 1


@settings(max_examples=150)
@example(0.3333333333333333, 0.3333333333333333, 9)  # a tie for the running product
@given(
    st.floats(1e-6, 0.95),  # keep the brute-force oracle in reach
    st.floats(1e-6, 10.0),
    st.integers(1, 20),
)
def test_choose_power_minimal(rho, epsilon, n_clusters):
    target = epsilon / n_clusters
    n = choose_power(rho, target)
    assert rho**n < target
    if n > 1:
        assert rho ** (n - 1) >= target
    if target < 1:
        assert n == brute_force_power(rho, target)


def test_choose_power_corrects_the_log_estimate_downward():
    # the least power here is one below ceil(log t / log rho), the estimate
    # a log ratio gives
    rho, target = 0.9999999999979714, 2.275245882052251e-12
    n = choose_power(rho, target)
    assert n == 13215488246594 == math.ceil(math.log(target) / math.log(rho)) - 1
    assert rho**n < target <= rho ** (n - 1)


class CountingFloat(float):
    """A float that counts how often it is raised to a power."""

    calls = 0

    def __pow__(self, n):
        CountingFloat.calls += 1
        return float(self) ** n


def test_choose_power_is_a_bounded_search():
    # subnormal targets, where rho^N takes few values near the target: the
    # search evaluates rho**n at most 2*bit_length(N) times
    cases = [
        (1 - 1e-7, 4e-322, 7400517782, 66),
        (1 - 2**-53, 5e-324, 6711563375777760768, 126),  # the largest rho
    ]
    for rho, target, expected, evaluations in cases:
        CountingFloat.calls = 0
        n = choose_power(CountingFloat(rho), target)
        assert n == expected
        assert CountingFloat.calls <= evaluations == 2 * n.bit_length()
        assert rho**n < target <= rho ** (n - 1)


def test_off_arc_sup_validation():
    with pytest.raises(ValueError):
        choose_power(1.0, 0.01)
    with pytest.raises(ValueError):
        choose_power(0.5, -1.0)
