import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diskinterp import (
    Angle,
    Arc,
    BoundaryData,
    Cluster,
    Clustering,
    FatouFunction,
    FiniteBoundarySet,
    angular_distance,
    cluster_by_oscillation,
    normalize_angle,
)
from diskinterp.circle import _normalized

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- angles


def test_normalize_identity():
    assert normalize_angle(0.0).theta == 0.0


def test_normalize_periodicity():
    assert normalize_angle(TWO_PI).theta == 0.0


def test_normalize_negative():
    # -pi/2 + 2*pi = 3*pi/2, plain modular arithmetic
    assert normalize_angle(-math.pi / 2).theta == pytest.approx(
        3 * math.pi / 2, abs=1e-15
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_normalize_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        normalize_angle(bad)


@pytest.mark.parametrize(
    "theta, message",
    [
        (math.inf, "finite"),
        (math.nan, "finite"),
        (-1e-300, "outside"),
        (TWO_PI, "outside"),
        (7.0, "outside"),
    ],
)
def test_angle_rejects_non_finite_or_out_of_range(theta, message):
    with pytest.raises(ValueError, match=message):
        Angle(theta)


@given(st.floats(-1e9, 1e9))
def test_normalize_lands_in_range(theta):
    a = normalize_angle(theta)
    assert 0.0 <= a.theta < TWO_PI


@given(st.floats(0, TWO_PI, exclude_max=True), st.integers(-5, 5))
def test_normalize_period_invariance(theta, k):
    base = normalize_angle(theta)
    shifted = normalize_angle(theta + k * TWO_PI)
    assert angular_distance(base, shifted) < 1e-9 * max(1, abs(k))


def test_angular_distance_examples():
    assert angular_distance(Angle(0.0), Angle(0.0)) == 0.0
    assert angular_distance(Angle(0.0), Angle(math.pi)) == math.pi
    # wraparound: min(|a-b|, 2*pi-|a-b|) by hand
    assert angular_distance(Angle(0.1), Angle(TWO_PI - 0.1)) == pytest.approx(
        0.2, abs=1e-15
    )


@given(
    st.floats(0, TWO_PI, exclude_max=True),
    st.floats(0, TWO_PI, exclude_max=True),
)
def test_angular_distance_symmetric_and_bounded(t1, t2):
    a, b = Angle(t1), Angle(t2)
    d = angular_distance(a, b)
    assert d == angular_distance(b, a)
    assert 0.0 <= d <= math.pi


# ---------------------------------------------------------------- sets, arcs


def test_arc_rejects_full_circle():
    with pytest.raises(ValueError):
        Arc(Angle(0.0), math.pi)
    with pytest.raises(ValueError):
        Arc(Angle(0.0), 0.0)


def test_arc_membership():
    arc = Arc(Angle(0.0), 0.5)
    assert arc.contains(Angle(0.3))
    assert arc.contains(normalize_angle(-0.3))
    assert not arc.contains(Angle(0.5))
    assert not arc.contains(Angle(math.pi))


@pytest.mark.parametrize(
    "thetas, message",
    [
        ([], "non-empty 1-d"),
        ([[0.5, 1.0]], "non-empty 1-d"),
        ([1.0, 0.5], "unsorted"),
        ([0.5, 0.5], "duplicate"),
        ([0.5, math.nan], "finite"),
        ([math.nan, 0.5], "finite"),
        ([0.5, math.inf, 1.0], "finite"),
        ([-1e-300, 0.5], "unreduced"),
        ([0.5, TWO_PI], "unreduced"),
        ([0.5, 7.0], "unreduced"),
    ],
)
def test_set_rejects_invalid_angle_arrays(thetas, message):
    with pytest.raises(ValueError, match=message):
        FiniteBoundarySet(np.array(thetas))


def test_set_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        FiniteBoundarySet(())
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteBoundarySet.from_thetas([0.0, TWO_PI])  # same point after reduction
    with pytest.raises(ValueError, match="non-finite"):
        FiniteBoundarySet.from_thetas([0.0, math.nan])


def test_set_sorted_from_unsorted_input():
    s = FiniteBoundarySet.from_thetas([4.0, 1.0, 2.0])
    assert s.thetas.tolist() == [1.0, 2.0, 4.0]
    # the Angle view is made on request, one per point
    assert s.points == (Angle(1.0), Angle(2.0), Angle(4.0))


def test_batch_normalization_is_normalize_angle_bit_for_bit(rng):
    period = np.nextafter(TWO_PI, 0.0)
    thetas = np.concatenate(
        [
            rng.uniform(-1e9, 1e9, 2000),
            rng.uniform(-20.0, 20.0, 2000),
            [0.0, -0.0, -1e-300, -5e-324, TWO_PI, -TWO_PI, 3 * TWO_PI],
            [period, -period, TWO_PI - 1e-15, -TWO_PI + 1e-16],
        ]
    )
    batch = _normalized(thetas)
    one_by_one = np.array([normalize_angle(t).theta for t in thetas.tolist()])
    assert np.array_equal(batch.view(np.int64), one_by_one.view(np.int64))


def test_arrays_are_read_only():
    data = BoundaryData.from_pairs([0.5, 2.0, 4.0], [1.0, 1j, -1.0])
    lam = FatouFunction(data.set)
    for array in (data.set.thetas, data.values, lam.peaks.thetas, lam.peak_points):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.25
    # the set and the data copy what they are given
    thetas, values = np.array([0.5, 2.0]), np.array([1.0, 2.0j])
    copied = BoundaryData(FiniteBoundarySet(thetas), values)
    thetas[0], values[0] = 0.25, 5.0
    assert copied.set.thetas[0] == 0.5 and copied.values[0] == 1.0


def test_equal_sets_from_separate_arrays_are_one_key():
    a = FiniteBoundarySet(np.array([0.0, 1.0, 2.5]))
    b = FiniteBoundarySet.from_thetas([2.5, 1.0, TWO_PI])
    assert a.thetas is not b.thetas
    assert a == b and hash(a) == hash(b)
    assert a != FiniteBoundarySet(np.array([0.0, 1.0])) and a != (0.0, 1.0, 2.5)
    # -0.0 is the point 0.0
    c = FiniteBoundarySet(np.array([-0.0, 1.0, 2.5]))
    assert c == a and hash(c) == hash(a)
    # peak functions on equal sets merge in a dict, as the evaluation
    # kernel groups its terms
    terms = {FatouFunction(a): 1}
    terms[FatouFunction(b)] = 2
    assert terms == {FatouFunction(c): 2}


def test_circular_range_is_a_sorted_subset():
    s = FiniteBoundarySet.from_thetas([0.5, 1.5, 3.0, 4.5, 6.0])
    inside = s._circular_range(1, 3)
    assert inside.thetas.tolist() == [1.5, 3.0, 4.5]
    assert inside.thetas.base is s.thetas  # a slice, not a copy
    across = s._circular_range(3, 4)  # 4.5, 6.0, then 0.5, 1.5 past the seam
    assert across.thetas.tolist() == [0.5, 1.5, 4.5, 6.0]
    assert across == FiniteBoundarySet.from_thetas([4.5, 6.0, 0.5, 1.5])
    assert not across.thetas.flags.writeable
    assert s._circular_range(2, 5) == s


def test_boundary_data_sup_norm():
    data = BoundaryData.from_pairs([0.0, 1.0], [3 + 4j, 1.0])
    assert data.sup_norm == 5.0
    zero = BoundaryData.from_pairs([0.0, 1.0], [0.0, 0.0])
    assert zero.sup_norm == 0.0


def test_boundary_data_sup_norm_is_pythons_abs_bit_for_bit(rng):
    values = (rng.normal(size=5000) + 1j * rng.normal(size=5000)) * 10.0 ** rng.uniform(
        -200, 200, 5000
    )
    data = BoundaryData.from_pairs(np.linspace(0.0, 6.0, 5000), values)
    assert data.sup_norm == max(abs(v) for v in values.tolist())


def test_boundary_data_length_mismatch():
    s = FiniteBoundarySet.from_thetas([0.0, 1.0])
    for values in ((1.0,), np.ones(3), np.ones((2, 1)), 1.0):
        with pytest.raises(ValueError, match="values for 2 boundary points"):
            BoundaryData(s, values)


def test_from_pairs_rejects_length_mismatch():
    # zip would drop the third angle and build a two-point set
    with pytest.raises(ValueError):
        BoundaryData.from_pairs([0.0, 1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        BoundaryData.from_pairs([0.0], [1.0, 2.0])


def test_boundary_data_rejects_non_finite_values():
    s = FiniteBoundarySet(np.array([0.0, 1.0]))
    for bad in (complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 0)):
        with pytest.raises(ValueError, match="finite"):
            BoundaryData.from_pairs([0.0, 1.0], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            BoundaryData(s, np.array([bad, 1.0]))


def test_from_pairs_sorts_angles_and_values_together():
    data = BoundaryData.from_pairs(np.array([4.0, -1.0, 2.0]), [1.0, 2.0j, 3.0])
    assert data.set.thetas.tolist() == [2.0, 4.0, TWO_PI - 1.0]
    assert data.values.tolist() == [3.0, 1.0, 2.0j]
    with pytest.raises(ValueError, match="non-finite"):
        BoundaryData.from_pairs([0.0, math.inf], [1.0, 2.0])


# ---------------------------------------------------------------- clustering


def test_cluster_singleton_any_epsilon():
    data = BoundaryData.from_pairs([1.0], [7.0])
    c = cluster_by_oscillation(data, 0.5)
    assert len(c) == 1
    assert c.clusters[0].members == (0,)
    assert c.clusters[0].representative == 0
    # lone point gets the quarter-of-full-gap arc
    assert c.clusters[0].arc.half_width == pytest.approx(math.pi / 2)


def test_cluster_two_points_split():
    # oscillation 1 >= eps forces a split; brute force over both partitions
    data = BoundaryData.from_pairs([0.0, math.pi], [0.0, 1.0])
    eps = 0.5
    merged_ok = abs(data.values[0] - data.values[1]) < eps
    assert not merged_ok  # only the split partition satisfies the invariant
    c = cluster_by_oscillation(data, eps)
    assert len(c) == 2
    assert sorted(tuple(sorted(cl.members)) for cl in c.clusters) == [(0,), (1,)]


def test_cluster_two_points_merge():
    data = BoundaryData.from_pairs([0.0, 0.01], [0.1, 0.1 + 0.001j])
    assert abs(data.values[0] - data.values[1]) == pytest.approx(0.001)
    c = cluster_by_oscillation(data, 0.5)
    assert len(c) == 1
    assert tuple(sorted(c.clusters[0].members)) == (0, 1)


def test_cluster_rejects_bad_epsilon():
    data = BoundaryData.from_pairs([0.0], [1.0])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            cluster_by_oscillation(data, bad)


def test_wraparound_merge():
    # values make the two blocks flanking angle 0 mergeable but nothing else
    data = BoundaryData.from_pairs([0.1, 3.0, 6.0], [0.5, 1.2, 0.5])
    c = cluster_by_oscillation(data, 0.6)
    member_sets = sorted(tuple(sorted(cl.members)) for cl in c.clusters)
    assert member_sets == [(0, 2), (1,)]
    # the sweep starts at 3.0 and ends at 1.0, both valued 0: its last and
    # first blocks merge
    data = BoundaryData.from_pairs([0.5, 1.0, 3.0, 5.0], [1.0, 0.0, 0.0, 1.0])
    c = cluster_by_oscillation(data, 0.6)
    assert [cl.members for cl in c.clusters] == [(1, 2), (3, 0)]


def _partition_props(clustering, data):
    n = len(data.set)
    seen = sorted(i for cl in clustering.clusters for i in cl.members)
    assert seen == list(range(n))
    pts = [Angle(t) for t in data.set.thetas.tolist()]
    for j, cj in enumerate(clustering.clusters):
        for i in cj.members:
            assert cj.arc.contains(pts[i])
        osc = max(
            (
                abs(data.values[a] - data.values[b])
                for a in cj.members
                for b in cj.members
            ),
            default=0.0,
        )
        assert osc < clustering.oscillation_bound
        for k, ck in enumerate(clustering.clusters):
            if j == k:
                continue
            for i in cj.members:
                # strictly positive clearance from every foreign arc
                assert angular_distance(pts[i], ck.arc.center) > ck.arc.half_width


def test_clustering_invariants_random(rng):
    for _ in range(40):
        n = int(rng.integers(1, 12))
        thetas = np.sort(rng.uniform(0, TWO_PI, n))
        if n > 1 and min(np.diff(thetas)) < 1e-6:
            continue
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        data = BoundaryData.from_pairs(thetas, vals)
        eps = float(rng.uniform(0.05, 3.0))
        c = cluster_by_oscillation(data, eps)
        _partition_props(c, data)


def test_clustering_deterministic(rng):
    thetas = np.sort(rng.uniform(0, TWO_PI, 9))
    vals = rng.normal(size=9)
    data = BoundaryData.from_pairs(thetas, vals)
    assert cluster_by_oscillation(data, 0.8) == cluster_by_oscillation(data, 0.8)


def _reference_sweep(data, eps):
    """The greedy sweep with plain pairwise loops: blocks of indices."""
    n = len(data.set)
    thetas = data.set.thetas.tolist()
    gaps = [thetas[(i + 1) % n] - thetas[i] for i in range(n - 1)]
    gaps.append(thetas[0] + TWO_PI - thetas[-1])
    start = (gaps.index(max(gaps)) + 1) % n
    v = data.values.tolist()  # Python complex, with Python's abs
    blocks = [[start]]
    for idx in [(start + j) % n for j in range(1, n)]:
        if all(abs(v[idx] - v[j]) < eps for j in blocks[-1]):
            blocks[-1].append(idx)
        else:
            blocks.append([idx])
    if len(blocks) >= 2 and all(
        abs(v[a] - v[b]) < eps for a in blocks[-1] for b in blocks[0]
    ):
        blocks = [blocks[-1] + blocks[0]] + blocks[1:-1]
    return [tuple(b) for b in blocks]


def test_clustering_matches_reference_sweep(rng):
    # values on a 0.25 lattice put differences exactly at eps, where the
    # strict bound decides
    for trial in range(60):
        n = int(rng.integers(1, 25))
        thetas = rng.uniform(0, TWO_PI, n)
        if trial % 2:
            vals = (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)) * 0.25
            eps = float(rng.choice([0.25, 0.5, 1.0, 0.25 * math.sqrt(2)]))
        else:
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            eps = float(rng.uniform(0.05, 3.0))
        data = BoundaryData.from_pairs(thetas, vals)
        c = cluster_by_oscillation(data, eps)
        assert [cl.members for cl in c.clusters] == _reference_sweep(data, eps)


@st.composite
def rotation_cases(draw):
    n = draw(st.integers(1, 8))
    thetas = sorted(
        draw(
            st.lists(
                st.floats(0, TWO_PI, exclude_max=True),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    vals = [
        complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2))) for _ in range(n)
    ]
    eps = draw(st.floats(0.1, 3.0))
    phi = draw(st.floats(0, TWO_PI, exclude_max=True))
    return thetas, vals, eps, phi


@settings(max_examples=60, deadline=None)
@given(rotation_cases())
# the point just below 2*pi comes back from the rotation at 0.0
@example(([0.5, 1.0, 6.283185307179585], [0j, 0j, 0j], 0.5, 2.0))
def test_clustering_rotation_equivariance(case):
    thetas, vals, eps, phi = case
    n = len(thetas)
    gaps = [b - a for a, b in zip(thetas, thetas[1:])]
    gaps.append(thetas[0] + TWO_PI - thetas[-1])
    assume(min(gaps) > 1e-3)
    srt = sorted(gaps)
    assume(len(srt) < 2 or srt[-1] - srt[-2] > 1e-9)  # unique largest gap

    base = BoundaryData.from_pairs(thetas, vals)
    rotated = BoundaryData.from_pairs([(t + phi) % TWO_PI for t in thetas], vals)
    assume(len(rotated.set) == n)  # rotation must not collide points

    def base_point(theta):
        """Index of the base point at ``theta`` on the circle (0 == 2*pi)."""
        angle = normalize_angle(theta)
        dists = [angular_distance(angle, Angle(t)) for t in base.set.thetas.tolist()]
        i = int(np.argmin(dists))
        assert dists[i] < 1e-8
        return i

    def partition(clustering, dat, shift):
        return sorted(
            sorted(base_point(dat.set.thetas[i] - shift) for i in cl.members)
            for cl in clustering.clusters
        )

    c_base = cluster_by_oscillation(base, eps)
    c_rot = cluster_by_oscillation(rotated, eps)
    _partition_props(c_base, base)
    _partition_props(c_rot, rotated)
    assert partition(c_base, base, 0.0) == partition(c_rot, rotated, phi)


def test_representative_examples():
    data = BoundaryData.from_pairs([0.0, 0.01], [0.1, 0.2])
    c = cluster_by_oscillation(data, 0.5)
    rep = c.clusters[0].representative
    assert data.set.thetas[rep] == 0.0
    assert data.values[rep] == 0.1 + 0j
    # a cluster across the seam starts at its circularly first member
    wrapped = cluster_by_oscillation(
        BoundaryData.from_pairs([0.1, 3.0, 6.0], [0.5, 1.2, 0.5]), 0.6
    )
    assert [(cl.members, cl.representative) for cl in wrapped.clusters] == [
        ((2, 0), 2),
        ((1,), 1),
    ]


def test_representative_rotates_with_input(rng):
    thetas = [0.3, 0.5, 2.0, 4.0]
    vals = [1.0, 1.1, 5.0, 9.0]
    phi = 1.234
    base = cluster_by_oscillation(BoundaryData.from_pairs(thetas, vals), 0.4)
    rot = cluster_by_oscillation(
        BoundaryData.from_pairs([(t + phi) % TWO_PI for t in thetas], vals), 0.4
    )
    base_reps = sorted(
        (base.data.set.thetas[cl.representative] + phi) % TWO_PI
        for cl in base.clusters
    )
    rot_reps = sorted(
        rot.data.set.thetas[cl.representative] for cl in rot.clusters
    )
    assert base_reps == pytest.approx(rot_reps, abs=1e-12)


def test_representative_out_of_range():
    c = cluster_by_oscillation(BoundaryData.from_pairs([0.0], [1.0]), 1.0)
    (only,) = c.clusters
    for start in (1, -1):
        bad = (Cluster(start=start, size=1, n=1, arc=only.arc),)
        with pytest.raises(ValueError, match="partition"):
            Clustering(c.data, bad, c.oscillation_bound)


# ------------------------------------------------------- hand-built clusterings


def _four_singletons():
    # gaps 1.0, 1.5, 1.5 and 2.28 (across the seam): the sweep starts at
    # index 0, and the arc of 0.5 has half-width 0.25
    data = BoundaryData.from_pairs([0.5, 1.5, 3.0, 4.5], [0.0, 1.0, 2.0, 3.0])
    c = cluster_by_oscillation(data, 0.5)
    assert [cl.members for cl in c.clusters] == [(0,), (1,), (2,), (3,)]
    assert c.clusters[0].arc == Arc(Angle(0.5), 0.25)
    return c


def _with_clusters(c, clusters):
    return Clustering(c.data, tuple(clusters), c.oscillation_bound)


def test_clustering_rejects_bad_bound_or_no_clusters():
    c = _four_singletons()
    for bound in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="oscillation_bound"):
            Clustering(c.data, c.clusters, bound)
    with pytest.raises(ValueError, match="at least one cluster"):
        _with_clusters(c, ())


def test_clustering_rejects_gap_or_overlap_in_ranges():
    c = _four_singletons()
    cl = list(c.clusters)
    with pytest.raises(ValueError, match="partition"):  # index 1 uncovered
        _with_clusters(c, [cl[0]] + cl[2:])
    with pytest.raises(ValueError, match="partition"):  # index 1 twice
        _with_clusters(c, [dataclasses.replace(cl[0], size=2)] + cl[1:])
    with pytest.raises(ValueError, match="partition"):  # ranges out of order
        _with_clusters(c, [cl[1], cl[0]] + cl[2:])
    with pytest.raises(ValueError, match="partition"):  # range of another set
        _with_clusters(c, [dataclasses.replace(cl[0], n=5)] + cl[1:])


def test_clustering_rejects_member_outside_arc():
    c = _four_singletons()
    moved = dataclasses.replace(c.clusters[0], arc=Arc(Angle(0.9), 0.3))
    with pytest.raises(ValueError, match="outside its arc"):
        _with_clusters(c, (moved,) + c.clusters[1:])
    # one cluster: the arc holds the first and the last member (0 and 4,
    # 1.14 from its center) but not the middle one (2)
    data = BoundaryData.from_pairs([0.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    (whole,) = cluster_by_oscillation(data, 0.5).clusters
    assert whole.members == (0, 1, 2)
    far_side = dataclasses.replace(whole, arc=Arc(Angle(5.14), 1.2))
    with pytest.raises(ValueError, match="outside its arc"):
        Clustering(data, (far_side,), 0.5)


def test_clustering_rejects_foreign_point_in_arc():
    c = _four_singletons()
    wide = dataclasses.replace(c.clusters[0], arc=Arc(Angle(0.5), 1.2))  # holds 1.5
    with pytest.raises(ValueError, match="foreign point"):
        _with_clusters(c, (wide,) + c.clusters[1:])


def test_clustering_rejects_overlapping_adjacent_arcs():
    c = _four_singletons()
    # reaches 1.35: past the arc of 1.5 (from 1.25), short of the point 1.5
    wide = dataclasses.replace(c.clusters[0], arc=Arc(Angle(0.5), 0.85))
    with pytest.raises(ValueError, match="overlap"):
        _with_clusters(c, (wide,) + c.clusters[1:])
    # across the seam: the arc of 4.5 moved to reach 0.317, past the arc of
    # 0.5 (from 0.25), short of the point 0.5
    wide = dataclasses.replace(c.clusters[3], arc=Arc(Angle(5.5), 1.1))
    with pytest.raises(ValueError, match="overlap"):
        _with_clusters(c, c.clusters[:3] + (wide,))
