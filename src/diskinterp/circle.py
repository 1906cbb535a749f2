"""Geometry on the unit circle.

Angles, open arcs, finite boundary sets with attached complex data, and the
oscillation clustering that partitions a data set into contiguous groups
living on pairwise disjoint arcs with value variation below a given bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, order=True)
class Angle:
    """An angle in radians, canonical range [0, 2*pi)."""

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta!r}")
        if not 0.0 <= self.theta < TWO_PI:
            raise ValueError(
                f"angle {self.theta!r} outside [0, 2*pi); use normalize_angle"
            )


def normalize_angle(theta: float) -> Angle:
    """Reduce a finite angle modulo 2*pi into [0, 2*pi)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"cannot normalize non-finite angle {theta!r}")
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # the correction above can round up to the period itself
        t = 0.0
    return Angle(t)


def angular_distance(a: Angle, b: Angle) -> float:
    """Geodesic distance between two angles, in [0, pi]."""
    d = abs(a.theta - b.theta)
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class Arc:
    """Open arc of angular radius ``half_width`` around ``center``.

    Never the whole circle: 0 < half_width < pi.
    """

    center: Angle
    half_width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and 0.0 < self.half_width < math.pi):
            raise ValueError(
                f"arc half_width must lie in (0, pi), got {self.half_width!r}"
            )

    def contains(self, angle: Angle) -> bool:
        return angular_distance(angle, self.center) < self.half_width


@dataclass(frozen=True)
class FiniteBoundarySet:
    """Finite set of distinct boundary points, sorted ascending by angle."""

    points: tuple[Angle, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("boundary set must be non-empty")
        thetas = [p.theta for p in self.points]
        for prev, cur in zip(thetas, thetas[1:]):
            if not prev < cur:
                raise ValueError(
                    "boundary set angles must be strictly increasing "
                    "(duplicate or unsorted points)"
                )

    @classmethod
    def from_thetas(cls, thetas: Iterable[float]) -> "FiniteBoundarySet":
        return cls(tuple(sorted(normalize_angle(t) for t in thetas)))

    def __len__(self) -> int:
        return len(self.points)

    def thetas(self) -> np.ndarray:
        return np.array([p.theta for p in self.points], dtype=float)

    def complex_points(self) -> np.ndarray:
        return np.exp(1j * self.thetas())


@dataclass(frozen=True)
class BoundaryData:
    """Complex samples attached to a finite boundary set.

    ``sup_norm`` caches the maximum modulus of the values; it is zero
    exactly when every value is zero.
    """

    set: FiniteBoundarySet
    values: tuple[complex, ...]
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        vals = tuple(complex(v) for v in self.values)
        if len(vals) != len(self.set):
            raise ValueError(
                f"{len(vals)} values for {len(self.set)} boundary points"
            )
        if any(
            not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in vals
        ):
            raise ValueError("data values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sup_norm", max(abs(v) for v in vals))

    @classmethod
    def from_pairs(
        cls, thetas: Iterable[float], values: Iterable[complex]
    ) -> "BoundaryData":
        """Build from parallel angle/value sequences, sorting both together."""
        pairs = sorted(
            zip((normalize_angle(t) for t in thetas), values, strict=True),
            key=lambda p: p[0].theta,
        )
        pts = FiniteBoundarySet(tuple(p[0] for p in pairs))
        return cls(pts, tuple(complex(p[1]) for p in pairs))

    def value_array(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)


@dataclass(frozen=True)
class Cluster:
    """A contiguous circular range of set indices and its arc.

    The range runs ``size`` indices in sweep order from ``start``, wrapping
    from n - 1 to 0 (n the size of the set, so the block may cross the
    0/2*pi seam); ``members`` lists them in that order and the
    ``representative`` is the first of them.
    """

    start: int
    size: int
    n: int
    arc: Arc

    @property
    def members(self) -> tuple[int, ...]:
        return tuple((self.start + j) % self.n for j in range(self.size))

    @property
    def representative(self) -> int:
        return self.start


@dataclass(frozen=True)
class Clustering:
    """Partition of a data set into clusters on pairwise disjoint arcs.

    Construction checks the structure in O(k) from the contiguity of the
    ranges: they tile the indices in circular order, each arc holds its
    range (first and last member inside, in counterclockwise order) and
    neither neighboring foreign point, and adjacent arcs are disjoint;
    together these keep every foreign point out of every arc. The
    oscillation bound is recorded, not re-checked: ``cluster_by_oscillation``
    decides it when it forms the ranges.
    """

    data: BoundaryData
    clusters: tuple[Cluster, ...]
    oscillation_bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.oscillation_bound) and self.oscillation_bound > 0):
            raise ValueError("oscillation_bound must be positive and finite")
        if not self.clusters:
            raise ValueError("clustering must contain at least one cluster")
        n = len(self.data.set)
        pts = self.data.set.points
        cs = self.clusters
        k = len(cs)
        if sum(c.size for c in cs) != n or any(
            c.n != n or c.size < 1 or cs[(j + 1) % k].start != (c.start + c.size) % n
            for j, c in enumerate(cs)
        ):
            raise ValueError("cluster ranges must partition the set indices in order")
        for j, c in enumerate(cs):
            arc = c.arc
            first, last = pts[c.start], pts[(c.start + c.size - 1) % n]
            lo = arc.center.theta - arc.half_width  # the arc's clockwise edge
            if not (
                arc.contains(first)
                and arc.contains(last)
                and (first.theta - lo) % TWO_PI <= (last.theta - lo) % TWO_PI
            ):
                raise ValueError(f"cluster {j}: a member lies outside its arc")
            if k > 1 and (
                arc.contains(pts[(c.start - 1) % n])
                or arc.contains(pts[(c.start + c.size) % n])
            ):
                raise ValueError(f"cluster {j}: a foreign point lies in its arc")
        for j in range(k if k > 2 else k - 1):
            a, b = cs[j].arc, cs[(j + 1) % k].arc
            if angular_distance(a.center, b.center) < a.half_width + b.half_width:
                raise ValueError(f"arcs of clusters {j} and {(j + 1) % k} overlap")

    def __len__(self) -> int:
        return len(self.clusters)


def _build_arcs(ranges: list[tuple[int, int]], thetas: list[float]) -> list[Arc]:
    """One arc per (start, size) range: centered on the block, extended into
    the neighboring gaps by a quarter of the nearest foreign gap (capped so
    the half-width stays below pi)."""
    n, k = len(thetas), len(ranges)
    arcs = []
    for head, size in ranges:
        start = thetas[head]
        end = thetas[(head + size - 1) % n]
        span = (end - start) % TWO_PI  # 0 for singletons; wraps with the block
        if k == 1:
            gap = TWO_PI - span
            g_before = g_after = gap
        else:
            prev_end = thetas[(head - 1) % n]
            next_start = thetas[(head + size) % n]
            g_before = (start - prev_end) % TWO_PI
            g_after = (next_start - end) % TWO_PI
        ext = min(min(g_before, g_after) / 4.0, (math.pi - span / 2.0) / 2.0)
        arcs.append(Arc(normalize_angle(start + span / 2.0), span / 2.0 + ext))
    return arcs


def cluster_by_oscillation(data: BoundaryData, epsilon: float) -> Clustering:
    """Cover the data set by clusters of pairwise value oscillation below epsilon.

    Greedy circular sweep: starting after the largest angular gap (a
    rotation-invariant anchor), each point joins the current cluster iff its
    value differs from every member's by strictly less than epsilon (the
    newest member first, then one numpy comparison against the rest), then
    a final wraparound check, one value of the last cluster at a time
    against the first, merges the two when their union still satisfies the
    bound. A one-point set is always a single cluster. Clusters come back
    as contiguous circular index ranges.

    The returned arcs have positive clearance: every foreign point of the
    set sits strictly outside each arc, with margin at least a quarter of
    the bounding gap.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    n = len(data.set)
    thetas = [p.theta for p in data.set.points]
    if n == 1:
        ranges = [(0, 1)]
    else:
        gaps = [b - a for a, b in zip(thetas, thetas[1:])]
        gaps.append(thetas[0] + TWO_PI - thetas[-1])
        start = (max(range(n), key=gaps.__getitem__) + 1) % n
        values = data.values[start:] + data.values[:start]  # in sweep order
        swept = np.array(values, dtype=complex)
        heads = [0]  # sweep positions where blocks begin
        for i in range(1, n):
            h, v = heads[-1], values[i]
            # the newest member first: most rejections need no array work
            if not (
                abs(v - values[i - 1]) < epsilon
                and (h == i - 1 or abs(swept[h : i - 1] - v).max() < epsilon)
            ):
                heads.append(i)
        heads.append(n)
        ranges = [
            ((start + h) % n, nxt - h) for h, nxt in zip(heads, heads[1:])
        ]
        if len(ranges) >= 2:
            head_block = swept[: heads[1]]
            if all(abs(head_block - v).max() < epsilon for v in values[heads[-2] :]):
                last = ranges.pop()
                ranges[0] = (last[0], last[1] + ranges[0][1])
    arcs = _build_arcs(ranges, thetas)
    clusters = tuple(
        Cluster(head, size, n, arc) for (head, size), arc in zip(ranges, arcs)
    )
    return Clustering(data=data, clusters=clusters, oscillation_bound=epsilon)
