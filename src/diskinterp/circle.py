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

    def clearance(self, angle: Angle) -> float:
        """Angular distance beyond the arc edge (negative inside the arc)."""
        return angular_distance(angle, self.center) - self.half_width


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
            zip((normalize_angle(t) for t in thetas), values),
            key=lambda p: p[0].theta,
        )
        pts = FiniteBoundarySet(tuple(p[0] for p in pairs))
        return cls(pts, tuple(complex(p[1]) for p in pairs))

    def value_array(self) -> np.ndarray:
        return np.array(self.values, dtype=complex)


@dataclass(frozen=True)
class Cluster:
    """A contiguous block of set indices, its representative, and its arc.

    ``members`` are listed in circular block order (the block may cross the
    0/2*pi seam); ``representative`` is the circularly first member.
    """

    members: tuple[int, ...]
    representative: int
    arc: Arc


@dataclass(frozen=True)
class Clustering:
    """Partition of a data set into clusters on pairwise disjoint arcs."""

    data: BoundaryData
    clusters: tuple[Cluster, ...]
    oscillation_bound: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.oscillation_bound) and self.oscillation_bound > 0):
            raise ValueError("oscillation_bound must be positive and finite")
        if not self.clusters:
            raise ValueError("clustering must contain at least one cluster")
        n = len(self.data.set)
        seen = sorted(i for c in self.clusters for i in c.members)
        if seen != list(range(n)):
            raise ValueError("clusters must partition the set indices exactly")
        vals = self.data.values
        pts = self.data.set.points
        for k, c in enumerate(self.clusters):
            if c.representative not in c.members:
                raise ValueError(f"cluster {k}: representative not a member")
            for i in c.members:
                if not c.arc.contains(pts[i]):
                    raise ValueError(f"cluster {k}: member {i} outside its arc")
            osc = max(
                (abs(vals[i] - vals[j]) for i in c.members for j in c.members),
                default=0.0,
            )
            if not osc < self.oscillation_bound:
                raise ValueError(
                    f"cluster {k}: oscillation {osc} not below bound "
                    f"{self.oscillation_bound}"
                )
        for j, cj in enumerate(self.clusters):
            for k, ck in enumerate(self.clusters):
                if j == k:
                    continue
                if (
                    angular_distance(cj.arc.center, ck.arc.center)
                    < cj.arc.half_width + ck.arc.half_width
                ):
                    raise ValueError(f"arcs of clusters {j} and {k} overlap")
                for i in cj.members:
                    if ck.arc.contains(pts[i]):
                        raise ValueError(
                            f"member {i} of cluster {j} lies in arc of cluster {k}"
                        )

    def __len__(self) -> int:
        return len(self.clusters)


def _build_arcs(blocks: list[list[int]], thetas: np.ndarray) -> list[Arc]:
    """One arc per contiguous block: centered on the block, extended into the
    neighboring gaps by a quarter of the nearest foreign gap (capped so the
    half-width stays below pi)."""
    k = len(blocks)
    arcs = []
    for i, blk in enumerate(blocks):
        start = float(thetas[blk[0]])
        end = float(thetas[blk[-1]])
        span = (end - start) % TWO_PI  # 0 for singletons; wraps with the block
        if k == 1:
            gap = TWO_PI - span
            g_before = g_after = gap
        else:
            prev_end = float(thetas[blocks[i - 1][-1]])
            next_start = float(thetas[blocks[(i + 1) % k][0]])
            g_before = (start - prev_end) % TWO_PI
            g_after = (next_start - end) % TWO_PI
        ext = min(min(g_before, g_after) / 4.0, (math.pi - span / 2.0) / 2.0)
        arcs.append(Arc(normalize_angle(start + span / 2.0), span / 2.0 + ext))
    return arcs


def cluster_by_oscillation(data: BoundaryData, epsilon: float) -> Clustering:
    """Cover the data set by clusters of pairwise value oscillation below epsilon.

    Greedy circular sweep: starting after the largest angular gap (a
    rotation-invariant anchor), each point joins the current cluster iff all
    pairwise value differences stay strictly below epsilon, then a final
    wraparound check merges the last and first clusters when their union
    still satisfies the bound. A one-point set is always a single cluster.

    The returned arcs have positive clearance: every foreign point of the
    set sits strictly outside each arc, with margin at least a quarter of
    the bounding gap.
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    n = len(data.set)
    thetas = data.set.thetas()
    values = data.value_array()
    if n == 1:
        blocks = [[0]]
    else:
        gaps = np.diff(np.append(thetas, thetas[0] + TWO_PI))
        start = (int(np.argmax(gaps)) + 1) % n
        order = [(start + j) % n for j in range(n)]
        blocks = [[order[0]]]
        for idx in order[1:]:
            blk = blocks[-1]
            if all(abs(values[idx] - values[j]) < epsilon for j in blk):
                blk.append(idx)
            else:
                blocks.append([idx])
        if len(blocks) >= 2:
            last, first = blocks[-1], blocks[0]
            if all(
                abs(values[a] - values[b]) < epsilon for a in last for b in first
            ):
                blocks = [last + first] + blocks[1:-1]
    arcs = _build_arcs(blocks, thetas)
    clusters = tuple(
        Cluster(tuple(blk), blk[0], arc) for blk, arc in zip(blocks, arcs)
    )
    return Clustering(data=data, clusters=clusters, oscillation_bound=epsilon)


def representative_of(clustering: Clustering, k: int) -> tuple[Angle, complex]:
    """Representative point of cluster k and its data value."""
    if not 0 <= k < len(clustering.clusters):
        raise IndexError(
            f"cluster index {k} out of range for {len(clustering.clusters)} clusters"
        )
    idx = clustering.clusters[k].representative
    return clustering.data.set.points[idx], clustering.data.values[idx]
