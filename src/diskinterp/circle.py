"""Geometry on the unit circle.

Angles and open arcs; a finite boundary set as one sorted read-only array
of angles, and complex data on it as one read-only array of values; and the
oscillation clustering that partitions a data set into contiguous index
ranges living on pairwise disjoint arcs with value variation below a given
bound. No layer holds a Python object per point: an ``Angle`` is made for
each arc centre, one per cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NoContractionError

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


def _normalized(thetas) -> np.ndarray:
    """``normalize_angle`` of every angle of an array-like, bit for bit."""
    ts = np.asarray(thetas, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError("cannot normalize non-finite angles")
    ts = np.fmod(ts, TWO_PI)
    ts[ts < 0.0] += TWO_PI
    ts[ts >= TWO_PI] = 0.0
    return ts


def _distance(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, TWO_PI - d)


def angular_distance(a: Angle, b: Angle) -> float:
    """Geodesic distance between two angles, in [0, pi]."""
    return _distance(a.theta, b.theta)


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
        return self._holds(angle.theta)

    def _holds(self, theta: float) -> bool:
        return _distance(theta, self.center.theta) < self.half_width


@dataclass(frozen=True, eq=False)
class FiniteBoundarySet:
    """Finite set of distinct boundary points: ``thetas``, a read-only float
    array strictly increasing in [0, 2*pi). Sets compare and hash by their
    angles, so equal sets built from separate arrays are one dict key."""

    thetas: np.ndarray

    def __post_init__(self) -> None:
        ts = np.array(self.thetas, dtype=float)
        if ts.ndim != 1 or not ts.size:
            raise ValueError("boundary set must be a non-empty 1-d array of angles")
        # every comparison with a NaN fails, and the range test fails on +-inf
        if not (0.0 <= ts[0] and ts[-1] < TWO_PI and (ts[1:] > ts[:-1]).all()):
            raise ValueError(
                "boundary set angles must be finite and strictly increasing in "
                "[0, 2*pi) (duplicate, unsorted or unreduced points)"
            )
        ts.setflags(write=False)
        object.__setattr__(self, "thetas", ts)

    @classmethod
    def from_thetas(cls, thetas) -> "FiniteBoundarySet":
        """The set of an array-like of finite angles, reduced modulo 2*pi."""
        return cls(np.sort(_normalized(thetas)))

    def _circular_range(self, start: int, size: int) -> "FiniteBoundarySet":
        """The ``size`` points from index ``start`` on in circular order: a
        slice of ``thetas``, or across the seam the sorted join of two; unchecked."""
        sub = self.thetas[start : start + size]  # a view, read-only as thetas is
        wrapped = start + size - self.thetas.size
        if wrapped > 0:
            sub = np.concatenate((self.thetas[:wrapped], sub))
            sub.setflags(write=False)
        subset = object.__new__(FiniteBoundarySet)
        object.__setattr__(subset, "thetas", sub)
        return subset

    @property
    def points(self) -> tuple[Angle, ...]:  # made on request; the library reads thetas
        return tuple(map(Angle, self.thetas.tolist()))

    def __len__(self) -> int:
        return self.thetas.size

    @cached_property
    def _key(self) -> bytes:  # the angles' bytes with -0.0 as 0.0, made once
        return (self.thetas + 0.0).tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteBoundarySet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Complex samples on a finite boundary set: ``values``, a read-only
    complex array in the order of ``set.thetas``. ``sup_norm`` caches their
    maximum modulus, zero exactly when every value is. Data compare by
    identity."""

    set: FiniteBoundarySet
    values: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        if vals.shape != self.set.thetas.shape:
            raise ValueError(f"{vals.size} values for {len(self.set)} boundary points")
        if not np.isfinite(vals).all():
            raise ValueError("data values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # hypot is the modulus of Python's abs(complex), bit for bit; numpy's
        # complex abs can differ in the last bit
        sup_norm = float(np.hypot(vals.real, vals.imag).max())
        object.__setattr__(self, "sup_norm", sup_norm)

    @classmethod
    def from_pairs(cls, thetas, values) -> "BoundaryData":
        """Build from parallel array-likes of angles and values, sorted by angle."""
        ts = _normalized(thetas)
        vals = np.asarray(values, dtype=complex)
        if vals.shape != ts.shape:
            raise ValueError(f"{vals.size} values for {ts.size} angles")
        order = np.argsort(ts, kind="stable")
        return cls(FiniteBoundarySet(ts[order]), vals[order])


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
        ts = self.data.set.thetas
        cs = self.clusters
        k = len(cs)
        if sum(c.size for c in cs) != n or any(
            c.n != n or c.size < 1 or cs[(j + 1) % k].start != (c.start + c.size) % n
            for j, c in enumerate(cs)
        ):
            raise ValueError("cluster ranges must partition the set indices in order")
        for j, c in enumerate(cs):
            arc = c.arc
            first, last = float(ts[c.start]), float(ts[(c.start + c.size - 1) % n])
            lo = arc.center.theta - arc.half_width  # the arc's clockwise edge
            inside = arc._holds(first) and arc._holds(last)
            if not (inside and (first - lo) % TWO_PI <= (last - lo) % TWO_PI):
                raise ValueError(f"cluster {j}: a member lies outside its arc")
            if k > 1 and (
                arc._holds(float(ts[(c.start - 1) % n]))
                or arc._holds(float(ts[(c.start + c.size) % n]))
            ):
                raise ValueError(f"cluster {j}: a foreign point lies in its arc")
        for j in range(k if k > 2 else k - 1):
            a, b = cs[j].arc, cs[(j + 1) % k].arc
            if angular_distance(a.center, b.center) < a.half_width + b.half_width:
                raise ValueError(f"arcs of clusters {j} and {(j + 1) % k} overlap")

    def __len__(self) -> int:
        return len(self.clusters)


def cluster_by_oscillation(data: BoundaryData, epsilon: float) -> Clustering:
    """Cover the data set by clusters of pairwise value oscillation below epsilon.

    Greedy circular sweep: starting after the largest angular gap (a
    rotation-invariant anchor), each point joins the current cluster iff its
    value differs from every member's by strictly less than epsilon (the
    newest member first, from one array pass over neighbouring values, then
    one numpy comparison against the rest), then a final wraparound check,
    one value of the last cluster at a time against the first, merges the
    two when their union still satisfies the bound. A one-point set is
    always a single cluster. Clusters come back as contiguous circular index
    ranges.

    The returned arcs have positive clearance: every foreign point of the
    set sits strictly outside each arc, with margin at least a quarter of
    the bounding gap. Raises NoContractionError when, in floating point, an
    arc cannot hold its members and keep its neighbours out, or when
    cot(gap/2) of two neighbours overflows (gaps below about 1.1e-308).
    """
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    n = len(data.set)
    thetas = data.set.thetas
    if n == 1:
        ranges = [(0, 1)]
    else:
        gaps = thetas[1:] - thetas[:-1]
        # the smallest gap has the largest cotangent of its half; a float
        # division overflows to inf, one by 0 raises
        tan = math.tan(0.5 * float(gaps.min()))
        if tan == 0.0 or math.isinf(1.0 / tan):
            raise NoContractionError("points too close: cot(gap/2) overflows")
        j = int(gaps.argmax())
        # the gap across the seam comes last: it wins only when strictly larger
        start = 0 if thetas[0] + TWO_PI - thetas[-1] > gaps[j] else j + 1
        swept = np.concatenate((data.values[start:], data.values[:start]))
        step = swept[1:] - swept[:-1]
        # hypot is the modulus of Python's abs(complex), bit for bit
        joins = (np.hypot(step.real, step.imag) < epsilon).tolist()
        heads = [0]  # sweep positions where blocks begin
        for i in range(1, n):
            h = heads[-1]
            # the newest member first: most rejections need no array work
            if not (
                joins[i - 1]
                and (h == i - 1 or abs(swept[h : i - 1] - swept[i]).max() < epsilon)
            ):
                heads.append(i)
        heads.append(n)
        ranges = [
            ((start + h) % n, nxt - h) for h, nxt in zip(heads, heads[1:])
        ]
        if len(ranges) >= 2:
            head_block = swept[: heads[1]]
            if all(abs(head_block - v).max() < epsilon for v in swept[heads[-2] :]):
                last = ranges.pop()
                ranges[0] = (last[0], last[1] + ranges[0][1])
    try:
        clusters = []
        for head, size in ranges:
            # centred on the block, extended into the neighbouring gaps by a
            # quarter of the nearer one, capped so the half-width stays below pi
            start, end = float(thetas[head]), float(thetas[(head + size - 1) % n])
            span = (end - start) % TWO_PI  # 0 for singletons; wraps with the block
            gap = TWO_PI - span  # one cluster: the rest of the circle
            if len(ranges) > 1:
                before = (start - float(thetas[head - 1])) % TWO_PI
                gap = min(before, (float(thetas[(head + size) % n]) - end) % TWO_PI)
            ext = min(gap / 4.0, (math.pi - span / 2.0) / 2.0)
            arc = Arc(normalize_angle(start + span / 2.0), span / 2.0 + ext)
            clusters.append(Cluster(head, size, n, arc))
        return Clustering(data, tuple(clusters), epsilon)
    except ValueError as exc:  # the ranges tile the set: only the arcs' rounding fails
        raise NoContractionError(
            f"{exc}: points too close for a cluster arc in floating point"
        ) from exc
