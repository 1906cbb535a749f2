"""The benchmark (perfbench/) traces the pipeline by replacing module-level
names where the library looks them up. These tests keep those names bound,
keep the audit calling through them, pin the audit to arc ends, a bounded
multiple of the data's points and no boundary grid, and pin the evaluation
and the arc envelope, on points and on angles, to one peak function (log)
call per distinct peak set and chunk and one grouping of the terms per
interpolant, in bounded memory, and keep the audit and the evaluators from
importing modules that the benchmark's memory count would see."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import diskinterp.interpolate as interpolate_mod
import diskinterp.verify as verify_mod
from diskinterp import (
    BoundaryData,
    eval_interpolant,
    eval_on_circle,
    iterative_interpolant,
    verify_interpolant,
)
from diskinterp.interpolate import CHUNK

INTERPOLATE_HOOKS = (
    "cluster_by_oscillation",
    "sup_off_arc",
    "choose_power",
    "eval_fatou",
    "log_fatou",
    "log_fatou_on_circle",
)
CHECK_HOOKS = (
    "check_peak_values",
    "check_boundary_sup",
    "check_max_modulus",
    "check_cauchy_identity",
)
GRID = 4096
ANGLE_HOOKS = ("eval_on_circle", "arc_envelope")
EVAL_HOOKS = ("eval_interpolant",) + ANGLE_HOOKS


def small_problem():
    data = BoundaryData.from_pairs([0.0, 2.1, 4.0], [1.0, -0.4 + 0.3j, 0.1 - 0.8j])
    return data, iterative_interpolant(data, 0.01, 3, GRID, 1e-9)


def test_traced_names_are_bound():
    for name in INTERPOLATE_HOOKS:
        assert callable(getattr(interpolate_mod, name)), name
    for name in EVAL_HOOKS + CHECK_HOOKS:
        assert callable(getattr(verify_mod, name)), name


def test_audit_calls_through_traced_names(monkeypatch):
    data, g = small_problem()
    calls = Counter()
    angles = {name: [] for name in ANGLE_HOOKS}

    def counted(name):
        original = getattr(verify_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in ANGLE_HOOKS:
                angles[name].append(np.asarray(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify_mod, name, wrapper)

    for name in EVAL_HOOKS + CHECK_HOOKS:
        counted(name)
    sizes = count_log_calls(monkeypatch, "log_fatou_on_circle")
    report = verify_interpolant(g, data, grid_size=GRID, seed=1)
    assert report.overall
    assert all(calls[name] >= 1 for name in EVAL_HOOKS + CHECK_HOOKS), calls
    assert calls["check_cauchy_identity"] == verify_mod.CAUCHY_PAIRS
    # the interior samples, then each Cauchy contour with its centre
    assert calls["eval_interpolant"] == 1 + verify_mod.CAUCHY_PAIRS
    # the envelope starts from the arcs between the points of E
    first = angles["arc_envelope"][0]
    e = data.set.thetas
    assert np.array_equal(first[:, 0], e)
    assert np.array_equal(first[:, 1], np.roll(e, -1))
    # the boundary check reads its values at the arc ends from the envelope,
    # one call per round; the values are formed once more, on E, for the
    # value check
    boundary = next(c for c in report.checks if c.name == "boundary_sup")
    assert boundary.params["rounds"] == 2 == len(angles["arc_envelope"])
    evaluated = angles["eval_on_circle"]
    assert len(evaluated) == 1 and np.array_equal(evaluated[0], e)
    # no grid reaches the circle log: each distinct peak function sees at
    # most 2 ENVELOPE_ARCS + 1 angles per point of E over the whole audit
    # (at most 2 per arc for the envelope, and E)
    assert max(sizes) < GRID
    budget = distinct_lambdas(g) * (2 * verify_mod.ENVELOPE_ARCS + 1) * e.size
    assert sum(sizes) <= budget


def count_log_calls(monkeypatch, name):
    """Record the number of points of every call of the kernel's ``name``
    log (``log_fatou`` or ``log_fatou_on_circle``)."""
    sizes = []
    original = getattr(interpolate_mod, name)

    def counted(fatou, x, *args):
        sizes.append(np.size(x))
        return original(fatou, x, *args)

    monkeypatch.setattr(interpolate_mod, name, counted)
    return sizes


def distinct_lambdas(g):
    return len({lam for stage in g.stages for lam in stage.lambdas})


def test_terms_are_grouped_once_per_interpolant(monkeypatch):
    data, g = small_problem()
    calls = []
    original = interpolate_mod._group_terms

    def counted(terms):
        calls.append(1)
        return original(terms)

    monkeypatch.setattr(interpolate_mod, "_group_terms", counted)
    assert verify_interpolant(g, data, seed=1).overall
    eval_interpolant(g, np.exp(1j * data.set.thetas))
    eval_on_circle(g, data.set.thetas)
    assert len(calls) == 1
    # one group per distinct peak function, holding all of its terms
    assert len(g.terms) == distinct_lambdas(g)
    assert len({lam for lam, _ in g.terms}) == len(g.terms)
    assert sum(len(group) for _, group in g.terms) == sum(
        len(stage.lambdas) for stage in g.stages
    )


def test_eval_calls_each_distinct_peak_function_once_per_chunk(monkeypatch):
    _, g = small_problem()
    # later stages rebuild an earlier cluster
    assert distinct_lambdas(g) < sum(len(stage.lambdas) for stage in g.stages)
    sizes = count_log_calls(monkeypatch, "log_fatou")
    zs = np.exp(2j * np.pi * np.arange(2 * CHUNK + 1) / (2 * CHUNK + 1))
    eval_interpolant(g, zs)
    assert len(sizes) == distinct_lambdas(g) * 3
    assert max(sizes) == CHUNK


def test_eval_on_circle_calls_each_distinct_peak_function_once_per_chunk(monkeypatch):
    _, g = small_problem()
    assert distinct_lambdas(g) < sum(len(stage.lambdas) for stage in g.stages)
    sizes = count_log_calls(monkeypatch, "log_fatou_on_circle")
    points = count_log_calls(monkeypatch, "log_fatou")
    eval_on_circle(g, 2 * np.pi * np.arange(2 * CHUNK + 1) / (2 * CHUNK + 1))
    assert len(sizes) == distinct_lambdas(g) * 3
    assert max(sizes) == CHUNK
    assert not points


def test_bound_calls_each_distinct_peak_function_once_per_chunk(monkeypatch):
    # the arcs go to the log in blocks of CHUNK // 2, each distinct end of a
    # block once: CHUNK // 2 neighbouring arcs share all but one of their
    # CHUNK // 2 + 1 ends, and the last block, one arc, has two
    _, g = small_problem()
    sizes = count_log_calls(monkeypatch, "log_fatou_on_circle")
    thetas = 2 * np.pi * np.arange(CHUNK + 1) / (CHUNK + 1)
    ends = np.stack([thetas, np.roll(thetas, -1)], axis=1)
    envelope, values = interpolate_mod.arc_envelope(g, ends)
    blocks = [CHUNK // 2 + 1, CHUNK // 2 + 1, 2]
    assert sizes == [size for size in blocks for _ in range(distinct_lambdas(g))]
    assert max(sizes) <= CHUNK
    assert envelope.shape == thetas.shape and values.shape == ends.shape
    # an arc's envelope is at least that of each end's zero-length arc
    for end in ends.T:
        at_end, _ = interpolate_mod.arc_envelope(g, np.stack([end, end], axis=1))
        assert np.all(envelope >= at_end)
    # the values at the ends are eval_on_circle's, bit for bit
    assert np.array_equal(values, eval_on_circle(g, ends))


class CountingPeak(complex):
    """A peak point that records the size of every array it is subtracted
    from: ``log_fatou`` forms a_j - z once per peak, for the points that
    reach its per-peak loop."""

    def __sub__(self, other):
        self.sizes.append(np.size(other))
        return complex(self) - other


def count_looped_points(monkeypatch, g, zs):
    """Evaluate ``g`` at ``zs`` with ``log_fatou`` counting its calls and the
    points that reach its per-peak loop; check the values bit for bit, and
    return (calls, looped), the sizes of each."""
    expected = eval_interpolant(g, zs)
    calls, looped = [], []
    original = interpolate_mod.log_fatou

    def counted(fatou, x, *args):
        calls.append(np.size(x))
        first = CountingPeak(fatou.peak_points[0])
        first.sizes = looped
        clone = dataclasses.replace(fatou)
        points = np.array([first, *fatou.peak_points[1:]], dtype=object)
        object.__setattr__(clone, "peak_points", points)
        object.__setattr__(clone, "peak_disk", fatou.peak_disk)
        return original(clone, x, *args)

    monkeypatch.setattr(interpolate_mod, "log_fatou", counted)
    assert np.array_equal(eval_interpolant(g, zs), expected)
    return calls, looped


def close_pair_problem():
    # the pair 1e-3 apart
    data = BoundaryData.from_pairs(
        [1.0, 1.001, 3.2, 4.9], [1, -1, 0.6 + 0.3j, -0.2 + 0.7j]
    )
    return iterative_interpolant(data, 0.01, 20, GRID, 1e-9)


def test_eval_skips_points_inside_the_skip_radius(monkeypatch):
    # inside the disk the floor drops every power of most peak functions, so
    # log_fatou drops those points before its per-peak loop, and for some
    # chunks it drops them all
    g = close_pair_problem()
    zs = 0.5 * np.exp(2j * np.pi * np.arange(CHUNK) / CHUNK)
    calls, looped = count_looped_points(monkeypatch, g, zs)
    assert calls == [zs.size] * distinct_lambdas(g)
    assert len(looped) < len(calls)
    assert sum(looped) < distinct_lambdas(g) * zs.size


def test_eval_skips_points_beyond_the_reach(monkeypatch):
    # on the circle no point is inside a skip radius, but the floor drops
    # the points far from a peak function's peaks, so log_fatou drops those
    # beyond its reach before its per-peak loop
    g = close_pair_problem()
    zs = np.exp(2j * np.pi * np.arange(CHUNK) / CHUNK)
    calls, looped = count_looped_points(monkeypatch, g, zs)
    assert calls == [zs.size] * distinct_lambdas(g)
    assert sum(looped) < distinct_lambdas(g) * zs.size


def test_eval_memory_is_bounded():
    _, g = small_problem()
    zs = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    tracemalloc.start()
    try:
        eval_interpolant(g, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


IMPORT_PROBE = """
import json, sys
import numpy as np
import numpy.random
from diskinterp import (
    BoundaryData, eval_interpolant, eval_on_circle, iterative_interpolant,
    verify_interpolant,
)

before = set(sys.modules)
data = BoundaryData.from_pairs(
    [1.0, 1.001, 3.2, 4.9], [1, -1, 0.6 + 0.3j, -0.2 + 0.7j]
)
g = iterative_interpolant(data, 0.01, 20, 4096, 1e-9)
assert verify_interpolant(g, data, seed=1).overall
thetas = np.linspace(0.0, 6.0, 1000)
eval_interpolant(g, 0.9 * np.exp(1j * thetas))
eval_on_circle(g, thetas)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_pipeline_imports_no_further_module():
    # the benchmark counts traced allocations from a build and an audit once
    # diskinterp and numpy.random are imported; a module imported lazily on
    # the way (numpy.ma, by np.unique without return_inverse) would be
    # counted as the pipeline's memory
    src = Path(interpolate_mod.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
