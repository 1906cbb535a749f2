"""The benchmark (perfbench/) traces the pipeline by replacing module-level
names where the library looks them up. These tests keep those names bound,
keep the audit calling through them, and pin the audit to one boundary grid
pass per report and the evaluation to one peak function call per distinct
peak set and chunk, in bounded memory."""

import tracemalloc
from collections import Counter

import numpy as np

import diskinterp.interpolate as interpolate_mod
import diskinterp.verify as verify_mod
from diskinterp import (
    BoundaryData,
    eval_interpolant,
    iterative_interpolant,
    verify_interpolant,
)
from diskinterp.interpolate import CHUNK

INTERPOLATE_HOOKS = ("cluster_by_oscillation", "sup_off_arc", "choose_power", "eval_fatou")
CHECK_HOOKS = (
    "check_peak_values",
    "check_boundary_sup",
    "check_max_modulus",
    "check_cauchy_identity",
)
GRID = 4096
ON_CIRCLE = 1e-12


def small_problem():
    data = BoundaryData.from_pairs([0.0, 2.1, 4.0], [1.0, -0.4 + 0.3j, 0.1 - 0.8j])
    return data, iterative_interpolant(data, 0.01, 3, GRID, 1e-9)


def test_traced_names_are_bound():
    for name in INTERPOLATE_HOOKS:
        assert callable(getattr(interpolate_mod, name)), name
    for name in ("eval_interpolant",) + CHECK_HOOKS:
        assert callable(getattr(verify_mod, name)), name


def test_audit_calls_through_traced_names(monkeypatch):
    data, g = small_problem()
    calls = Counter()
    on_circle = []

    def counted(name):
        original = getattr(verify_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eval_interpolant":
                zs = np.asarray(args[1])
                on_circle.append(int(np.count_nonzero(np.abs(zs) >= 1.0 - ON_CIRCLE)))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify_mod, name, wrapper)

    for name in ("eval_interpolant",) + CHECK_HOOKS:
        counted(name)
    report = verify_interpolant(g, data, grid_size=GRID, seed=1, cauchy_pairs=3)
    assert report.overall
    assert all(calls[name] >= 1 for name in ("eval_interpolant",) + CHECK_HOOKS), calls
    assert calls["check_cauchy_identity"] == 3
    # one boundary grid, plus the points of E for the value check
    assert sum(on_circle) == GRID + len(data.set)


def test_eval_calls_each_distinct_peak_function_once_per_chunk(monkeypatch):
    _, g = small_problem()
    lambdas = [lam for stage in g.stages for lam in stage.lambdas]
    distinct = len(set(lambdas))
    # later stages rebuild an earlier cluster
    assert distinct < len(lambdas)
    sizes = []
    original = interpolate_mod.eval_fatou

    def counted(fatou, z):
        sizes.append(np.size(z))
        return original(fatou, z)

    monkeypatch.setattr(interpolate_mod, "eval_fatou", counted)
    zs = np.exp(2j * np.pi * np.arange(2 * CHUNK + 1) / (2 * CHUNK + 1))
    eval_interpolant(g, zs)
    assert len(sizes) == distinct * 3
    assert max(sizes) == CHUNK


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
