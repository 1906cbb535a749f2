"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines. Seeds are pinned; the batches they generate were checked
to be float-benign (no peak within ~1e-7 of a grid node, no pathological
angular gaps).
"""

import json
import math
import time

import numpy as np
import pytest

from diskinterp import (
    FatouFunction,
    FiniteBoundarySet,
    check_boundary_sup,
    check_cauchy_identity,
    check_max_modulus,
    choose_power,
    eval_fatou,
    eval_interpolant,
    iterative_interpolant,
    single_stage,
)
from diskinterp.cli import EXIT_CERTIFICATION, EXIT_OK, main as cli_main
from diskinterp.verify import cauchy_sample_points
from conftest import one_stage, random_problem

TWO_PI = 2.0 * math.pi
GRID_16 = 1 << 16

SEED_CONTRACTION = 1      # criterion 3
SEED_STAGE = 2025         # criterion 4
SEED_PIPELINE = 31415     # criteria 5 and 7


def report(num, label, ok, detail=""):
    print(f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def pipeline_batch():
    """25 seeded problems (|E| <= 10, sup norm 1), eta=0.01, n_max=20."""
    rng = np.random.default_rng(SEED_PIPELINE)
    t0 = time.perf_counter()
    batch = []
    for _ in range(25):
        data = random_problem(rng, 10)
        g = iterative_interpolant(data, 0.01, 20, GRID_16, 1e-9)
        batch.append((data, g))
    return batch, time.perf_counter() - t0


def test_criterion_1_single_peak_closed_form():
    t0 = time.perf_counter()
    f = FatouFunction(FiniteBoundarySet.from_thetas([0.0]))
    zs = np.exp(2j * np.pi * np.arange(1024) / 1024)
    rng = np.random.default_rng(77)
    interior = np.sqrt(rng.uniform(size=1000)) * np.exp(
        1j * rng.uniform(0, TWO_PI, 1000)
    )
    pts = np.concatenate([zs, interior])
    err = float(np.max(np.abs(eval_fatou(f, pts) - (1 + pts) / 2)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and elapsed < 1.0
    report(1, "closed-form oracle", ok, f"max err {err:.3e}, {elapsed:.2f}s")


def test_criterion_2_two_peak_oracle():
    g = FatouFunction(FiniteBoundarySet.from_thetas([0.0, math.pi]))
    e0 = abs(eval_fatou(g, 0j) - 2 / 3)
    e1 = abs(eval_fatou(g, 1j))
    e2 = abs(abs(eval_fatou(g, np.exp(1j * math.pi / 4))) - 2 / math.sqrt(5))
    ok = e0 <= 1e-14 and e1 <= 1e-14 and e2 <= 1e-12
    report(2, "two-peak oracle", ok, f"errs {e0:.2e} {e1:.2e} {e2:.2e}")


def test_criterion_3_peak_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED_CONTRACTION)
    grid = np.exp(2j * np.pi * np.arange(10**5) / 10**5)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        E = FiniteBoundarySet.from_thetas(rng.uniform(0, TWO_PI, n))
        f = FatouFunction(E)
        peaks = np.exp(1j * E.thetas)
        if not np.all(eval_fatou(f, peaks) == 1.0):
            ok = False
            break
        vals = np.abs(eval_fatou(f, grid))
        mask = np.ones(len(grid), dtype=bool)
        for a in peaks:
            mask &= np.abs(grid - a) > 1e-9
        mx = float(np.max(vals[mask]))
        interior = (
            (1 - 1e-9)
            * np.sqrt(rng.uniform(size=10**4))
            * np.exp(1j * rng.uniform(0, TWO_PI, 10**4))
        )
        mi = float(np.max(np.abs(eval_fatou(f, interior))))
        worst = max(worst, mx, mi)
        if not (mx < 1.0 and mi < 1.0):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(3, "peak contract, 100 sets", ok, f"worst |lam| {worst!r}, {elapsed:.1f}s")


def test_criterion_4_stage_bounds():
    rng = np.random.default_rng(SEED_STAGE)
    ok = True
    detail = ""
    for i in range(50):
        data = random_problem(rng, 12)
        sup = data.sup_norm
        for eps in (0.2, 0.05):
            stage = single_stage(data, eps, 1e-9)
            pre_sup = stage.certified_sup / stage.normalization
            e_pts = np.exp(1j * data.set.thetas)
            at_e = np.asarray(eval_interpolant(one_stage(stage), e_pts))
            pre_res = float(
                np.max(np.abs(data.values - at_e / stage.normalization))
            )
            checks = (
                pre_sup <= (1 + eps) * sup + 1e-9
                and pre_res < eps * 2 * sup
                and stage.certified_sup <= sup + 1e-9
                and stage.certified_residual < eps * 3 * sup
            )
            if not checks:
                ok = False
                detail = f"problem {i} eps {eps}"
                break
        if not ok:
            break
    report(4, "stage bounds, 50 problems x 2 eps", ok, detail)


def test_criterion_5_end_to_end(pipeline_batch):
    batch, elapsed = pipeline_batch
    bound_res = 0.01 / 2**20 + 1e-12
    worst_res = max(g.certificate.measured_max_residual_on_E for _, g in batch)
    worst_sup = max(g.certificate.boundary_sup_bound for _, g in batch)
    ok = (
        len(batch) == 25
        and worst_res <= bound_res
        and worst_sup <= 1.01 + 1e-9
        and elapsed < 60.0
    )
    report(
        5,
        "end-to-end bounds, 25 problems",
        ok,
        f"worst residual {worst_res:.3e} (<= {bound_res:.3e}), "
        f"worst sup {worst_sup:.10f}, build {elapsed:.1f}s",
    )


def test_criterion_6_power_oracle():
    rho = math.sqrt(2) / 2
    n = choose_power(rho, 0.01)
    # brute force: repeated multiplication until the product drops below 0.01
    count, p = 1, rho
    while not p < 0.01:
        count += 1
        p *= rho
    ok = n == 14 and count == 14
    report(6, "power selection oracle", ok, f"N={n}, brute force {count}")


def test_criterion_7_analyticity_witnesses(pipeline_batch):
    batch, _ = pipeline_batch
    ok = True
    detail = ""
    for j, (data, g) in enumerate(batch):
        boundary = check_boundary_sup(g)
        mm = check_max_modulus(g, boundary, seed=j)
        # the stated claim and tolerances: |g| <= sup + eta on the boundary,
        # 10^4 interior samples within 1e-9 of it, 10 contours of 4096
        # nodes within 1e-9
        assert boundary.params["bound"] <= data.sup_norm + 0.01
        assert mm.params["interior_samples"] == 10_000 and mm.params["tol"] <= 1e-9
        if not mm.passed:
            ok, detail = False, f"max_modulus on problem {j}"
            break
        pairs = cauchy_sample_points(SEED_PIPELINE + j)
        assert len(pairs) == 10
        for z0, radius in pairs:
            cc = check_cauchy_identity(g, z0, radius)
            assert cc.params["quad_points"] == 4096 and cc.threshold <= 1e-9
            if not cc.passed:
                ok, detail = False, f"cauchy on problem {j}, measured {cc.measured:.2e}"
                break
        if not ok:
            break
    report(7, "analyticity witnesses", ok, detail)


def test_criterion_8_cli_determinism(tmp_path):
    problem = {
        "points": [
            {"theta": 0.0, "value_re": 1.0, "value_im": 0.0},
            {"theta": 1.9, "value_re": 0.2, "value_im": -0.7},
            {"theta": 3.3, "value_re": -0.5, "value_im": 0.1},
            {"theta": 5.1, "value_re": 0.0, "value_im": 0.9},
        ],
        "eta": 0.01,
        "n_max": 10,
        "grid_size": 8192,
        "safety_margin": 1e-9,
        "seed": 4,
    }
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(problem) + "\n", encoding="utf-8")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["interpolate", str(ppath), "--out", str(a)])
    code_b = cli_main(["interpolate", str(ppath), "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    round_trip = cli_main(["verify", str(a), str(ppath)])

    text = a.read_text()
    key = '"boundary_sup_bound": '
    digit_idx = text.index(key) + len(key) + 3
    old = text[digit_idx]
    new = "7" if old != "7" else "3"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(
        text[:digit_idx] + new + text[digit_idx + 1 :], encoding="utf-8"
    )
    tamper_code = cli_main(["verify", str(tampered), str(ppath)])

    ok = (
        code_a == EXIT_OK
        and code_b == EXIT_OK
        and identical
        and round_trip == EXIT_OK
        and tamper_code == EXIT_CERTIFICATION
    )
    report(
        8,
        "CLI determinism",
        ok,
        f"identical={identical} round_trip={round_trip} tamper={tamper_code}",
    )
