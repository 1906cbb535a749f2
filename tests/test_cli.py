import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diskinterp.cli
import diskinterp.verify
from diskinterp.interpolate import make_schedule, stage_epsilon
from diskinterp.cli import (
    EXIT_CERTIFICATION,
    FORMAT_VERSION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    MAX_GRID_SIZE,
    ParseFailure,
    ProblemSpec,
    ValidationFailure,
    _grid_csv,
    main,
)

PROBLEM = {
    "points": [
        {"theta": 0.0, "value_re": 1.0, "value_im": 0.0},
        {"theta": 2.1, "value_re": -0.4, "value_im": 0.3},
        {"theta": 4.0, "value_re": 0.1, "value_im": -0.8},
    ],
    "eta": 0.01,
    "n_max": 8,
    "grid_size": 8192,
    "safety_margin": 1e-9,
    "seed": 11,
}

# opposite values 1e-4 apart: the off-arc bound of their clusters reaches 1,
# so the build fails with NoContractionError
CLOSE_PAIR = dict(
    PROBLEM,
    points=[
        {"theta": 0.0, "value_re": 1.0, "value_im": 0.0},
        {"theta": 1e-4, "value_re": -1.0, "value_im": 0.0},
        {"theta": 2.2, "value_re": 0.6, "value_im": 0.3},
        {"theta": 3.9, "value_re": -0.2, "value_im": 0.7},
    ],
)

# 0.0 and the double below 2 pi, 8.9e-16 apart on the circle, in different
# clusters: the arc of one cannot hold its members in floating point
SEAM_PAIR = dict(
    PROBLEM,
    points=[
        {"theta": 0.0, "value_re": 1.0, "value_im": 0.0},
        {"theta": 2.2, "value_re": 0.0, "value_im": 1.0},
        {"theta": 5.9, "value_re": -1.0, "value_im": 0.0},
        {"theta": 6.283185307179585, "value_re": -1.0, "value_im": 0.0},
    ],
)

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def problem_file(tmp_path):
    return write_json(tmp_path / "problem.json", PROBLEM)


# ---------------------------------------------------------------- fatou


def test_fatou_single_peak_table(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    assert main(["fatou", peaks, "--eval-grid", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == 5  # header + k rows
    rows = [line.split(",") for line in lines[1:]]
    moduli = [float(r[3]) for r in rows]
    root2 = math.sqrt(2) / 2
    assert moduli[0] == 1.0
    assert moduli[1] == pytest.approx(root2, abs=1e-12)
    assert moduli[2] == pytest.approx(0.0, abs=1e-15)
    assert moduli[3] == pytest.approx(root2, abs=1e-12)


def test_fatou_row_count(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.5, 2.5]})
    assert main(["fatou", peaks, "--eval-grid", "17"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18


def test_fatou_empty_peaks_is_validation_error(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": []})
    assert main(["fatou", peaks]) == EXIT_VALIDATION


def test_fatou_nonfinite_peak_is_validation_error(tmp_path):
    # Python's json reads NaN and Infinity; the peak set refuses them
    for text in ('{"thetas": [0.0, NaN]}', '{"thetas": [Infinity]}'):
        peaks = tmp_path / "peaks.json"
        peaks.write_text(text, encoding="utf-8")
        assert main(["fatou", str(peaks)]) == EXIT_VALIDATION


def test_fatou_duplicate_peaks_rejected(tmp_path):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0, 2 * math.pi]})
    assert main(["fatou", peaks]) == EXIT_VALIDATION


def test_fatou_bad_json_is_parse_error(tmp_path):
    bad = tmp_path / "peaks.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["fatou", str(bad)]) == EXIT_PARSE


@pytest.mark.parametrize(
    "peaks, message",
    [
        ([0.0], "expected an object with a 'thetas' list"),
        ({"thetas": [0.0, "1.0"]}, "'thetas' must be a list of numbers"),
    ],
    ids=["not_an_object", "string_theta"],
)
def test_fatou_malformed_peaks_is_parse_error(tmp_path, capsys, peaks, message):
    path = write_json(tmp_path / "peaks.json", peaks)
    assert main(["fatou", path]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error:") and message in err[0]


def test_fatou_unknown_peaks_key_is_parse_error(tmp_path, capsys):
    # as in a problem file, a misspelled or stray key is refused, not ignored
    path = write_json(tmp_path / "peaks.json", {"thetas": [0.0, 1.5], "eval_grid": 4})
    target = tmp_path / "table.csv"
    assert main(["fatou", path, "--out", str(target)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err.splitlines() == [
        f"parse error: {path}: unknown field 'eval_grid'"
    ]


def test_fatou_unwritable_output_is_one_line(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    target = tmp_path / "missing" / "table.csv"
    assert main(["fatou", peaks, "--out", str(target)]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: cannot write {target}:")


def test_fatou_empty_grid_is_validation_error(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    assert main(["fatou", peaks, "--eval-grid", "0"]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("rows", [MAX_GRID_SIZE + 1, 1 << 62])
def test_fatou_oversized_grid_is_validation_error(tmp_path, capsys, rows):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    out = tmp_path / "table.csv"
    args = ["fatou", peaks, "--eval-grid", str(rows), "--out", str(out)]
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: --eval-grid")
    assert not out.exists()


def test_csv_abs_is_python_abs(tmp_path, capsys):
    # numpy's complex abs takes the other last bit on about a third of
    # values, this one among them; the abs column is abs(complex), the
    # modulus the build and the audit take
    v = -0.5442589828573099 - 0.31630015636915454j
    (row,) = _grid_csv(np.zeros(1), np.array([v])).splitlines()[1:]
    assert row.split(",")[3] == repr(abs(v))
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.3, 2.0, 4.1]})
    assert main(["fatou", peaks, "--eval-grid", "1024"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 1024
    for _, re, im, m in rows:
        assert float(m) == abs(complex(float(re), float(im)))


# ---------------------------------------------------------------- interpolate


def test_interpolate_zero_data(tmp_path):
    spec = dict(PROBLEM)
    spec["points"] = [
        {"theta": 0.0, "value_re": 0.0, "value_im": 0.0},
        {"theta": 3.0, "value_re": 0.0, "value_im": 0.0},
    ]
    problem = write_json(tmp_path / "zero.json", spec)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_OK
    cert = json.loads(out.read_text())["certificate"]
    assert cert["boundary_sup_bound"] == 0.0
    assert cert["measured_max_residual_on_E"] == 0.0
    assert cert["n_stages"] == 0


def test_interpolate_below_the_floor_bounds_its_residual(tmp_path):
    # no stage is built below RESIDUAL_FLOOR; the certified truncation bound
    # still covers the residual the zero interpolant leaves
    spec = dict(PROBLEM)
    spec["points"] = [
        {"theta": 0.0, "value_re": 1e-16, "value_im": 0.0},
        {"theta": 2.0, "value_re": 0.0, "value_im": -5e-16},
    ]
    problem = write_json(tmp_path / "tiny.json", spec)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_OK
    cert = json.loads(out.read_text())["certificate"]
    assert cert["n_stages"] == 0
    assert cert["measured_max_residual_on_E"] == 5e-16
    assert cert["residual_bound_theoretical"] >= cert["measured_max_residual_on_E"]
    assert main(["verify", str(out), problem]) == EXIT_OK


def test_interpolate_writes_certificate_and_grid(tmp_path, problem_file):
    out = tmp_path / "cert.json"
    grid_out = tmp_path / "grid.csv"
    code = main(
        ["interpolate", problem_file, "--out", str(out), "--grid-out", str(grid_out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    cert = payload["certificate"]
    assert cert["sup_norm_input"] == pytest.approx(1.0)
    assert cert["boundary_sup_bound"] <= 1.01 + 1e-9
    assert payload["report"]["overall"] is True
    lines = grid_out.read_text().strip().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == PROBLEM["grid_size"] + 1


def test_interpolate_grid_is_the_audit_grid(tmp_path):
    # the CSV evaluates the problem's boundary grid, with its angles; the
    # boundary_sup check proves an upper bound on the whole circle, so no
    # row exceeds its measurement. No point of the data lies on the grid,
    # so the grid misses the maxima at the data's points
    spec = dict(PROBLEM)
    spec["points"] = [dict(p, theta=p["theta"] + 0.3) for p in PROBLEM["points"]]
    problem = write_json(tmp_path / "shifted.json", spec)
    out = tmp_path / "cert.json"
    grid_out = tmp_path / "grid.csv"
    args = ["interpolate", problem, "--out", str(out), "--grid-out", str(grid_out)]
    assert main(args) == EXIT_OK
    checks = json.loads(out.read_text())["report"]["checks"]
    measured = next(c["measured"] for c in checks if c["name"] == "boundary_sup")
    rows = [line.split(",") for line in grid_out.read_text().strip().splitlines()[1:]]
    csv_max = max(float(row[3]) for row in rows)
    assert csv_max <= measured
    for _, re, im, m in rows:
        assert float(m) == abs(complex(float(re), float(im)))
    assert csv_max < 1.0
    n = PROBLEM["grid_size"]
    assert [float(row[0]) for row in rows] == [2.0 * math.pi * k / n for k in range(n)]


def test_interpolate_duplicate_thetas_rejected(tmp_path):
    spec = dict(PROBLEM)
    spec["points"] = [
        {"theta": 1.0, "value_re": 1.0, "value_im": 0.0},
        {"theta": 1.0, "value_re": 0.5, "value_im": 0.0},
    ]
    problem = write_json(tmp_path / "dup.json", spec)
    assert main(["interpolate", problem]) == EXIT_VALIDATION


def test_interpolate_missing_eta_is_parse_error(tmp_path):
    spec = {k: v for k, v in PROBLEM.items() if k != "eta"}
    problem = write_json(tmp_path / "noeta.json", spec)
    assert main(["interpolate", problem]) == EXIT_PARSE


def _with_first_point(**fields):
    return dict(PROBLEM, points=[dict(PROBLEM["points"][0], **fields)])


@pytest.mark.parametrize(
    "problem, message",
    [
        ([PROBLEM], "problem must be a JSON object"),
        (dict(PROBLEM, points={"theta": 0.0}), "'points' must be a list"),
        (dict(PROBLEM, points=[[0.0, 1.0, 0.0]]), "points[0] must be an object"),
        (_with_first_point(theta="0.5"), "field 'theta' must be a number"),
        (_with_first_point(theta=True), "field 'theta' must be a number"),
        (dict(PROBLEM, n_max=2.5), "field 'n_max' must be an integer"),
        (dict(PROBLEM, n_max=True), "field 'n_max' must be an integer"),
        (dict(PROBLEM, n_max=None), "missing integer field 'n_max'"),
        (dict(PROBLEM, nmax=5), "problem: unknown field 'nmax'"),
        (_with_first_point(value_imag=0.5), "points[0]: unknown field 'value_imag'"),
    ],
    ids=[
        "not_an_object",
        "points_not_a_list",
        "point_not_an_object",
        "theta_string",
        "theta_bool",
        "n_max_float",
        "n_max_bool",
        "n_max_null",
        "misspelled_key",
        "misspelled_point_key",
    ],
)
def test_interpolate_malformed_problem_is_parse_error(
    tmp_path, capsys, problem, message
):
    path = write_json(tmp_path / "bad.json", problem)
    assert main(["interpolate", path]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error:") and message in err[0]


def test_interpolate_nonpositive_eta_is_validation_error(tmp_path):
    spec = dict(PROBLEM)
    spec["eta"] = 0.0
    problem = write_json(tmp_path / "badeta.json", spec)
    assert main(["interpolate", problem]) == EXIT_VALIDATION


# finite parts whose modulus overflows to inf
HUGE_POINT = {"theta": 5.0, "value_re": 1.5e308, "value_im": 1.5e308}
# a finite modulus whose 1 + 2*sup overflows, and one whose first stage
# tolerance eta_1/(1 + 2*sup) underflows at eta 1e-300: either way eps_1 is 0
ZERO_TOLERANCE = [
    {"theta": 0.0, "value_re": 1e308, "value_im": 0.0},
    {"theta": 2.0, "value_re": 0.0, "value_im": 1.0},
]
TINY_TOLERANCE = [
    {"theta": 0.0, "value_re": 1e30, "value_im": 0.0},
    {"theta": 2.0, "value_re": 0.0, "value_im": 1.0},
]


@pytest.mark.parametrize(
    "override",
    [
        {"seed": -1},
        {"n_max": 1100},
        {"eta": 1e-320, "n_max": 20},
        {"n_max": 10**9},
        {"points": PROBLEM["points"] + [HUGE_POINT]},
        {"points": ZERO_TOLERANCE},
        {"points": TINY_TOLERANCE, "eta": 1e-300, "n_max": 20},
    ],
    ids=[
        "negative_seed",
        "n_max_overflow",
        "eta_underflow",
        "n_max_huge",
        "huge_value",
        "stage_tolerance_overflow",
        "stage_tolerance_underflow",
    ],
)
def test_interpolate_out_of_range_is_validation_error(tmp_path, capsys, override):
    # a negative seed reaches numpy's generator only after the build, these
    # eta/n_max pairs make the last budget eta/2^(n_max+1) 0, a value whose
    # modulus overflows would make the sup norm inf, and the last two make
    # the first stage tolerance 0; nothing is written
    problem = write_json(tmp_path / "bad.json", dict(PROBLEM, **override))
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error:")
    assert not out.exists()


def test_interpolate_grid_size_takes_the_eval_grid_range(tmp_path, capsys):
    # grid_size sizes only the --grid-out table, in [1, MAX_GRID_SIZE] as
    # fatou --eval-grid: 1024 rows are written, 0 is refused before anything
    out, grid_out = tmp_path / "cert.json", tmp_path / "grid.csv"
    problem = write_json(tmp_path / "grid.json", dict(PROBLEM, grid_size=1024))
    args = ["interpolate", problem, "--out", str(out), "--grid-out", str(grid_out)]
    assert main(args) == EXIT_OK
    assert len(grid_out.read_text().strip().splitlines()) == 1024 + 1
    out.unlink()
    grid_out.unlink()
    capsys.readouterr()
    problem = write_json(tmp_path / "grid.json", dict(PROBLEM, grid_size=0))
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: problem: grid_size")
    assert not out.exists() and not grid_out.exists()


@pytest.mark.parametrize("grid_size", [MAX_GRID_SIZE + 1, 1 << 62])
def test_interpolate_oversized_grid_rejected_before_the_build(
    tmp_path, capsys, monkeypatch, grid_size
):
    monkeypatch.setattr(diskinterp.cli, "iterative_interpolant", None)  # never built
    problem = write_json(tmp_path / "grid.json", dict(PROBLEM, grid_size=grid_size))
    out, grid_out = tmp_path / "cert.json", tmp_path / "grid.csv"
    args = ["interpolate", problem, "--out", str(out), "--grid-out", str(grid_out)]
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("validation error: problem: grid_size")
    assert not out.exists() and not grid_out.exists()


def test_interpolate_pipeline_failure_writes_no_certificate(tmp_path, capsys):
    problem = write_json(tmp_path / "close.json", CLOSE_PAIR)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("certification failure: ")
    assert not out.exists()


def test_interpolate_points_across_the_seam_fail_typed(tmp_path, capsys):
    problem = write_json(tmp_path / "seam.json", SEAM_PAIR)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("certification failure: ")
    assert "cluster arc" in err[0] and not out.exists()


def test_interpolate_failed_check_is_written_and_reported(
    tmp_path, problem_file, capsys, monkeypatch
):
    # a negative tolerance fails the two checks that take it; the
    # certificate is still written, and records the failure
    monkeypatch.setattr(diskinterp.verify, "SUP_TOL", -1.0)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_CERTIFICATION
    report = json.loads(out.read_text())["report"]
    assert report["overall"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["boundary_sup", "max_modulus"]
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[:3] for line in err] == [
        ["check", "failed:", name] for name in failed
    ]


@pytest.mark.parametrize("flag", ["--out", "--grid-out"])
def test_interpolate_unwritable_output_is_one_line(tmp_path, problem_file, capsys, flag):
    # a missing directory: exit 2 with one line, no traceback; when the
    # grid cannot be written, the certificate written before it stays
    cert, target = tmp_path / "cert.json", tmp_path / "missing" / "out"
    args = ["interpolate", problem_file, "--out", str(cert), flag, str(target)]
    assert main(args) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: cannot write {target}:")
    assert cert.exists() == (flag == "--grid-out")
    assert not target.exists()


def test_interpolate_refuses_one_file_for_both_outputs(tmp_path, problem_file, capsys):
    target = tmp_path / "out"
    args = ["interpolate", problem_file, "--out", str(target), "--grid-out"]
    for grid_out in (str(target), str(tmp_path / "." / "out")):
        assert main(args + [grid_out]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"parse error: --grid-out {grid_out} names the same file as --out {target}"
        ]
        assert not target.exists()


@pytest.mark.parametrize("flag", ["--out", "--grid-out"])
def test_interpolate_refuses_to_overwrite_its_problem(
    tmp_path, problem_file, capsys, flag
):
    before = Path(problem_file).read_bytes()
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(problem_file)
    os.link(problem_file, hard)  # one file under two names
    for target in (problem_file, str(link), str(hard)):
        assert main(["interpolate", problem_file, flag, target]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"parse error: {flag} {target} names the same file as the input "
            f"{problem_file}"
        ]
    assert Path(problem_file).read_bytes() == before


def test_fatou_refuses_to_overwrite_its_peaks(tmp_path, capsys):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    before = Path(peaks).read_bytes()
    hard = tmp_path / "hard.json"
    os.link(peaks, hard)
    for target in (peaks, str(hard)):
        assert main(["fatou", peaks, "--out", target]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"parse error: --out {target} names the same file as the input {peaks}"
        ]
    assert Path(peaks).read_bytes() == before


def test_interpolate_refuses_a_grid_out_hard_linked_to_out(
    tmp_path, problem_file, capsys
):
    target, hard = tmp_path / "out", tmp_path / "hard"
    target.write_text("kept\n")
    os.link(target, hard)
    args = ["interpolate", problem_file, "--out", str(target), "--grid-out", str(hard)]
    assert main(args) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"parse error: --grid-out {hard} names the same file as --out {target}"
    ]
    assert target.read_text() == "kept\n"


def test_failed_audit_is_reported_before_the_grid(
    tmp_path, problem_file, capsys, monkeypatch
):
    # a failed check and an unwritable --grid-out: the check failed: lines
    # come first, then the write error, and the run exits 2
    monkeypatch.setattr(diskinterp.verify, "SUP_TOL", -1.0)
    cert, target = tmp_path / "cert.json", tmp_path / "missing" / "g.csv"
    args = ["interpolate", problem_file, "--out", str(cert), "--grid-out", str(target)]
    assert main(args) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[:3] for line in err[:-1]] == [
        ["check", "failed:", "boundary_sup"],
        ["check", "failed:", "max_modulus"],
    ]
    assert err[-1].startswith(f"parse error: cannot write {target}:")
    assert json.loads(cert.read_text())["report"]["overall"] is False


def test_grid_size_default_ignores_environment(tmp_path, monkeypatch):
    # the default grid is a constant: no variable can make verify disagree
    spec = {k: v for k, v in PROBLEM.items() if k != "grid_size"}
    problem = write_json(tmp_path / "nogrid.json", spec)
    out = tmp_path / "cert.json"
    monkeypatch.delenv("DISKINTERP_GRID_SIZE", raising=False)
    assert main(["interpolate", problem, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["problem"]["grid_size"] == 1 << 16
    monkeypatch.setenv("DISKINTERP_GRID_SIZE", "4096")
    assert main(["verify", str(out), problem]) == EXIT_OK


# ---------------------------------------------------------------- verify


def test_verify_round_trip(tmp_path, problem_file, capsys):
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    assert main(["verify", str(out), problem_file]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["seam_cluster", "close_pair_1e-3"])
def test_verify_reproduces_checked_in_certificates(name, capsys):
    # written by an earlier build: one problem has clusters across angle 0,
    # the other a pair 1e-3 apart (powers above 1e9); a moved stage power, a
    # changed clustering or a number moved by more than FIELD_MATCH_TOL fails
    cert, problem = (str(DATA / f"{name}.{kind}.json") for kind in ("cert", "problem"))
    assert main(["verify", cert, problem]) == EXIT_OK
    assert capsys.readouterr().out == "certificate verified\n"


def test_verify_reports_a_failed_audit(tmp_path, problem_file, capsys, monkeypatch):
    # a certificate whose audit failed reproduces field for field, and
    # verify says so as interpolate did: exit 4, one line per failed check
    monkeypatch.setattr(diskinterp.verify, "SUP_TOL", -1.0)
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_CERTIFICATION
    written = capsys.readouterr().err
    assert main(["verify", str(out), problem_file]) == EXIT_CERTIFICATION
    captured = capsys.readouterr()
    assert captured.err == written and written.startswith("check failed: ")
    assert "verified" not in captured.out


def test_verify_reads_the_problem_section_it_wrote(tmp_path, problem_file):
    # the certificate's problem section has only known keys, so the strict
    # parser takes it back field for field
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    recorded = json.loads(out.read_text())["problem"]
    assert ProblemSpec.from_json_obj(recorded) == ProblemSpec.from_json_obj(PROBLEM)
    assert main(["verify", str(out), write_json(tmp_path / "p.json", recorded)]) == EXIT_OK


def test_verify_detects_tampered_value(tmp_path, problem_file, capsys):
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    key = '"boundary_sup_bound": '
    idx = text.index(key) + len(key)
    # flip one digit inside the float, keeping the JSON well formed
    digit_idx = idx + 3
    old = text[digit_idx]
    new = "7" if old != "7" else "3"
    (tmp_path / "tampered.json").write_text(
        text[:digit_idx] + new + text[digit_idx + 1 :], encoding="utf-8"
    )
    code = main(["verify", str(tmp_path / "tampered.json"), problem_file])
    assert code == EXIT_CERTIFICATION
    assert "boundary_sup_bound" in capsys.readouterr().err


@pytest.mark.parametrize("written", ['"true"', "1"])
def test_verify_detects_a_changed_json_type(tmp_path, problem_file, capsys, written):
    # a string or a number stands where the boolean true was written; the
    # number 1 compares equal to True, so only its type tells them apart
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert text.count('"overall": true') == 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(
        text.replace('"overall": true', f'"overall": {written}'), encoding="utf-8"
    )
    assert main(["verify", str(tampered), problem_file]) == EXIT_CERTIFICATION
    assert "report.overall" in capsys.readouterr().err


def test_verify_detects_seed_mismatch(tmp_path, problem_file, capsys):
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    spec = dict(PROBLEM)
    spec["seed"] = 99
    other = write_json(tmp_path / "other.json", spec)
    assert main(["verify", str(out), other]) == EXIT_CERTIFICATION
    assert "seed" in capsys.readouterr().err


def test_verify_pipeline_failure(tmp_path, problem_file, capsys):
    # a certificate whose recorded problem matches the problem file, but
    # whose problem the pipeline cannot build
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    forged = write_json(
        tmp_path / "forged.json", dict(json.loads(out.read_text()), problem=CLOSE_PAIR)
    )
    close = write_json(tmp_path / "close.json", CLOSE_PAIR)
    capsys.readouterr()
    assert main(["verify", forged, close]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("verification failure: pipeline failed: ")


@pytest.mark.parametrize("version", [0, 2, "1", True, 1.0])
def test_verify_refuses_other_certificate_versions(
    tmp_path, problem_file, capsys, version
):
    # any version but FORMAT_VERSION is refused as such, before a field
    # comparison could report a field that differs
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["format_version"] == FORMAT_VERSION == 1
    payload["format_version"] = version
    old = write_json(tmp_path / "old.json", payload)
    capsys.readouterr()
    assert main(["verify", old, problem_file]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err
    assert "unsupported certificate version" in err
    assert "does not reproduce" not in err


def test_verify_refuses_a_parent_format_certificate(tmp_path, problem_file, capsys):
    # the layout before format_version: no version key, and a boundary_sup
    # record measured on a grid against sup + eta
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    del payload["format_version"]
    for check in payload["report"]["checks"]:
        if check["name"] == "boundary_sup":
            check["params"] = {"grid_size": 8192, "bound": 1.01, "tol": 1e-9}
            check["threshold"] = 1.010000001
        if check["name"] == "max_modulus":
            check["params"]["grid_size"] = 8192
    parent = write_json(tmp_path / "parent.json", payload)
    capsys.readouterr()
    assert main(["verify", parent, problem_file]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "verification failure: unsupported certificate version None "
        f"(this version reads {FORMAT_VERSION})"
    ]


def test_verify_refuses_a_certificate_key_it_does_not_write(tmp_path, capsys):
    # an added top-level key is refused as a problem or peaks file's would
    # be, not passed over: the file would claim more than verify checks
    payload = json.loads((DATA / "seam_cluster.cert.json").read_text())
    payload["trusted_by"] = "someone"
    payload["report_extra"] = {"overall": False}
    cert = write_json(tmp_path / "cert.json", payload)
    problem = str(DATA / "seam_cluster.problem.json")
    assert main(["verify", cert, problem]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"parse error: {cert}: unknown field 'trusted_by'"]


def test_verify_rejects_non_certificate(tmp_path, problem_file):
    bogus = write_json(tmp_path / "bogus.json", {"hello": 1})
    assert main(["verify", bogus, problem_file]) == EXIT_PARSE


# ---------------------------------------------------------------- formats


def test_problem_spec_round_trip():
    spec = ProblemSpec.from_json_obj(PROBLEM)
    again = ProblemSpec.from_json_obj(spec.to_json_obj())
    assert spec == again


@settings(max_examples=300, deadline=None)
@example(eta=0.01, n_max=8, seed=-1, safety_margin=1e-9, grid_size=4096)
@example(eta=0.01, n_max=1100, seed=0, safety_margin=1e-9, grid_size=4096)
@example(eta=1e-320, n_max=20, seed=0, safety_margin=1e-9, grid_size=4096)
@given(
    eta=st.floats(),  # 0, negatives, subnormals, inf and nan included
    n_max=st.one_of(st.integers(-5, 2100), st.integers(-5, 10**9)),
    seed=st.integers(-5, 5),
    safety_margin=st.floats(),
    grid_size=st.sampled_from([0, 1, 1024, 4096, MAX_GRID_SIZE + 1, 1 << 62]),
)
def test_problem_spec_admits_only_runnable_problems(
    eta, n_max, seed, safety_margin, grid_size
):
    # a spec that parses is one the library builds from: its data, its
    # schedule and its first stage tolerance construct, and its seed is a
    # valid generator seed
    obj = dict(
        PROBLEM,
        eta=eta,
        n_max=n_max,
        seed=seed,
        safety_margin=safety_margin,
        grid_size=grid_size,
    )
    try:
        spec = ProblemSpec.from_json_obj(obj)
    except (ParseFailure, ValidationFailure):
        return
    stage_epsilon(make_schedule(spec.eta, spec.n_max)[0], spec.boundary_data().sup_norm)
    assert spec.seed >= 0
    assert 1 <= spec.grid_size <= MAX_GRID_SIZE


def test_certificate_json_round_trip(tmp_path, problem_file):
    # shortest-round-trip floats: load(dump(payload)) reproduces every field
    out = tmp_path / "cert.json"
    assert main(["interpolate", problem_file, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert json.loads(json.dumps(payload)) == payload


def test_certificate_deterministic_bytes(tmp_path, problem_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["interpolate", problem_file, "--out", str(a)]) == EXIT_OK
    assert main(["interpolate", problem_file, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("module", ["diskinterp", "diskinterp.cli"])
def test_module_entry_point(tmp_path, module):
    peaks = write_json(tmp_path / "peaks.json", {"thetas": [0.0]})
    proc = subprocess.run(
        [sys.executable, "-m", module, "fatou", str(peaks), "--eval-grid", "4"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("theta,re,im,abs")


def test_exit_codes_are_contractual(tmp_path, problem_file):
    # only {0, 2, 3, 4} may come back from the dispatcher
    cases = [
        (["interpolate", problem_file], EXIT_OK),
        (["interpolate", str(tmp_path / "missing.json")], EXIT_PARSE),
    ]
    for argv, expected in cases:
        assert main(argv) == expected
