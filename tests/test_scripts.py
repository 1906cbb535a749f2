"""Smoke tests: each script's ``main`` runs on tiny arguments, so that a
change of the library API the scripts call fails here."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_interpolation_runs(capsys):
    demo = load_script("demo_interpolation")
    demo.main(["--points", "3", "--n-max", "3", "--grid-size", "4096"])
    out = capsys.readouterr().out
    assert "boundary sup bound:" in out
    assert "overall=PASS" in out


def test_power_growth_runs(tmp_path):
    growth = load_script("power_growth")
    out = tmp_path / "growth.csv"
    growth.main(["--steps", "3", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,rho,power"
    powers = [int(line.split(",")[2]) for line in lines[1:]]
    assert len(powers) == 3
    assert powers == sorted(powers)
