"""Smoke tests: each script's ``main`` runs on tiny arguments, and the
README's library quickstart runs as written, so that a change of the
library API they call fails here."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_interpolation_runs(capsys):
    demo = load_script("demo_interpolation")
    demo.main(["--points", "3", "--n-max", "3"])
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


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert "print(" in code and capsys.readouterr().out
