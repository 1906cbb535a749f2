"""Smoke tests: each script's ``main`` runs on tiny arguments, and the
README's library quickstart and command-line examples run as written, so
that a change of the library API or the CLI they call fails here, and the
constants the README quotes have the values it states."""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from diskinterp import cli, fatou, interpolate, verify
from diskinterp.cli import EXIT_OK, main

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


def test_payload_digests_are_repeatable(capsys):
    # 13 benchmark problems at each of 3 seeds, 2 of them failing, the two
    # tests/data problems and the choose_power batch
    digests = load_script("payload_digests")
    digests.main([])
    first = capsys.readouterr().out.splitlines()
    assert len(first) == 42
    assert first[-1].startswith("choose_power ")
    assert sum(line.endswith(" NoContractionError") for line in first) == 6
    digests.main([])
    assert capsys.readouterr().out.splitlines() == first


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert "print(" in code and capsys.readouterr().out


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # the peaks and problem files of the README, then its three commands
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    commands = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    files = {"### Peaks file": "peaks.json", "### Problem file": "problem.json"}
    for heading, name in files.items():
        block = re.search(r"```json\n(.*?)```", section.split(heading, 1)[1], re.S)
        (tmp_path / name).write_text(block.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = commands.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "diskinterp"
        assert main(argv[1:]) == EXIT_OK, line
    assert "certificate verified" in capsys.readouterr().out
    for name in ("table.csv", "certificate.json", "boundary.csv"):
        assert (tmp_path / name).is_file()


# (README phrase, module, constant, the value the phrase states)
DEFAULTS = "Defaults: `n_max` 20, `safety_margin` 1e-9, `seed` 0, `grid_size` 65536"
README_CONSTANTS = [
    ("`boundary_sup_bound + 1e-9`", verify, "SUP_TOL", 1e-9),
    ("32 arcs per point of", verify, "ENVELOPE_ARCS", 32),
    ("2^-60", interpolate, "TERM_FLOOR", 2.0**-60),
    ("chunks of 8192", interpolate, "CHUNK", 8192),
    ("`2^-10`", fatou, "SKIP_MARGIN", 2.0**-10),
    ("within 1e-12", cli, "FIELD_MATCH_TOL", 1e-12),
    ("[1, 2^20]", cli, "MAX_GRID_SIZE", 2**20),
    ("(currently 1)", cli, "FORMAT_VERSION", 1),
    (DEFAULTS, cli, "DEFAULT_N_MAX", 20),
    (DEFAULTS, cli, "DEFAULT_SAFETY_MARGIN", 1e-9),
    (DEFAULTS, cli, "DEFAULT_SEED", 0),
    (DEFAULTS, cli, "DEFAULT_GRID_SIZE", 65536),
]


@pytest.mark.parametrize(
    "phrase, module, name, value", README_CONSTANTS, ids=[r[2] for r in README_CONSTANTS]
)
def test_readme_quotes_the_library_constants(phrase, module, name, value):
    # the README states these numbers; a changed constant must change it too
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert phrase in readme
    assert getattr(module, name) == value
