#!/usr/bin/env python3
"""Digests of what the library builds, for comparing two trees bit for bit.

For each problem of the three benchmark workloads at seeds 1-3 (from
``perfbench/workloads.py``) and each problem file in ``tests/data``, runs the
pipeline and the audit as ``diskinterp interpolate`` does and prints one
line: the problem's id and either the sha256 of its certificate payload
(JSON, indent 2) and of the interpolant's values on a fixed seeded batch
(``eval_interpolant`` on 8192 circle and 8192 interior points, then
``eval_on_circle`` on the 8192 angles), or ``NoContractionError``. A last
line, ``choose_power <sha256>``, digests the int64 powers ``choose_power``
picks for 4096 seeded pairs, rho = 1 - 10^U(-9, -0.3) and target =
10^U(-300, 0.5). Takes no options; two trees that print the same lines
build the same certificates, values and powers.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

from diskinterp import (
    NoContractionError,
    choose_power,
    eval_interpolant,
    eval_on_circle,
)
from diskinterp.cli import ProblemSpec, _certificate_payload, _run_pipeline

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
BATCH = 8192
BATCH_SEED = 20151006
POWER_PAIRS = 4096


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def problems():
    """(id, problem file object) for every problem, in a fixed order."""
    for name, make in load_workloads().items():
        for seed in SEEDS:
            for p in make(seed):
                yield f"{name} seed {seed} {p.pid}", p.to_json_obj(seed)
    for path in sorted((ROOT / "tests" / "data").glob("*.problem.json")):
        yield path.name, json.loads(path.read_text(encoding="utf-8"))


def batch():
    """A uniform grid of angles, its points, and seeded interior points."""
    t = 2.0 * math.pi * (np.arange(BATCH) + 0.5) / BATCH
    rng = np.random.default_rng(BATCH_SEED)
    r = 0.999 * np.sqrt(rng.uniform(size=BATCH))
    inner = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, BATCH))
    return t, np.concatenate([np.exp(1j * t), inner])


def digest_line(pid, obj, t, z) -> str:
    spec = ProblemSpec.from_json_obj(obj)
    try:
        interpolant, report = _run_pipeline(spec)
    except NoContractionError:
        return f"{pid} NoContractionError"
    payload = json.dumps(_certificate_payload(spec, interpolant, report), indent=2)
    values = hashlib.sha256(eval_interpolant(interpolant, z).tobytes())
    values.update(eval_on_circle(interpolant, t).tobytes())
    payload_hex = hashlib.sha256(payload.encode()).hexdigest()
    return f"{pid} payload {payload_hex} values {values.hexdigest()}"


def power_line() -> str:
    rng = np.random.default_rng(BATCH_SEED)
    rhos = 1.0 - 10.0 ** rng.uniform(-9.0, -0.3, POWER_PAIRS)
    targets = 10.0 ** rng.uniform(-300.0, 0.5, POWER_PAIRS)
    powers = [choose_power(r, t) for r, t in zip(rhos.tolist(), targets.tolist())]
    digest = hashlib.sha256(np.array(powers, dtype=np.int64).tobytes())
    return f"choose_power {digest.hexdigest()}"


def main(argv=None) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    t, z = batch()
    for pid, obj in problems():
        print(digest_line(pid, obj, t, z))
    print(power_line())


if __name__ == "__main__":
    main()
