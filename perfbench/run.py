"""Benchmark of the certified interpolation pipeline, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload random --seed 1 --seconds 30 --trace 0

One operation takes one problem through build (``iterative_interpolant``),
audit (``verify_interpolant``) and evaluation (``eval_interpolant`` on a fixed
batch of points).  A round runs every problem of the workload once and
``python -m diskinterp interpolate`` three times; rounds repeat while another
fits in ``--seconds``, and timings are medians over rounds, each scaled to
the reference speed of ``speed.py``.  Outputs of the first round are checked
by independent code (``oracle.py``); a wrong output makes the run fail.
The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One piece of work at a time: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer, install_library_spans
from speed import Interval
from workloads import ETA, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 5
MEMORY_PROBLEMS = 2
CLI_RUNS = 3
EVAL_REPEATS = 3
EVAL_BOUNDARY = 8192
EVAL_INTERIOR = 8192
EVAL_SEED = 20151006
CHILD_TIMEOUT_S = 60
MIB = float(1 << 20)


class WrongOutput(Exception):
    """A program output failed an independent check."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    if not (SRC / "diskinterp" / "__init__.py").is_file():
        raise ImportError(f"no diskinterp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diskinterp.cli
    import diskinterp.interpolate
    import diskinterp.verify

    return diskinterp


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def eval_batch():
    """Fixed points: a uniform boundary grid (as angles and points) and
    seeded interior samples; the same for every workload and seed."""
    t = 2.0 * math.pi * (np.arange(EVAL_BOUNDARY) + 0.5) / EVAL_BOUNDARY
    rng = np.random.default_rng(EVAL_SEED)
    r = 0.999 * np.sqrt(rng.uniform(size=EVAL_INTERIOR))
    inner = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, EVAL_INTERIOR))
    return t, np.concatenate([np.exp(1j * t), inner])


def measure_setup(files):
    """Fresh interpreters importing diskinterp and validating every problem
    file; wall time seen from here, import/parse time seen inside."""
    walls, imports, parses = [], [], []
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py")] + [str(f) for f in files]
    for _ in range(SETUP_PROBES):
        with Interval() as iv:
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise WrongOutput(f"setup probe failed: {proc.stderr.strip()}")
        inner = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall * iv.factor)
        imports.append(inner["import_s"] * iv.factor)
        parses.append(inner["parse_s"] * iv.factor)
    return {
        "setup_s": statistics.median(walls),
        "cli.import_s": statistics.median(imports),
        "cli.parse_s": statistics.median(parses),
    }


def measure_memory(lib, jobs):
    """Traced-allocation peaks of the given problems: the build of each and
    the audit of the first.  A problem's peak is the larger of its build
    peak and that audit peak; the results are medians over problems."""
    builds, audit_peak = [], None
    for job in jobs:
        spec, data = job["spec"], job["data"]
        tracemalloc.start()
        try:
            g = lib.interpolate.iterative_interpolant(
                data, spec.eta, spec.n_max, spec.grid_size, spec.safety_margin
            )
            builds.append(tracemalloc.get_traced_memory()[1] / MIB)
            if audit_peak is None:
                tracemalloc.reset_peak()
                lib.verify.verify_interpolant(
                    g, data, grid_size=spec.grid_size, seed=spec.seed
                )
                audit_peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    return {
        "peak_mem_mib": statistics.median(max(b, audit_peak) for b in builds),
        "interpolate.build_peak_mib": statistics.median(builds),
        "verify.audit_peak_mib": audit_peak,
    }


class Runner:
    def __init__(self, lib, jobs, cli_job, workdir, tracer):
        self.lib = lib
        self.jobs = jobs
        self.cli_job = cli_job
        self.workdir = workdir
        self.tracer = tracer
        self.batch_t, self.batch_z = eval_batch()
        self.first = {}      # pid -> (interpolant, report, eval values)
        self.attempted = 0
        self.failed = 0
        self.log = []           # one line per operation, for stderr

    def _span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def operation(self, job, times):
        """Build, audit and evaluate one problem; False when it failed with
        the known NoContractionError."""
        lib, spec, data, pid = self.lib, job["spec"], job["data"], job["problem"].pid
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.problem = pid
        try:
            with Interval() as build_iv:
                t0 = time.perf_counter()
                with self._span("interpolate.build"):
                    g = lib.interpolate.iterative_interpolant(
                        data, spec.eta, spec.n_max, spec.grid_size, spec.safety_margin
                    )
                build = time.perf_counter() - t0
        except lib.NoContractionError:
            if not job["problem"].expect_no_contraction:
                raise
            self.failed += 1
            return False
        with Interval() as audit_iv:
            t0 = time.perf_counter()
            with self._span("verify.audit"):
                report = lib.verify.verify_interpolant(
                    g, data, grid_size=spec.grid_size, seed=spec.seed
                )
            audit = time.perf_counter() - t0
        evals = []
        with Interval() as eval_iv:
            for _ in range(EVAL_REPEATS):
                t0 = time.perf_counter()
                with self._span("bench.eval"):
                    vals = lib.interpolate.eval_interpolant(g, self.batch_z)
                evals.append(time.perf_counter() - t0)
        evaluate = statistics.median(evals)
        times["build_s"] += build * build_iv.factor
        times["audit_s"] += audit * audit_iv.factor
        times["eval_s"] += evaluate * eval_iv.factor
        times["eval_points"] += self.batch_z.size
        self.log.append(
            f"{pid} build {build:.3f} audit {audit:.3f} eval {evaluate:.3f} s raw, "
            f"speed factors {build_iv.factor:.3f} {audit_iv.factor:.3f} "
            f"{eval_iv.factor:.3f}"
        )
        times["stage_terms"] += sum(len(s.lambdas) for s in g.stages)
        if pid not in self.first:
            self.first[pid] = (g, report, vals)
        elif [s.power for s in g.stages] != [s.power for s in self.first[pid][0].stages]:
            raise WrongOutput(f"{pid}: stage powers changed between rounds")
        return True

    def cli(self, traced: bool) -> dict:
        job = self.cli_job
        cert = self.workdir / "cli-certificate.json"
        args = ["interpolate", str(job["file"]), "--out", str(cert)]
        if traced:
            spans_path = self.workdir / "cli-spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "diskinterp"]
        with Interval() as iv:
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd + args, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise WrongOutput(
                f"CLI interpolate exited {proc.returncode}: {proc.stderr.strip()}"
            )
        with open(cert, "r", encoding="utf-8") as fh:
            bad = oracle.check_cli_certificate(
                json.load(fh), self.first[job["problem"].pid][0]
            )
        if bad:
            raise WrongOutput(f"{job['problem'].pid}: {bad}")
        out = {"cli_s": wall * iv.factor}
        if traced:
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans = json.load(fh)
            main = next(s for s in spans if s["name"] == "cli.main")
            main_i = spans.index(main)
            lib_time = sum(
                s["end"] - s["start"] for s in spans if s["parent"] == main_i
            )
            out["cli.main_self_s"] = ((main["end"] - main["start"]) - lib_time) * iv.factor
        return out

    def round(self, traced: bool) -> dict:
        times = dict.fromkeys(
            ("build_s", "audit_s", "eval_s", "eval_points", "stage_terms"), 0.0
        )
        first_span = len(self.tracer.spans) if self.tracer is not None else 0
        for job in self.jobs:
            self.operation(job, times)
        out = {
            "build_s": times["build_s"],
            "audit_s": times["audit_s"],
            "eval_mpts_per_s": times["eval_points"] / times["eval_s"] / 1e6,
            "interpolate.stage_terms": times["stage_terms"],
        }
        clis = [self.cli(traced) for _ in range(CLI_RUNS)]
        for key in clis[0]:
            out[key] = statistics.median(c[key] for c in clis)
        if self.tracer is not None:
            out.update(layer_metrics(self.tracer.spans[first_span:]))
            out["traced.build_s"] = out["build_s"]
            out["traced.audit_s"] = out["audit_s"]
        return out


def layer_metrics(spans) -> dict:
    """Per-module sums over one round of spans."""
    m = dict.fromkeys(
        (
            "circle.cluster_s", "fatou.sup_off_arc_s", "fatou.sup_off_arc_calls",
            "fatou.eval_fatou_build_s", "fatou.eval_fatou_audit_s",
            "fatou.eval_fatou_build_mterms", "fatou.eval_fatou_audit_mterms",
            "fatou.max_power", "interpolate.build_self_s", "interpolate.eval_s",
            "interpolate.eval_mterms", "verify.peak_values_s",
            "verify.boundary_sup_s", "verify.max_modulus_s", "verify.cauchy_s",
            "verify.boundary_mpts",
        ),
        0.0,
    )
    for s in spans:
        d = s.duration
        if s.name == "circle.cluster":
            m["circle.cluster_s"] += d
        elif s.name == "fatou.sup_off_arc":
            m["fatou.sup_off_arc_s"] += d
            m["fatou.sup_off_arc_calls"] += 1
        elif s.name == "fatou.choose_power":
            m["fatou.max_power"] = max(m["fatou.max_power"], s.counts["power"])
        elif s.name == "fatou.eval_fatou":
            root = s.root_name
            if root in ("interpolate.build", "verify.audit"):
                side = "build" if root == "interpolate.build" else "audit"
                m[f"fatou.eval_fatou_{side}_s"] += d
                m[f"fatou.eval_fatou_{side}_mterms"] += s.counts["terms"] / 1e6
        elif s.name == "interpolate.build":
            m["interpolate.build_self_s"] += Tracer.self_time(s)
        elif s.name == "interpolate.eval" and s.root_name == "verify.audit":
            m["interpolate.eval_s"] += d
            m["interpolate.eval_mterms"] += s.counts["terms"] / 1e6
            m["verify.boundary_mpts"] += s.counts["boundary"] / 1e6
        elif s.name.startswith("verify.") and s.name != "verify.audit":
            m[s.name + "_s"] += d
    return m


def run_checks(runner) -> list:
    """Independent checks on the first round's outputs (each CLI
    certificate is checked as soon as it is written)."""
    found = []
    n_boundary = runner.batch_t.size
    for job in runner.jobs:
        p = job["problem"]
        if p.pid not in runner.first:
            continue
        g, report, vals = runner.first[p.pid]
        thetas = np.array(p.thetas)
        values = np.array(p.values)
        sup = float(np.max(np.abs(values)))
        msgs = []
        if not report.overall:
            msgs.append("library audit did not pass: " + ", ".join(
                c.name for c in report.failed()))
        msgs += oracle.check_interpolant(g, thetas, values, sup, ETA, job["spec"].seed)
        bad = oracle.check_library_eval(
            g, runner.batch_t, vals[:n_boundary], runner.batch_z[n_boundary:],
            vals[n_boundary:],
        )
        if bad:
            msgs.append(bad)
        found += [f"{p.pid}: {m}" for m in msgs]
    return found


def prepare_jobs(lib, workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's problem files and load each the way the CLI does."""
    jobs = []
    for p in WORKLOADS[workload](seed):
        path = workdir / f"{p.pid}.json"
        obj = p.to_json_obj(seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        spec = lib.cli.ProblemSpec.from_json_obj(obj)
        jobs.append({"problem": p, "file": path, "spec": spec, "data": spec.boundary_data()})
    return jobs


def measure(lib, args, jobs, workdir):
    """Set-up probes, memory, timed rounds and checks; (metrics, runner,
    wrong outputs, phase seconds)."""
    solvable = [j for j in jobs if not j["problem"].expect_no_contraction]
    cli_job = min(solvable, key=lambda j: len(j["problem"].thetas))
    largest_n = max(len(j["problem"].thetas) for j in solvable)
    largest = [j for j in solvable if len(j["problem"].thetas) == largest_n]
    largest = largest[:MEMORY_PROBLEMS]
    phases = {}

    t0 = time.perf_counter()
    measured = measure_setup([j["file"] for j in jobs])
    t1 = time.perf_counter()
    measured.update(measure_memory(lib, largest))
    t2 = time.perf_counter()
    phases["setup probes"], phases["memory"] = t1 - t0, t2 - t1

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_library_spans(tracer, lib.interpolate, lib.verify)
    runner = Runner(lib, jobs, cli_job, workdir, tracer)
    rounds = []
    try:
        while True:
            r0 = time.perf_counter()
            rounds.append(runner.round(bool(args.trace)))
            last = time.perf_counter() - r0
            if time.perf_counter() - t2 + last > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json")
    t3 = time.perf_counter()
    phases[f"{len(rounds)} rounds"] = t3 - t2
    for key in rounds[0]:
        measured[key] = statistics.median(r[key] for r in rounds)

    found = run_checks(runner)
    phases["checks"] = time.perf_counter() - t3
    return measured, runner, found, phases


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"benchmark: cannot import diskinterp: {exc}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = prepare_jobs(lib, args.workload, args.seed, workdir)
    try:
        measured, runner, found, phases = measure(lib, args, jobs, workdir)
    except WrongOutput as exc:
        print(f"benchmark: wrong output: {exc}", file=sys.stderr)
        return 1

    for line in runner.log:
        print(f"  {line}", file=sys.stderr)
    print(
        f"benchmark: {args.workload} seed {args.seed}: "
        + ", ".join(f"{name} {sec:.1f} s" for name, sec in phases.items()),
        file=sys.stderr,
    )
    for msg in found:
        print(f"benchmark: wrong output: {msg}", file=sys.stderr)
    wanted = per_layer if args.trace else end_to_end
    result = {
        "correct": not found,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
