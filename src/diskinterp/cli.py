"""Command-line front end and file formats.

Three subcommands:

* ``fatou``        peak-function boundary table from a peaks file
* ``interpolate``  full certified pipeline run, certificate JSON out
* ``verify``       re-run a certificate's problem and compare field by field

Problem files are JSON objects with the ProblemSpec field names, their
points objects with the ``POINT_KEYS``, and no other key; angles are
radians, complex values are split into re/im. ``grid_size`` sizes only the
``--grid-out`` table: the build and the audit use no grid. A certificate
carries a top-level ``format_version`` (``FORMAT_VERSION``), and ``verify``
refuses any other version before it re-runs anything. Each certificate
section is serialized from the dataclass that holds it: ``problem`` is
``ProblemSpec`` field for field, in the problem file's format;
``certificate`` is ``BoundsCertificate`` plus the stage lists; each
``report.checks`` entry is a ``CheckResult``, whose ``boundary_sup``
measurement is the proved upper bound on the circle. So a field added to
one of them reaches the file and ``verify``'s comparison with no edit
here. Floats keep shortest round-trip precision and keys a fixed order, so
identical inputs produce byte-identical files. Exit codes: 0 success, 2
parse error (also a file that cannot be read or written, a certificate
with a top-level key it does not write, and outputs that are the input
file or each other, by a link of either kind too, refused before anything
is written), 3 validation error, 4 certification/verification failure or a
failed audit check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .circle import BoundaryData, FiniteBoundarySet, modulus
from .errors import CertificationError, NoContractionError
from .fatou import FatouFunction, log_fatou_on_circle, require_safety_margin
from .interpolate import (
    Interpolant,
    eval_on_circle,
    iterative_interpolant,
    make_schedule,
    stage_epsilon,
)
from .verify import VerificationReport, _require_seed, verify_interpolant

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CERTIFICATION = 4

DEFAULT_N_MAX = 20
DEFAULT_GRID_SIZE = 1 << 16   # rows of --grid-out
MAX_GRID_SIZE = 1 << 20       # CSV rows at most: built in memory, ~100 bytes each
DEFAULT_SAFETY_MARGIN = 1e-9
DEFAULT_SEED = 0
FIELD_MATCH_TOL = 1e-12
# the certificate file's layout; files without it predate the proved
# boundary sup, whose report records differ
FORMAT_VERSION = 1
POINT_KEYS = ("theta", "value_re", "value_im")


class ParseFailure(Exception):
    """Malformed input file (bad JSON, wrong structure or types), or a file
    that cannot be read or written."""


class ValidationFailure(Exception):
    """Well-formed input violating a domain invariant."""


def _require_number(obj, key, where, default=None) -> float:
    val = obj.get(key, default)
    if val is None:
        raise ParseFailure(f"{where}: missing number field {key!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParseFailure(f"{where}: field {key!r} must be a number")
    return float(val)


def _require_int(obj, key, where, default=None) -> int:
    val = obj.get(key, default)
    if val is None:
        raise ParseFailure(f"{where}: missing integer field {key!r}")
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParseFailure(f"{where}: field {key!r} must be an integer")
    return int(val)


def _reject_unknown_keys(obj, known, where) -> None:
    """A misspelled key would otherwise leave its field at the default."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ParseFailure(f"{where}: unknown field {unknown[0]!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Validated interpolation problem: points, budget, and run parameters."""

    points: tuple[tuple[float, float, float], ...]  # in POINT_KEYS order
    eta: float
    n_max: int
    grid_size: int
    safety_margin: float
    seed: int

    @classmethod
    def from_json_obj(cls, obj) -> "ProblemSpec":
        if not isinstance(obj, dict):
            raise ParseFailure("problem must be a JSON object")
        _reject_unknown_keys(obj, [f.name for f in fields(cls)], "problem")
        raw_points = obj.get("points")
        if not isinstance(raw_points, list):
            raise ParseFailure("problem: 'points' must be a list")
        points = []
        for i, entry in enumerate(raw_points):
            if not isinstance(entry, dict):
                raise ParseFailure(f"problem: points[{i}] must be an object")
            _reject_unknown_keys(entry, POINT_KEYS, f"points[{i}]")
            points.append(
                tuple(_require_number(entry, k, f"points[{i}]") for k in POINT_KEYS)
            )
        spec = cls(
            points=tuple(points),
            eta=_require_number(obj, "eta", "problem"),
            n_max=_require_int(obj, "n_max", "problem", DEFAULT_N_MAX),
            grid_size=_require_int(obj, "grid_size", "problem", DEFAULT_GRID_SIZE),
            safety_margin=_require_number(
                obj, "safety_margin", "problem", DEFAULT_SAFETY_MARGIN
            ),
            seed=_require_int(obj, "seed", "problem", DEFAULT_SEED),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        """Raise ValidationFailure unless the library accepts the data, the
        schedule, the first stage's tolerance (``stage_epsilon``, which no
        later stage can fail), the margin and the seed, each by its own
        rule, before anything runs. The one rule of the command line's own
        is grid_size's: it sizes only ``--grid-out``."""
        try:
            data = self.boundary_data()
            stage_epsilon(make_schedule(self.eta, self.n_max)[0], data.sup_norm)
            require_safety_margin(self.safety_margin)
            _require_seed(self.seed)
        except ValueError as exc:
            raise ValidationFailure(f"problem: {exc}") from exc
        if not 1 <= self.grid_size <= MAX_GRID_SIZE:
            raise ValidationFailure(
                f"problem: grid_size must lie in [1, {MAX_GRID_SIZE}]"
            )

    def boundary_data(self) -> BoundaryData:
        pts = np.array(self.points, dtype=float).reshape(-1, len(POINT_KEYS))
        values = np.empty(len(pts), dtype=complex)
        values.real, values.imag = pts[:, 1], pts[:, 2]
        return BoundaryData.from_pairs(pts[:, 0], values)

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["points"] = [dict(zip(POINT_KEYS, p)) for p in self.points]
        return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}: invalid JSON: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}") from exc


def _file_identity(path: str):
    """(st_dev, st_ino) of an existing file, which its links of either kind
    share, else the ``os.path.realpath`` of a path not made yet."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _refuse_overwrite(source: str, outputs) -> None:
    """Raise ParseFailure when an output of ``outputs``, (option, path or
    None) pairs, is the same file (``_file_identity``) as the input
    ``source`` or an earlier output: writing it would destroy that file."""
    taken = {_file_identity(source): f"the input {source}"}
    for option, path in outputs:
        if path is None:
            continue
        key = _file_identity(path)
        if key in taken:
            raise ParseFailure(f"{option} {path} names the same file as {taken[key]}")
        taken[key] = f"{option} {path}"


def _fmt(x: float) -> str:
    return repr(float(x))


def boundary_grid(grid_size: int) -> np.ndarray:
    """The angles 2*pi*k/grid_size, k = 0..grid_size-1, of a uniform boundary
    grid: the rows of ``fatou`` and ``--grid-out``."""
    return 2.0 * math.pi * np.arange(grid_size) / grid_size


def _grid_csv(thetas: np.ndarray, values: np.ndarray) -> str:
    """The rows theta,re,im,abs of values at angles; abs is ``modulus``."""
    lines = ["theta,re,im,abs"]
    for t, v, m in zip(thetas, values, modulus(values)):
        lines.append(f"{_fmt(t)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(m)}")
    return "\n".join(lines) + "\n"


def _certificate_payload(
    spec: ProblemSpec, interpolant: Interpolant, report: VerificationReport
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "problem": spec.to_json_obj(),
        "certificate": {
            **asdict(interpolant.certificate),
            "n_stages": len(interpolant.stages),
            "stage_powers": [s.power for s in interpolant.stages],
            "stage_epsilons": [s.epsilon for s in interpolant.stages],
        },
        "report": {
            "overall": report.overall,
            "checks": [asdict(c) for c in report.checks],
        },
    }


def _parse_peaks_file(path: str) -> FiniteBoundarySet:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "thetas" not in obj:
        raise ParseFailure(f"{path}: expected an object with a 'thetas' list")
    _reject_unknown_keys(obj, ("thetas",), path)
    thetas = obj["thetas"]
    if not isinstance(thetas, list) or any(
        isinstance(t, bool) or not isinstance(t, (int, float)) for t in thetas
    ):
        raise ParseFailure(f"{path}: 'thetas' must be a list of numbers")
    try:
        return FiniteBoundarySet.from_thetas(thetas)
    except ValueError as exc:
        raise ValidationFailure(f"{path}: {exc}") from exc


def cmd_fatou(args) -> int:
    _refuse_overwrite(args.peaks_file, [("--out", args.out)])
    fatou = FatouFunction(_parse_peaks_file(args.peaks_file))
    if not 1 <= args.eval_grid <= MAX_GRID_SIZE:
        raise ValidationFailure(f"--eval-grid must lie in [1, {MAX_GRID_SIZE}]")
    thetas = boundary_grid(args.eval_grid)
    L, _ = log_fatou_on_circle(fatou, thetas)  # no floor: every angle is kept
    _write_text(args.out, _grid_csv(thetas, np.exp(L)))
    return EXIT_OK


def _run_pipeline(spec: ProblemSpec):
    data = spec.boundary_data()
    interpolant = iterative_interpolant(
        data, spec.eta, spec.n_max, spec.grid_size, spec.safety_margin
    )
    report = verify_interpolant(interpolant, data, seed=spec.seed)
    return interpolant, report


def cmd_interpolate(args) -> int:
    _refuse_overwrite(
        args.problem_file, [("--out", args.out), ("--grid-out", args.grid_out)]
    )
    spec = ProblemSpec.from_json_obj(_load_json(args.problem_file))
    try:
        interpolant, report = _run_pipeline(spec)
    except (CertificationError, NoContractionError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    payload = _certificate_payload(spec, interpolant, report)
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    status = _audit_status(report)  # failed checks print before the table
    if args.grid_out is not None:
        thetas = boundary_grid(spec.grid_size)
        values = eval_on_circle(interpolant, thetas)
        _write_text(args.grid_out, _grid_csv(thetas, values))
    return status


def _audit_status(report: VerificationReport) -> int:
    """EXIT_OK for a passed audit; else EXIT_CERTIFICATION, after one
    ``check failed:`` line per failed check on stderr."""
    for c in report.failed():
        print(
            f"check failed: {c.name} measured={c.measured!r} "
            f"threshold={c.threshold!r}",
            file=sys.stderr,
        )
    return EXIT_OK if report.overall else EXIT_CERTIFICATION


def _compare_value(path: str, stored, fresh) -> str | None:
    """None when equal (a float within FIELD_MATCH_TOL of a number, anything
    else of the same JSON type and equal), else the first differing path."""
    kinds = {type(stored), type(fresh)}
    if float in kinds and kinds <= {int, float}:
        return None if abs(stored - fresh) <= FIELD_MATCH_TOL else path
    if type(stored) is not type(fresh):
        return path
    if isinstance(fresh, dict) and stored.keys() == fresh.keys():
        children = [(f"{path}.{k}", stored[k], fresh[k]) for k in fresh]
    elif isinstance(fresh, list) and len(stored) == len(fresh):
        pairs = enumerate(zip(stored, fresh))
        children = [(f"{path}[{i}]", s, f) for i, (s, f) in pairs]
    else:
        return None if stored == fresh else path
    return next(filter(None, (_compare_value(*c) for c in children)), None)


def _verification_failure(message: str) -> int:
    print(f"verification failure: {message}", file=sys.stderr)
    return EXIT_CERTIFICATION


def cmd_verify(args) -> int:
    stored = _load_json(args.certificate_file)
    sections = {"problem", "certificate", "report"}
    if not isinstance(stored, dict) or not sections <= stored.keys():
        raise ParseFailure(
            f"{args.certificate_file}: not a certificate file "
            "(needs problem/certificate/report)"
        )
    version = stored.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        return _verification_failure(
            f"unsupported certificate version {version!r} "
            f"(this version reads {FORMAT_VERSION})"
        )
    _reject_unknown_keys(stored, {"format_version", *sections}, args.certificate_file)
    spec = ProblemSpec.from_json_obj(_load_json(args.problem_file))
    recorded = ProblemSpec.from_json_obj(stored["problem"])
    if recorded != spec:
        name = next(k for k, v in asdict(spec).items() if getattr(recorded, k) != v)
        return _verification_failure(
            f"problem field {name!r} differs between certificate and problem file"
        )
    try:
        interpolant, report = _run_pipeline(spec)
    except (CertificationError, NoContractionError) as exc:
        return _verification_failure(f"pipeline failed: {exc}")
    fresh = _certificate_payload(spec, interpolant, report)
    for section in ("certificate", "report"):
        bad = _compare_value(section, stored[section], fresh[section])
        if bad is not None:
            return _verification_failure(f"field {bad!r} does not reproduce")
    status = _audit_status(report)
    if status == EXIT_OK:
        print("certificate verified")
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskinterp",
        description=(
            "Boundary interpolation on finite circle sets with "
            "bound certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fatou = sub.add_parser(
        "fatou", help="tabulate a peak function on a boundary grid"
    )
    p_fatou.add_argument("peaks_file", help="JSON file {\"thetas\": [...]}")
    p_fatou.add_argument(
        "--eval-grid", type=int, default=1024, help="number of grid rows"
    )
    p_fatou.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_fatou.set_defaults(func=cmd_fatou)

    p_interp = sub.add_parser(
        "interpolate", help="run the certified interpolation pipeline"
    )
    p_interp.add_argument("problem_file", help="JSON problem file")
    p_interp.add_argument(
        "--out", default=None, help="certificate JSON (default stdout)"
    )
    p_interp.add_argument(
        "--grid-out", default=None, help="optional boundary evaluation CSV"
    )
    p_interp.set_defaults(func=cmd_interpolate)

    p_verify = sub.add_parser(
        "verify", help="re-run a certificate's problem and compare"
    )
    p_verify.add_argument("certificate_file", help="certificate JSON")
    p_verify.add_argument("problem_file", help="JSON problem file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
