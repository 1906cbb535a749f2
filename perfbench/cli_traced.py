"""Run ``diskinterp.cli.main`` with spans around its library calls.

Usage: python3 cli_traced.py SPANS.json CLI-ARG [...]   (diskinterp on PYTHONPATH)

Wraps ``iterative_interpolant`` and ``verify_interpolant`` where the cli
module looks them up, runs ``main`` with the remaining arguments, writes the
spans to SPANS.json and exits with main's exit code.
"""

import sys

from diskinterp import cli

from spans import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.wrap(cli, "iterative_interpolant", "interpolate.build")
    tracer.wrap(cli, "verify_interpolant", "verify.audit")
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    tracer.unwrap_all()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
