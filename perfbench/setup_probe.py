"""Cold start of a command-line user: import diskinterp, then load and
validate problem files through ``cli.ProblemSpec``.

Usage: python3 setup_probe.py PROBLEM.json [...]   (diskinterp on PYTHONPATH)

Prints one JSON line with the import and parse times measured inside the
fresh interpreter.
"""

import json
import sys
import time


def main(paths) -> int:
    t0 = time.perf_counter()
    from diskinterp.cli import ProblemSpec

    t1 = time.perf_counter()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            ProblemSpec.from_json_obj(json.load(fh))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
