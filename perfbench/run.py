"""dbrov benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload build|query|cli --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in.
BLAS threads are pinned to one, here and in every child process.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "query", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dbrov" / "__init__.py").is_file():
        print(f"no dbrov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy is first imported, so that its BLAS starts one thread
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.run(args, ROOT, HERE / "out")


if __name__ == "__main__":
    sys.exit(main())
