"""Benchmark of the fus3d pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

``--workload`` is ``train``, ``reconstruct``, ``long_trajectory`` or
``all``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run and the tracing overhead. The command
exits 1 when an output check fails and 2 when the checkout holds no
``src/fus3d`` to measure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported: OpenBLAS reads the setting once,
    at load time, and otherwise starts as many threads as it was built
    for (64 here)."""
    count = len(os.sched_getaffinity(0))
    for name in THREAD_VARIABLES:
        os.environ[name] = str(count)
    return count


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "reconstruct", "long_trajectory", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    source = ROOT / "src"
    if not (source / "fus3d" / "__init__.py").is_file():
        print(f"error: no fus3d source tree under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness

    return harness.main(args, threads)


if __name__ == "__main__":
    sys.exit(main())
