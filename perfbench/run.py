"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from the
checkout's ``src/``, never from an installed copy. Without those sources the
command exits with status 2 and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    src = ROOT / "src"
    if not (src / "ragvqa" / "__init__.py").is_file():
        print(f"perfbench: no ragvqa sources under {src}", file=sys.stderr)
        return 2
    # one process, one thread: pin BLAS before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    return workloads.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
