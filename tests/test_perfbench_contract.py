"""The benchmark harness must still drive the package.

``perfbench/`` calls into ``ragvqa`` by module attribute and unpacks its
return values, so a change of shape in the package (a renamed function, a
return value with one element fewer) breaks the benchmark run rather than
any package test. This module collects the harness's own untraced tiny run
of every workload, with its fixture, so that such a change fails here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from selftest import small_splits, test_tiny_run_passes_its_checks  # noqa: E402, F401
