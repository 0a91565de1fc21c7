"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

``python3 perfbench/run.py --selftest`` runs the benchmark's own tests.

BLAS and OpenMP are pinned to one thread here, before numpy is imported, so
the benchmark process and the pool workers it forks all run single-threaded
kernels.  The program is imported from ``src/`` of the checkout this file
lives in; without it the benchmark exits with an error and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_VARIABLES
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    # The measured path is the plain one: no determinism guard, no chaos.
    for variable in ("REPRO_SANITIZE", "REPRO_CHAOS"):
        os.environ.pop(variable, None)
    if sys.argv[1:] == ["--selftest"]:
        import unittest
        suite = unittest.defaultTestLoader.loadTestsFromName("perfbench.selftest")
        result = unittest.TextTestRunner(verbosity=2).run(suite)
        sys.exit(0 if result.wasSuccessful() else 1)
    from perfbench import bench
    sys.exit(bench.main(sys.argv[1:]))
