"""End-to-end benchmark of the active-learning reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload through the public experiment engine and prints its
metrics; see ``perfbench/README.md``.  This module imports nothing, so
``run.py`` can read :data:`THREAD_VARIABLES` before numpy loads.
"""

#: Environment variables that pin BLAS/OpenMP pools to one thread.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
