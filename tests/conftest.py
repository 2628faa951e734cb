"""Tier-1 runs with one BLAS thread, as the benchmark does.

OpenBLAS, OpenMP and MKL read these variables when numpy first loads them,
so they are set here, before any test module imports numpy. A value already
in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
