"""Pin BLAS and OpenMP pools to one thread before numpy loads.

Criterion 10 times the per-step cost at three sizes and bounds their
ratios; a multi-threaded BLAS scales its kernels unevenly with the size.
``threadpoolctl`` may be absent, so the pin is set in the environment,
which the BLAS libraries read once, when numpy first imports them.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

assert "numpy" not in sys.modules, "numpy was imported before the thread pin"
