"""Test-session setup.

The engine's matrix products are small, yet they wake a second OpenBLAS
thread that spins on another core and buys no speed, so BLAS runs
single-threaded unless the caller says otherwise.  Records do not depend
on it.  This must run before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
