import os
import sys

# One BLAS thread, set before numpy loads, as perfbench/run.py does: the
# GMRES-count budgets then do not depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
