import os
import sys

import pytest

# One BLAS thread, set before numpy loads, as perfbench/run.py does: the
# GMRES-count budgets then do not depend on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Wrap np.linalg.eigvalsh; the list it yields collects the number of
    matrices of each call."""
    import numpy as np

    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        rows.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


@pytest.fixture
def operator_applies(monkeypatch):
    """Count the applications of the solver's GMRES operator; the list it
    yields gains one entry per ``apply`` call."""
    from khessian import solver

    applies = []
    build = solver.right_preconditioned_operator

    def counted(*args):
        apply, recover = build(*args)

        def counted_apply(z):
            applies.append(1)
            return apply(z)

        return counted_apply, recover

    monkeypatch.setattr(solver, "right_preconditioned_operator", counted)
    return applies
