"""Names that other code looks up by string: the benchmark tracer's target
list, the positional slots its measurement hooks read, the result slot its
``newton_step`` hook reads, the package's ``__all__``, and the README's
module list.  A rename or reordering that misses one of them would only
show when that code runs, as a skewed per-layer metric, or as a stale
README."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

import khessian

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("khessian_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, cls_name, fn_name, _ in tracer.TARGETS:
        module = importlib.import_module(f"khessian.{module_name}")
        if cls_name is None:
            assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
        else:
            # the tracer patches the method found in the class __dict__
            assert callable(vars(getattr(module, cls_name)).get(fn_name)), (cls_name, fn_name)


# (module, class or None, function, position, parameter): the hooks in
# perfbench/tracer.py read these arguments as args[position]
HOOK_SLOTS = [
    ("solver", None, "solve", 4, "options"),
    ("solver", None, "line_search", 9, "options"),
    ("symfunc", None, "sample_gamma_k", 2, "count"),
    ("symfunc", None, "elementary_all", 0, "values"),
    ("symfunc", None, "in_gamma_k", 0, "values"),
    ("geometry", "TorusGrid", "fft", 1, "field"),
    ("geometry", "TorusGrid", "ifft", 1, "hat"),
]


def test_tracer_hooks_read_the_slots_they_name():
    for module_name, cls_name, fn_name, position, name in HOOK_SLOTS:
        owner = importlib.import_module(f"khessian.{module_name}")
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        params = list(inspect.signature(getattr(owner, fn_name)).parameters)
        assert params[position] == name, (fn_name, position, params)


def test_newton_step_result_holds_the_gmres_count_at_slot_2(operator_applies):
    # the tracer's newton_step hook reads result[2] as solver.gmres_iters;
    # one operator application per iteration when the first cycle converges
    from khessian import solver
    from khessian.geometry import TorusGrid

    grid = TorusGrid(2, 8)
    phi = grid.zeros(extra=(2, 2), dtype=complex)
    phi[..., 0, 0] = phi[..., 1, 1] = 0.5
    residual = grid.trig_field([(1e-3, (1, 0, 0, 1), 0.3)])
    result = solver.newton_step(grid, phi, np.full(grid.shape, 0.5), residual, 1e-10)
    assert isinstance(result, tuple) and len(result) == 4
    assert type(result[2]) is int and result[2] == len(operator_applies) > 0


def test_package_all_resolves():
    missing = [name for name in khessian.__all__ if not hasattr(khessian, name)]
    assert not missing
    assert len(set(khessian.__all__)) == len(khessian.__all__)


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text()
    layout = re.search(r"^## Layout\n(.*?)(?=^## )", readme, re.S | re.M)
    assert layout is not None
    listed = re.findall(r"^- `src/khessian/(\w+\.py)`", layout.group(1), re.M)
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "src" / "khessian").glob("*.py"))
