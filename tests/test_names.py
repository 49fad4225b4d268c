"""Names that other code looks up by string: the benchmark tracer's target
list, the positional slots its measurement hooks read, and the package's
``__all__``.  A rename or reordering that misses one of them would only
show when that code runs, or as a skewed per-layer metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import khessian

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_package_all_resolves():
    missing = [name for name in khessian.__all__ if not hasattr(khessian, name)]
    assert not missing
    assert len(set(khessian.__all__)) == len(khessian.__all__)
