"""Names that other code looks up by string: the benchmark tracer's target
list and the package's ``__all__``.  A rename that misses one of them would
only show when that code runs."""

import importlib
import importlib.util
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


def test_package_all_resolves():
    missing = [name for name in khessian.__all__ if not hasattr(khessian, name)]
    assert not missing
    assert len(set(khessian.__all__)) == len(khessian.__all__)
