"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import khessian  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import TARGETS, Tracer, function_stats, span_table  # noqa: E402
from workloads import build_mms, mms_terms, run_mms  # noqa: E402


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_shifted_phase_fails_mms_gate():
    inputs = build_mms(khessian, seed=1, N=8)
    assert run_mms(khessian, inputs).ok
    shifted = [(amp, freqs, phase + 0.5) for amp, freqs, phase in mms_terms(1)]
    wrong = dict(inputs, u_star=inputs["grid"].trig_field(shifted))
    result = run_mms(khessian, wrong)
    assert not result.ok
    assert result.info["recovery_error"] > 1e-3


def test_self_times_add_up_to_wrapped_totals():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = tracer.wrap("m.leaf", leaf)

    def middle():
        leaf_w()
        time.sleep(0.001)
        leaf_w()

    middle_w = tracer.wrap("m.middle", middle)
    for run in range(3):
        with tracer.root(run):
            middle_w()
            leaf_w()
    rows = span_table(tracer.spans)
    roots = sum(r["dur"] for r in rows if r["depth"] == 0)
    assert math.isclose(sum(r["self"] for r in rows), roots, rel_tol=1e-9)
    stats = function_stats(rows)
    assert stats["m.leaf"]["calls"] == 9 and stats["m.middle"]["calls"] == 3
    assert math.isclose(
        stats["m.middle"]["s"],
        stats["m.middle"]["self_s"] + sum(r["dur"] for r in rows
                                          if r["name"] == "m.leaf" and r["depth"] == 2),
        rel_tol=1e-9,
    )
    assert all(r["self"] >= 0 for r in rows)


def test_wrapping_reaches_every_namespace_and_is_undone():
    modules = [m for k, m in sys.modules.items() if k.startswith("khessian")]
    originals = {}
    for module_name, cls_name, fn_name, _ in TARGETS:
        owner = getattr(sys.modules[f"khessian.{module_name}"], cls_name or fn_name)
        originals[(module_name, cls_name, fn_name)] = (
            owner.__dict__[fn_name] if cls_name else owner)
    tracer = Tracer()
    tracer.install(khessian)
    try:
        for (module_name, cls_name, fn_name), original in originals.items():
            if cls_name:
                cls = getattr(sys.modules[f"khessian.{module_name}"], cls_name)
                assert cls.__dict__[fn_name] is not original
            else:
                assert not any(value is original for m in modules for value in vars(m).values())
    finally:
        tracer.uninstall()
    assert khessian.solver.relative_eigenvalues_only is khessian.operator.relative_eigenvalues_only
    assert "__wrapped__" not in vars(khessian.TorusGrid.__dict__["fft"])


def test_error_spans_are_counted():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("m.boom", boom)
    with tracer.root(0):
        with pytest.raises(ValueError):
            wrapped()
    assert function_stats(span_table(tracer.spans))["m.boom"]["errors"] == 1


def test_printed_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
    counts = []
    for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
        proc = _run("audit-cone", trace)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        if expected is not None:
            assert set(out["metrics"]) == {m["name"] for m in expected}
            for m in expected:
                assert out["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            counts.append({k: v["value"] for k, v in out["metrics"].items()
                           if v["unit"] == "count" and k != "traced_ops"})
    # counters repeat exactly between runs at a fixed seed
    assert counts[0] == counts[1]
    assert counts[0]["symfunc.elementary_all.rows"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("audit-cone", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
