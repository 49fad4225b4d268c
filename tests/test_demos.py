"""The demos README advertises run to completion and leave nothing behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_collected():
    assert [p.name for p in DEMOS] == [
        "commutation_refinement.py",
        "cone_sampling.py",
        "estimate_family.py",
        "solve_manufactured.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_leaves_nothing_behind(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    if demo.name == "cone_sampling.py":
        assert "vectorized check agrees: True" in proc.stdout
