"""CLI tests: config merging and rejection, overrides, command outputs,
exit codes, and the output directory resolution order."""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import khessian
from khessian import symfunc
from khessian.cli import AUDIT_NAMES, DEFAULTS, _run_audit, load_config, main
from khessian.errors import ConfigError
from khessian.fieldio import load_field
from khessian.solver import StageRecord


def run_cli(args, tmp_path, monkeypatch, env_out=None):
    monkeypatch.chdir(tmp_path)
    if env_out is None:
        monkeypatch.setenv("KHESSIAN_OUTDIR", str(tmp_path / "out"))
    else:
        monkeypatch.setenv("KHESSIAN_OUTDIR", str(env_out))
    return main(args)


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


# ------------------------------------------------------------ configuration

def test_defaults_validate():
    cfg = load_config(None, [], None)
    assert cfg["problem"]["N"] == DEFAULTS["problem"]["N"]


def test_unknown_key_rejected_with_path(tmp_path):
    path = write_cfg(tmp_path, {"problem": {"metrc": {"preset": "euclidean"}}})
    with pytest.raises(ConfigError, match=r"problem\.metrc"):
        load_config(path, [], None)


def test_unknown_key_suggestion(tmp_path):
    path = write_cfg(tmp_path, {"problem": {"metrc": {}}})
    with pytest.raises(ConfigError, match="did you mean 'metric'"):
        load_config(path, [], None)


def test_set_overrides_and_yaml_values():
    cfg = load_config(None, ["problem.N=24", "solver.newton_tol=1e-7"], None)
    assert cfg["problem"]["N"] == 24
    assert cfg["solver"]["newton_tol"] == 1e-7
    cfg = load_config(None, ["audit.family_amplitudes=[0.5, 1.0]"], None)
    assert cfg["audit"]["family_amplitudes"] == [0.5, 1.0]


def test_set_unknown_path_rejected():
    with pytest.raises(ConfigError, match="problem.M"):
        load_config(None, ["problem.M=12"], None)
    with pytest.raises(ConfigError, match="needs key=value"):
        load_config(None, ["problem.N"], None)


def test_value_validation():
    with pytest.raises(ConfigError, match=r"problem\.N"):
        load_config(None, ["problem.N=9"], None)
    with pytest.raises(ConfigError, match=r"problem\.k"):
        load_config(None, ["problem.k=5"], None)
    with pytest.raises(ConfigError, match=r"problem\.metric\.preset"):
        load_config(None, ["problem.metric.preset=warped"], None)
    with pytest.raises(ConfigError, match=r"source\.terms\[0\]\[1\]"):
        load_config(None, ["problem.source.terms=[[0.5, [1, 0, 0], 0.0]]"], None)


@pytest.mark.parametrize(
    "assignment, path",
    [
        ("audit.lemma22_cases=[[3, 8]]", "audit.lemma22_cases[0]"),
        ("audit.p_list=[a, b]", "audit.p_list[0]"),
        ("audit.pairs=[[3, x]]", "audit.pairs[0][1]"),
        ("audit.family_amplitudes=[a]", "audit.family_amplitudes[0]"),
        ("audit.family_amplitudes=0.5", "audit.family_amplitudes"),
        ("audit.p_list=[]", "audit.p_list"),
        ("audit.commutation.N_lo=twelve", "audit.commutation.N_lo"),
        ("solver.newton_tol=2", "solver.newton_tol"),
    ],
)
def test_value_validation_names_path(assignment, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}[: ]"):
        load_config(None, [assignment], None)


# keys whose values are now library constants, with their last defaults
REMOVED_KEYS = [
    ("solver.linear_rtol", 1e-10),
    ("solver.linear_maxiter", 800),
    ("solver.gmres_restart", 60),
    ("problem.metric.amplitude", 0.02),
    ("audit.lemma22_amplitude", 0.005),
    ("audit.commutation.presets", ["kahler", "torsion"]),
    ("audit.commutation.orders", [3, 4]),
    ("audit.commutation.epsilon", 0.15),
]


@pytest.mark.parametrize("given", ["set", "file"])
@pytest.mark.parametrize("key, value", REMOVED_KEYS, ids=[key for key, _ in REMOVED_KEYS])
def test_removed_keys_are_unknown(key, value, given, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KHESSIAN_OUTDIR", raising=False)
    if given == "set":
        argv = ["solve", "--set", f"{key}={json.dumps(value)}"]
    else:
        data = value
        for part in reversed(key.split(".")):
            data = {part: data}
        argv = ["solve", "--config", write_cfg(tmp_path, data)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown configuration key {key!r}")
    assert not (tmp_path / "khessian-out").exists()


def test_lemma22_case_without_refinement_is_a_config_error_naming_its_key():
    # N_lo == N_hi compares a grid with itself; the audit refuses it
    cfg = load_config(None, ["audit.lemma22_cases=[[3, 8, 8]]"], None)
    with pytest.raises(ConfigError, match=r"^audit\.lemma22_cases: .*N_lo < N_hi"):
        _run_audit(cfg, "lemma22")


def test_bad_value_is_exit_2_without_traceback(tmp_path, monkeypatch, capsys):
    rc = run_cli(
        ["audit", "lemma22", "--set", "audit.lemma22_cases=[[3, 8]]"], tmp_path, monkeypatch
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: audit.lemma22_cases[0]")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, assignment, path",
    [
        ("basic-inequality", "audit.pairs=[[3, 3]]", "audit.pairs"),
        ("lemma21", "audit.lemma21.n=2", "audit.lemma21"),
        pytest.param(
            "lemma22",
            ("problem.metric.preset=torsion", "problem.metric.epsilon=0.5"),
            "problem.metric.epsilon",
            id="lemma22-torsion-epsilon",
        ),
        ("lemma22", "audit.lemma22_cases=[[4, 8, 10]]", "audit.lemma22_cases"),
        ("lemma22", "audit.lemma22_cases=[[3, 8, 8]]", "audit.lemma22_cases"),
        pytest.param(
            "cherrier",
            ("problem.N=8", "audit.family_amplitudes=[1.0]", "audit.p_list=[0, 0]"),
            "audit.p_list",
            id="cherrier-p-list",
        ),
    ],
)
def test_audit_parameter_error_names_path_and_writes_nothing(
    name, assignment, path, tmp_path, monkeypatch, capsys
):
    # the audit itself rejects these values; the CLI adds the config path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KHESSIAN_OUTDIR", raising=False)
    sets = [assignment] if isinstance(assignment, str) else list(assignment)
    argv = ["audit", name, "--set", "audit.samples=100"]
    for item in sets:
        argv += ["--set", item]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "khessian-out").exists()


@pytest.mark.parametrize(
    "command, key",
    [("mms", "mms.terms"), ("solve", "problem.source.terms")],
)
def test_terms_of_the_wrong_length_name_the_term_and_write_nothing(
    command, key, tmp_path, monkeypatch, capsys
):
    # the grid rejects the term; the CLI adds the config path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KHESSIAN_OUTDIR", raising=False)
    argv = [command, "--set", "problem.N=8", "--set", f"{key}=[[0.02,[1,0,0,0,0,0],0.0]]"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: term 0: frequency vector must have length 4")
    assert "Traceback" not in err
    assert not (tmp_path / "khessian-out").exists()


def test_manufactured_potential_outside_the_cone_names_mms_terms(
    tmp_path, monkeypatch, capsys
):
    # the default terms leave Gamma_k on the kahler preset; manufactured_source
    # rejects them, and the CLI adds the config path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KHESSIAN_OUTDIR", raising=False)
    assert main(["mms", "--set", "problem.metric.preset=kahler"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mms.terms: ")
    assert "Traceback" not in err
    assert not (tmp_path / "khessian-out").exists()


def test_readme_defaults_match():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```yaml\n(.*?)^```", readme, re.S | re.M)
    assert block is not None
    assert yaml.safe_load(block.group(1)) == DEFAULTS


@pytest.mark.parametrize(
    "assignment, message",
    [
        (
            "problem.metrc.preset=x",
            "unknown configuration key 'problem.metrc' (did you mean 'metric'?)",
        ),
        ("problem=3", "problem: expected a mapping, got 3"),
        ("problem.N.x=3", "problem.N: expected an integer, got {'x': 3}"),
    ],
)
def test_bad_set_path_is_exit_2_and_writes_nothing(
    assignment, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KHESSIAN_OUTDIR", raising=False)
    assert main(["solve", "--set", assignment]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "khessian-out").exists()


def test_seed_flag_wins():
    cfg = load_config(None, ["seed=3"], 11)
    assert cfg["seed"] == 11


def test_missing_config_file_is_exit_2(tmp_path, monkeypatch):
    rc = run_cli(["solve", "--config", str(tmp_path / "nope.yaml")], tmp_path, monkeypatch)
    assert rc == 2


# ---------------------------------------------------------------- commands

def test_solve_writes_report_and_rows(tmp_path, monkeypatch):
    rc = run_cli(
        [
            "solve",
            "--set", "problem.N=8",
            "--set", "problem.source.terms=[[0.2, [1, 0, 0, 0], 0.0]]",
            "--set", "solver.continuation_steps=2",
            "--set", "save_fields=true",
        ],
        tmp_path,
        monkeypatch,
    )
    assert rc == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "solve"
    assert report["passed"] is True
    assert report["config"]["problem"]["N"] == 8  # effective config embedded
    assert abs(report["b"]) < 1.0
    with open(out / "rows.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [f.name for f in dataclasses.fields(StageRecord)]
    assert len(rows) == 3  # stages t = 0, 0.5, 1
    # the stages in report.json slice the residual history as SolveReport does
    history = report["residual_history"]
    assert [s["t"] for s in report["stages"]] == [float(r["t"]) for r in rows]
    for stage, row in zip(report["stages"], rows):
        residuals = history[stage["residual_start"]:stage["residual_stop"]]
        assert len(residuals) == stage["newton_iterations"] + 1
        assert residuals[-1] == stage["final_residual"]
        assert int(row["residual_stop"]) == stage["residual_stop"]
    u, header = load_field(out / "u.khf")
    assert header["kind"] == "potential"
    assert u.shape == (8, 8, 8, 8)
    assert u.max() <= 1e-12  # sup gauge


def test_mms_roundtrip(tmp_path, monkeypatch):
    rc = run_cli(
        [
            "mms",
            "--set", "problem.N=8",
            "--set", "mms.terms=[[0.02, [1, 0, 0, 0], 0.0]]",
            "--set", "mms.tol=1e-8",
            "--set", "save_fields=true",
        ],
        tmp_path,
        monkeypatch,
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report)[:4] == ["command", "passed", "recovery_error", "tol"]
    assert report["recovery_error"] <= 1e-8
    u, header = load_field(tmp_path / "out" / "u.khf")
    assert header["kind"] == "potential"
    u_star, header = load_field(tmp_path / "out" / "u_star.khf")
    assert header["kind"] == "reference"
    assert np.abs(u - (u_star - u_star.max())).max() <= 1e-8
    assert not (tmp_path / "out" / "f.khf").exists()
    with open(tmp_path / "out" / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["newton_iterations"]) for r in rows] == report["newton_iterations"]
    for row in rows:
        per_step = [int(c) for c in row["gmres_per_step"].split()]
        assert len(per_step) == int(row["newton_iterations"])
        assert sum(per_step) == int(row["gmres_iterations"])


def test_audit_command_outputs(tmp_path, monkeypatch):
    rc = run_cli(
        ["audit", "lemma21", "--set", "audit.samples=2000"],
        tmp_path,
        monkeypatch,
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["command"] == "audit lemma21"
    assert report["passed"] is True
    assert report["violations"] == 0
    rows = (tmp_path / "out" / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + len(report["rows"])


def test_audit_family_based(tmp_path, monkeypatch):
    rc = run_cli(
        [
            "audit", "b-bound",
            "--set", "problem.N=8",
            "--set", "audit.family_amplitudes=[0.5, 1.0]",
        ],
        tmp_path,
        monkeypatch,
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["rows"]) == 2
    assert report["constants"]["min_sharp_margin"] >= 0.0


def test_audit_failure_exits_1(tmp_path, monkeypatch):
    # zero refinement: residual decay cannot reach the threshold
    rc = run_cli(
        [
            "audit", "commutation",
            "--set", "audit.commutation.N_lo=8",
            "--set", "audit.commutation.N_hi=8",
        ],
        tmp_path,
        monkeypatch,
    )
    assert rc == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_sample_cone(tmp_path, monkeypatch):
    rc = run_cli(
        ["sample-cone", "--set", "audit.samples=50", "--set", "problem.n=3", "--seed", "7"],
        tmp_path,
        monkeypatch,
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["samples"] == 50
    assert report["min_sigma_k"] > 0.0
    rows = (tmp_path / "out" / "rows.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda_1,lambda_2,lambda_3,sigma_1,sigma_2"
    assert len(rows) == 51


def test_sampling_budget_error_is_exit_2_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(symfunc, "MAX_ATTEMPTS", 100)
    rc = run_cli(["sample-cone", "--set", "audit.samples=50"], tmp_path, monkeypatch)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rejection budget exhausted")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_output_dir_resolution(tmp_path, monkeypatch):
    # config value beats the environment variable
    rc = run_cli(
        [
            "sample-cone",
            "--set", "audit.samples=5",
            "--set", f"output_dir={tmp_path / 'cfgdir'}",
        ],
        tmp_path,
        monkeypatch,
        env_out=tmp_path / "envdir",
    )
    assert rc == 0
    assert (tmp_path / "cfgdir" / "report.json").exists()
    assert not (tmp_path / "envdir").exists()


def _assert_help_lists_commands(proc):
    assert proc.returncode == 0, proc.stderr
    usage = proc.stdout.split("\n\n", 1)[0]
    assert usage.startswith("usage: khessian")
    listed = re.search(r"\{([^}]*)\}", usage)
    assert listed is not None, usage
    commands = {name.strip() for name in listed.group(1).split(",")}
    assert commands >= {"solve", "mms", "audit", "sample-cone"}


def test_console_script_help():
    # An installed console script is checked as it stands.
    installed = shutil.which("khessian")
    if installed is not None:
        _assert_help_lists_commands(
            subprocess.run([installed, "--help"], capture_output=True, text=True)
        )

    # Without an install, run what the generated wrapper runs for the
    # [project.scripts] target, against the same khessian package as this test.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "khessian" in scripts
    module, attr = (part.strip() for part in scripts["khessian"].split(":"))
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'khessian'\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    package_root = str(Path(khessian.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    _assert_help_lists_commands(
        subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
    )


def test_python_dash_m_runs_the_cli():
    # python -m khessian runs the console script's main, from the source tree
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    _assert_help_lists_commands(
        subprocess.run(
            [sys.executable, "-m", "khessian", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
    )


def test_console_entry_pins_blas_to_one_thread_unless_set():
    # the console script imports the package, which pins BLAS before numpy
    # loads; a thread count the caller set is kept
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["MKL_NUM_THREADS"] = "3"
    package_root = str(Path(khessian.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    script = (
        "import os\n"
        "from khessian.cli import main\n"
        f"print(*(os.environ.get(name) for name in {names!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "3"]


def test_audit_names_frozen():
    assert set(AUDIT_NAMES) == {
        "lemma21",
        "basic-inequality",
        "lemma22",
        "commutation",
        "c0",
        "b-bound",
        "c2",
        "cherrier",
    }
