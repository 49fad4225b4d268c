"""Solver tests: pinned residuals, the bordered Newton step, line search
guards, continuation solves, and mesh convergence against an analytic
source that no finite grid resolves exactly."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from math import comb, log
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from khessian import geometry
from khessian import solver as solver_module
from khessian.audits import audit_cherrier
from khessian.errors import ConeViolationError, DomainError, LinearSolveError, SolveFailure
from khessian.geometry import (
    TorusGrid,
    chern_tensors,
    gradient_norm_sq,
    inverse_metric,
    metric_preset,
)
from khessian.operator import as_tensor_first, pencil_table
from khessian.solver import (
    SolverOptions,
    StageRecord,
    hessian_pencil_extremes,
    line_search,
    manufactured_source,
    newton_step,
    right_preconditioned_operator,
    recovery_error,
    residual_field,
    solve,
)
from oracles import bordered_pair, random_hermitian_field, reference_inverse

# acceptance-style manufactured potential 0.05(cos 2pi x1 cos 2pi y1 + cos 2pi x2)
MMS_TERMS = [
    (0.025, (1, 1, 0, 0), 0.0),
    (0.025, (1, -1, 0, 0), 0.0),
    (0.05, (0, 0, 1, 0), 0.0),
]


def test_options_validation():
    with pytest.raises(DomainError):
        SolverOptions(continuation_steps=0).validated()
    with pytest.raises(DomainError):
        SolverOptions(newton_tol=0.0).validated()
    with pytest.raises(DomainError):
        SolverOptions(max_newton=0).validated()
    with pytest.raises(DomainError):
        SolverOptions(linesearch_min_step=2.0).validated()
    for bad in (
        {"continuation_steps": 2.5},
        {"max_newton": 2.5},
        {"continuation_steps": True},
    ):
        with pytest.raises(DomainError, match=f"^{next(iter(bad))} "):
            SolverOptions(**bad).validated()
    assert SolverOptions(continuation_steps=np.int64(4)).validated().continuation_steps == 4


def test_residual_pinned_flat():
    # u = 0, b = 0, f = 0: residual is sigma_k(1,...,1)^{1/k} - 1
    for n, k, expect in ((2, 1, 2.0 - 1.0), (3, 2, np.sqrt(3.0) - 1.0)):
        grid = TorusGrid(n, 8)
        g = metric_preset(grid, "euclidean")
        r = residual_field(grid, grid.zeros(), 0.0, grid.zeros(), g, k)
        assert np.abs(r - expect).max() < 1e-13
        # and exactly zero for the identity source
        f_id = grid.zeros() + log(comb(n, k))
        r0 = residual_field(grid, grid.zeros(), 0.0, f_id, g, k)
        assert np.abs(r0).max() < 1e-14


def test_residual_cone_violation():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    u = grid.trig_field([(0.5, (1, 0, 0, 0), 0.0)])  # hessian swings past -1
    with pytest.raises(ConeViolationError):
        residual_field(grid, u, 0.0, grid.zeros(), g, 2)


def test_manufactured_source_identity():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    f = manufactured_source(grid, g, grid.zeros(), 2)
    assert np.abs(f - log(comb(2, 2))).max() < 1e-14


def test_newton_step_single_mode():
    # constant-coefficient linearization at the flat state: one source mode
    # must return a correction on exactly that mode, and the preconditioner
    # is exact there so GMRES needs only a few iterations
    grid = TorusGrid(2, 8)
    eps = 1e-3
    x1 = grid.x(0) + grid.zeros()
    residual = 1.0 - np.exp(0.5 * eps * np.cos(2 * np.pi * x1))
    phi = grid.zeros(extra=(2, 2), dtype=complex)
    phi[..., 0, 0] = 0.5
    phi[..., 1, 1] = 0.5
    scale = np.full(grid.shape, 0.5)
    du, db, iters, _ = newton_step(grid, phi, scale, residual, 1e-10)
    assert abs(du.mean()) < 1e-14
    assert abs(db) < 1e-5
    assert iters <= 8
    hat = np.abs(grid.fft(du)) ** 2
    total = hat.sum()
    kept = hat[1, 0, 0, 0] + hat[-1, 0, 0, 0]
    assert kept / total > 0.999


def _linearization(case):
    """(grid, phi, source_scale, residual) of a Newton step: at the
    manufactured potential's own pencil on the torsion preset (n=2 and n=3),
    or a non-diagonal, non-Kahler random Hermitian phi."""
    rng = np.random.default_rng(3)
    if case == "random":
        grid = TorusGrid(2, 8)
        phi = random_hermitian_field(grid, rng)
        scale = np.exp(grid.trig_field([(0.3, (0, 1, 1, 0), 0.2)])) / 2
        residual = grid.trig_field([(0.1, (1, 0, 0, 1), 0.4), (0.05, (0, 2, 0, 0), 1.0)])
        return grid, phi, scale, residual
    n, N, k = {"torsion-2": (2, 12, 2), "torsion-3": (3, 8, 2)}[case]
    grid = TorusGrid(n, N)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    terms = [(a, tuple(m) + (0,) * (2 * n - 4), ph) for a, m, ph in MMS_TERMS]
    u = grid.trig_field(terms)
    ginv = inverse_metric(g)
    table = pencil_table(ginv, as_tensor_first(g) + grid.complex_hessian(u), k)
    f = 1.05 * np.log(table.sigma[k])  # the iterate u is off the solution
    scale = np.exp(f / k) / k
    residual = table.root() - np.exp(f / k)
    return grid, table.gradient(ginv), scale, residual


@pytest.mark.parametrize("case", ["torsion-2", "torsion-3", "random"])
def test_fused_operator_matches_left_preconditioned_pair(case):
    # oracle: the solver's one-pass A P^{-1} against matvec(precond(z))
    grid, phi, scale, residual = _linearization(case)
    apply, recover = right_preconditioned_operator(grid, phi, scale)
    matvec, precond, model = bordered_pair(grid, phi, scale)
    m = residual.size
    rng = np.random.default_rng(11)
    for _ in range(3):
        z = rng.normal(size=m + 1)
        # precond inverts the pointwise model exactly
        assert np.linalg.norm(model(precond(z)) - z) <= 1e-12 * np.linalg.norm(z)
        ref = matvec(precond(z))
        assert np.linalg.norm(apply(z) - ref) <= 1e-12 * np.linalg.norm(ref)
        du, db, _ = recover(z)
        v = precond(z)
        assert abs(db - v[m]) <= 1e-14 * abs(v[m])
        assert np.abs(du - (v[:m] - v[:m].mean()).reshape(grid.shape)).max() <= 1e-14
    # the recovered step meets the forcing term on the true residual
    rhs = np.concatenate([-residual.ravel(), [0.0]])
    for eta in (0.1, 1e-6):
        du, db, iters, _ = newton_step(grid, phi, scale, residual, eta)
        assert iters >= 1
        true_res = matvec(np.concatenate([du.ravel(), [db]])) - rhs
        assert np.linalg.norm(true_res) <= eta * np.linalg.norm(rhs)


@pytest.mark.parametrize("case", ["random", "torsion-3"])
def test_fused_operator_takes_n2_minus_1_inverse_transforms(case, monkeypatch):
    # the diagonal Hessian fields sum to the Laplace right-hand side, so the
    # last one costs no inverse transform
    import scipy.fft

    grid, phi, scale, residual = _linearization(case)
    apply, _ = right_preconditioned_operator(grid, phi, scale)
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    apply(np.random.default_rng(5).normal(size=residual.size + 1))
    assert calls == {"rfftn": 1, "irfftn": grid.n**2 - 1}


@pytest.mark.parametrize("case", ["torsion-2", "torsion-3"])
def test_newton_step_hessian_is_complex_hessian_of_du(case):
    # the recovered ddbar du is the one-axis Hessian of the recovered du
    grid, phi, scale, residual = _linearization(case)
    du, _, _, hess_du = newton_step(grid, phi, scale, residual, 1e-6)
    np.testing.assert_array_equal(hess_du, grid.complex_hessian(du))


def _scipy_gmres(apply, rhs, rtol, restart):
    """(x, iterations) of scipy's GMRES(restart) from x = 0, the oracle for
    the solver's own ``_gmres``."""
    size = rhs.size
    op = scipy.sparse.linalg.LinearOperator((size, size), matvec=apply, dtype=float)
    iters = []
    x, info = scipy.sparse.linalg.gmres(op, rhs, rtol=rtol, atol=0.0, restart=restart,
                                        maxiter=100, callback=iters.append,
                                        callback_type="pr_norm")
    assert info == 0
    return x, len(iters)


@pytest.mark.parametrize("restart", [60, 3])
@pytest.mark.parametrize("case", ["torsion-2", "torsion-3", "random"])
def test_gmres_matches_scipy_and_meets_its_tolerance(case, restart, monkeypatch):
    # restart 3 makes every case but the loosest cross cycles
    monkeypatch.setattr(solver_module, "GMRES_RESTART", restart)
    grid, phi, scale, residual = _linearization(case)
    apply, _ = right_preconditioned_operator(grid, phi, scale)
    rhs = np.concatenate([-residual.ravel(), [0.0]])
    for rtol in (1e-1, 1e-6, 1e-10):
        x, iters = solver_module._gmres(apply, rhs, rtol)
        ref, ref_iters = _scipy_gmres(apply, rhs, rtol, restart)
        assert iters == ref_iters
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        # stopped on the Arnoldi estimate, with no true-residual re-check
        assert np.linalg.norm(rhs - apply(x)) <= 1.01 * rtol * np.linalg.norm(rhs)


def test_gmres_raises_when_its_cycles_run_out(monkeypatch):
    grid, phi, scale, residual = _linearization("random")
    apply, _ = right_preconditioned_operator(grid, phi, scale)
    rhs = np.concatenate([-residual.ravel(), [0.0]])
    monkeypatch.setattr(solver_module, "GMRES_RESTART", 3)
    assert solver_module._gmres(apply, rhs, 1e-6)[1] > 3  # needs a second cycle
    monkeypatch.setattr(solver_module, "GMRES_CYCLES", 1)
    with pytest.raises(LinearSolveError, match="1 cycles of 3 iterations"):
        solver_module._gmres(apply, rhs, 1e-6)


@pytest.mark.parametrize("where", ["phi", "source_scale", "residual", "cbar", "trace"])
def test_newton_step_rejects_a_bad_linearization_before_gmres(where, monkeypatch):
    # a NaN passes a `tr phi <= 0` test and would drive GMRES through its
    # whole iteration budget, and the preconditioner divides by tr phi at
    # every node; either must fail before the first iteration
    def no_gmres(*args, **kwargs):
        raise AssertionError("GMRES ran on a bad linearization")

    monkeypatch.setattr(solver_module, "_gmres", no_gmres)
    grid, phi, scale, residual = _linearization("random")
    phi, scale, residual = phi.copy(), scale.copy(), residual.copy()
    node = (3,) * (2 * grid.n)
    if where == "phi":
        phi[node + (0, 1)] = np.nan
    elif where == "source_scale":
        scale[node] = np.inf
    elif where == "residual":
        residual[node] = np.nan
    elif where == "cbar":
        phi = -phi  # mean tr phi < 0: no elliptic model to precondition with
    else:
        # tr phi = -1 at one node only, so its mean stays positive
        phi[node + (0, 0)] = -1.0 - phi[node + (1, 1)]
        assert np.einsum("...ii->...", phi).real.mean() > 0
    with pytest.raises(LinearSolveError):
        newton_step(grid, phi, scale, residual, 0.1)


def test_import_loads_no_scipy_until_a_solve():
    # scipy.fft loads scipy.special, and only a solve needs it, so audits
    # must not load it; GMRES is the solver's own, so scipy.sparse never loads
    script = (
        "import sys, khessian\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
        "assert khessian.audit_lemma21(4, 3, samples=200, seed=1).passed\n"
        "grid = khessian.TorusGrid(2, 8)\n"
        "g = khessian.metric_preset(grid, 'torsion', epsilon=0.1)\n"
        "khessian.chern_tensors(grid, g)\n"
        "u = grid.trig_field([(0.05, (1, 0, 0, 0), 0.0)])\n"
        "f = khessian.manufactured_source(grid, g, u, 2)\n"
        "assert 'scipy.fft' not in sys.modules, 'scipy.fft loaded before a solve'\n"
        "assert khessian.solve(grid, g, f, 2).success\n"
        "assert not [m for m in sys.modules if m.startswith('scipy.sparse')], 'scipy.sparse'\n"
        "assert 'scipy.fft' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_line_search_backtracks_on_cone_exit():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    du = grid.trig_field([(0.15, (1, 0, 0, 0), 0.0)])
    hess = grid.complex_hessian(du)
    # full step pushes w_11 to 1 - 0.15 pi^2 < 0; half step stays inside
    s, w_new, r_new, table = line_search(
        grid, reference_inverse(g), g.copy(), hess, 0.0, 0.0, grid.zeros(), 2, 1e9,
        SolverOptions(),
    )
    assert s == 0.5
    assert table.inside
    assert w_new[..., 0, 0].real.min() > 0.0
    assert np.isfinite(r_new).all()


def test_line_search_exhaustion_raises():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    du = grid.trig_field([(0.15, (1, 0, 0, 0), 0.0)])
    hess = grid.complex_hessian(du)
    opts = SolverOptions(linesearch_min_step=0.6)  # only s = 1 is tried
    with pytest.raises(SolveFailure):
        line_search(
            grid, reference_inverse(g), g.copy(), hess, 0.0, 0.0, grid.zeros(), 2, 1e9, opts
        )


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2)])
def test_solve_identity_source(n, k):
    grid = TorusGrid(n, 8)
    g = metric_preset(grid, "euclidean")
    f = grid.zeros() + log(comb(n, k))
    rep = solve(grid, g, f, k, options=SolverOptions(continuation_steps=2))
    assert rep.success
    assert rep.sup_abs_u <= 1e-10
    assert abs(rep.b) <= 1e-10


def test_solve_constant_source_offset():
    # f = const c decouples: u = 0 and b = log C(n,k) - c exactly
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    rep = solve(grid, g, grid.zeros() + 0.3, 1)
    assert rep.success
    assert rep.sup_abs_u <= 1e-10
    assert abs(rep.b - (log(comb(2, 1)) - 0.3)) <= 1e-10


def test_solve_mms_recovery_and_gauge():
    grid = TorusGrid(2, 12)
    g = metric_preset(grid, "euclidean")
    ustar = grid.trig_field(MMS_TERMS)
    f = manufactured_source(grid, g, ustar, 2)
    rep = solve(grid, g, f, 2)
    assert rep.success
    assert recovery_error(rep, ustar) <= 1e-8
    assert abs(rep.b) <= 1e-9
    assert rep.u.max() == pytest.approx(0.0, abs=1e-15)  # sup u = 0 gauge
    # shifting the source by a constant shifts b and leaves u unchanged
    rep2 = solve(grid, g, f + 0.7, 2)
    assert rep2.success
    assert np.abs(rep2.u - rep.u).max() <= 1e-8
    assert abs(rep2.b - (rep.b - 0.7)) <= 1e-8


def test_solve_torsion_metric_mms():
    grid = TorusGrid(2, 12)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    ustar = grid.trig_field(MMS_TERMS)
    f = manufactured_source(grid, g, ustar, 2)
    rep = solve(grid, g, f, 2)
    assert rep.success
    assert recovery_error(rep, ustar) <= 1e-8
    assert abs(rep.b) <= 1e-9
    assert rep.eig_min > 0.0


def test_solve_is_deterministic():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    ustar = grid.trig_field([(0.03, (1, 0, 0, 0), 0.0)])
    f = manufactured_source(grid, g, ustar, 2)
    rep1 = solve(grid, g, f, 2)
    rep2 = solve(grid, g, f, 2)
    assert rep1.success and rep2.success
    assert np.array_equal(rep1.u, rep2.u)
    assert rep1.b == rep2.b


def test_solve_newton_count_moderate_amplitude():
    # a single continuation stage converges in a handful of Newton steps
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    ustar = grid.trig_field([(0.02, (1, 0, 0, 0), 0.0)])
    f = manufactured_source(grid, g, ustar, 2)
    rep = solve(grid, g, f, 2, options=SolverOptions(continuation_steps=1))
    assert rep.success
    assert rep.stages[-1].newton_iterations <= 6
    for stage in rep.stages:
        assert stage.final_residual <= SolverOptions().newton_tol


def test_solve_records_path():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    ustar = grid.trig_field([(0.03, (1, 0, 0, 0), 0.0)])
    f = manufactured_source(grid, g, ustar, 2)
    rep = solve(grid, g, f, 2, record_path=True)
    assert rep.success
    assert rep.path
    ts = [p["t"] for p in rep.path]
    assert ts == sorted(ts)
    assert ts[-1] == 1.0
    last = rep.path[-1]
    # same field up to the final sup-gauge shift
    assert np.abs((rep.u - rep.u.mean()) - (last["u"] - last["u"].mean())).max() < 1e-12
    assert last["b"] == rep.b


def test_solve_failure_is_reported_not_raised():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    ustar = grid.trig_field(MMS_TERMS)
    f = manufactured_source(grid, g, ustar, 2)
    opts = SolverOptions(continuation_steps=1, max_newton=2)
    rep = solve(grid, g, f, 2, options=opts)
    assert not rep.success
    assert rep.t_reached < 1.0
    assert rep.message
    assert np.isfinite(rep.u).all()


def _torsion_mms(N):
    grid = TorusGrid(2, N)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    ustar = grid.trig_field(MMS_TERMS)
    return grid, g, ustar, manufactured_source(grid, g, ustar, 2)


@pytest.mark.parametrize("steps", [8, 10])
def test_fixed_cap_reproduces_the_uniform_schedule(steps):
    # 10 steps of 0.1 summed in floats would end at 0.9999999999999999
    grid, g, ustar, f = _torsion_mms(8)
    rep = solve(grid, g, f, 2, options=SolverOptions(continuation_steps=steps))
    assert rep.success
    assert not rep.rejected
    assert [s.t for s in rep.stages] == [j / steps for j in range(steps + 1)]
    for stage in rep.stages:
        assert stage.final_residual <= SolverOptions().newton_tol
        assert len(stage.forcing_terms) == stage.newton_iterations
        assert len(stage.gmres_per_step) == stage.newton_iterations
        assert sum(stage.gmres_per_step) == stage.gmres_iterations


def _stalled_torsion_solve(opts):
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    f = grid.trig_field([(2.0, (1, 0, 0, 0), 0.0), (1.0, (0, 0, 1, 1), 0.7)])
    return solve(grid, g, f, 2, options=opts, record_path=True)


def test_failed_full_step_recovers_by_halving():
    # with six Newton steps per stage the full step t: 0 -> 1 stalls; the
    # controller must record that attempt, halve, and still reach t = 1
    opts = SolverOptions(max_newton=6)
    rep = _stalled_torsion_solve(opts)
    assert rep.success
    assert rep.t_reached == 1.0
    first = rep.rejected[0]
    assert (first.t, first.step, first.error) == (1.0, 1.0, "SolveFailure")
    assert "Newton did not reach" in first.message
    ts = [s.t for s in rep.stages]
    assert ts[0] == 0.0 and ts[-1] == 1.0 and len(ts) > 2
    assert ts == sorted(ts)
    assert [p["t"] for p in rep.path] == sorted(p["t"] for p in rep.path)  # accepted only
    for stage in rep.stages:
        assert stage.final_residual <= opts.newton_tol
        assert stage.newton_iterations <= 6
    assert rep.summary_dict()["rejected"][0]["error"] == "SolveFailure"


def test_residual_history_slices_partition_by_attempt():
    rep = _stalled_torsion_solve(SolverOptions(max_newton=6))
    assert rep.rejected
    spans = sorted(
        [(s.residual_start, s.residual_stop, s) for s in rep.stages]
        + [(r.residual_start, r.residual_stop, r) for r in rep.rejected],
        key=lambda item: item[0],
    )
    assert spans[0][0] == 0 and spans[-1][1] == len(rep.residual_history)
    for (_, stop, _), (start, _, _) in zip(spans, spans[1:]):
        assert stop == start
    for start, stop, attempt in spans:
        assert stop > start
        if isinstance(attempt, StageRecord):
            assert stop - start == attempt.newton_iterations + 1
            assert rep.residual_history[stop - 1] == attempt.final_residual
        elif "Newton did not reach" in attempt.message:
            assert stop - start == 6 + 1  # a stall runs its whole budget
        else:
            assert stop - start <= 6 + 1
    first = rep.summary_dict()["rejected"][0]
    assert (first["residual_start"], first["residual_stop"]) == (
        rep.rejected[0].residual_start, rep.rejected[0].residual_stop)


def test_adaptive_solve_matches_uniform_schedule_and_budget():
    # oracle: one full step and eight fixed steps solve the same problem;
    # the counter budget catches a return to oversolving (the fixed 8-stage
    # schedule with GMRES at rtol 1e-10 took 32 Newton steps and ~620
    # GMRES iterations here; left-preconditioned GMRES, which minimized
    # the preconditioned residual, took 9 Newton steps and 71 iterations)
    # or to the constant-coefficient preconditioner mean(tr phi) Laplacian
    # (9 Newton steps and 46 GMRES iterations; the pointwise tr phi
    # Laplacian takes 7 and 30)
    grid, g, ustar, f = _torsion_mms(12)
    fast = solve(grid, g, f, 2)
    fixed = solve(grid, g, f, 2, options=SolverOptions(continuation_steps=8))
    assert fast.success and fixed.success
    assert np.abs(fast.u - fixed.u).max() <= 1e-10
    assert abs(fast.b - fixed.b) <= 1e-10
    assert recovery_error(fast, ustar) <= 1e-8
    assert [s.t for s in fast.stages] == [0.0, 1.0]
    assert sum(s.newton_iterations for s in fast.stages) <= 8
    assert sum(s.gmres_iterations for s in fast.stages) <= 36
    for rep in (fast, fixed):
        for stage in rep.stages:
            assert stage.final_residual <= SolverOptions().newton_tol
            eta = stage.forcing_terms
            assert all(solver_module.LINEAR_RTOL <= e <= 0.5 for e in eta)


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _hard_torsion_solve(N):
    # a Newton iteration at t = 1 creeps at a contraction near 0.97 per step
    grid = TorusGrid(2, N)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    f = grid.trig_field([(4.0, (1, 0, 0, 0), 0.0), (2.0, (0, 0, 1, 1), 0.7)])
    return solve(grid, g, f, 2)


def test_a_stalled_stage_is_rejected_before_its_budget():
    rep = _hard_torsion_solve(8)
    assert rep.success
    stalls = [r for r in rep.rejected if "stalled" in r.message]
    assert stalls
    budget = SolverOptions().max_newton + 1
    for attempt in stalls:
        assert attempt.error == "SolveFailure"
        assert attempt.residual_stop - attempt.residual_start < budget


def _bench_mms(seed, N=12):
    """(grid, g, f) of the benchmark's mms-torsion input at this seed."""
    spec = importlib.util.spec_from_file_location("khessian_bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    inputs = workloads.build_mms(sys.modules["khessian"], seed, N=N)
    return inputs["grid"], inputs["g"], inputs["f"]


def _manufactured_inputs():
    """(grid, g, f) of criterion 1 and of the benchmark's mms-torsion seeds 1-3."""
    for preset in ("euclidean", "torsion"):
        grid = TorusGrid(2, 16)
        g = metric_preset(grid, preset, epsilon=0.1)
        yield grid, g, manufactured_source(grid, g, grid.trig_field(MMS_TERMS), 2)
    for seed in (1, 2, 3):
        yield _bench_mms(seed)


def test_manufactured_solves_never_stall():
    # the stall test must not cut a stage that Newton would finish
    for grid, g, f in _manufactured_inputs():
        rep = solve(grid, g, f, 2)
        assert rep.success
        assert not rep.rejected, [r.message for r in rep.rejected]


def test_gmres_applies_the_operator_once_per_iteration(operator_applies):
    # the stop needs no b - A x: a cycle that converges forms none
    rep = solve(*_bench_mms(1), 2)
    assert rep.success
    iterations = sum(sum(s.gmres_per_step) for s in rep.stages)
    assert len(operator_applies) == iterations == 28


def test_solve_peak_stays_below_70_grid_fields():
    # the GMRES basis grows with its iterations, and the Newton loop drops
    # the pencil table, Phi and the previous correction once it is done
    # with them; a preallocated GMRES(60) basis alone is 61 fields
    grid, g, f = _bench_mms(1, N=16)
    solve(grid, g, f, 2)  # warm-up: first-call caches are not working set
    tracemalloc.start()
    try:
        assert solve(grid, g, f, 2).success
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / f.nbytes <= 70.0


def test_solve_checks_the_metric_once(monkeypatch):
    # the report's Hessian extremes and gradient norm reuse the checked
    # (g, g^{-1}) of the solve
    grid, g, _, f = _torsion_mms(8)
    calls = []
    check = geometry.require_metric

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(geometry, "require_metric", counted)
    monkeypatch.setattr(solver_module, "require_metric", counted)
    assert solve(grid, g, f, 2).success
    assert len(calls) == 1


def test_solve_input_validation():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    with pytest.raises(DomainError):
        solve(grid, g, grid.zeros(), 3)
    with pytest.raises(DomainError):
        solve(grid, g, np.zeros((4, 4, 4, 4)), 2)


@pytest.mark.parametrize("bad", ["f_list", "g_list", "f_complex", "k_float"])
def test_boundary_inputs(bad):
    # lists raised AttributeError, a complex f failed deep in the solve
    # after a ComplexWarning, and k=2.0 raised TypeError
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    f = grid.zeros()
    k = 2
    if bad == "f_list":
        f = f.tolist()
    elif bad == "g_list":
        g = g.tolist()
    elif bad == "f_complex":
        f = f + 0.1j
    else:
        k = 2.0
    if bad in ("f_list", "g_list"):  # accepted as arrays
        assert solve(grid, g, f, k).success
        assert np.abs(residual_field(grid, grid.zeros(), 0.0, f, g, k)).max() < 1e-14
        assert np.abs(manufactured_source(grid, g, grid.zeros().tolist(), k)).max() < 1e-14
        return
    with pytest.raises(DomainError):
        solve(grid, g, f, k)
    with pytest.raises(DomainError):
        residual_field(grid, grid.zeros(), 0.0, f, g, k)
    if bad == "k_float":
        with pytest.raises(DomainError, match="integer"):
            manufactured_source(grid, g, grid.zeros(), k)


def test_solve_rejects_nan_source():
    # without the check this ran 840 GMRES iterations and reported
    # "GMRES stopped"
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    f = grid.zeros()
    f[1, 2, 3, 4] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        solve(grid, g, f, 2)


def test_solve_rejects_non_hermitian_metric():
    # without the check this "converged"
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    g[..., 0, 1] = 0.1
    with pytest.raises(DomainError, match="not Hermitian"):
        solve(grid, g, grid.zeros(), 2)


def test_solve_rejects_indefinite_metric():
    # without the check this raised numpy's LinAlgError
    grid = TorusGrid(2, 8)
    g = -metric_preset(grid, "euclidean")
    with pytest.raises(DomainError, match="positive definite"):
        solve(grid, g, grid.zeros(), 2)
    with pytest.raises(DomainError, match="positive definite"):
        manufactured_source(grid, g, grid.zeros(), 2)


@pytest.mark.parametrize("bad", ["indefinite", "singular-node", "nan-node"])
def test_bad_metric_raises_positive_definite_on_every_route(bad, monkeypatch):
    # inverse_metric, chern_tensors and gradient_norm_sq used to invert an
    # indefinite g without a word
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    node = (3,) * (2 * grid.n)
    if bad == "indefinite":
        g[..., 1, 1] *= -1.0
    elif bad == "singular-node":
        g[node] = [[1.0, 1j], [-1j, 1.0]]
    else:
        g[node] = np.nan
    u = grid.trig_field(MMS_TERMS)
    routes = {
        "solve": lambda: solve(grid, g, grid.zeros(), 2),
        "manufactured_source": lambda: manufactured_source(grid, g, u, 2),
        "inverse_metric": lambda: inverse_metric(g),
        "gradient_norm_sq": lambda: gradient_norm_sq(grid, u, g),
        "chern_tensors": lambda: chern_tensors(grid, g),
    }
    for name, route in routes.items():
        with pytest.raises(DomainError, match="positive definite"):
            route()
            pytest.fail(f"{name} accepted the metric")
    # the kahler preset is id + ddbar(phi); make that sum the bad metric
    identity = metric_preset(grid, "euclidean")
    monkeypatch.setattr(grid, "complex_hessian", lambda phi: g - identity)
    with pytest.raises(DomainError, match="kahler preset must be positive definite"):
        metric_preset(grid, "kahler")


# each bad metric, with the error of the check that must catch it
BAD_METRICS = {
    "non-hermitian": "not Hermitian",
    "indefinite": "positive definite",
    "nan": "positive definite",
    "wrong-shape": "metric shape",
}


@pytest.mark.parametrize("bad", list(BAD_METRICS))
@pytest.mark.parametrize(
    "route",
    [
        "solve",
        "residual_field",
        "manufactured_source",
        "chern_tensors",
        "gradient_norm_sq",
        "hessian_pencil_extremes",
        "integrate",
        "audit_cherrier",
    ],
)
def test_every_function_that_takes_a_metric_rejects_a_bad_one(route, bad):
    # gradient_norm_sq, hessian_pencil_extremes and integrate read only the
    # lower triangle (Cholesky) or the determinant, and returned values for
    # a non-Hermitian g; integrate gave a negative volume for an indefinite g
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    if bad == "non-hermitian":
        g[..., 0, 1] = 0.3
    elif bad == "indefinite":
        g[..., 1, 1] *= -1.0
    elif bad == "nan":
        g[(3,) * (2 * grid.n)] = np.nan
    else:
        g = g[..., :1, :1]
    u = grid.trig_field(MMS_TERMS)
    f = grid.zeros()
    call = {
        "solve": lambda: solve(grid, g, f, 2),
        "residual_field": lambda: residual_field(grid, u, 0.0, f, g, 2),
        "manufactured_source": lambda: manufactured_source(grid, g, u, 2),
        "chern_tensors": lambda: chern_tensors(grid, g),
        "gradient_norm_sq": lambda: gradient_norm_sq(grid, u, g),
        "hessian_pencil_extremes": lambda: hessian_pencil_extremes(grid, u, g),
        "integrate": lambda: grid.integrate(u, metric=g),
        "audit_cherrier": lambda: audit_cherrier(grid, g, u),
    }[route]
    with pytest.raises(DomainError, match=BAD_METRICS[bad]):
        call()


def test_solve_rejects_infinite_metric():
    # an inf passes every Cholesky pivot test; the finite check catches it
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    g[(3,) * (2 * grid.n) + (0, 0)] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        solve(grid, g, grid.zeros(), 2)


def test_nan_in_upper_triangle_of_metric_raises():
    # the Cholesky reads only the lower triangle; this gave NaN Christoffel
    # symbols without an error
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    g[(3,) * (2 * grid.n) + (0, 1)] = np.nan
    for route in (lambda: solve(grid, g, grid.zeros(), 2), lambda: chern_tensors(grid, g)):
        with pytest.raises(DomainError, match="non-finite"):
            route()


def test_solve_keeps_off_batched_lapack(monkeypatch, eigvalsh_rows):
    # g^{-1} and the metric check come from the slot-wise Cholesky, and the
    # report's Hessian extremes take eigenvalues at a few screened nodes
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    u_star = grid.trig_field(MMS_TERMS)

    def refuse(*args, **kwargs):
        raise AssertionError("batched LAPACK inverse or factorization in a solve")

    for name in ("inv", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = solve(grid, g, manufactured_source(grid, g, u_star, 2), 2)
    assert rep.success
    rows = eigvalsh_rows
    assert len(rows) == 1 and rows[0] < 0.05 * np.prod(grid.shape), rows


def test_mesh_convergence_against_analytic_source():
    # the source is evaluated in closed form, so no grid solves it exactly
    # and the recovery error must drop fast under refinement
    a, c = 0.01, 1.5
    errs = {}
    for N in (8, 12):
        grid = TorusGrid(2, N)
        g = metric_preset(grid, "torsion", epsilon=0.1)
        x1 = grid.x(0) + grid.zeros()
        s = np.sin(2 * np.pi * x1)
        cs = np.cos(2 * np.pi * x1)
        ustar = a * np.exp(c * s)
        u11 = a * np.exp(c * s) * np.pi**2 * (c**2 * cs**2 - c * s)
        f = np.log(1.0 + u11 / g[..., 0, 0].real)
        rep = solve(grid, g, f, 2, options=SolverOptions(newton_tol=1e-11))
        assert rep.success
        errs[N] = recovery_error(rep, ustar)
    assert errs[8] > 1e-6  # coarse truncation is visible
    assert errs[12] < errs[8] / 20.0
