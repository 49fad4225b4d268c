"""Solver tests: pinned residuals, the bordered Newton step, line search
guards, continuation solves, and mesh convergence against an analytic
source that no finite grid resolves exactly."""

import numpy as np
import pytest
from math import comb, log

from khessian.errors import ConeViolationError, DomainError, SolveFailure
from khessian.geometry import TorusGrid, metric_preset
from khessian.solver import (
    SolverOptions,
    StageRecord,
    line_search,
    manufactured_source,
    newton_step,
    recovery_error,
    residual_field,
    solve,
)

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
        {"linear_rtol": -1.0},
        {"linear_rtol": 0.0},
        {"linear_rtol": 1.0},
        {"linear_maxiter": 0},
        {"gmres_restart": 0},
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
    du, db, iters = newton_step(grid, phi, scale, residual, SolverOptions(), 1e-10)
    assert abs(du.mean()) < 1e-14
    assert abs(db) < 1e-5
    assert iters <= 8
    hat = np.abs(grid.fft(du)) ** 2
    total = hat.sum()
    kept = hat[1, 0, 0, 0] + hat[-1, 0, 0, 0]
    assert kept / total > 0.999


def test_line_search_backtracks_on_cone_exit():
    grid = TorusGrid(2, 8)
    g = metric_preset(grid, "euclidean")
    du = grid.trig_field([(0.15, (1, 0, 0, 0), 0.0)])
    hess = grid.complex_hessian(du)
    # full step pushes w_11 to 1 - 0.15 pi^2 < 0; half step stays inside
    s, w_new, r_new, table = line_search(
        grid, np.linalg.inv(g), g.copy(), hess, 0.0, 0.0, grid.zeros(), 2, 1e9,
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
            grid, np.linalg.inv(g), g.copy(), hess, 0.0, 0.0, grid.zeros(), 2, 1e9, opts
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
    # GMRES iterations here)
    grid, g, ustar, f = _torsion_mms(12)
    fast = solve(grid, g, f, 2)
    fixed = solve(grid, g, f, 2, options=SolverOptions(continuation_steps=8))
    assert fast.success and fixed.success
    assert np.abs(fast.u - fixed.u).max() <= 1e-10
    assert abs(fast.b - fixed.b) <= 1e-10
    assert recovery_error(fast, ustar) <= 1e-8
    assert [s.t for s in fast.stages] == [0.0, 1.0]
    assert sum(s.newton_iterations for s in fast.stages) <= 15
    assert sum(s.gmres_iterations for s in fast.stages) <= 150
    for rep in (fast, fixed):
        for stage in rep.stages:
            assert stage.final_residual <= SolverOptions().newton_tol
            eta = stage.forcing_terms
            assert all(SolverOptions().linear_rtol <= e <= 0.5 for e in eta)


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
