"""Newton continuation solver for the complex k-Hessian equation on the torus.

Unknowns are a real potential u and a scalar offset b solving

    sigma_k(lambda(g^{-1}(g + ddbar u))) = exp(f + b),      omega_u in Gamma_k,

with sigma_k normalized so the flat solution of f = log C(n, k) is u = 0,
b = 0.  The k-th-root form F(lambda) - exp((f + b)/k) = 0 is what Newton
actually drives to zero: F is concave and its linearization

    tr(Phi . ddbar du) - exp((f + b)/k)/k . db = -residual,   mean(du) = 0

is solved matrix-free by preconditioned GMRES; Phi is the coordinate-frame
derivative of F at the current pencil.  The offset unknown b absorbs the
solvability constraint of the closed source; u is kept mean-zero during the
iteration and shifted to sup u = 0 on success.

Every pencil evaluation goes through the eigen-free kernel
``operator.pencil_table`` with g^{-1} formed once per solve: the cone test,
the residual and Phi all come from the sigma table of A = g^{-1} w, and the
table of the accepted line-search trial serves the next Newton step.
Eigenvalues are computed only for the report (``eig_min``/``eig_max`` and
the Hessian extremes).

Continuation runs along f_t = (1 - t) log C(n, k) + t f in S equal steps,
bisecting a failed step once before giving up.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields
from math import comb, log

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConeViolationError, DomainError, LinearSolveError, SolveFailure
from .geometry import TorusGrid, gradient_norm_sq, hessian_pencil_extremes, inverse_metric
from .operator import (
    PencilTable,
    as_tensor_first,
    pencil_table,
    relative_eigenvalues_only,
    require_hermitian,
)
from .symfunc import check_k


@dataclass
class SolverOptions:
    continuation_steps: int = 8
    newton_tol: float = 1e-9
    max_newton: int = 30
    linesearch_min_step: float = 2.0**-20
    linear_rtol: float = 1e-10
    linear_maxiter: int = 800
    gmres_restart: int = 60

    def validated(self) -> "SolverOptions":
        """Check the type and range of every field; messages start with the
        field name."""
        for f in fields(self):
            value = getattr(self, f.name)
            integral = isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integral else numbers.Real
            ):
                label = "an integer" if integral else "a number"
                raise DomainError(f"{f.name} must be {label}, got {value!r}")
        for name, ok, rule in (
            ("continuation_steps", self.continuation_steps >= 1, "be >= 1"),
            ("newton_tol", 0 < self.newton_tol < 1, "lie in (0, 1)"),
            ("max_newton", self.max_newton >= 1, "be >= 1"),
            ("linesearch_min_step", 0 < self.linesearch_min_step <= 1, "lie in (0, 1]"),
            ("linear_rtol", 0 < self.linear_rtol < 1, "lie in (0, 1)"),
            ("linear_maxiter", self.linear_maxiter >= 1, "be >= 1"),
            ("gmres_restart", self.gmres_restart >= 1, "be >= 1"),
        ):
            if not ok:
                raise DomainError(f"{name} must {rule}, got {getattr(self, name)!r}")
        return self


@dataclass
class StageRecord:
    t: float
    newton_iterations: int
    final_residual: float
    min_step: float
    gmres_iterations: int


@dataclass
class SolveReport:
    """Outcome of one continuation solve; success=False carries diagnostics
    up to the last good continuation parameter."""

    success: bool
    n: int
    N: int
    k: int
    u: np.ndarray
    b: float
    t_reached: float
    stages: list[StageRecord] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    message: str = ""
    sup_abs_f: float = 0.0
    sup_abs_u: float = 0.0
    max_abs_hessian: float = 0.0
    max_grad_sq: float = 0.0
    eig_min: float = 0.0
    eig_max: float = 0.0
    wall_seconds: float = 0.0
    path: list[dict] | None = None

    def summary_dict(self) -> dict:
        return {
            "success": self.success,
            "n": self.n,
            "N": self.N,
            "k": self.k,
            "b": self.b,
            "t_reached": self.t_reached,
            "newton_iterations": [s.newton_iterations for s in self.stages],
            "final_residual": self.stages[-1].final_residual if self.stages else 0.0,
            "sup_abs_f": self.sup_abs_f,
            "sup_abs_u": self.sup_abs_u,
            "max_abs_hessian": self.max_abs_hessian,
            "max_grad_sq": self.max_grad_sq,
            "eig_min": self.eig_min,
            "eig_max": self.eig_max,
            "wall_seconds": self.wall_seconds,
            "message": self.message,
        }


# --------------------------------------------------------------- residuals

def _require_metric(grid: TorusGrid, g: np.ndarray) -> None:
    """Reject a metric the pencil kernel cannot run on, with DomainError: the
    kernel inverts g and would not notice an indefinite or non-Hermitian one."""
    n = grid.n
    if g.shape != grid.shape + (n, n):
        raise DomainError(f"metric shape {g.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError("metric g has non-finite entries")
    require_hermitian(g, "g")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DomainError("g must be positive definite at every node") from exc


def _residual(table: PencilTable, f: np.ndarray, b: float) -> np.ndarray:
    """The k-th-root residual F - exp((f + b)/k) from a pencil table."""
    return table.root() - np.exp((f + b) / table.k)


def residual_field(
    grid: TorusGrid, u: np.ndarray, b: float, f: np.ndarray, g: np.ndarray, k: int
) -> np.ndarray:
    """k-th-root residual F - exp((f + b)/k); raises if omega_u exits Gamma_k."""
    _require_metric(grid, g)
    table = pencil_table(inverse_metric(g), g + grid.complex_hessian(u), k)
    if not table.inside:
        raise ConeViolationError(f"omega_u left Gamma_{k}")
    return _residual(table, f, b)


def manufactured_source(grid: TorusGrid, g: np.ndarray, u_star: np.ndarray, k: int) -> np.ndarray:
    """Source f with exact solution (u_star, b = 0): f = log sigma_k(lambda)."""
    _require_metric(grid, g)
    table = pencil_table(inverse_metric(g), g + grid.complex_hessian(u_star), k)
    if not table.inside:
        raise ConeViolationError("manufactured potential leaves Gamma_k; reduce amplitude")
    return np.log(table.sigma[k])


# ----------------------------------------------------------- Newton pieces

def newton_step(
    grid: TorusGrid,
    phi: np.ndarray,
    source_scale: np.ndarray,
    residual: np.ndarray,
    options: SolverOptions,
):
    """Solve the bordered linearization for (du, db).

    phi: Hermitian coordinate derivative of F at the current pencil
    (grid + (n, n)); only its diagonal and upper triangle are read;
    source_scale: exp((f + b)/k)/k > 0, the -db coefficient;
    residual: current k-th-root residual.

    The (nodes + 1) system [tr(phi ddbar du) - source_scale*db = -residual;
    mean(du) = 0] runs through GMRES with an exact inverse of the constant-
    coefficient model (mean(tr phi) times the complex Laplacian) as the
    preconditioner.  Returns (du, db, iterations).
    """
    shape = grid.shape
    m = int(np.prod(shape))
    cbar = float(np.einsum("...ii->...", phi).real.mean())
    if cbar <= 0:
        raise LinearSolveError(f"mean ellipticity coefficient {cbar} <= 0")
    cb_mean = float(source_scale.mean())

    # Re tr(phi conj(hv)) for Hermitian phi and hv, in real arithmetic over
    # the diagonal and the upper triangle: the lower one doubles the upper.
    n = grid.n
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coef_diag = [np.ascontiguousarray(phi[..., i, i].real) for i in range(n)]
    coef_re = [2.0 * phi[..., i, j].real for i, j in upper]
    coef_im = [2.0 * phi[..., i, j].imag for i, j in upper]

    def matvec(z):
        v = z[:m].reshape(shape)
        beta = z[m]
        hv = grid.complex_hessian(v)
        lv = -source_scale * beta
        for i, c in enumerate(coef_diag):
            lv = lv + c * hv[..., i, i].real
        for (i, j), cr, ci in zip(upper, coef_re, coef_im):
            lv = lv + cr * hv[..., i, j].real + ci * hv[..., i, j].imag
        return np.concatenate([lv.ravel(), [v.mean()]])

    def precond(z):
        w = z[:m].reshape(shape)
        s = z[m]
        wm = w.mean()
        beta = -wm / cb_mean
        v = grid.solve_laplacian((w - wm) / cbar) + s
        return np.concatenate([v.ravel(), [beta]])

    op = LinearOperator((m + 1, m + 1), matvec=matvec, dtype=float)
    pre = LinearOperator((m + 1, m + 1), matvec=precond, dtype=float)
    rhs = np.concatenate([(-residual).ravel(), [0.0]])
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    restart = max(1, min(options.gmres_restart, options.linear_maxiter))
    outer = max(1, -(-options.linear_maxiter // restart))
    sol, info = gmres(
        op,
        rhs,
        M=pre,
        rtol=options.linear_rtol,
        atol=0.0,
        restart=restart,
        maxiter=outer,
        callback=count,
        callback_type="pr_norm",
    )
    if info != 0:
        raise LinearSolveError(
            f"GMRES stopped with info={info} after {iters} iterations"
        )
    du = sol[:m].reshape(shape)
    du = du - du.mean()
    return du, float(sol[m]), iters


def line_search(
    grid: TorusGrid,
    ginv: np.ndarray,
    w: np.ndarray,
    hess_du: np.ndarray,
    b: float,
    du_db: float,
    f: np.ndarray,
    k: int,
    sup_residual: float,
    options: SolverOptions,
):
    """Backtracking step: largest s in {1, 1/2, ...} >= linesearch_min_step
    with omega_u + s ddbar(du) strictly in Gamma_k at every node and a
    strict sup-residual decrease.  ginv is the inverse metric g^{-1}.
    Returns (s, w_new, residual_new, table_new) or raises SolveFailure;
    table_new is the pencil table at w_new, which carries Phi.

    The trial pencil is w + s * hess_du: the Hessian is linear in u, so the
    cached pencil stays exact along the search ray.
    """
    s = 1.0
    while s >= options.linesearch_min_step:
        w_trial = w + s * hess_du
        table = pencil_table(ginv, w_trial, k)
        if table.inside:
            r_trial = _residual(table, f, b + s * du_db)
            sup_trial = float(np.abs(r_trial).max())
            if sup_trial < sup_residual:
                return s, w_trial, r_trial, table
        s *= 0.5
    raise SolveFailure(
        f"line search found no admissible step above {options.linesearch_min_step}"
    )


# ------------------------------------------------------------ continuation

def _newton_solve(grid, ginv, f, k, u, b, w, options, history, path, t):
    """Newton iteration at fixed source f; mutates nothing, returns
    (u, b, w, record) or raises SolveFailure/LinearSolveError."""
    table = pencil_table(ginv, w, k)
    if not table.inside:
        raise SolveFailure("initial pencil outside Gamma_k")
    residual = _residual(table, f, b)
    sup_res = float(np.abs(residual).max())
    history.append(sup_res)
    min_step = 1.0
    total_gmres = 0
    for iteration in range(options.max_newton + 1):
        if sup_res <= options.newton_tol:
            if path is not None:
                path.append({"t": t, "u": u.copy(), "b": b})
            return u, b, w, StageRecord(
                t=t,
                newton_iterations=iteration,
                final_residual=sup_res,
                min_step=min_step,
                gmres_iterations=total_gmres,
            )
        if iteration == options.max_newton:
            break
        phi = table.gradient(ginv)
        source_scale = np.exp((f + b) / k) / k
        du, db, iters = newton_step(grid, phi, source_scale, residual, options)
        total_gmres += iters
        hess_du = grid.complex_hessian(du)
        s, w, residual, table = line_search(
            grid, ginv, w, hess_du, b, db, f, k, sup_res, options
        )
        min_step = min(min_step, s)
        u = u + s * du
        u = u - u.mean()
        b = b + s * db
        sup_res = float(np.abs(residual).max())
        history.append(sup_res)
        if path is not None:
            path.append({"t": t, "u": u.copy(), "b": b})
    raise SolveFailure(
        f"Newton did not reach tol {options.newton_tol} in "
        f"{options.max_newton} iterations (residual {sup_res:.3e})"
    )


def solve(
    grid: TorusGrid,
    g: np.ndarray,
    f: np.ndarray,
    k: int,
    options: SolverOptions | None = None,
    record_path: bool = False,
) -> SolveReport:
    """Continuation solve from the flat identity to the target source f."""
    options = (options or SolverOptions()).validated()
    n = grid.n
    check_k(k, n)
    if f.shape != grid.shape:
        raise DomainError(f"source shape {f.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise DomainError("source f has non-finite values")
    _require_metric(grid, g)
    start = time.perf_counter()
    log_identity = log(comb(n, k))
    ginv = as_tensor_first(inverse_metric(g))
    u = np.zeros(grid.shape)
    b = 0.0
    w = as_tensor_first(g)
    history: list[float] = []
    path: list[dict] | None = [] if record_path else None
    stages: list[StageRecord] = []
    t_good = 0.0

    def source_at(t: float) -> np.ndarray:
        return (1.0 - t) * log_identity + t * f

    schedule = [j / options.continuation_steps for j in range(options.continuation_steps + 1)]
    idx = 0
    failure: str | None = None
    bisected: set[int] = set()  # each scheduled stage may be bisected once
    while idx < len(schedule):
        t = schedule[idx]
        try:
            u, b, w, record = _newton_solve(
                grid, ginv, source_at(t), k, u, b, w, options, history, path, t
            )
            stages.append(record)
            t_good = t
            idx += 1
        except (SolveFailure, LinearSolveError, ConeViolationError) as exc:
            mid = 0.5 * (t_good + t)
            if idx in bisected or mid <= t_good:
                failure = str(exc)
                break
            bisected.add(idx)
            try:
                u, b, w, record = _newton_solve(
                    grid, ginv, source_at(mid), k, u, b, w, options, history, path, mid
                )
                stages.append(record)
                t_good = mid
                # retry the scheduled t from the midpoint state next loop
            except (SolveFailure, LinearSolveError, ConeViolationError) as exc2:
                failure = f"{exc}; bisection to t={mid:.4f} also failed: {exc2}"
                break

    success = failure is None
    if success:
        u = u - u.max()  # gauge: sup u = 0
    lam_final = relative_eigenvalues_only(g, g + grid.complex_hessian(u))
    lo, hi = hessian_pencil_extremes(grid, u, g)
    report = SolveReport(
        success=success,
        n=n,
        N=grid.N,
        k=k,
        u=u,
        b=b,
        t_reached=t_good,
        stages=stages,
        residual_history=history,
        message=failure or "converged",
        sup_abs_f=float(np.abs(f).max()),
        sup_abs_u=float(np.abs(u).max()),
        max_abs_hessian=float(max(abs(lo), abs(hi))),
        max_grad_sq=float(gradient_norm_sq(grid, u, g).max()),
        eig_min=float(lam_final.min()),
        eig_max=float(lam_final.max()),
        wall_seconds=time.perf_counter() - start,
        path=path,
    )
    return report


def recovery_error(report: SolveReport, u_star: np.ndarray) -> float:
    """Sup-norm distance between a solve and a reference potential, after
    matching the sup u = 0 gauge."""
    ref = u_star - u_star.max()
    return float(np.abs(report.u - ref).max())
