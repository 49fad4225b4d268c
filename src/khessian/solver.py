"""Newton continuation solver for the complex k-Hessian equation on the torus.

Unknowns are a real potential u and a scalar offset b solving

    sigma_k(lambda(g^{-1}(g + ddbar u))) = exp(f + b),      omega_u in Gamma_k,

with sigma_k normalized so the flat solution of f = log C(n, k) is u = 0,
b = 0.  The k-th-root form F(lambda) - exp((f + b)/k) = 0 is what Newton
actually drives to zero: F is concave and its linearization

    tr(Phi . ddbar du) - exp((f + b)/k)/k . db = -residual,   mean(du) = 0

is solved matrix-free by right-preconditioned GMRES; Phi is the coordinate-frame
derivative of F at the current pencil.  The offset unknown b absorbs the
solvability constraint of the closed source; u is kept mean-zero during the
iteration and shifted to sup u = 0 on success.

Every pencil evaluation goes through the eigen-free kernel
``operator.pencil_table`` with g^{-1} formed once per solve, from the
slot-wise Cholesky factor that also checks g: the cone test, the residual
and Phi all come from the sigma table of A = g^{-1} w, and the table of the
accepted line-search trial serves the next Newton step.  Each Newton step
transforms its correction once: du and ddbar du come from the same half
spectrum.  The report's Hessian extremes (``hessian_pencil_extremes``, and
1 plus them ``eig_min``/``eig_max``) screen the nodes by bounds from
sigma_1 and sigma_2 of g^{-1} ddbar u, and compute eigenvalues only at the
few nodes where an extreme can sit.

Continuation runs along f_t = (1 - t) log C(n, k) + t f with step control
(Deuflhard, Newton Methods for Nonlinear Problems, 2004).  The step starts
at its cap 1/continuation_steps, halves when a stage fails (Newton stall,
GMRES failure or cone exit) and doubles back toward the cap after each
accepted stage; once it falls below MIN_STEP_RATIO times the cap the solve
reports failure.  t is kept as an exact fraction, so with no failure the
stages are t = j/continuation_steps and the last is exactly 1.0.

Each GMRES solve runs to an Eisenstat-Walker forcing term (choice 2, SIAM J.
Sci. Comput. 17, 1996), capped at ETA_MAX and floored at
max(linear_rtol, newton_tol / (2 sup|residual|)): early Newton steps are
solved loosely and the last one only as tightly as newton_tol needs.
Newton stops only when the true sup residual is at most newton_tol.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from math import comb, log

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConeViolationError, DomainError, LinearSolveError, SolveFailure
from .geometry import TorusGrid, gradient_norm_sq, hessian_pencil_extremes
from .operator import (
    PencilTable,
    as_tensor_first,
    inverse_metric,
    pencil_table,
    require_hermitian,
)
# not called here: perfbench/test_perfbench.py checks that its tracer
# restores this module's binding of the name
from .operator import relative_eigenvalues_only  # noqa: F401
from .symfunc import check_k

# Smallest continuation step, as a fraction of the cap 1/continuation_steps.
MIN_STEP_RATIO = Fraction(1, 64)
# Eisenstat-Walker choice 2: eta = EW_GAMMA (|r_j| / |r_{j-1}|)^EW_ALPHA,
# capped at ETA_MAX.
ETA_MAX = 0.1
EW_GAMMA = 0.9
EW_ALPHA = 2.0


@dataclass
class SolverOptions:
    continuation_steps: int = 1
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
    """An accepted continuation stage; its residuals are
    SolveReport.residual_history[residual_start:residual_stop].
    forcing_terms and gmres_per_step hold one entry per Newton step."""

    t: float
    newton_iterations: int
    final_residual: float
    min_step: float
    gmres_iterations: int
    forcing_terms: list[float] = field(default_factory=list)
    gmres_per_step: list[int] = field(default_factory=list)
    residual_start: int = 0
    residual_stop: int = 0


@dataclass
class RejectedAttempt:
    """A continuation stage that failed and halved the step; its residuals
    are SolveReport.residual_history[residual_start:residual_stop]."""

    t: float
    step: float
    error: str
    message: str
    residual_start: int
    residual_stop: int


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
    rejected: list[RejectedAttempt] = field(default_factory=list)
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
            "rejected": [asdict(r) for r in self.rejected],
            "message": self.message,
        }


# --------------------------------------------------------------- residuals

def _require_metric(grid: TorusGrid, g) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^{-1}) as arrays, or DomainError for a metric the pencil kernel
    cannot run on: the kernel takes g^{-1} and would not notice an
    indefinite or non-Hermitian g."""
    g = np.asarray(g)
    n = grid.n
    if g.shape != grid.shape + (n, n):
        raise DomainError(f"metric shape {g.shape} does not match grid {grid.shape}")
    require_hermitian(g, "g")
    ginv = inverse_metric(g)
    # the Cholesky pivots reject a NaN but not an inf
    if not np.all(np.isfinite(g)):
        raise DomainError("metric g has non-finite entries")
    return g, ginv


def _require_source(grid: TorusGrid, f) -> np.ndarray:
    """f as an array, or DomainError unless it is a finite real grid field."""
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise DomainError("source f must be real")
    if f.shape != grid.shape:
        raise DomainError(f"source shape {f.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise DomainError("source f has non-finite values")
    return f


def _residual(table: PencilTable, f: np.ndarray, b: float) -> np.ndarray:
    """The k-th-root residual F - exp((f + b)/k) from a pencil table."""
    return table.root() - np.exp((f + b) / table.k)


def residual_field(
    grid: TorusGrid, u: np.ndarray, b: float, f: np.ndarray, g: np.ndarray, k: int
) -> np.ndarray:
    """k-th-root residual F - exp((f + b)/k); raises if omega_u exits Gamma_k."""
    g, ginv = _require_metric(grid, g)
    f = _require_source(grid, f)
    table = pencil_table(ginv, g + grid.complex_hessian(np.asarray(u)), k)
    if not table.inside:
        raise ConeViolationError(f"omega_u left Gamma_{k}")
    return _residual(table, f, b)


def manufactured_source(grid: TorusGrid, g: np.ndarray, u_star: np.ndarray, k: int) -> np.ndarray:
    """Source f with exact solution (u_star, b = 0): f = log sigma_k(lambda)."""
    g, ginv = _require_metric(grid, g)
    table = pencil_table(ginv, g + grid.complex_hessian(np.asarray(u_star)), k)
    if not table.inside:
        raise ConeViolationError("manufactured potential leaves Gamma_k; reduce amplitude")
    return np.log(table.sigma[k])


# ----------------------------------------------------------- Newton pieces

def right_preconditioned_operator(grid: TorusGrid, phi: np.ndarray, source_scale: np.ndarray):
    """The bordered linearization A composed with its preconditioner P^{-1}.

    A(v, beta) = (tr(phi ddbar v) - source_scale*beta, mean v), and P^{-1} is
    the exact inverse of its constant-coefficient model, cbar = mean(tr phi)
    times the complex Laplacian:

        P^{-1}(w, s) = (Laplacian^{-1}((w - mean w)/cbar) + s,
                        -mean w / mean(source_scale)).

    Returns (apply, recover, size).  ``apply(z)`` is A P^{-1} z: one real
    transform of w, scaled by the inverse-Laplacian symbol over cbar, feeds
    the n^2 inverse transforms of the Hessian, and s passes through as the
    mean of P^{-1} z.  ``recover(z)`` is P^{-1} z = (du, db) without the
    constant s, so du is mean-zero, and ddbar du from du's spectrum as
    ``complex_hessian`` lays it out: (du, db, ddbar du).  Raises
    LinearSolveError for a
    non-finite phi or source_scale, or unless cbar > 0.
    """
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(source_scale))):
        raise LinearSolveError("non-finite linearization coefficients")
    cbar = float(np.einsum("...ii->...", phi).real.mean())
    if not cbar > 0:
        raise LinearSolveError(f"mean ellipticity coefficient {cbar} is not > 0")
    cb_mean = float(source_scale.mean())
    scale = source_scale / cb_mean
    shape = grid.shape
    m = int(np.prod(shape))
    kernel = grid._inverse_laplace_half() / cbar

    # Re tr(phi conj(hv)) for Hermitian phi and hv, in real arithmetic over
    # the diagonal and the upper triangle: the lower one doubles the upper.
    # coef[i][j] pairs with the Hessian field of the same slot.
    n = grid.n
    coef = [[None] * n for _ in range(n)]
    for i in range(n):
        coef[i][i] = np.ascontiguousarray(phi[..., i, i].real)
        for j in range(i + 1, n):
            coef[i][j] = 2.0 * phi[..., i, j].real
            coef[j][i] = 2.0 * phi[..., i, j].imag

    def apply(z):
        w = z[:m].reshape(shape)
        lv = scale * w.mean()
        for i, j, part in grid._hessian_fields(np.fft.rfftn(w) * kernel):
            lv += coef[i][j] * part
        return np.concatenate([lv.ravel(), z[m:]])

    def recover(z):
        w = z[:m].reshape(shape)
        hat = np.fft.rfftn(w) * kernel
        du = np.fft.irfftn(hat, s=shape, axes=grid._axes)
        return du, float(-w.mean() / cb_mean), grid._hessian_from_spectrum(hat)

    return apply, recover, m + 1


def newton_step(
    grid: TorusGrid,
    phi: np.ndarray,
    source_scale: np.ndarray,
    residual: np.ndarray,
    options: SolverOptions,
    eta: float,
):
    """Solve the bordered linearization for (du, db).

    phi: Hermitian coordinate derivative of F at the current pencil
    (grid + (n, n)); only its diagonal and upper triangle are read;
    source_scale: exp((f + b)/k)/k > 0, the -db coefficient;
    residual: current k-th-root residual;
    eta: the forcing term, GMRES's relative tolerance.

    The (nodes + 1) system A(du, db) = [tr(phi ddbar du) - source_scale*db;
    mean(du)] = [-residual; 0] is solved right-preconditioned: GMRES runs on
    A P^{-1} (``right_preconditioned_operator``) and (du, db) = P^{-1} y is
    recovered once at the end, so GMRES minimizes the true linearized
    residual, the quantity the forcing term eta bounds.  Non-finite inputs
    raise LinearSolveError before the first iteration.  Returns (du, db,
    iterations, ddbar du).
    """
    if not np.all(np.isfinite(residual)):
        raise LinearSolveError("non-finite residual")
    apply, recover, size = right_preconditioned_operator(grid, phi, source_scale)
    op = LinearOperator((size, size), matvec=apply, dtype=float)
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
        rtol=eta,
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
    du, db, hess_du = recover(sol)
    return du, db, iters, hess_du


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

def _forcing_term(eta_prev, sup_prev, sup_res, options):
    """Eisenstat-Walker choice 2 with its safeguard, capped at ETA_MAX and
    floored so the last solve is tight enough for newton_tol but no tighter.
    The first step of a stage (sup_prev None) starts at ETA_MAX."""
    eta = ETA_MAX
    if sup_prev is not None:
        eta = EW_GAMMA * (sup_res / sup_prev) ** EW_ALPHA
        safeguard = EW_GAMMA * eta_prev**EW_ALPHA
        if safeguard > 0.1:
            eta = max(eta, safeguard)
        eta = min(eta, ETA_MAX)
    return max(eta, options.linear_rtol, 0.5 * options.newton_tol / sup_res)


def _newton_solve(grid, ginv, f, k, u, b, w, options, history, path, t):
    """Newton iteration at fixed source f; mutates nothing but history and
    path, returns (u, b, w, record) or raises SolveFailure/LinearSolveError."""
    table = pencil_table(ginv, w, k)
    if not table.inside:
        raise SolveFailure("initial pencil outside Gamma_k")
    residual = _residual(table, f, b)
    sup_res = float(np.abs(residual).max())
    history.append(sup_res)
    min_step = 1.0
    forcing: list[float] = []
    gmres_counts: list[int] = []
    eta = sup_prev = None
    for iteration in range(options.max_newton + 1):
        if sup_res <= options.newton_tol:
            if path is not None:
                path.append({"t": t, "u": u.copy(), "b": b})
            return u, b, w, StageRecord(
                t=t,
                newton_iterations=iteration,
                final_residual=sup_res,
                min_step=min_step,
                gmres_iterations=sum(gmres_counts),
                forcing_terms=forcing,
                gmres_per_step=gmres_counts,
            )
        if iteration == options.max_newton:
            break
        phi = table.gradient(ginv)
        source_scale = np.exp((f + b) / k) / k
        eta = _forcing_term(eta, sup_prev, sup_res, options)
        forcing.append(eta)
        du, db, iters, hess_du = newton_step(grid, phi, source_scale, residual, options, eta)
        gmres_counts.append(iters)
        s, w, residual, table = line_search(
            grid, ginv, w, hess_du, b, db, f, k, sup_res, options
        )
        min_step = min(min_step, s)
        u = u + s * du
        u = u - u.mean()
        b = b + s * db
        sup_prev = sup_res
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
    """Continuation solve from the flat identity to the target source f.

    A failed stage is listed in report.rejected and retried from the last
    accepted state at half the step; path (with record_path) holds the
    Newton iterates of accepted stages only."""
    options = (options or SolverOptions()).validated()
    n = grid.n
    check_k(k, n)
    f = _require_source(grid, f)
    g, ginv = _require_metric(grid, g)
    start = time.perf_counter()
    log_identity = log(comb(n, k))
    u = np.zeros(grid.shape)
    b = 0.0
    w = as_tensor_first(g)
    history: list[float] = []
    path: list[dict] | None = [] if record_path else None
    stages: list[StageRecord] = []
    rejected: list[RejectedAttempt] = []

    cap = Fraction(1, int(options.continuation_steps))
    step = cap
    t_good = t_try = Fraction(0)  # the first stage is t = 0 itself
    failure: str | None = None
    while True:
        t = float(t_try)
        trail: list[dict] | None = [] if record_path else None
        first = len(history)
        try:
            u, b, w, record = _newton_solve(
                grid, ginv, (1.0 - t) * log_identity + t * f, k, u, b, w,
                options, history, trail, t,
            )
        except (SolveFailure, LinearSolveError, ConeViolationError) as exc:
            rejected.append(
                RejectedAttempt(t, float(t_try - t_good), type(exc).__name__, str(exc),
                                first, len(history))
            )
            step /= 2
            if step < MIN_STEP_RATIO * cap:
                failure = (
                    f"continuation step fell below {float(MIN_STEP_RATIO * cap):.3g} "
                    f"after t={float(t_good):.6g}: {exc}"
                )
                break
        else:
            record.residual_start, record.residual_stop = first, len(history)
            stages.append(record)
            if path is not None:
                path.extend(trail)
            t_good = t_try
            if t_good == 1:
                break
            step = min(2 * step, cap)
        # clamp the step itself, so halving a clamped step changes t
        step = min(step, 1 - t_good)
        t_try = t_good + step

    success = failure is None
    if success:
        u = u - u.max()  # gauge: sup u = 0
    # spectrum of (g, g + ddbar u) is 1 + spectrum of (g, ddbar u)
    lo, hi = hessian_pencil_extremes(grid, u, g)
    report = SolveReport(
        success=success,
        n=n,
        N=grid.N,
        k=k,
        u=u,
        b=b,
        t_reached=float(t_good),
        stages=stages,
        residual_history=history,
        rejected=rejected,
        message=failure or "converged",
        sup_abs_f=float(np.abs(f).max()),
        sup_abs_u=float(np.abs(u).max()),
        max_abs_hessian=max(abs(lo), abs(hi)),
        max_grad_sq=float(gradient_norm_sq(grid, u, g).max()),
        eig_min=1.0 + lo,
        eig_max=1.0 + hi,
        wall_seconds=time.perf_counter() - start,
        path=path,
    )
    return report


def recovery_error(report: SolveReport, u_star: np.ndarray) -> float:
    """Sup-norm distance between a solve and a reference potential, after
    matching the sup u = 0 gauge."""
    ref = u_star - u_star.max()
    return float(np.abs(report.u - ref).max())
