"""Newton continuation solver for the complex k-Hessian equation on the torus.

Unknowns are a real potential u and a scalar offset b solving

    sigma_k(lambda(g^{-1}(g + ddbar u))) = exp(f + b),      omega_u in Gamma_k,

with sigma_k normalized so the flat solution of f = log C(n, k) is u = 0,
b = 0.  The k-th-root form F(lambda) - exp((f + b)/k) = 0 is what Newton
actually drives to zero: F is concave and its linearization

    tr(Phi . ddbar du) - exp((f + b)/k)/k . db = -residual,   mean(du) = 0

is solved matrix-free by right-preconditioned GMRES; Phi is the coordinate-frame
derivative of F at the current pencil.  The preconditioner is the exact
inverse of the pointwise model tr Phi . Laplacian du, which keeps the
ellipticity tr Phi of each node and costs no transform beyond the
operator's own.  The offset unknown b absorbs the solvability constraint
of the closed source; u is kept mean-zero during the iteration and shifted
to sup u = 0 on success.

Every pencil evaluation goes through the eigen-free kernel
``operator.pencil_table`` with g^{-1} formed once per solve, from the
slot-wise Cholesky factor that also checks g: the cone test, the residual
and Phi all come from the sigma table of A = g^{-1} w, and the table of the
accepted line-search trial serves the next Newton step.  Each Newton step
recovers its correction once, du by the grid's inverse Laplacian and ddbar
du by ``complex_hessian``; every transform is the grid's.  The report's
Hessian extremes (``hessian_pencil_extremes``, and 1 plus them
``eig_min``/``eig_max``) screen the nodes by bounds from
sigma_1 and sigma_2 of g^{-1} ddbar u, and compute eigenvalues only at the
few nodes where an extreme can sit.

Continuation runs along f_t = (1 - t) log C(n, k) + t f with step control
(Deuflhard, Newton Methods for Nonlinear Problems, 2004).  The step starts
at its cap 1/continuation_steps, halves when a stage fails and doubles
back toward the cap after each accepted stage.  A stage fails on a GMRES
failure, a cone exit, a spent max_newton budget, or a Newton stall: a sup
residual that contracts by less than STALL_CONTRACTION on STALL_STEPS
consecutive steps.  Once the step falls below MIN_STEP_RATIO times the cap
the solve reports failure.  t is kept as an exact fraction, so with no
failure the stages are t = j/continuation_steps and the last is exactly 1.0.

Each GMRES solve runs to an Eisenstat-Walker forcing term (choice 2, SIAM J.
Sci. Comput. 17, 1996), capped at ETA_MAX and floored at
max(LINEAR_RTOL, newton_tol / (2 sup|residual|)): early Newton steps are
solved loosely and the last one only as tightly as newton_tol needs.
GMRES (``_gmres``) restarts every GMRES_RESTART iterations for at most
GMRES_CYCLES cycles.  It stops once its Arnoldi estimate of the linearized
residual, equal to that residual in exact arithmetic, is at most eta times
the right-hand side, and forms no true residual to re-check it: the line
search still demands a strict decrease of the true nonlinear residual, and
Newton stops only when the true sup residual is at most newton_tol.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import comb, log

import numpy as np

from .errors import (
    ConeViolationError,
    DomainError,
    LinearSolveError,
    SolveFailure,
    require_integer,
)
from .fieldio import plain
from .geometry import TorusGrid, _gradient_norm_sq, require_metric
from .operator import (
    PencilTable,
    as_tensor_first,
    pencil_table,
    relative_eigenvalues_only,
)
from .symfunc import check_k

# Smallest continuation step, as a fraction of the cap 1/continuation_steps.
MIN_STEP_RATIO = Fraction(1, 64)
# Eisenstat-Walker choice 2: eta = EW_GAMMA (|r_j| / |r_{j-1}|)^EW_ALPHA,
# capped at ETA_MAX.
ETA_MAX = 0.1
EW_GAMMA = 0.9
EW_ALPHA = 2.0
# Newton stall test (Deuflhard's monotonicity test, in the sup residual): a
# stage fails once the residual ratio new/old exceeds STALL_CONTRACTION on
# STALL_STEPS consecutive Newton steps, and the continuation step halves
# instead of spending the rest of max_newton.
# Manufactured torsion solves contract by 0.51 or better on every step,
# while stalled stages creep at 0.94-0.998 per step.
STALL_CONTRACTION = 0.85
# Stages that converge on hard sources hold runs of two steps above 0.85
# (up to 0.97), so two slow steps are not yet a stall.
STALL_STEPS = 3
# Floor of the forcing term.  At the default newton_tol the other floor,
# newton_tol / (2 sup|residual|), lies above it unless the residual exceeds
# 5, so this one only keeps a fast-contracting step on a large residual from
# asking GMRES for a relative residual below 1e-10.
LINEAR_RTOL = 1e-10
# GMRES(60), restarted for at most 14 cycles (840 iterations).  A
# manufactured torsion solve at N = 12 takes at most 9 iterations per Newton
# step, so the cap only bounds a linear solve that does not converge.
GMRES_RESTART = 60
GMRES_CYCLES = 14
# hessian_pencil_extremes' screening margin, relative to the largest
# sqrt(sum lambda^2) over the nodes
SCREEN_MARGIN = 1e-6


@dataclass
class SolverOptions:
    continuation_steps: int = 1
    newton_tol: float = 1e-9
    max_newton: int = 30
    linesearch_min_step: float = 2.0**-20

    def validated(self) -> "SolverOptions":
        """Check the type and range of every field; messages start with the
        field name."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                require_integer(f.name, value)
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{f.name} must be a number, got {value!r}")
        for name, ok, rule in (
            ("continuation_steps", self.continuation_steps >= 1, "be >= 1"),
            ("newton_tol", 0 < self.newton_tol < 1, "lie in (0, 1)"),
            ("max_newton", self.max_newton >= 1, "be >= 1"),
            ("linesearch_min_step", 0 < self.linesearch_min_step <= 1, "lie in (0, 1]"),
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
        """Every field but the grid arrays u and path, as plain JSON values,
        plus each stage's Newton count and the last stage's residual."""
        out = {f.name: plain(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("u", "path")}
        out["newton_iterations"] = [s.newton_iterations for s in self.stages]
        out["final_residual"] = self.stages[-1].final_residual if self.stages else 0.0
        return out


# --------------------------------------------------------------- residuals

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
    g, ginv = require_metric(grid, g)
    f = _require_source(grid, f)
    table = pencil_table(ginv, g + grid.complex_hessian(np.asarray(u)), k)
    if not table.inside:
        raise ConeViolationError(f"omega_u left Gamma_{k}")
    return _residual(table, f, b)


def manufactured_source(grid: TorusGrid, g: np.ndarray, u_star: np.ndarray, k: int) -> np.ndarray:
    """Source f with exact solution (u_star, b = 0): f = log sigma_k(lambda)."""
    g, ginv = require_metric(grid, g)
    table = pencil_table(ginv, g + grid.complex_hessian(np.asarray(u_star)), k)
    if not table.inside:
        raise ConeViolationError("manufactured potential leaves Gamma_k; reduce amplitude")
    return np.log(table.sigma[k])


# ----------------------------------------------------------- Newton pieces

def right_preconditioned_operator(grid: TorusGrid, phi: np.ndarray, source_scale: np.ndarray):
    """The bordered linearization A composed with its preconditioner P^{-1}.

    A(v, beta) = (tr(phi ddbar v) - source_scale*beta, mean v), and P^{-1} is
    the exact inverse of its pointwise model M(v, beta) = (tr phi *
    Laplacian v - source_scale*beta, mean v), which keeps A's ellipticity
    tr phi node by node and drops only its anisotropy:

        P^{-1}(w, s) = (Laplacian^{-1}((w + source_scale*beta)/tr phi) + s,
                        beta),
        beta = -mean(w/tr phi) / mean(source_scale/tr phi),

    where beta makes the Laplace right-hand side mean-free.

    Returns (apply, recover).  ``apply(z)`` is A P^{-1} z, with s
    passing through as the mean of P^{-1} z; it divides by tr phi before
    its one forward transform and takes n^2 - 1 inverse ones
    (``TorusGrid._preconditioned_hessian_fields``).  ``recover(z)`` is
    P^{-1} z = (du, db) without the constant s, so du is mean-zero, with
    ``complex_hessian(du)``: (du, db, ddbar du).  Raises LinearSolveError
    for a non-finite phi or source_scale, or unless tr phi > 0 at every node.
    """
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(source_scale))):
        raise LinearSolveError("non-finite linearization coefficients")
    trace = np.ascontiguousarray(np.einsum("...ii->...", phi).real)
    if not np.all(trace > 0):
        raise LinearSolveError(
            f"ellipticity coefficient tr phi reaches {float(trace.min())}, not > 0"
        )
    scale = source_scale / trace
    scale_mean = float(scale.mean())
    shape = grid.shape
    m = int(np.prod(shape))

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

    def laplace_rhs(z):
        """(w + source_scale*beta)/tr phi, mean-free, and beta."""
        rhs = z[:m].reshape(shape) / trace
        beta = -float(rhs.mean()) / scale_mean
        rhs += beta * scale
        return rhs, beta

    def apply(z):
        rhs, beta = laplace_rhs(z)
        lv = source_scale * -beta
        for i, j, part in grid._preconditioned_hessian_fields(rhs):
            lv += coef[i][j] * part
        return np.concatenate([lv.ravel(), z[m:]])

    def recover(z):
        rhs, beta = laplace_rhs(z)
        du = grid.solve_laplacian(rhs)
        return du, beta, grid.complex_hessian(du)

    return apply, recover


def _gmres(apply, rhs: np.ndarray, rtol: float):
    """Restarted GMRES(GMRES_RESTART) for apply(x) = rhs from x = 0 (Saad and
    Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), with modified Gram-Schmidt
    and Givens rotations.  The basis gains one vector per iteration.  A cycle
    stops once the Arnoldi estimate |g_{m+1}| of |rhs - A x| is at most rtol
    |rhs|; only a cycle that did not converge forms rhs - A x, to restart
    from.  Returns (x, iterations) or raises LinearSolveError after
    GMRES_CYCLES cycles."""
    target = rtol * float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    r = rhs
    iterations = 0
    for _ in range(GMRES_CYCLES):
        beta = float(np.linalg.norm(r))
        if beta <= target:
            return x, iterations
        basis = [r / beta]
        h = np.zeros((GMRES_RESTART, GMRES_RESTART))  # Hessenberg, rotated to triangular
        cs, sn = np.zeros(GMRES_RESTART), np.zeros(GMRES_RESTART)
        g = np.zeros(GMRES_RESTART + 1)
        g[0] = beta
        for j in range(GMRES_RESTART):
            w = apply(basis[j])
            iterations += 1
            for i, v in enumerate(basis):
                h[i, j] = np.dot(v, w)
                w -= h[i, j] * v
            norm = float(np.linalg.norm(w))
            for i in range(j):
                h[i, j], h[i + 1, j] = (cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                                        cs[i] * h[i + 1, j] - sn[i] * h[i, j])
            rho = np.hypot(h[j, j], norm)
            cs[j], sn[j] = h[j, j] / rho, norm / rho
            h[j, j] = rho
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            if abs(g[j + 1]) <= target or j + 1 == GMRES_RESTART:
                break
            w /= norm
            basis.append(w)
        y = g[: j + 1].copy()
        for i in range(j, -1, -1):  # back substitution in the triangle
            y[i] = (y[i] - h[i, i + 1 : j + 1] @ y[i + 1 :]) / h[i, i]
        for yi, v in zip(y, basis):
            x += yi * v
        if abs(g[j + 1]) <= target:
            return x, iterations
        r = rhs - apply(x)
    raise LinearSolveError(
        f"GMRES did not reach rtol {rtol:.3g} in {GMRES_CYCLES} cycles "
        f"of {GMRES_RESTART} iterations"
    )


def newton_step(
    grid: TorusGrid,
    phi: np.ndarray,
    source_scale: np.ndarray,
    residual: np.ndarray,
    eta: float,
):
    """Solve the bordered linearization for (du, db).

    phi: Hermitian coordinate derivative of F at the current pencil
    (grid + (n, n)); only its diagonal and upper triangle are read;
    source_scale: exp((f + b)/k)/k > 0, the -db coefficient;
    residual: current k-th-root residual;
    eta: the forcing term, GMRES's relative tolerance.

    The (nodes + 1) system A(du, db) = [tr(phi ddbar du) - source_scale*db;
    mean(du)] = [-residual; 0] is solved right-preconditioned: ``_gmres``
    runs on A P^{-1} (``right_preconditioned_operator``) and (du, db) =
    P^{-1} y is recovered once at the end, so GMRES minimizes the true
    linearized residual, the quantity the forcing term eta bounds.  It stops
    on its Arnoldi estimate of that residual, with no true-residual re-check:
    the estimate equals the residual up to rounding, and the line search
    accepts a step only on a strict decrease of the true nonlinear residual.
    Non-finite inputs raise LinearSolveError before the first iteration.
    Returns (du, db, iterations, ddbar du).
    """
    if not np.all(np.isfinite(residual)):
        raise LinearSolveError("non-finite residual")
    apply, recover = right_preconditioned_operator(grid, phi, source_scale)
    rhs = np.concatenate([(-residual).ravel(), [0.0]])
    sol, iters = _gmres(apply, rhs, eta)
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


# -------------------------------------------------------- Hessian extremes

def hessian_pencil_extremes(grid: TorusGrid, u: np.ndarray, g: np.ndarray):
    """(min, max) relative eigenvalue of ddbar(u) against g over all nodes,
    i.e. the range of |ddbar u|_g in the signed sense.

    Eigenvalues are computed only where an extreme can sit.  From the mean
    mu and the population deviation s of a node's n eigenvalues, which
    sigma_1 and sigma_2 of g^{-1} ddbar u give without eigenvalues,
    Laguerre-Samuelson places them all in mu +- s sqrt(n - 1), and
    Wolkowicz-Styan puts the largest at or above mu + s / sqrt(n - 1) and
    the smallest at or below mu - s / sqrt(n - 1).  A node whose upper bound
    lies below the largest of the lower bounds on the largest eigenvalue
    cannot hold the maximum, and likewise for the minimum.  SCREEN_MARGIN
    stands far above the rounding of s (about sqrt(eps) near a repeated
    eigenvalue), so the extremes equal those of all nodes.  Raises
    DomainError for a metric ``require_metric`` rejects.
    """
    return _hessian_pencil_extremes(grid, u, *require_metric(grid, g))


def _hessian_pencil_extremes(grid: TorusGrid, u: np.ndarray, g: np.ndarray,
                             ginv: np.ndarray):
    """``hessian_pencil_extremes`` from a checked metric and its inverse."""
    h = grid.complex_hessian(u)
    n = grid.n
    sigma = pencil_table(ginv, h, 2).sigma
    mu = sigma[1] / n
    sum_sq = sigma[1] ** 2 - 2.0 * sigma[2]
    s = np.sqrt(np.maximum(sum_sq / n - mu**2, 0.0))
    margin = SCREEN_MARGIN * np.sqrt(max(float(sum_sq.max()), 0.0))
    wide, narrow = s * np.sqrt(n - 1), s / np.sqrt(n - 1)
    candidates = (mu + wide >= (mu + narrow).max() - margin) | (
        mu - wide <= (mu - narrow).min() + margin
    )
    lam = relative_eigenvalues_only(g[candidates], h[candidates])
    return float(lam.min()), float(lam.max())


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
    return max(eta, LINEAR_RTOL, 0.5 * options.newton_tol / sup_res)


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
    slow = 0  # consecutive steps that contracted by less than STALL_CONTRACTION
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
        if slow == STALL_STEPS:
            raise SolveFailure(
                f"Newton stalled: sup residual contracted by less than "
                f"{STALL_CONTRACTION} on {STALL_STEPS} consecutive steps "
                f"(residual {sup_res:.3e})"
            )
        if iteration == options.max_newton:
            break
        phi = table.gradient(ginv)
        # drop what the linear solve no longer needs before it builds its basis
        table = du = hess_du = None
        source_scale = np.exp((f + b) / k) / k
        eta = _forcing_term(eta, sup_prev, sup_res, options)
        forcing.append(eta)
        du, db, iters, hess_du = newton_step(grid, phi, source_scale, residual, eta)
        del phi, source_scale
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
        slow = slow + 1 if sup_res > STALL_CONTRACTION * sup_prev else 0
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
    g, ginv = require_metric(grid, g)
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
    lo, hi = _hessian_pencil_extremes(grid, u, g, ginv)
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
        max_grad_sq=float(_gradient_norm_sq(grid, u, ginv).max()),
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
