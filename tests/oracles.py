"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (subset enumeration, dense finite
differences, closed forms for hand-picked inputs) so that agreement with the
package is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from khessian.errors import DomainError
from khessian.forms import Form, gradient_band_form, metric_form
from khessian.geometry import (
    ChernTensors,
    CovariantDerivatives,
    TorusGrid,
    gradient_norm_sq,
)
from khessian.operator import SIGMA_FLOOR, relative_eigenvalues, sigma_root_gradient
from khessian.symfunc import (
    elementary_all,
    in_gamma_k,
    require_gamma_k,
    sigma_restricted,
    sigma_restricted_each,
)


def sigma_enumerated(lam, k: int) -> float:
    """sigma_k as an explicit sum over k-subsets; fine for n <= 6."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if k == 0:
        return 1.0
    total = 0.0
    for comb in itertools.combinations(range(n), k):
        total += math.prod(lam[i] for i in comb)
    return total


def sigma_restricted_enumerated(r: int, lam, excluded) -> float:
    lam = np.asarray(lam, dtype=float)
    if np.isscalar(excluded) or isinstance(excluded, (int, np.integer)):
        excluded = [int(excluded)]
    keep = [v for i, v in enumerate(lam) if i not in set(excluded)]
    if r > len(keep):
        return 0.0
    return sigma_enumerated(np.asarray(keep), r)


def elementary_all_last_axis(values) -> np.ndarray:
    """sigma_0..sigma_n by the coefficient recurrence on a batch-first table,
    e[..., j] += lambda_i e[..., j-1], j descending: the same operations in
    the same order as the package's sigma-first table, so equal bit for bit."""
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(n):
        for j in range(i + 1, 0, -1):
            e[..., j] += lam[..., i] * e[..., j - 1]
    return e


def boundary_shift_bisection(lam, k: int) -> np.ndarray:
    """Largest t per row with lam - t e_n in Gamma_k, by a doubling bracket
    from 1 and 80 bisection steps on the strict cone test."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    t_hi = np.ones(lam.shape[0])
    for _ in range(60):
        trial = lam.copy()
        trial[:, -1] -= t_hi
        inside = in_gamma_k(trial, k)
        if not np.any(inside):
            break
        t_hi[inside] *= 2.0
    t_lo = np.zeros(lam.shape[0])
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        trial = lam.copy()
        trial[:, -1] -= mid
        inside = in_gamma_k(trial, k)
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
    return t_lo


def central_difference(func, x, h: float):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return grad


def hermitian_random(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_hermitian_field(grid, rng, base=2.0, scale=0.3):
    """Smooth Hermitian matrix field = base * id + trig-modulated constant
    part: non-diagonal and, for a non-constant modulation, not Kahler."""
    n = grid.n
    h = hermitian_random(rng, n, scale=scale)
    mod = grid.trig_field([(1.0, rng.integers(-2, 3, size=2 * n), rng.uniform(0, 6))])
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    out += h * mod[..., None, None]
    for i in range(n):
        out[..., i, i] += base
    return out


def reference_inverse(g) -> np.ndarray:
    """Batched LAPACK inverse of (..., n, n) matrices, the reference for the
    package's slot-wise Cholesky inverse ``inverse_metric``."""
    return np.linalg.inv(g)


def random_unitary(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ------------------------------------------------------- eigen route (pencil)

def eigen_pencil(g, w, k: int):
    """Eigen route for one pencil (g, w) with g positive definite.

    Returns (lam, sig, phi): the relative eigenvalues from a Cholesky
    reduction and eigh, sig[j] = sigma_j(lam) for j <= k by subset sums, and
    Phi = V diag(dF/dlambda) V^H with V^H g V = I and
    dF/dlambda_i = (1/k) sigma_k^{1/k-1} sigma_{k-1}(lam | i).  phi is None
    where sigma_k <= 0 and F has no derivative.
    """
    g = np.asarray(g, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = g.shape[-1]
    linv = np.linalg.inv(np.linalg.cholesky(g))
    c = linv @ w @ linv.conj().T
    lam, q = np.linalg.eigh(0.5 * (c + c.conj().T))
    vecs = linv.conj().T @ q
    sig = np.array([sigma_enumerated(lam, j) for j in range(k + 1)])
    if sig[k] <= 0.0:
        return lam, sig, None
    grad = np.array([sigma_restricted_enumerated(k - 1, lam, i) for i in range(n)])
    grad = grad * (1.0 / k) * sig[k] ** (1.0 / k - 1.0)
    return lam, sig, vecs @ np.diag(grad) @ vecs.conj().T


# ------------------------------------------------ eigenframe route (spectra)
# F = sigma_k^{1/k} as a function of the spectrum, with its second derivative
# split in a g-orthonormal eigenframe.  The package's solver runs the
# eigen-free pencil kernel instead; these formulas check it from outside.


def sigma_restricted_pairs(r: int, values) -> np.ndarray:
    """sigma_r(values | i, p) for every index pair, shape values.shape + (n,).

    Symmetric in (i, p); the diagonal holds the single-deletion value
    sigma_r(values | i).
    """
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape + (n,), dtype=float)
    for i in range(n):
        for p in range(i, n):
            out[..., i, p] = out[..., p, i] = sigma_restricted(r, lam, {i, p})
    return out


def sigma_root(values, k: int) -> float | np.ndarray:
    """F(lambda) = sigma_k(lambda)^{1/k} on the strict Gamma_k interior."""
    # [k, ...] keeps a 0-d array: numpy's scalar power may round differently
    out = require_gamma_k(values, k, SIGMA_FLOOR)[k, ...] ** (1.0 / k)
    return float(out) if out.ndim == 0 else out


def sigma_root_hessian(values, k: int):
    """Eigenframe second derivative of F, split into its two blocks.

    Returns (diag_block, off_block), each shaped like values + (n,):

    diag_block[i, p] couples diagonal perturbations a_i a_p,
        (1/k) sigma_k^{1/k-1} (1 - delta_ip) sigma_{k-2}(lambda|i,p)
        + (1/k)(1/k - 1) sigma_k^{1/k-2} sigma_{k-1}(lambda|i) sigma_{k-1}(lambda|p);
    off_block[i, p] multiplies |b_ip|^2 for i != p,
        -(1/k) sigma_k^{1/k-1} sigma_{k-2}(lambda|i,p),
    with zeros on its diagonal.
    """
    n = np.shape(values)[-1]
    sk = require_gamma_k(values, k, SIGMA_FLOOR)[k, ...]
    s1 = sigma_restricted_each(k - 1, values)
    if k >= 2:
        s2 = sigma_restricted_pairs(k - 2, values)
    else:
        s2 = np.zeros(np.shape(values) + (n,))
    root1 = sk[..., None, None] ** (1.0 / k - 1.0)
    root2 = sk[..., None, None] ** (1.0 / k - 2.0)
    eye = np.eye(n)
    diag = (1.0 / k) * root1 * (1.0 - eye) * s2 + (1.0 / k) * (
        1.0 / k - 1.0
    ) * root2 * s1[..., :, None] * s1[..., None, :]
    off = -(1.0 / k) * root1 * s2 * (1.0 - eye)
    return diag, off


def garding_floor(values, k: int, trace_cap: float | None = None) -> float | np.ndarray:
    """min_i dF/dlambda_i, the uniform ellipticity floor of the linearization.

    For spectra with sigma_1 bounded (``trace_cap``) and sigma_k bounded
    below, the floor is bounded away from zero; passing trace_cap asserts
    the bound as a precondition.
    """
    lam = np.asarray(values, dtype=float)
    if trace_cap is not None:
        s1 = elementary_all(lam)[..., 1]
        if np.any(s1 > trace_cap):
            raise DomainError(
                f"sigma_1 exceeds the stated trace cap {trace_cap}"
            )
    grad = sigma_root_gradient(lam, k)
    out = grad.min(axis=-1)
    return float(out) if out.ndim == 0 else out


def concavity_form(values, k: int, diag_perturb, off_perturb) -> float | np.ndarray:
    """Quadratic form of the eigenframe second derivative.

    diag_perturb: real (..., n) diagonal entries a_i of the Hermitian
    perturbation in the eigenframe; off_perturb: (..., n, n) complex
    off-diagonal entries b_ip (diagonal ignored).  On Gamma_k the value is
    <= 0 (F is concave); at simple pinned spectra this is exactly

        sum_{i,p} diag[i,p] a_i a_p + sum_{i != p} off[i,p] |b_ip|^2.
    """
    diag_block, off_block = sigma_root_hessian(values, k)
    a = np.asarray(diag_perturb, dtype=float)
    b = np.asarray(off_perturb, dtype=complex)
    quad = np.einsum("...ip,...i,...p->...", diag_block, a, a, optimize=True)
    mask = 1.0 - np.eye(a.shape[-1])
    quad = quad + np.einsum(
        "...ip,...ip->...", off_block * mask, np.abs(b) ** 2, optimize=True
    )
    return float(quad) if np.ndim(quad) == 0 else quad


def cone_band_integrand(
    grid: TorusGrid, u: np.ndarray, g: np.ndarray, i: int, k: int
) -> np.ndarray:
    """Eigenframe density sum_a sigma_i(lambda | a) |c_a|^2 of the gradient
    band, where lambda are the relative eigenvalues of omega_u = g + ddbar(u)
    against g and c are the frame components of du.

    Positive wherever omega_u lies in Gamma_{i+1}; requires pointwise
    Gamma_k membership with 0 <= i <= k - 2.  The corresponding wedge-ratio
    density carries an extra factor i! (n-i-1)! / n!.
    """
    if not (0 <= i <= k - 2):
        raise DomainError(f"band index must satisfy 0 <= i <= k-2, got i={i}, k={k}")
    w = g + grid.complex_hessian(u)
    lam, vecs = relative_eigenvalues(g, w)
    require_gamma_k(lam, k)
    du = grid.holomorphic_gradient(u)
    # frame components of du: with vecs^H g vecs = id the orthonormal frame
    # carries conj(vecs), so c = vecs^H du
    frame = np.einsum("...i,...ia->...a", du, np.conj(vecs), optimize=True)
    sig = sigma_restricted_each(i, lam)
    return np.einsum("...a,...a->...", sig, np.abs(frame) ** 2, optimize=True)


# ------------------------------------------- complex-FFT route (torus grid)

def _wavenumber_views(n: int, N: int):
    freq = np.fft.fftfreq(N) * N
    views = []
    for a in range(2 * n):
        shape = [1] * (2 * n)
        shape[a] = N
        views.append(freq.reshape(shape))
    return views


def symbol_z(grid: TorusGrid, j: int) -> np.ndarray:
    """Full-spectrum symbol pi (i m_x + m_y) of d/dz^j, broadcastable over
    the axes (2j, 2j + 1) of block j, with m = -N/2 on the Nyquist planes."""
    m = _wavenumber_views(grid.n, grid.N)
    return np.pi * (1j * m[2 * j] + m[2 * j + 1])


def symbol_zbar(grid: TorusGrid, j: int) -> np.ndarray:
    """Full-spectrum symbol pi (i m_x - m_y) of d/dzbar^j."""
    m = _wavenumber_views(grid.n, grid.N)
    return np.pi * (1j * m[2 * j] - m[2 * j + 1])


def dz_fft(grid: TorusGrid, field: np.ndarray, j: int) -> np.ndarray:
    """d/dz^j by a full complex transform: ifftn(fftn(field) symbol)."""
    return grid.ifft(grid.fft(field) * symbol_z(grid, j))


def dzbar_fft(grid: TorusGrid, field: np.ndarray, j: int) -> np.ndarray:
    return grid.ifft(grid.fft(field) * symbol_zbar(grid, j))


def holomorphic_gradient_fft(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """All d_j field from one forward transform, shape grid + (n,)."""
    hat = grid.fft(field)
    out = np.empty(grid.shape + (grid.n,), dtype=complex)
    for j in range(grid.n):
        out[..., j] = grid.ifft(hat * symbol_z(grid, j))
    return out


def complex_hessian_fft(u, n: int) -> np.ndarray:
    """d_i d_jbar u by full complex FFTs: the upper triangle from
    ifftn(fftn(u) S_ij), the real part on the diagonal, the lower triangle
    mirrored.  S_ij = pi^2 (i m_x^i + m_y^i)(i m_x^j - m_y^j), with
    m = -N/2 on the Nyquist planes as numpy's fftfreq orders it."""
    u = np.asarray(u, dtype=float)
    m = _wavenumber_views(n, u.shape[0])
    hat = np.fft.fftn(u)
    out = np.empty(u.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            sym = np.pi**2 * (1j * m[2 * i] + m[2 * i + 1]) * (1j * m[2 * j] - m[2 * j + 1])
            ent = np.fft.ifftn(hat * sym)
            if i == j:
                out[..., i, i] = ent.real
            else:
                out[..., i, j] = ent
                out[..., j, i] = np.conj(ent)
    return out


def solve_laplacian_fft(rhs, n: int) -> np.ndarray:
    """Mean-zero solution of sum_j d_j d_jbar v = rhs - mean(rhs) by full
    complex FFTs (complex output)."""
    rhs = np.asarray(rhs, dtype=float)
    m = _wavenumber_views(n, rhs.shape[0])
    sym = -sum((np.pi * v) ** 2 for v in m) * np.ones(rhs.shape)
    zero = (0,) * (2 * n)
    sym[zero] = 1.0
    hat = np.fft.fftn(rhs) / sym
    hat[zero] = 0.0
    return np.fft.ifftn(hat)


def complex_laplacian(grid: TorusGrid, field: np.ndarray) -> np.ndarray:
    """sum_j d_j d_jbar of a real field (real), on the real-FFT half spectrum."""
    grid._require_real(field, "complex_laplacian")
    half = grid.laplace_symbol[..., : grid.N // 2 + 1]
    return np.fft.irfftn(np.fft.rfftn(field) * half, s=grid.shape, axes=grid._axes)


# --------------------------------- left-preconditioned Newton linearization

def bordered_pair(grid: TorusGrid, phi: np.ndarray, source_scale: np.ndarray):
    """(matvec, precond) of the bordered Newton system as two separate
    operators on (nodes + 1) vectors: matvec is A(v, beta) =
    (tr(phi ddbar v) - source_scale*beta, mean v) through ``complex_hessian``,
    precond the exact inverse of its constant-coefficient model through
    ``solve_laplacian``.  The solver once ran GMRES on A with precond as a
    left preconditioner; its fused A P^{-1} must match matvec(precond(z))."""
    shape = grid.shape
    m = int(np.prod(shape))
    cbar = float(np.einsum("...ii->...", phi).real.mean())
    cb_mean = float(source_scale.mean())
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

    return matvec, precond


# ------------------------------------------- Form route (lemma-22 integrands)

def _correction_block(grid: TorusGrid, g: np.ndarray, degree: int) -> Form:
    """Sum of omega^{degree-3p-2q} (sqrt-1)^p (d omega)^p (dbar omega)^p
    ((sqrt-1) d dbar omega)^q over p, q in {0, 1} with 3p + 2q <= degree.

    On a Kahler metric only the bare omega^degree term survives; the extra
    terms carry the torsion corrections that keep the integrated bound
    stable on non-Kahler backgrounds.
    """
    omega = metric_form(grid, g)
    total: Form | None = None
    for p in (0, 1):
        for q in (0, 1):
            rest = degree - 3 * p - 2 * q
            if rest < 0:
                continue
            term = omega.wedge_power(rest)
            if p:
                torsion_part = omega.d_holo().wedge(omega.d_anti()) * 1j
                term = term.wedge(torsion_part)
            if q:
                curv_part = omega.d_anti().d_holo() * 1j
                term = term.wedge(curv_part)
            total = term if total is None else total + term
    assert total is not None
    return total


def _lemma22_constant(grid: TorusGrid, g: np.ndarray, u: np.ndarray, i: int):
    """|integral of sqrt-1 du ^ dbar u ^ omega_u^i ^ T_i| over the Dirichlet
    energy, both integrals against the metric volume, by the Form algebra.

    Returns (constant, density, correction): the densities are the real
    top-coefficient ratios to omega^n of the whole integrand and of its
    correction part band ^ omega_u^i ^ (T_i - omega^{n-i-1}), so a caller
    can compare them pointwise without a second Form evaluation.
    """
    band = gradient_band_form(grid, u)
    omega = metric_form(grid, g)
    omega_u = metric_form(grid, g + grid.complex_hessian(u))
    degree = grid.n - i - 1
    lead = band.wedge(omega_u.wedge_power(i))
    block = _correction_block(grid, g, degree)
    top = omega.wedge_power(grid.n)
    density = lead.wedge(block).ratio_to(top).real
    correction = np.zeros(grid.shape)
    if degree >= 2:  # T_i is omega^degree below degree 2
        correction = lead.wedge(block - omega.wedge_power(degree)).ratio_to(top).real
    num = abs(grid.integrate(density, metric=g))
    den = grid.integrate(gradient_norm_sq(grid, u, g), metric=g)
    return num / den, density, correction


# ------------------------------------------------- grid-first Chern route
# The package's Chern and covariant-derivative route before its stacks were
# stored index-first and before first derivatives ran one axis at a time:
# grid-first (..., n, ...) buffers, every d_j and d_jbar by full complex
# transforms, contracted with einsum(optimize=True).  Same formulas, same
# slot conventions.


def chern_tensors(grid: TorusGrid, g: np.ndarray, with_curvature: bool = True) -> ChernTensors:
    """Assemble connection, torsion and curvature of a Hermitian metric."""
    n = grid.n
    if g.shape != grid.shape + (n, n):
        raise DomainError(f"metric shape {g.shape} does not match grid {grid.shape}")
    ginv = reference_inverse(g)
    dg = np.empty(grid.shape + (n, n, n), dtype=complex)  # dg[..., i, j, q] = d_i g_{j qbar}
    for j in range(n):
        for q in range(n):
            hat = grid.fft(g[..., j, q])
            for i in range(n):
                dg[..., i, j, q] = grid.ifft(hat * symbol_z(grid, i))
    gamma = np.einsum("...qp,...ijq->...pij", ginv, dg, optimize=True)
    torsion = gamma - np.swapaxes(gamma, -1, -2)
    if with_curvature:
        curvature = np.empty(grid.shape + (n, n, n, n), dtype=complex)
        for p in range(n):
            for i in range(n):
                for kk in range(n):
                    hat = grid.fft(gamma[..., p, i, kk])
                    for j in range(n):
                        curvature[..., i, j, kk, p] = -grid.ifft(
                            hat * symbol_zbar(grid, j)
                        )
    else:
        curvature = None
    return ChernTensors(metric=g, inverse=ginv, gamma=gamma, torsion=torsion,
                        curvature=curvature)


def covariant_derivatives(
    grid: TorusGrid, u: np.ndarray, tensors: ChernTensors, order: int = 4
) -> CovariantDerivatives:
    if order not in (3, 4):
        raise DomainError(f"covariant derivative order must be 3 or 4, got {order}")
    n = grid.n
    gamma = tensors.gamma
    hat = grid.fft(u)
    grad = np.empty(grid.shape + (n,), dtype=complex)
    for i in range(n):
        grad[..., i] = grid.ifft(hat * symbol_z(grid, i))
    hess = grid.complex_hessian(u)
    # u_{p i} = d_i d_p u - Gamma^q_ip u_q
    dz2 = np.empty(grid.shape + (n, n), dtype=complex)
    for p in range(n):
        for i in range(p, n):
            ent = grid.ifft(hat * symbol_z(grid, p) * symbol_z(grid, i))
            dz2[..., p, i] = ent
            dz2[..., i, p] = ent
    hol2 = dz2 - np.einsum("...qip,...q->...pi", gamma, grad, optimize=True)
    # u_{i jbar l} = d_l u_{i jbar} - Gamma^p_li u_{p jbar}
    d3_mixed = np.empty(grid.shape + (n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            hhat = grid.fft(hess[..., i, j])
            for l in range(n):
                d3_mixed[..., i, j, l] = grid.ifft(hhat * symbol_z(grid, l))
    d3_mixed = d3_mixed - np.einsum("...pli,...pj->...ijl", gamma, hess, optimize=True)
    # u_{p i jbar} = d_jbar u_{p i}
    d3_hol = np.empty(grid.shape + (n, n, n), dtype=complex)
    for p in range(n):
        for i in range(n):
            hhat = grid.fft(hol2[..., p, i])
            for j in range(n):
                d3_hol[..., p, i, j] = grid.ifft(hhat * symbol_zbar(grid, j))
    # u_{i pbar jbar} = d_jbar u_{i pbar} - conj(Gamma^q_jp) u_{i qbar}
    d3_anti = np.empty(grid.shape + (n, n, n), dtype=complex)
    for i in range(n):
        for p in range(n):
            hhat = grid.fft(hess[..., i, p])
            for j in range(n):
                d3_anti[..., i, p, j] = grid.ifft(hhat * symbol_zbar(grid, j))
    d3_anti = d3_anti - np.einsum(
        "...qjp,...iq->...ipj", np.conj(gamma), hess, optimize=True
    )
    d4 = None
    if order == 4:
        # u_{i jbar l mbar} = d_mbar u_{i jbar l} - conj(Gamma^q_mj) u_{i qbar l}
        d4 = np.empty(grid.shape + (n, n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    hhat = grid.fft(d3_mixed[..., i, j, l])
                    for m in range(n):
                        d4[..., i, j, l, m] = grid.ifft(hhat * symbol_zbar(grid, m))
        d4 = d4 - np.einsum(
            "...qmj,...iql->...ijlm", np.conj(gamma), d3_mixed, optimize=True
        )
    return CovariantDerivatives(
        grad=grad, hess=hess, hol2=hol2, d3_mixed=d3_mixed, d3_hol=d3_hol,
        d3_anti=d3_anti, d4=d4,
    )


def commutation_residual(
    grid: TorusGrid,
    u: np.ndarray,
    g: np.ndarray,
    order: int = 3,
    omit_torsion_product: bool = False,
    tensors: ChernTensors | None = None,
    derivatives: CovariantDerivatives | None = None,
) -> float:
    """Max-abs defect of the third- or fourth-order commutation identities.

    order=3 takes the worst case over the three index-exchange identities

        u_{i jbar l} = u_{l jbar i} - T^p_li u_{p jbar}
        u_{p i jbar} = u_{p jbar i} + u_q R_{i jbar p}^q
        u_{i pbar jbar} = u_{i jbar pbar} - conj(T^q_jp) u_{i qbar}

    and order=4 measures

        u_{i jbar l mbar} = u_{l mbar i jbar}
            + u_{p jbar} R_{l mbar i}^p - u_{p mbar} R_{i jbar l}^p
            - T^p_li u_{p mbar jbar} - conj(T^q_mj) u_{l qbar i}
            + T^p_li conj(T^q_mj) u_{p qbar}.

    ``omit_torsion_product`` drops the final torsion-squared term, a mutation
    hook used to confirm the audit rejects the wrong identity.
    """
    if tensors is None:
        tensors = chern_tensors(grid, g, with_curvature=True)
    if tensors.curvature is None:
        raise DomainError("commutation residuals need tensors built with curvature")
    if derivatives is None:
        derivatives = covariant_derivatives(grid, u, tensors, order=order)
    t = tensors.torsion
    r = tensors.curvature
    d = derivatives
    if order == 3:
        res_a = (
            d.d3_mixed
            - np.swapaxes(d.d3_mixed, -3, -1)  # u_{l jbar i} in [i, j, l] slots
            + np.einsum("...pli,...pj->...ijl", t, d.hess, optimize=True)
        )
        res_b = (
            d.d3_hol
            - np.transpose(d.d3_mixed, axes=tuple(range(d.d3_mixed.ndim - 3)) + (-3, -1, -2))
            - np.einsum("...q,...ijpq->...pij", d.grad, r, optimize=True)
        )
        res_c = (
            d.d3_anti
            - np.swapaxes(d.d3_anti, -2, -1)  # u_{i jbar pbar} in [i, p, j] slots
            + np.einsum("...qjp,...iq->...ipj", np.conj(t), d.hess, optimize=True)
        )
        return max(
            float(np.abs(res_a).max()),
            float(np.abs(res_b).max()),
            float(np.abs(res_c).max()),
        )
    if order == 4:
        if d.d4 is None:
            raise DomainError("fourth-order residual needs order=4 derivatives")
        res = (
            d.d4
            - np.transpose(d.d4, axes=tuple(range(d.d4.ndim - 4)) + (-2, -1, -4, -3))
            - np.einsum("...lmip,...pj->...ijlm", r, d.hess, optimize=True)
            + np.einsum("...ijlp,...pm->...ijlm", r, d.hess, optimize=True)
            + np.einsum("...pli,...pmj->...ijlm", t, d.d3_anti, optimize=True)
            + np.einsum("...qmj,...lqi->...ijlm", np.conj(t), d.d3_mixed, optimize=True)
        )
        if not omit_torsion_product:
            res = res - np.einsum(
                "...pli,...qmj,...pq->...ijlm", t, np.conj(t), d.hess, optimize=True
            )
        return float(np.abs(res).max())
    raise DomainError(f"commutation residual order must be 3 or 4, got {order}")


def lowered_curvature(tensors: ChernTensors) -> np.ndarray:
    """R_{i jbar k lbar} = R_{i jbar k}^p g_{p lbar}."""
    if tensors.curvature is None:
        raise DomainError("tensors were built without curvature")
    return np.einsum("...ijkp,...pl->...ijkl", tensors.curvature, tensors.metric,
                     out=np.empty_like(tensors.curvature))
