"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (subset enumeration, dense finite
differences, closed forms for hand-picked inputs) so that agreement with the
package is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from khessian import audits
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
    sample_gamma_k,
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


def sample_gamma_k_box(n: int, k: int, count: int, seed: int = 0) -> np.ndarray:
    """The sampler without its envelope: candidates uniform on [-1, 1]^n,
    kept where they lie in Gamma_k, in blocks of 4x the remaining need.
    Exact for the box-conditioned law; it has no attempt budget, so it only
    runs where the box acceptance is well above zero."""
    rng = np.random.default_rng(seed)
    got, have = [], 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(min(max(4 * (count - have), 1024), 1_000_000), n))
        got.append(cand[in_gamma_k(cand, k)])
        have += got[-1].shape[0]
    return np.sort(np.concatenate(got)[:count], axis=-1)[:, ::-1]


def sample_gamma_k_boundary_two_calls(
    n: int, k: int, count: int, seed: int = 0, depth: float = 1e-8
) -> np.ndarray:
    """The boundary sampler with its shift ratio from two sigma_restricted
    calls, each building the table of lambda|n again, and the re-sort of
    the shifted rows that the sampler leaves out."""
    lam = sample_gamma_k(n, k, count, seed=seed)
    ratio = sigma_restricted(k, lam, n - 1) / sigma_restricted(k - 1, lam, n - 1)
    out = lam.copy()
    out[:, -1] -= (lam[:, -1] + ratio) * (1.0 - depth)
    out = np.sort(out, axis=-1)[:, ::-1]
    bad = ~in_gamma_k(out, k)
    if np.any(bad):
        out[bad] = lam[bad]
    return out


def audit_lemma21_loop(n: int = 4, k: int = 3, samples: int = 20000, seed: int = 0):
    """The lemma-21 audit with one sigma_restricted call per (i, j) and one
    numerator per (i, j, subset), on the samples of
    ``audits._mixed_cone_samples`` (looked up at call time, so a test may
    replace it)."""
    lam = audits._mixed_cone_samples(n, k, samples, seed)
    half = lam.shape[0] // 2
    rows = []
    violations = 0
    by_i_half: dict[int, float] = {}
    by_i_other: dict[int, float] = {}
    for i in range(1, k - 1):
        for j in range(1, n + 1):
            denom = sigma_restricted(i, lam, j - 1)
            bad = int(np.count_nonzero(denom <= 0.0))
            good = denom > 0.0
            others = [p for p in range(1, n + 1) if p != j]
            for subset in itertools.combinations(others, i):
                numer = np.abs(np.prod(lam[:, [p - 1 for p in subset]], axis=-1))
                violations += bad
                ratio = numer[good] / denom[good]
                head = max(np.count_nonzero(good[:half]), 1)
                half_max = other_max = np.inf
                if ratio.size:
                    half_max = float(ratio[:head].max())
                    other_max = float(ratio[head:].max()) if ratio.size > head else 0.0
                full_max = max(half_max, other_max)
                rows.append({
                    "i": i,
                    "j": j,
                    "subset": "+".join(map(str, subset)),
                    "max_ratio": full_max,
                    "max_ratio_half": half_max,
                    "denominator_violations": bad,
                })
                by_i_half[i] = max(by_i_half.get(i, 0.0), half_max)
                by_i_other[i] = max(by_i_other.get(i, 0.0), other_max)
    by_i_full = {i: max(by_i_half[i], by_i_other[i]) for i in by_i_half}
    stability = max(
        abs(by_i_half[i] - by_i_other[i]) / (by_i_full[i] + 1e-300)
        if np.isfinite(by_i_full[i]) else np.inf
        for i in by_i_full
    )
    if np.isfinite(stability) and stability > audits.LEMMA21_STABILITY_RTOL:
        violations += 1
    constants = {f"C_i_{i}": by_i_full[i] for i in sorted(by_i_full)}
    constants["C_global"] = max(by_i_full.values())
    constants["stability_rel"] = stability
    return audits.AuditReport(
        name="lemma21_ratio_bound",
        params={"n": n, "k": k, "samples": samples, "seed": seed},
        rows=rows,
        constants=constants,
        tolerances={"stability_rtol": audits.LEMMA21_STABILITY_RTOL},
        violations=violations,
        message="denominators positive and constants saturated"
        if violations == 0
        else "ratio bound audit failed",
    )


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
    return np.fft.irfftn(np.fft.rfftn(field) * half, s=grid.shape, axes=range(2 * grid.n))


# --------------------------------- left-preconditioned Newton linearization

def bordered_pair(grid: TorusGrid, phi: np.ndarray, source_scale: np.ndarray):
    """(matvec, precond, model) of the bordered Newton system as separate
    operators on (nodes + 1) vectors: matvec is A(v, beta) =
    (tr(phi ddbar v) - source_scale*beta, mean v) through ``complex_hessian``,
    model its pointwise model M(v, beta) = (tr phi * Laplacian v -
    source_scale*beta, mean v) through ``complex_laplacian``, and precond
    the exact inverse of M through ``solve_laplacian_fft``, numpy's complex
    transforms, not the solver's ``scipy.fft`` route.  The solver once ran
    GMRES on A with precond as a left preconditioner; its fused A P^{-1}
    must match matvec(precond(z))."""
    shape = grid.shape
    m = int(np.prod(shape))
    trace = np.einsum("...ii->...", phi).real
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

    def model(z):
        v = z[:m].reshape(shape)
        lv = trace * complex_laplacian(grid, v) - source_scale * z[m]
        return np.concatenate([lv.ravel(), [v.mean()]])

    def precond(z):
        # M(v, beta) = (w, s) needs (w + source_scale*beta)/tr phi mean-free
        w = z[:m].reshape(shape)
        s = z[m]
        beta = -np.mean(w / trace) / np.mean(source_scale / trace)
        v = solve_laplacian_fft((w + source_scale * beta) / trace, grid.n).real + s
        return np.concatenate([v.ravel(), [beta]])

    return matvec, precond, model


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


# ------------------------------------ whole-grid contraction (lemma-22 terms)
# The audit's contraction route before it summed its integrals slab by slab:
# the same formulas, returning every density as a whole grid.

def _signed_minors(mats, a: int, b: int) -> list[np.ndarray]:
    """Coefficients of s^i, i = 0..n-1, in the (a, b) cofactor of
    mats[0] + s mats[1]: the sum over choices of i rows taken from mats[1]
    of (-1)^(a+b) det of rows != a and columns != b (Leibniz sum)."""
    n = mats[0].shape[-1]
    rows = [r for r in range(n) if r != a]
    cols = [c for c in range(n) if c != b]
    out = [np.zeros(mats[0].shape[:-2], dtype=complex) for _ in range(n)]
    for choice in itertools.product((0, 1), repeat=n - 1):
        acc = out[sum(choice)]
        for perm in itertools.permutations(range(n - 1)):
            inversions = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
            term = mats[choice[0]][..., rows[0], cols[perm[0]]]
            for r, m, c in zip(rows[1:], choice[1:], perm[1:]):
                term = term * mats[m][..., r, cols[c]]
            if (a + b + inversions) % 2:
                acc -= term
            else:
                acc += term
    return out


def _ddbar_omega_contraction(grid: TorusGrid, g: np.ndarray,
                             du: np.ndarray) -> np.ndarray:
    """For n = 3: sum_{p,q} (-1)^{p+q} u_p conj(u_q) Q_{p^c q^c}, so that
    band ^ sqrt-1 d dbar omega = sqrt-1 (this) dz^123 ^ dzbar^123.

    Q_{(a,i),(b,j)} = d_a dbar_b g_ij - d_i dbar_b g_aj - d_a dbar_j g_ib
    + d_i dbar_j g_ab (a < i, b < j) are the coefficients of
    sqrt-1 d dbar omega on dz^a dz^i dzbar^b dzbar^j, and p^c is the sorted
    complement of p.  Q is Hermitian in its index pairs, so only q >= p is
    assembled, one row p at a time: d_x first, summed over the orderings
    (r, x) of p^c for each column c of g, then one d_ybar per (q, c).
    """
    n = grid.n
    comp = [tuple(r for r in range(n) if r != p) for p in range(n)]
    # zero slots (e.g. off the diagonal of a diagonal g) are skipped; each
    # slot is scanned once, not once per p
    nonzero = {(r, c): bool(g[..., r, c].any()) for r in range(n) for c in range(n)}
    out = np.zeros(grid.shape)
    for p in range(n):
        # rows[c] = sum_r +-d_x g_rc, (r, x) running over the orderings of p^c,
        # signed by the antisymmetrisation
        rows: dict = {}
        for c in range(n):
            row = _signed_sum((r > x, grid.dz(g[..., r, c], x))
                              for r, x in itertools.permutations(comp[p]) if nonzero[r, c])
            if row is not None:
                rows[c] = row
        for q in range(p, n):
            # the coefficient, then the term, in place
            term = _signed_sum((c > y, grid.dzbar(rows[c], y))
                               for c, y in itertools.permutations(comp[q]) if c in rows)
            if term is None:
                continue
            band = np.conj(du[..., q])
            band *= du[..., p]
            term *= band
            if p != q:
                term *= (-1) ** (p + q) * 2.0
            out += term.real
            del term, band  # before the next q's terms exist
    return out


def _signed_sum(terms):
    """Sum of the fields of (positive, field) terms, each negated unless
    positive, accumulated in place in the first one; None for no terms."""
    acc = None
    for positive, value in terms:
        if not positive:
            np.negative(value, out=value)
        if acc is None:
            acc = value
        else:
            acc += value
    return acc


def lemma22_terms(grid: TorusGrid, g: np.ndarray, u: np.ndarray):
    """Densities of the lemma-22 integrands for n <= 3, by contraction; no
    Form is built.

    Returns (volume, energy, terms): volume is det g, energy the Dirichlet
    energy int |du|_g^2 dV, and terms[i] for i < n the pair (density,
    correction) of top(band ^ omega_u^i ^ T_i) / top(omega^n) and of its
    sqrt-1 d dbar omega part alone (None when T_i has no such term), with
    band = sqrt-1 du ^ dbar u and omega_u = omega + sqrt-1 ddbar u.

    The band is rank one, c_ab = u_a conj(u_b), so with d = n - 1 - i
    top(band ^ omega_u^i ^ omega^d) / top(omega^n) =
    i! d! sum_ab c_ab K^i_ab / (n! det g), where K^i is the s^i coefficient
    of the cofactor matrix of g + s (g + ddbar u).  K^0, the cofactor matrix
    of g, is det g times its transposed inverse, so sum_ab c_ab K^0_ab =
    |du|_g^2 det g.  For n <= 3 the only correction is sqrt-1 d dbar omega
    in T_0 at n = 3.

    omega_u is never a whole grid: it is built one slab of grid axis 0 at a
    time, as the minors are, from u_{i jbar} = d_jbar u_i (i <= j) of the
    gradient du, the lower triangle conjugate.  Only u_{0 0bar} takes a
    derivative along axis 0, so it alone is a whole (real) field.
    """
    n = grid.n
    du = grid.holomorphic_gradient(u)
    # before the slab loop's outputs exist, to keep the peak down
    correction = _ddbar_omega_contraction(grid, g, du) if n == 3 else None
    u00 = grid.dzbar(du[..., 0], 0).real.copy()
    contracted = [np.zeros(grid.shape) for _ in range(n)]  # sum_ab c_ab K^i_ab
    volume = np.zeros(grid.shape)
    # one slab of omega_u; index-first, so each slot the minors read is
    # contiguous, as in the whole-grid stacks
    wbuf = np.empty((n, n) + grid.shape[1:], dtype=complex)
    wx = np.moveaxis(wbuf, (0, 1), (-2, -1))
    for x in range(grid.N):  # one slab of grid axis 0 at a time: slab-sized minors
        gx, dux = g[x], du[x]
        np.add(u00[x], gx[..., 0, 0], out=wbuf[0, 0])
        for j in range(1, n):
            for i in range(j + 1):
                h = grid._first_derivative(dux[..., i], j, bar=True)
                if i == j:
                    np.add(h.real, gx[..., j, j], out=wbuf[j, j])
                    continue
                np.add(h, gx[..., i, j], out=wbuf[i, j])
                np.add(np.conj(h, out=h), gx[..., j, i], out=wbuf[j, i])
        for a in range(n):
            for b in range(a, n):
                band = dux[..., a] * np.conj(dux[..., b])
                minors = _signed_minors((gx, wx), a, b)
                for i in range(n):
                    # c and K^i are Hermitian: the (b, a) term conjugates (a, b)
                    term = (band * minors[i]).real
                    contracted[i][x] += term if a == b else 2.0 * term
                if a == 0:  # cofactor expansion of det g along row 0
                    volume[x] += (gx[..., 0, b] * minors[0]).real
    energy = grid.mean(contracted[0])
    scale = 1.0 / (math.factorial(n) * volume)
    terms = [(math.factorial(i) * math.factorial(n - 1 - i) * contracted[i] * scale, None)
             for i in range(n)]
    if correction is not None:  # T_0 = omega^2 + sqrt-1 d dbar omega
        correction *= scale
        terms[0] = (terms[0][0] + correction, correction)
    return volume, energy, terms


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
