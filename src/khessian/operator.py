"""The normalized k-Hessian operator F = sigma_k^{1/k} on Hermitian pencils.

Inputs are pencils (g, w) of Hermitian matrices with g positive definite;
the operator acts on the relative eigenvalues lambda(g^{-1} w).

Two routes evaluate it.  The pencil kernel (``pencil_table``) never forms
eigenvalues: sigma_1..sigma_k follow from the traces of the powers of
A = g^{-1} w by Newton's identities, and the coordinate derivative is the
matrix polynomial

    Phi = (1/k) sigma_k^{1/k-1} (sum_{j<k} (-1)^j sigma_{k-1-j} A^j) g^{-1},

which is Hermitian.  The solver runs on it, and ``PencilTable.gradient`` is
the one coordinate derivative the package offers (there is no single-pencil
``evaluate``).  The eigen route (``relative_eigenvalues`` and the eigenframe
functions) serves callers whose output is a spectrum or an eigenframe
quantity: derivative formulas there are evaluated in a g-orthonormal
eigenframe (diagonal first derivative, the (2,2)-tensor second derivative
splits into a "diagonal" block on real perturbation diagonals and an "off"
block on off-diagonal moduli) and conjugated back to coordinates where
needed.  Both routes take the Gamma_k verdict from ``symfunc`` with the
floor SIGMA_FLOOR on sigma_k.

All routines broadcast over leading batch axes; eigenvalue order is
descending.  The kernel loops over the n x n matrix slots with whole-batch
array operations, which is fastest when the batch is the contiguous axis:
``as_tensor_first`` lays a pencil out that way without changing its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symfunc import (
    check_k,
    elementary_all,
    gamma_k_verdict,
    require_gamma_k,
    sigma_restricted_each,
    sigma_restricted_pairs,
)

# strict-interior guard: sigma_k below this is treated as a cone exit so the
# k-th root and its derivatives stay well conditioned
SIGMA_FLOOR = 1e-14

HERMITIAN_RTOL = 1e-12


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate relative Hermitian symmetry of the trailing 2 axes."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"{name} must have square trailing axes, got {a.shape}")
    skew = np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max()
    scale = max(np.abs(a).max(), 1.0)
    if skew > HERMITIAN_RTOL * scale:
        raise DomainError(
            f"{name} is not Hermitian: relative asymmetry {skew / scale:.3e}"
        )
    return a


def _reduce_pencil(g, w):
    """Cholesky reduction of the pencil: returns (L, a) with g = L L^H and
    a the Hermitian part of L^{-1} w L^{-H}, which has the relative
    eigenvalues of (g, w).  Raises DomainError unless g is positive definite."""
    g = np.asarray(g, dtype=complex)
    w = np.asarray(w, dtype=complex)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DomainError("g must be positive definite") from exc
    y = np.linalg.solve(chol, w)
    a = np.linalg.solve(chol, np.conj(np.swapaxes(y, -1, -2)))  # L^{-1} w^H L^{-H}
    return chol, 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def relative_eigenvalues(g, w, validate: bool = True):
    """Eigenpairs of w v = lambda g v for Hermitian w and positive definite g.

    Returns (lam, vecs) with lam descending along the last axis and
    eigenvector columns vecs[..., :, a] normalized so that
    vecs^H g vecs = identity.  Implemented by Cholesky reduction to an
    ordinary Hermitian problem, which keeps the eigenvalues real.
    """
    if validate:
        require_hermitian(g, "g")
        require_hermitian(w, "w")
    chol, a = _reduce_pencil(g, w)
    lam, q = np.linalg.eigh(a)
    vecs = np.linalg.solve(np.conj(np.swapaxes(chol, -1, -2)), q)
    return lam[..., ::-1], vecs[..., :, ::-1]


def relative_eigenvalues_only(g, w) -> np.ndarray:
    """Descending eigenvalues of the pencil without eigenvectors (cheaper)."""
    return np.linalg.eigvalsh(_reduce_pencil(g, w)[1])[..., ::-1]


def sigma_root(values, k: int) -> float | np.ndarray:
    """F(lambda) = sigma_k(lambda)^{1/k} on the strict Gamma_k interior."""
    # [k, ...] keeps a 0-d array: numpy's scalar power may round differently
    out = require_gamma_k(values, k, SIGMA_FLOOR)[k, ...] ** (1.0 / k)
    return float(out) if out.ndim == 0 else out


def sigma_root_gradient(values, k: int) -> np.ndarray:
    """Eigenframe gradient: dF/dlambda_i = (1/k) sigma_k^{1/k-1} sigma_{k-1}(lambda|i)."""
    sk = require_gamma_k(values, k, SIGMA_FLOOR)[k, ...]
    return (1.0 / k) * sk[..., None] ** (1.0 / k - 1.0) * sigma_restricted_each(k - 1, values)


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


def coordinate_gradient(vecs, grad_diag) -> np.ndarray:
    """Conjugate an eigenframe-diagonal derivative back to coordinates:
    Phi = V diag(grad) V^H, Hermitian by construction."""
    return np.einsum(
        "...ia,...a,...ja->...ij", vecs, grad_diag, np.conj(vecs), optimize=True
    )


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


# ----------------------------------------------------------- pencil kernel

def _slots(a) -> np.ndarray:
    """(n, n, ...) view of a (..., n, n) array."""
    return np.moveaxis(np.asarray(a), (-2, -1), (0, 1))


def _unslots(a: np.ndarray) -> np.ndarray:
    """(..., n, n) view of an (n, n, ...) array."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def as_tensor_first(a) -> np.ndarray:
    """A (..., n, n) array, same shape and values, whose memory is laid out
    (n, n, ...): each matrix slot is one contiguous batch field.  An array
    already laid out so is returned as it is; any other is copied."""
    a = np.asarray(a)
    if _slots(a).flags.c_contiguous:
        return a
    return _unslots(np.ascontiguousarray(_slots(a)))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product of (n, n, ...) slot arrays, one batch field per term."""
    n = a.shape[0]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for m in range(1, n):
                acc += a[i, m] * b[m, j]
            out[i, j] = acc
    return out


@dataclass
class PencilTable:
    """sigma_0..sigma_k of A = g^{-1} w at every batch point.

    sigma[j] is the sigma_j field (sigma[0] = 1); ok is the strict Gamma_k
    interior, ``symfunc.gamma_k_verdict`` with floor SIGMA_FLOOR.
    powers holds A^0..A^{k-1} as (n, n, ...) slot arrays for ``gradient``.
    """

    k: int
    sigma: np.ndarray
    ok: np.ndarray
    powers: list[np.ndarray]

    @property
    def inside(self) -> bool:
        return bool(np.all(self.ok))

    def root(self) -> np.ndarray:
        """F = sigma_k^{1/k}."""
        return self.sigma[self.k] ** (1.0 / self.k)

    def gradient(self, ginv) -> np.ndarray:
        """Phi = dF/dw, the (..., n, n) coordinate derivative; equal to
        ``coordinate_gradient(vecs, sigma_root_gradient(lam, k))``."""
        k, s = self.k, self.sigma
        poly = s[k - 1] * self.powers[0]
        for j in range(1, k):
            poly = poly + (-1) ** j * s[k - 1 - j] * self.powers[j]
        phi = _matmul(poly, _slots(ginv))
        phi *= (1.0 / k) * s[k] ** (1.0 / k - 1.0)
        return _unslots(phi)


def pencil_table(ginv, w, k: int) -> PencilTable:
    """Eigen-free sigma table of the pencils (g, w), given g^{-1}.

    Newton's identities j sigma_j = sum_{i=1}^{j} (-1)^{i-1} sigma_{j-i} p_i
    turn the power traces p_i = Re tr(A^i), i <= k, into sigma_1..sigma_k.
    Inputs are (..., n, n); ``as_tensor_first`` inputs run fastest.
    """
    n = np.shape(w)[-1]
    check_k(k, n)
    a = _matmul(_slots(ginv), _slots(w))
    eye = np.eye(n).reshape((n, n) + (1,) * (a.ndim - 2))
    powers = [eye, a]
    for _ in range(2, k):
        powers.append(_matmul(powers[-1], a))
    traces = [sum(a[i, i].real for i in range(n))]
    for j in range(2, k + 1):
        # tr(A^j) = sum_{i,m} (A^{j-1})_{im} A_{mi}
        last = powers[j - 1]
        traces.append(sum((last[i, m] * a[m, i]).real for i in range(n) for m in range(n)))
    sigma = np.empty((k + 1,) + a.shape[2:])
    sigma[0] = 1.0
    for j in range(1, k + 1):
        acc = np.zeros(a.shape[2:])
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * sigma[j - i] * traces[i - 1]
        sigma[j] = acc / j
    ok = gamma_k_verdict(sigma, k, SIGMA_FLOOR)
    return PencilTable(k=k, sigma=sigma, ok=ok, powers=powers[:k])
