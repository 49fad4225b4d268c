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
``evaluate``).  Its g^{-1} comes from ``inverse_metric``, built on the
slot-wise Cholesky factor ``inverse_cholesky_factor``, which is also the
package's one positive-definiteness test.  The eigen route reduces the
pencil with the same factor and runs ``eigh``: ``relative_eigenvalues_only``
serves callers whose output is a spectrum (the solve report's Hessian
extremes, at the nodes ``geometry.hessian_pencil_extremes`` screens in),
and ``relative_eigenvalues`` adds a g-orthonormal eigenframe.
``sigma_root_gradient`` (dF/dlambda in that frame) and
``coordinate_gradient`` (its conjugation back to coordinates) are the
eigenframe form of ``PencilTable.gradient``.  Nothing in the package calls
``relative_eigenvalues`` or these two; they stay because
``perfbench/tracer.py`` wraps them by name.  The eigenframe value,
second derivative and concavity form of F are test oracles
(``tests/oracles.py``).  Both routes take the Gamma_k verdict from
``symfunc`` with the floor SIGMA_FLOOR on sigma_k.

All routines broadcast over leading batch axes; eigenvalue order is
descending.  The kernel and the Cholesky factor loop over the n x n matrix
slots with whole-batch array operations, which is fastest when the batch is
the contiguous axis: ``as_tensor_first`` lays a pencil out that way without
changing its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .symfunc import check_k, gamma_k_verdict, require_gamma_k, sigma_restricted_each

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
    """Cholesky reduction of the pencil: returns (m, a) as (n, n, ...) slot
    arrays, with m = L^{-1} for g = L L^H and a the Hermitian part of
    m w m^H, which has the relative eigenvalues of (g, w).  Raises
    DomainError unless g is positive definite."""
    g, w = np.broadcast_arrays(g, w)
    m = _slots(inverse_cholesky_factor(g))
    a = _matmul(_matmul(m, _slots(w)), np.conj(np.swapaxes(m, 0, 1)))
    return m, 0.5 * (a + np.conj(np.swapaxes(a, 0, 1)))


def relative_eigenvalues(g, w):
    """Eigenpairs of w v = lambda g v for Hermitian w and positive definite g.

    Returns (lam, vecs) with lam descending along the last axis and
    eigenvector columns vecs[..., :, a] normalized so that
    vecs^H g vecs = identity.  Implemented by Cholesky reduction to an
    ordinary Hermitian problem, which keeps the eigenvalues real.
    """
    require_hermitian(g, "g")
    require_hermitian(w, "w")
    m, a = _reduce_pencil(g, w)
    lam, q = np.linalg.eigh(_unslots(a))
    vecs = _unslots(_matmul(np.conj(np.swapaxes(m, 0, 1)), _slots(q)))  # L^{-H} q
    return lam[..., ::-1], vecs[..., :, ::-1]


def relative_eigenvalues_only(g, w) -> np.ndarray:
    """Descending eigenvalues of the pencil without eigenvectors (cheaper)."""
    return np.linalg.eigvalsh(_unslots(_reduce_pencil(g, w)[1]))[..., ::-1]


def sigma_root_gradient(values, k: int) -> np.ndarray:
    """Eigenframe gradient: dF/dlambda_i = (1/k) sigma_k^{1/k-1} sigma_{k-1}(lambda|i)."""
    sk = require_gamma_k(values, k, SIGMA_FLOOR)[k, ...]
    return (1.0 / k) * sk[..., None] ** (1.0 / k - 1.0) * sigma_restricted_each(k - 1, values)


def coordinate_gradient(vecs, grad_diag) -> np.ndarray:
    """Conjugate an eigenframe-diagonal derivative back to coordinates:
    Phi = V diag(grad) V^H, Hermitian by construction."""
    return np.einsum(
        "...ia,...a,...ja->...ij", vecs, grad_diag, np.conj(vecs), optimize=True
    )


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


def inverse_cholesky_factor(g, name: str = "g") -> np.ndarray:
    """L^{-1} for the Cholesky factor of a Hermitian (..., n, n) field,
    g = L L^H with L lower triangular and its diagonal positive.

    The factorization runs over the n x n slots with whole-batch array
    operations and reads only the lower triangle of g.  Raises DomainError
    unless every pivot is > 0 at every node, which also rejects a NaN.
    Returns a lower-triangular (..., n, n) array with index-first memory;
    its upper triangle is zero.
    """
    s = _slots(as_tensor_first(g))
    n = s.shape[0]
    chol = [[None] * n for _ in range(n)]
    for j in range(n):
        pivot = s[j, j].real - sum(c.real**2 + c.imag**2 for c in chol[j][:j])
        bad = ~(pivot > 0)
        if np.any(bad):
            raise DomainError(
                f"{name} must be positive definite at every node: "
                f"{np.count_nonzero(bad)} of {bad.size} fail"
            )
        chol[j][j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            acc = s[i, j] - sum(chol[i][m] * np.conj(chol[j][m]) for m in range(j))
            chol[i][j] = acc / chol[j][j]
    # forward substitution L M = I, column by column
    inv = np.zeros(s.shape, dtype=np.result_type(s.dtype, complex))
    for j in range(n):
        inv[j, j] = 1.0 / chol[j][j]
        for i in range(j + 1, n):
            acc = sum(chol[i][m] * inv[m, j] for m in range(j, i))
            inv[i, j] = -acc / chol[i][i]
    return _unslots(inv)


def inverse_metric(g) -> np.ndarray:
    """Matrix inverse of g_{i jbar} as g^{-1} = L^{-H} L^{-1}, exactly
    Hermitian, with index-first memory; the raised tensor is
    g^{p qbar} = inverse[..., q, p].  Raises DomainError unless g is
    positive definite at every node."""
    m = _slots(inverse_cholesky_factor(g))
    return _unslots(_matmul(np.conj(np.swapaxes(m, 0, 1)), m))


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
