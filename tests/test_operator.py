import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian import operator, symfunc
from khessian.errors import ConeViolationError, DomainError

from oracles import (
    central_difference,
    concavity_form,
    eigen_pencil,
    garding_floor,
    hermitian_random,
    random_unitary,
    reference_inverse,
    sigma_root,
    sigma_root_hessian,
)


# ------------------------------------------------------- eigenvalue pencil

def test_relative_eigenvalues_pinned():
    g = np.diag([2.0, 1.0]).astype(complex)
    w = np.diag([2.0, 2.0]).astype(complex)
    lam, vecs = operator.relative_eigenvalues(g, w)
    assert lam == pytest.approx([2.0, 1.0])
    gram = vecs.conj().T @ g @ vecs
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_relative_eigenvalues_random_pencils():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = a @ a.conj().T + n * np.eye(n)
        w = hermitian_random(rng, n)
        lam, vecs = operator.relative_eigenvalues(g, w)
        assert np.all(np.diff(lam) <= 1e-12)
        # pencil equation w v = lam g v
        resid = w @ vecs - g @ vecs @ np.diag(lam)
        assert np.abs(resid).max() < 1e-10
        gram = vecs.conj().T @ g @ vecs
        assert np.abs(gram - np.eye(n)).max() < 1e-10


def test_relative_eigenvalues_batched_matches_loop():
    rng = np.random.default_rng(1)
    g = np.stack([np.eye(3) + 0.1 * hermitian_random(rng, 3) for _ in range(10)])
    g = g + 3 * np.eye(3)
    w = np.stack([hermitian_random(rng, 3) for _ in range(10)])
    lam_b = operator.relative_eigenvalues_only(g, w)
    for gi, wi, li in zip(g, w, lam_b):
        lam_i, _ = operator.relative_eigenvalues(gi, wi)
        assert np.allclose(lam_i, li, atol=1e-11)


def test_relative_eigenvalues_rejects_bad_inputs():
    with pytest.raises(DomainError):
        operator.relative_eigenvalues(-np.eye(2), np.eye(2))  # not PD
    with pytest.raises(DomainError):
        operator.relative_eigenvalues_only(-np.eye(2), np.eye(2))
    skew = np.array([[1.0, 1.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(DomainError):
        operator.relative_eigenvalues(np.eye(2), skew)  # not Hermitian


# ------------------------------------------------------- operator values

def test_sigma_root_pinned():
    assert sigma_root(np.array([4.0, 2.0, 1.0]), 3) == pytest.approx(2.0)
    assert sigma_root(np.array([1.0, 1.0]), 2) == pytest.approx(1.0)
    from math import comb, sqrt

    assert sigma_root(np.ones(3), 2) == pytest.approx(sqrt(3.0))
    for n, k in [(2, 1), (3, 2), (4, 3)]:
        assert sigma_root(np.ones(n), k) == pytest.approx(comb(n, k) ** (1 / k))


def test_sigma_root_cone_guard():
    with pytest.raises(ConeViolationError):
        sigma_root(np.array([2.0, 2.0, -1.0]), 2)  # sigma_2 = 0
    with pytest.raises(ConeViolationError):
        sigma_root(np.array([1.0, 1e-16]), 2)  # below interior floor
    batch = np.array([[1.0, 1.0], [2.0, -3.0], [1.0, 1e-16], [3.0, 1.0]])
    for fn in (sigma_root, operator.sigma_root_gradient, sigma_root_hessian):
        with pytest.raises(ConeViolationError) as info:
            fn(batch, 2)
        assert info.value.count == 2


def test_gradient_pinned():
    grad = operator.sigma_root_gradient(np.ones(3), 2)
    assert grad == pytest.approx(np.full(3, 1.0 / np.sqrt(3.0)))


def test_hessian_pinned_n2_k2():
    diag, off = sigma_root_hessian(np.array([1.0, 1.0]), 2)
    assert diag[0, 1] == pytest.approx(0.25)
    assert diag[1, 0] == pytest.approx(0.25)
    assert diag[0, 0] == pytest.approx(-0.25)
    assert diag[1, 1] == pytest.approx(-0.25)
    assert off[0, 1] == pytest.approx(-0.5)
    assert off[1, 0] == pytest.approx(-0.5)
    assert off[0, 0] == 0.0 and off[1, 1] == 0.0


def test_k1_hessian_vanishes():
    # F = sigma_1 is linear
    lam = symfunc.sample_gamma_k(4, 1, count=20, seed=0)
    diag, off = sigma_root_hessian(lam, 1)
    assert np.abs(diag).max() < 1e-14
    assert np.abs(off).max() < 1e-14


# ------------------------------------------------------- identities

@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 3)])
def test_euler_identity(n, k):
    lam = symfunc.sample_gamma_k(n, k, count=2000, seed=n * 10 + k)
    grad = operator.sigma_root_gradient(lam, k)
    val = sigma_root(lam, k)
    lhs = np.einsum("si,si->s", grad, lam)
    assert np.abs(lhs / val - 1.0).max() < 1e-10


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3)])
def test_gradient_matches_finite_differences(n, k):
    lam = symfunc.sample_gamma_k(n, k, count=400, seed=7)
    # interior margin keeps the k-th root well conditioned for FD
    lam = lam[symfunc.sigma(k, lam) >= 0.05][:50]
    h = 1e-5
    for row in lam:
        grad = operator.sigma_root_gradient(row, k)
        fd = central_difference(lambda x: sigma_root(x, k), row, h)
        denom = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd).max() / denom < 1e-6


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3)])
def test_hessian_matches_finite_differences(n, k):
    lam = symfunc.sample_gamma_k(n, k, count=400, seed=17)
    lam = lam[symfunc.sigma(k, lam) >= 0.1][:10]
    h = 1e-4
    for row in lam:
        diag, _ = sigma_root_hessian(row, k)
        for i in range(n):
            for p in range(n):
                ei = np.zeros(n); ei[i] = h
                ep = np.zeros(n); ep[p] = h
                fd = (
                    sigma_root(row + ei + ep, k)
                    - sigma_root(row + ei - ep, k)
                    - sigma_root(row - ei + ep, k)
                    + sigma_root(row - ei - ep, k)
                ) / (4 * h * h)
                assert diag[i, p] == pytest.approx(fd, rel=2e-4, abs=2e-4)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3)])
def test_concavity_of_quadratic_form(n, k):
    rng = np.random.default_rng(23)
    lam = symfunc.sample_gamma_k(n, k, count=30, seed=29)
    for row in lam:
        a = rng.normal(size=(200, n))
        b = rng.normal(size=(200, n, n)) + 1j * rng.normal(size=(200, n, n))
        quad = concavity_form(np.broadcast_to(row, (200, n)), k, a, b)
        assert np.all(quad <= 1e-10 * np.maximum(1.0, np.abs(quad)))


def test_off_block_matches_eigenvalue_perturbation():
    # second-order response of F(lambda(diag + t E_ip)) for an off-diagonal
    # Hermitian perturbation is 2 off[i,p] per standard perturbation theory;
    # compare to finite differences through the full eigenvalue route.
    lam0 = np.array([2.0, 1.2, 0.7])
    k = 2
    _, off = sigma_root_hessian(lam0, k)
    t = 1e-4
    for i, p in [(0, 1), (0, 2), (1, 2)]:
        pert = np.zeros((3, 3), dtype=complex)
        pert[i, p] = 1.0
        pert[p, i] = 1.0

        def f(s):
            w = np.diag(lam0).astype(complex) + s * pert
            ev = np.linalg.eigvalsh(w)[::-1]
            return sigma_root(ev, k)

        second = (f(t) - 2 * f(0.0) + f(-t)) / (t * t)
        assert second == pytest.approx(2.0 * off[i, p], rel=5e-4, abs=5e-4)


# ------------------------------------------------------- invariance

def test_unitary_covariance():
    rng = np.random.default_rng(31)
    g = np.eye(3) + 0.2 * hermitian_random(rng, 3)
    w = np.eye(3) + 0.3 * hermitian_random(rng, 3)
    lam, _ = operator.relative_eigenvalues(g, w)
    for _ in range(5):
        u = random_unitary(rng, 3)
        lam_u, _ = operator.relative_eigenvalues(u.conj().T @ g @ u, u.conj().T @ w @ u)
        assert np.allclose(lam, lam_u, atol=1e-10)


def test_pencil_gradient_is_hermitian_and_consistent():
    rng = np.random.default_rng(37)
    g = np.eye(3) + 0.2 * hermitian_random(rng, 3)
    w = np.eye(3) + 0.1 * hermitian_random(rng, 3)
    ginv = reference_inverse(g)
    phi = operator.pencil_table(ginv, w, 2).gradient(ginv)
    assert np.abs(phi - phi.conj().T).max() < 1e-12
    # directional derivative through Phi matches FD of F(lambda(g^{-1}(w + t eta)))
    eta = hermitian_random(rng, 3, scale=1.0)
    t = 1e-6
    lam_p = operator.relative_eigenvalues_only(g, w + t * eta)
    lam_m = operator.relative_eigenvalues_only(g, w - t * eta)
    fd = (sigma_root(lam_p, 2) - sigma_root(lam_m, 2)) / (2 * t)
    analytic = np.real(np.sum(phi * eta.conj()))
    assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)


# ------------------------------------------------------- ellipticity floor

def test_garding_floor_identity_spectrum():
    from math import comb

    n, k = 3, 2
    floor = garding_floor(np.ones(n), k)
    expect = (1.0 / k) * comb(n, k) ** (1.0 / k - 1.0) * comb(n - 1, k - 1)
    assert floor == pytest.approx(expect)


def test_garding_floor_positive_as_top_eigenvalue_grows():
    # family with sigma_2 fixed: floor decreases but stays positive
    prev = np.inf
    for t in [1.0, 4.0, 16.0, 64.0, 256.0]:
        c = (3.0 - t) / (1.0 + t)
        lam = symfunc.spectrum([t, 1.0, c])
        assert symfunc.sigma(2, lam) == pytest.approx(3.0)
        floor = garding_floor(lam, 2)
        assert 0.0 < floor <= prev + 1e-12
        prev = floor


def test_garding_floor_trace_cap_enforced():
    with pytest.raises(DomainError):
        garding_floor(np.array([10.0, 1.0, 0.5]), 2, trace_cap=5.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gradient_positive_on_cone(seed):
    # ellipticity: every eigenframe gradient entry is positive on Gamma_k
    lam = symfunc.sample_gamma_k(4, 2, count=16, seed=seed)
    grad = operator.sigma_root_gradient(lam, 2)
    assert np.all(grad > 0.0)


# ------------------------------------------------------- pencil kernel

def _random_pencils(rng, lam):
    """Pencils (g, w) with relative eigenvalues lam: a random positive
    definite g = L L^H and w = L U diag(lam) U^H L^H for a random unitary U."""
    m, n = lam.shape
    g = np.empty((m, n, n), dtype=complex)
    w = np.empty_like(g)
    for p in range(m):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g[p] = a @ a.conj().T / n + 0.5 * np.eye(n)
        chol = np.linalg.cholesky(g[p])
        u = random_unitary(rng, n)
        wp = chol @ u @ np.diag(lam[p]) @ u.conj().T @ chol.conj().T
        w[p] = 0.5 * (wp + wp.conj().T)
    return g, w


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pencil_kernel_matches_eigen_oracle(n):
    # Newton's identities combine power traces of size max|lambda|^j, so
    # sigma_j is compared relative to that.  Phi carries sigma_k^{1/k-1},
    # whose relative condition is max|lambda|^k / sigma_k on any route; it
    # is compared where that stays below 100.
    rng = np.random.default_rng(100 + n)
    for k in range(1, n + 1):
        lam = np.vstack([
            symfunc.sample_gamma_k(n, k, 60, seed=10 * n + k),
            symfunc.sample_gamma_k_boundary(n, k, 20, seed=10 * n + k),
            rng.normal(size=(40, n)),  # mostly outside Gamma_k
        ])
        g, w = _random_pencils(rng, lam)
        ginv = reference_inverse(g)
        table = operator.pencil_table(ginv, w, k)
        with np.errstate(invalid="ignore"):  # Phi is undefined outside the cone
            phi = table.gradient(ginv)
        verdicts = {True: 0, False: 0}
        compared = 0
        for p in range(lam.shape[0]):
            lam_p, sig, phi_ref = eigen_pencil(g[p], w[p], k)
            scale = np.abs(lam_p).max() ** np.arange(k + 1)
            assert np.all(np.abs(table.sigma[:, p] - sig) <= 1e-12 * scale), (n, k, p)
            inside = bool(np.all(sig[1:] > 0.0) and sig[k] >= operator.SIGMA_FLOOR)
            if bool(table.ok[p]) != inside:
                shell = np.any(np.abs(sig[1:]) <= 1e-12 * scale[1:]) or (
                    abs(sig[k] - operator.SIGMA_FLOOR) <= 1e-12 * scale[k]
                )
                assert shell, (n, k, p, sig)
            verdicts[inside] += 1
            if inside and table.ok[p] and sig[k] >= 1e-2 * scale[k]:
                compared += 1
                err = np.abs(phi[p] - phi_ref).max() / np.abs(phi_ref).max()
                assert err <= 1e-12, (n, k, p, err)
        assert verdicts[True] >= 40 and verdicts[False] >= 10, verdicts
        assert compared >= 25


def test_pencil_gradient_index_convention():
    # Phi[i, j] pairs with w[i, j] exactly as coordinate_gradient's
    # V diag(grad) V^H does; the complex pencil makes Phi^T differ from Phi.
    rng = np.random.default_rng(41)
    g = np.eye(3) + 0.3 * hermitian_random(rng, 3)
    w = g + 0.2 * hermitian_random(rng, 3)
    ginv = reference_inverse(g)
    for k in (1, 2, 3):
        lam, vecs = operator.relative_eigenvalues(g, w)
        ref = operator.coordinate_gradient(vecs, operator.sigma_root_gradient(lam, k))
        phi = operator.pencil_table(ginv, w, k).gradient(ginv)
        assert np.abs(phi - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(phi - phi.T).max() > 1e-3 * np.abs(ref).max()


def test_pencil_table_layouts_agree():
    rng = np.random.default_rng(43)
    g = np.stack([np.eye(2) + 0.2 * hermitian_random(rng, 2) for _ in range(12)])
    w = np.stack([g[p] + 0.3 * hermitian_random(rng, 2) for p in range(12)])
    ginv = reference_inverse(g)
    plain = operator.pencil_table(ginv, w, 2)
    ginv_t = operator.as_tensor_first(ginv)
    slots = operator.pencil_table(ginv_t, operator.as_tensor_first(w), 2)
    assert np.array_equal(ginv_t, ginv)
    assert np.array_equal(plain.sigma, slots.sigma)
    assert np.array_equal(plain.gradient(ginv), slots.gradient(ginv_t))


def test_pencil_table_rejects_bad_k():
    with pytest.raises(DomainError):
        operator.pencil_table(np.eye(2), np.eye(2), 3)
    with pytest.raises(DomainError):
        operator.pencil_table(np.eye(2), np.eye(2), 0)
