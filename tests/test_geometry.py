from dataclasses import fields

import numpy as np
import pytest
import scipy.fft

import oracles
from khessian import audits, geometry, operator, solver
from khessian.audits import COMMUTATION_TERMS
from khessian.errors import ConeViolationError, DomainError
from khessian.geometry import TorusGrid, chern_tensors, metric_preset
from khessian.operator import as_tensor_first

from oracles import (
    complex_hessian_fft,
    complex_laplacian,
    cone_band_integrand,
    lowered_curvature,
    solve_laplacian_fft,
)


@pytest.fixture(scope="module")
def grid16():
    return TorusGrid(2, 16)


@pytest.fixture(scope="module")
def grid8():
    return TorusGrid(2, 8)


# ------------------------------------------------------------- grid basics

def test_grid_validation():
    with pytest.raises(DomainError):
        TorusGrid(1, 16)
    with pytest.raises(DomainError):
        TorusGrid(2, 6)
    with pytest.raises(DomainError):
        TorusGrid(2, 15)


def test_trig_field_matches_manual(grid8):
    terms = [(0.5, [1, 0, 0, 0], 0.0), (0.25, np.array([0, 2, 1, 0]), 0.3)]
    field = grid8.trig_field(terms)
    manual = 0.5 * np.cos(2 * np.pi * grid8.x(0)) + 0.25 * np.cos(
        2 * np.pi * (2 * grid8.y(0) + grid8.x(1)) + 0.3
    )
    assert np.abs(field - manual).max() < 1e-14


@pytest.mark.parametrize("bad", [1.5, np.nan, "a", True], ids=["1.5", "nan", "str", "bool"])
def test_trig_field_rejects_a_non_integer_frequency(grid8, bad):
    # 1.5 used to truncate to 1 and True to pass as 1, silently
    terms = [(0.5, [1, 0, 0, 0], 0.0), (0.25, [0, 2, bad, 0], 0.3)]
    with pytest.raises(DomainError, match=r"^term 1: frequency entry 2 must be an integer"):
        grid8.trig_field(terms)


def test_mean_and_integrate(grid8):
    f = np.cos(2 * np.pi * grid8.x(0)) ** 2 + 0 * grid8.zeros()
    assert grid8.mean(f) == pytest.approx(0.5)
    assert grid8.integrate(grid8.zeros() + 1.0) == pytest.approx(1.0)
    g = geometry.identity_metric(grid8) * 2.0  # det = 4
    assert grid8.integrate(grid8.zeros() + 1.0, g) == pytest.approx(4.0)


# ------------------------------------------------------------- derivatives

def test_dz_dzbar_plane_wave(grid16):
    # f = cos(2 pi x1): d/dz1 f = -pi sin(2 pi x1), d/dzbar1 identical
    f = np.cos(2 * np.pi * grid16.x(0)) + grid16.zeros()
    expect = -np.pi * np.sin(2 * np.pi * grid16.x(0)) + grid16.zeros()
    assert np.abs(grid16.dz(f, 0) - expect).max() < 1e-12
    assert np.abs(grid16.dzbar(f, 0) - expect).max() < 1e-12
    # f = cos(2 pi y1): d/dz1 f = (i pi) sin(2 pi y1), dzbar the conjugate
    f = np.cos(2 * np.pi * grid16.y(0)) + grid16.zeros()
    expect = 1j * np.pi * np.sin(2 * np.pi * grid16.y(0)) + grid16.zeros() * 1j
    assert np.abs(grid16.dz(f, 0) - expect).max() < 1e-12
    assert np.abs(grid16.dzbar(f, 0) - np.conj(expect)).max() < 1e-12


def test_first_derivatives_reject_broadcast_views(grid8):
    # a broadcastable coordinate view would reshape onto the wrong axes
    for view in (grid8.x(0), 1j * grid8.y(1)):
        for call in (lambda f: grid8.dz(f, 0), lambda f: grid8.dzbar(f, 1),
                     grid8.holomorphic_gradient):
            with pytest.raises(DomainError, match="broadcast"):
                call(view)


@pytest.mark.parametrize("n", [2, 3])
def test_slab_derivatives_match_whole_grid_ones(n):
    # a slab field[x] keeps both axes of every block j >= 1, so d_j and
    # d_jbar of it run the whole-grid product with a smaller batch
    grid = TorusGrid(n, 8)
    rng = np.random.default_rng(n)
    field = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    for bar, whole in ((False, grid.dz), (True, grid.dzbar)):
        for j in range(1, n):
            ref = whole(field, j)
            for x in (0, 5):
                got = grid._first_derivative(field[x], j, bar=bar)
                assert got.shape == grid.shape[1:]
                assert np.abs(got - ref[x]).max() <= 1e-14 * np.abs(ref[x]).max()
            # the public routes still take whole grids only
            with pytest.raises(DomainError, match="does not match grid"):
                whole(field[0], j)


@pytest.mark.parametrize("n, order", [(2, 4), (3, 3)])
def test_first_order_calculus_takes_no_full_transform(n, order, monkeypatch):
    """d_j and d_jbar act on the two axes of block j only; every first-order
    derivative route runs without an n-D transform.  n=3 stops at order 3:
    its order-4 stacks need about 1.8 GB, and the d4 loop is the one n=2
    runs."""
    grid = TorusGrid(n, 8)
    grid._diff_matrix()  # built once per grid, from 1-D transforms
    g = metric_preset(grid, "torsion", epsilon=0.15)
    u = grid.trig_field([(0.3, (1, 0, 0, 1) + (1, 0) * (n - 2), 0.2),
                         (0.2, (0, 1, 1, 0) + (0, 1) * (n - 2), 0.5)])

    def refuse(*args, **kwargs):
        raise AssertionError("n-D transform on a first-order derivative route")

    monkeypatch.setattr(TorusGrid, "fft", refuse)
    monkeypatch.setattr(TorusGrid, "ifft", refuse)
    for owner in (np.fft, scipy.fft):
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(owner, name, refuse)
    grid.holomorphic_gradient(u)
    tensors = chern_tensors(grid, g)
    geometry.covariant_derivatives(grid, u, tensors, order=order)
    del tensors
    for _ in audits._lemma22_slabs(grid, g, u):
        pass


def test_complex_hessian_pinned(grid16):
    u = np.cos(2 * np.pi * grid16.x(0)) + grid16.zeros()
    h = grid16.complex_hessian(u)
    expect = -np.pi**2 * np.cos(2 * np.pi * grid16.x(0)) + grid16.zeros()
    assert np.abs(h[..., 0, 0] - expect).max() < 1e-11
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        assert np.abs(h[..., i, j]).max() < 1e-11


def test_complex_hessian_cross_term(grid16):
    u = np.sin(2 * np.pi * grid16.x(0)) * np.sin(2 * np.pi * grid16.y(1)) + grid16.zeros()
    h = grid16.complex_hessian(u)
    expect = (
        1j * np.pi**2 * np.cos(2 * np.pi * grid16.x(0)) * np.cos(2 * np.pi * grid16.y(1))
        + grid16.zeros() * 1j
    )
    assert np.abs(h[..., 0, 1] - expect).max() < 1e-11
    assert np.abs(h[..., 1, 0] - np.conj(expect)).max() < 1e-11


def test_complex_hessian_is_hermitian(grid8):
    rng = np.random.default_rng(0)
    u = grid8.trig_field(
        [(rng.normal(), rng.integers(-3, 4, size=4), rng.uniform(0, 6)) for _ in range(5)]
    )
    h = grid8.complex_hessian(u)
    assert np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max() == 0.0


def test_complex_hessian_rejects_complex_input(grid8):
    with pytest.raises(DomainError):
        grid8.complex_hessian(grid8.zeros(dtype=complex))


def test_laplacian_consistent_with_hessian_trace(grid8):
    u = grid8.trig_field([(0.3, [1, 0, 0, 0], 0.1), (0.2, [0, 1, 2, 0], 1.0)])
    h = grid8.complex_hessian(u)
    lap = complex_laplacian(grid8, u)
    assert np.abs(np.trace(h, axis1=-2, axis2=-1) - lap).max() < 1e-11


def _fft_route_fields(grid, rng):
    """A white-noise field (every mode, Nyquist planes included) and fields
    whose content sits on the m = N/2 planes, the last axis among them."""
    nyq = np.pi * grid.N
    yield rng.normal(size=grid.shape)
    yield np.cos(nyq * grid.x(0)) * np.sin(2 * np.pi * grid.y(grid.n - 1)) + grid.zeros()
    yield np.cos(nyq * grid.y(grid.n - 1)) * np.cos(2 * np.pi * grid.x(0) + 0.3) + grid.zeros()
    yield (np.cos(nyq * grid.x(0)) * np.cos(nyq * grid.y(0))
           * np.cos(nyq * grid.x(grid.n - 1)) + 0.5 * rng.normal(size=grid.shape))


@pytest.mark.parametrize("n,N", [(2, 8), (2, 12), (2, 16), (3, 8)])
def test_real_fft_routes_match_complex_fft_route(n, N):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N)
    for u in _fft_route_fields(grid, rng):
        ref = complex_hessian_fft(u, n)
        h = grid.complex_hessian(u)
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()
        ref_v = solve_laplacian_fft(u, n)
        v = grid.solve_laplacian(u)
        assert np.isrealobj(v)
        assert np.abs(v - ref_v).max() <= 1e-12 * np.abs(ref_v).max()


@pytest.mark.parametrize("n,N", [(2, 12), (2, 16), (3, 8)])
def test_one_axis_derivatives_match_complex_fft_route(n, N):
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(10 * n + N)
    for real in _fft_route_fields(grid, rng):
        for f in (real, (0.6 - 0.8j) * real + 1j * rng.normal(size=grid.shape)):
            pairs = [(grid.holomorphic_gradient(f), oracles.holomorphic_gradient_fft(grid, f))]
            for j in range(n):
                pairs.append((grid.dz(f, j), oracles.dz_fft(grid, f, j)))
                pairs.append((grid.dzbar(f, j), oracles.dzbar_fft(grid, f, j)))
            for got, ref in pairs:
                assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_solve_laplacian_rejects_complex_input(grid8):
    with pytest.raises(DomainError):
        grid8.solve_laplacian(grid8.zeros(dtype=complex))


def test_solve_laplacian_roundtrip(grid8):
    u = grid8.trig_field([(0.7, [2, 1, 0, 0], 0.4), (0.1, [0, 0, 1, 1], 2.0)])
    v = grid8.solve_laplacian(complex_laplacian(grid8, u))
    assert np.abs(v.real - (u - u.mean())).max() < 1e-11


def test_gradient_norm_sq_pinned(grid16):
    u = np.cos(2 * np.pi * grid16.x(0)) + grid16.zeros()
    g = geometry.identity_metric(grid16)
    expect = np.pi**2 * np.sin(2 * np.pi * grid16.x(0)) ** 2 + grid16.zeros()
    assert np.abs(geometry.gradient_norm_sq(grid16, u, g) - expect).max() < 1e-11


def test_gradient_norm_sq_scales_with_inverse_metric(grid8):
    u = grid8.trig_field([(0.4, [1, 0, 0, 0], 0.0)])
    g = geometry.identity_metric(grid8)
    a = geometry.gradient_norm_sq(grid8, u, g)
    b = geometry.gradient_norm_sq(grid8, u, 2.0 * g)
    assert np.abs(a - 2.0 * b).max() < 1e-12


# ------------------------------------------------------------- presets

def test_presets_positive_definite_and_hermitian(grid8):
    for name in geometry.PRESET_NAMES:
        g = metric_preset(grid8, name)
        assert np.abs(g - np.conj(np.swapaxes(g, -1, -2))).max() < 1e-12
        assert np.linalg.eigvalsh(g)[..., 0].min() > 0.0


def _coarse_grid(n: int, N: int) -> TorusGrid:
    """A TorusGrid below the floor N >= 8, for pointwise checks at n = 4,
    where one metric on 8^8 nodes would take gigabytes."""
    grid = TorusGrid(n, 8)
    grid.N = N
    grid.shape = (N,) * (2 * n)
    grid._freq = np.fft.fftfreq(N) * N
    grid._ticks = np.arange(N) / N
    return grid


@pytest.mark.parametrize("n,N", [(2, 8), (3, 8), (4, 4)])
def test_inverse_metric_matches_reference_inverse(n, N):
    grid = TorusGrid(n, N) if N >= 8 else _coarse_grid(n, N)
    rng = np.random.default_rng(5 + n)
    metrics = {name: metric_preset(grid, name) for name in ("torsion", "kahler")}
    metrics["random"] = oracles.random_hermitian_field(grid, rng)
    for name, g in metrics.items():
        ref = oracles.reference_inverse(g)
        got = geometry.inverse_metric(g)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name
        assert _index_first_is_contiguous(got, grid), name


def test_torsion_preset_diagonal_floor(grid8):
    g = metric_preset(grid8, "torsion", epsilon=0.15)
    diag = np.stack([g[..., i, i].real for i in range(2)], axis=-1)
    assert diag.min() >= 1.0 - 1e-12  # nonnegative bumps never shrink g
    assert diag.max() <= 1.0 + 2 * 0.15 + 1e-12


def test_torsion_preset_epsilon_validated(grid8):
    with pytest.raises(DomainError):
        metric_preset(grid8, "torsion", epsilon=0.5)
    with pytest.raises(DomainError):
        metric_preset(grid8, "nope")


# ------------------------------------------------------------- Chern data

def test_flat_metric_has_no_connection(grid8):
    g = geometry.identity_metric(grid8)
    t = chern_tensors(grid8, g)
    assert np.abs(t.gamma).max() < 1e-14
    assert np.abs(t.torsion).max() < 1e-14
    assert np.abs(t.curvature).max() < 1e-14


def test_kahler_preset_is_torsion_free(grid16):
    g = metric_preset(grid16, "kahler")
    t = chern_tensors(grid16, g)
    assert np.abs(t.torsion).max() < 1e-8


def test_torsion_preset_connection_closed_form(grid16):
    eps = 0.1
    g = metric_preset(grid16, "torsion", epsilon=eps)
    t = chern_tensors(grid16, g)
    g22 = g[..., 1, 1]
    g11 = g[..., 0, 0]
    # Gamma^2_{12} = d_1 g_22 / g_22 with g_22 = 1 + eps(1 + sin 2 pi y1)
    expect = -1j * np.pi * eps * np.cos(2 * np.pi * grid16.y(0)) / g22 + grid16.zeros()
    assert np.abs(t.gamma[..., 1, 0, 1] - expect).max() < 1e-11
    assert np.abs(t.torsion[..., 1, 0, 1] - expect).max() < 1e-11
    assert np.abs(t.torsion[..., 1, 1, 0] + expect).max() < 1e-11
    # Gamma^1_{21} = d_2 g_11 / g_11 with g_11 = 1 + eps(1 + cos 2 pi x2)
    expect = -np.pi * eps * np.sin(2 * np.pi * grid16.x(1)) / g11 + grid16.zeros()
    assert np.abs(t.gamma[..., 0, 1, 0] - expect).max() < 1e-11
    assert np.abs(t.torsion).max() > 0.1  # preset is genuinely non-Kahler


def test_conformal_metric_curvature_closed_form():
    # g = exp(a cos 2 pi x1) * id: R_{1 1bar k}^k = a pi^2 cos(2 pi x1),
    # all other entries vanish.
    grid = TorusGrid(2, 16)
    a = 0.1
    phi = a * np.cos(2 * np.pi * grid.x(0)) + grid.zeros()
    g = geometry.identity_metric(grid) * np.exp(phi)[..., None, None]
    t = chern_tensors(grid, g)
    expect = a * np.pi**2 * np.cos(2 * np.pi * grid.x(0)) + grid.zeros()
    for k in range(2):
        assert np.abs(t.curvature[..., 0, 0, k, k] - expect).max() < 1e-9
    mask = np.ones((2, 2, 2, 2), dtype=bool)
    for k in range(2):
        mask[0, 0, k, k] = False
    assert np.abs(t.curvature[..., mask]).max() < 1e-9


def test_lowered_curvature_hermitian_pairing(grid16):
    # conj(R_{i jbar k lbar}) = R_{j ibar l kbar}
    g = metric_preset(grid16, "torsion", epsilon=0.15)
    low = lowered_curvature(chern_tensors(grid16, g))
    swapped = np.conj(np.transpose(low, axes=tuple(range(low.ndim - 4)) + (-3, -4, -1, -2)))
    assert np.abs(low - swapped).max() < 1e-7


# ----------------------------------------------- covariant derivatives

def test_holomorphic_second_derivative_antisymmetry(grid16):
    # u_{p i} - u_{i p} = -T^q_{ip} u_q holds exactly at grid nodes
    g = metric_preset(grid16, "torsion", epsilon=0.2)
    tens = chern_tensors(grid16, g)
    u = grid16.trig_field([(0.5, [1, 0, 0, 0], 0.2), (0.3, [0, 1, 1, 0], 1.1)])
    d = geometry.covariant_derivatives(grid16, u, tens, order=3)
    lhs = d.hol2 - np.swapaxes(d.hol2, -1, -2)
    rhs = -np.einsum("...qip,...q->...pi", tens.torsion, d.grad)
    assert np.abs(lhs - rhs).max() < 1e-11


def _residuals(grid, u, g, order=4):
    tensors = chern_tensors(grid, g)
    derivs = geometry.covariant_derivatives(grid, u, tensors, order=order)
    return geometry.commutation_residual(tensors, derivs)


def test_commutation_flat_every_order(grid16):
    g = geometry.identity_metric(grid16)
    u = grid16.trig_field([(0.4, [1, 0, 0, 0], 0.0), (0.2, [0, 1, 2, 0], 0.7)])
    third, fourth, _ = _residuals(grid16, u, g)
    assert third < 1e-10
    assert fourth < 1e-9


def _residual_pair(preset_eps, order):
    vals = {}
    for N in (12, 24):
        grid = TorusGrid(2, N)
        g = metric_preset(grid, "torsion", epsilon=preset_eps)
        u = grid.trig_field(
            [(0.5, [1, 0, 0, 0], 0.0), (0.3, [0, 1, 1, 0], 0.4), (0.2, [0, 0, 2, 1], 1.3)]
        )
        vals[N] = _residuals(grid, u, g, order=order)[order - 3]
    return vals


@pytest.mark.parametrize("order", [3, 4])
def test_commutation_residual_decays_under_refinement(order):
    vals = _residual_pair(0.15, order)
    assert vals[24] < vals[12] / 10.0
    assert vals[12] > 1e-12  # coarse residual is a genuine signal, not noise


def test_commutation_mutation_control():
    grid = TorusGrid(2, 16)
    g = metric_preset(grid, "torsion", epsilon=0.15)
    u = grid.trig_field([(0.5, [1, 0, 0, 0], 0.0), (0.3, [0, 1, 1, 0], 0.4)])
    _, intact, broken = _residuals(grid, u, g)
    assert broken > 100.0 * intact


def test_order_3_derivatives_give_the_third_order_residual_alone(grid8):
    g = metric_preset(grid8, "torsion", epsilon=0.15)
    u = grid8.trig_field(list(COMMUTATION_TERMS))
    third, fourth, omitted = _residuals(grid8, u, g, order=3)
    assert fourth is None and omitted is None
    # the third-order fields do not depend on the order, so neither does
    # the residual, bitwise
    assert third == _residuals(grid8, u, g, order=4)[0]


# ------------------------------------- tensor-first route against oracle

def _index_first_is_contiguous(stack: np.ndarray, grid: TorusGrid) -> bool:
    rank = stack.ndim - len(grid.shape)
    return np.moveaxis(stack, tuple(range(-rank, 0)), tuple(range(rank))).flags.c_contiguous


def _assert_fields_match(new, ref, grid):
    for f in fields(new):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        if b is None:
            assert a is None, f.name
            continue
        assert a.shape == b.shape, f.name
        assert np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max()), f.name
        assert _index_first_is_contiguous(a, grid), f.name


@pytest.mark.parametrize(
    "n, N, preset, order",
    [(2, 8, "kahler", 4), (2, 8, "torsion", 4), (2, 12, "kahler", 4),
     (2, 12, "torsion", 4), (3, 8, "torsion", 3)],
)
def test_tensor_first_chern_route_matches_grid_first_oracle(n, N, preset, order):
    grid = TorusGrid(n, N)
    g = metric_preset(grid, preset, epsilon=0.15)
    u = grid.trig_field([(a, m + (0,) * (2 * n - 4), p) for a, m, p in COMMUTATION_TERMS])
    tensors = chern_tensors(grid, g)
    _assert_fields_match(tensors, oracles.chern_tensors(grid, g), grid)
    # both derivative routes read the same tensors, so each layer is
    # compared on its own: the residual formulas on the same derivatives,
    # then the derivative fields; across routes the residuals may differ by
    # the fields' own rounding bound.  The residuals are taken one route at
    # a time to keep the n=3 case's peak memory down
    variants = [(3, False)] + ([(4, False), (4, True)] if order == 4 else [])

    def residuals(derivatives):
        # (third, fourth, fourth with the torsion product omitted)
        got = geometry.commutation_residual(tensors, derivatives)
        return np.array(got[:len(variants)])

    def oracle_residuals(derivatives):
        return np.array([
            oracles.commutation_residual(grid, u, g, order=o, omit_torsion_product=omit,
                                         tensors=tensors, derivatives=derivatives)
            for o, omit in variants
        ])

    derivs = geometry.covariant_derivatives(grid, u, tensors, order=order)
    got = residuals(derivs)
    np.testing.assert_allclose(got, oracle_residuals(derivs), rtol=1e-9, atol=0.0)
    ref = oracles.covariant_derivatives(grid, u, tensors, order=order)
    _assert_fields_match(derivs, ref, grid)
    del derivs
    field_max = max(np.abs(getattr(ref, f.name)).max()
                    for f in fields(ref) if getattr(ref, f.name) is not None)
    assert np.abs(got - oracle_residuals(ref)).max() <= 1e-12 * (1.0 + field_max)


def test_metric_presets_and_inverse_are_index_first(grid8):
    for name in geometry.PRESET_NAMES:
        g = metric_preset(grid8, name)
        assert _index_first_is_contiguous(g, grid8), name
        assert as_tensor_first(g) is g  # no copy
    assert _index_first_is_contiguous(geometry.inverse_metric(g), grid8)
    u = grid8.trig_field([(0.4, [1, 0, 0, 0], 0.0)])
    assert _index_first_is_contiguous(grid8.holomorphic_gradient(u), grid8)


# ------------------------------------------------------------- functionals

def test_hessian_pencil_extremes(grid16):
    u = grid16.trig_field([(0.05, [1, 0, 0, 0], 0.0)])
    g = geometry.identity_metric(grid16)
    lo, hi = solver.hessian_pencil_extremes(grid16, u, g)
    # ddbar u has eigenvalues {-pi^2 * 0.05 cos(2 pi x1), 0}
    assert lo == pytest.approx(-0.05 * np.pi**2, rel=1e-6)
    assert hi == pytest.approx(0.05 * np.pi**2, rel=1e-6)


def test_hessian_pencil_extremes_rejects_indefinite_metric(grid8):
    u = grid8.trig_field([(0.05, [1, 0, 0, 0], 0.0)])
    with pytest.raises(DomainError, match="positive definite"):
        solver.hessian_pencil_extremes(grid8, u, -geometry.identity_metric(grid8))


@pytest.mark.parametrize("case", ["zero", "crossing", "random-3"])
def test_hessian_pencil_extremes_screen_is_exact(case, eigvalsh_rows):
    # oracle: eigenvalues at every node.  u = 0 makes every node a
    # candidate; the single mode's eigenvalues cross where cos(2 pi x1) = 0,
    # so s is all rounding there; at n = 3 on a random metric the bounds
    # are not tight.
    if case == "random-3":
        grid = TorusGrid(3, 8)
        g = oracles.random_hermitian_field(grid, np.random.default_rng(23))
        # neither extreme sits at the node with the widest bounds
        u = grid.trig_field([(0.0131, (1, 1, -1, 1, 0, -1), 4.97),
                             (0.0088, (-1, 0, 0, 1, -1, 1), 5.64),
                             (0.0145, (-1, 1, 1, 0, -1, -1), 0.96),
                             (0.0125, (1, 1, 1, 0, 0, 1), 0.75)])
    else:
        grid = TorusGrid(2, 12)
        g = metric_preset(grid, "torsion", epsilon=0.1)
        u = grid.zeros() if case == "zero" else grid.trig_field([(0.05, (1, 0, 0, 0), 0.0)])
    lam = operator.relative_eigenvalues_only(g, grid.complex_hessian(u))
    ref = (lam.min(), lam.max())
    eigvalsh_rows.clear()
    got = solver.hessian_pencil_extremes(grid, u, g)
    scale = np.abs(ref).max()
    assert np.abs(np.subtract(got, ref)).max() <= 1e-12 * scale, (got, ref)
    nodes = np.prod(grid.shape)
    if case == "zero":
        assert got == (0.0, 0.0) and eigvalsh_rows == [nodes]
    else:
        assert sum(eigvalsh_rows) < nodes


def test_cone_band_integrand_requires_band(grid8):
    u = grid8.trig_field([(0.01, [1, 0, 0, 0], 0.0)])
    g = geometry.identity_metric(grid8)
    with pytest.raises(DomainError):
        cone_band_integrand(grid8, u, g, 1, 2)  # i > k-2
    big = grid8.trig_field([(1.0, [1, 0, 0, 0], 0.0)])  # omega_u leaves Gamma_2
    with pytest.raises(ConeViolationError) as info:
        cone_band_integrand(grid8, big, g, 0, 2)
    assert 0 < info.value.count < grid8.N**4


def test_cone_band_integrand_flat_i0(grid8):
    # i = 0: sigma_0 = 1 so the density is |du|^2 in the eigenframe = |du|_g^2
    u = grid8.trig_field([(0.02, [1, 0, 0, 0], 0.0), (0.01, [0, 1, 1, 0], 0.5)])
    g = geometry.identity_metric(grid8)
    band = cone_band_integrand(grid8, u, g, 0, 2)
    assert np.abs(band - geometry.gradient_norm_sq(grid8, u, g)).max() < 1e-12
