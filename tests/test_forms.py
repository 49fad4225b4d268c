from math import comb, factorial

import numpy as np
import pytest

from khessian import audits, forms, geometry, operator
from khessian.geometry import TorusGrid, metric_preset

from oracles import cone_band_integrand
from oracles import random_hermitian_field as _random_hermitian_field


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(2, 8)


@pytest.fixture(scope="module")
def grid3():
    return TorusGrid(3, 8)


def test_wedge_anticommutes_on_one_forms(grid):
    rng = np.random.default_rng(0)
    a = forms.one_form_holo(grid, rng.normal(size=grid.shape + (2,)) + 0j)
    b = forms.one_form_holo(grid, rng.normal(size=grid.shape + (2,)) + 0j)
    ab = a.wedge(b)
    ba = b.wedge(a)
    for key, coeff in ab.terms.items():
        assert np.abs(coeff + ba.terms[key]).max() < 1e-12


def test_d_squared_vanishes(grid):
    rng = np.random.default_rng(1)
    alpha = forms.one_form_holo(
        grid, np.stack([grid.trig_field([(1.0, rng.integers(-2, 3, size=4), 0.3)]),
                        grid.trig_field([(1.0, rng.integers(-2, 3, size=4), 1.2)])],
                       axis=-1).astype(complex),
    )
    dd = alpha.d_holo().d_holo()
    for coeff in dd.terms.values():
        assert np.abs(coeff).max() < 1e-11
    dbdb = alpha.d_anti().d_anti()
    for coeff in dbdb.terms.values():
        assert np.abs(coeff).max() < 1e-11


def test_d_holo_d_anti_anticommute(grid):
    u = grid.trig_field([(0.5, [1, 0, 0, 0], 0.2), (0.3, [0, 1, 1, 0], 1.0)])
    f = forms.Form(grid, {((), ()): u.astype(complex)})
    a = f.d_anti().d_holo()
    b = f.d_holo().d_anti()
    for key, coeff in a.terms.items():
        assert np.abs(coeff + b.terms[key]).max() < 1e-11


def test_ddbar_matches_complex_hessian(grid):
    u = grid.trig_field([(0.5, [1, 0, 0, 0], 0.2), (0.3, [0, 1, 1, 0], 1.0)])
    f = forms.Form(grid, {((), ()): u.astype(complex)})
    lhs = f.d_anti().d_holo() * 1j  # sqrt(-1) d dbar u
    rhs = forms.metric_form(grid, grid.complex_hessian(u))
    for key, coeff in rhs.terms.items():
        assert np.abs(coeff - lhs.terms[key]).max() < 1e-11


def test_exact_forms_integrate_to_zero(grid):
    # top-degree exact form: d of a (1,2)+(2,1) form has mean-zero top part
    rng = np.random.default_rng(2)
    comps = np.stack(
        [grid.trig_field([(1.0, rng.integers(-2, 3, size=4), rng.uniform(0, 6))])
         for _ in range(2)], axis=-1).astype(complex)
    alpha = forms.one_form_holo(grid, comps)
    beta = forms.metric_form(grid, _random_hermitian_field(grid, rng))
    gamma_form = alpha.wedge(beta)  # (2,1) on n=2
    top = gamma_form.d_anti().top_coefficient()
    assert abs(top.mean()) < 1e-12 * max(1.0, np.abs(top).max())


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_sigma_k_wedge_ratio_dual_route(n, k, grid, grid3):
    g_grid = grid if n == 2 else grid3
    rng = np.random.default_rng(10 * n + k)
    g = _random_hermitian_field(g_grid, rng, base=2.0, scale=0.2)
    w = _random_hermitian_field(g_grid, rng, base=1.0, scale=0.4)
    omega = forms.metric_form(g_grid, g)
    omega_w = forms.metric_form(g_grid, w)
    ratio = comb(n, k) * omega_w.wedge_power(k).wedge(
        omega.wedge_power(n - k)
    ).ratio_to(omega.wedge_power(n))
    lam = operator.relative_eigenvalues_only(g, w)
    from khessian.symfunc import sigma

    expect = sigma(k, lam)
    assert np.abs(ratio.imag).max() < 1e-10
    assert np.abs(ratio.real - expect).max() < 1e-9


def test_gradient_band_matches_gradient_norm(grid):
    rng = np.random.default_rng(5)
    u = grid.trig_field([(0.4, [1, 0, 0, 0], 0.1), (0.2, [0, 1, 1, 0], 0.8)])
    g = _random_hermitian_field(grid, rng, base=1.5, scale=0.2)
    n = grid.n
    omega = forms.metric_form(grid, g)
    band = forms.gradient_band_form(grid, u)
    ratio = n * band.wedge(omega.wedge_power(n - 1)).ratio_to(omega.wedge_power(n))
    expect = geometry.gradient_norm_sq(grid, u, g)
    assert np.abs(ratio.imag).max() < 1e-10
    assert np.abs(ratio.real - expect).max() < 1e-10


@pytest.mark.parametrize("n,k,i", [(2, 2, 0), (3, 2, 0), (3, 3, 0), (3, 3, 1)])
def test_cone_band_integrand_dual_route(n, k, i, grid, grid3):
    # the eigenframe density against the Form route, and both against the
    # lemma-22 audit's contraction route without its sqrt-1 d dbar omega part
    g_grid = grid if n == 2 else grid3
    rng = np.random.default_rng(100 + 10 * n + k + i)
    g = _random_hermitian_field(g_grid, rng, base=1.5, scale=0.1)
    u = g_grid.trig_field([(0.03, [1, 0, 0, 0] + [0] * (2 * n - 4), 0.2),
                           (0.02, [0, 1, 1, 0] + [0] * (2 * n - 4), 1.1)])
    band = cone_band_integrand(g_grid, u, g, i, k)
    omega = forms.metric_form(g_grid, g)
    omega_u = forms.metric_form(g_grid, g + g_grid.complex_hessian(u))
    wedge = forms.gradient_band_form(g_grid, u).wedge(
        omega_u.wedge_power(i)
    ).wedge(omega.wedge_power(n - i - 1))
    ratio = wedge.ratio_to(omega.wedge_power(n))
    factor = factorial(i) * factorial(n - i - 1) / factorial(n)
    assert np.abs(ratio.imag).max() < 1e-10
    assert np.abs(ratio.real - factor * band).max() < 1e-10
    # the whole-grid density, assembled from the sweep's slabs
    slabs = list(audits._lemma22_slabs(g_grid, g, u))
    density = np.stack([bare[i] / volume for volume, bare, _ in slabs])
    assert np.abs(density - factor * band).max() < 1e-10
