"""Acceptance criteria, one test per criterion, each printing a single
PASS/FAIL line with the quantity it measured.  Tolerances are stated inline
and are the contract for this package; the rest of the test suite exists to
localize whatever breaks here.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import time
from math import comb, log

import numpy as np
import pytest

import oracles
from khessian import audits
from khessian.geometry import TorusGrid, metric_preset
from khessian.operator import pencil_table, relative_eigenvalues_only, sigma_root_gradient
from khessian.solver import SolverOptions, manufactured_source, recovery_error, solve
from khessian.symfunc import elementary_all, sample_gamma_k

MMS_TERMS = [
    (0.025, (1, 1, 0, 0), 0.0),
    (0.025, (1, -1, 0, 0), 0.0),
    (0.05, (0, 0, 1, 0), 0.0),
]

FAMILY_TERMS = [(0.5, (1, 0, 0, 0), 0.0), (0.3, (0, 0, 1, 1), 0.7)]
FAMILY_AMPLITUDES = tuple(0.1 * s for s in range(1, 11))


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def family():
    return audits.run_family(2, 2, 12, "euclidean", FAMILY_TERMS, FAMILY_AMPLITUDES)


def test_criterion_1_mms_recovery():
    """Manufactured solutions at n=2, k=2, N=16 recover the potential:
    error <= 1e-6 (flat metric) / 1e-5 (torsion preset), |b| <= 1e-8, and
    each solve finishes within 300 seconds."""
    results = {}
    for preset, tol in (("euclidean", 1e-6), ("torsion", 1e-5)):
        grid = TorusGrid(2, 16)
        g = metric_preset(grid, preset, epsilon=0.1)
        u_star = grid.trig_field(MMS_TERMS)
        f = manufactured_source(grid, g, u_star, 2)
        start = time.perf_counter()
        rep = solve(grid, g, f, 2)
        wall = time.perf_counter() - start
        err = recovery_error(rep, u_star) if rep.success else np.inf
        results[preset] = (rep.success, err, abs(rep.b), wall, tol)
    ok = all(
        success and err <= tol and b <= 1e-8 and wall <= 300.0
        for success, err, b, wall, tol in results.values()
    )
    detail = "; ".join(
        f"{p}: err={v[1]:.2e} (tol {v[4]:.0e}), |b|={v[2]:.2e}, {v[3]:.0f}s"
        for p, v in results.items()
    )
    verdict("criterion 1: manufactured solution recovery", ok, detail)


def test_criterion_2_identity_sources():
    """f = log C(n,k) returns the flat solution: sup|u| <= 1e-10 and
    |b| <= 1e-10 for (n,k) in (2,1), (2,2), (3,2)."""
    worst_u = worst_b = 0.0
    ok = True
    for n, k in ((2, 1), (2, 2), (3, 2)):
        grid = TorusGrid(n, 8)
        g = metric_preset(grid, "euclidean")
        rep = solve(grid, g, grid.zeros() + log(comb(n, k)), k)
        ok = ok and rep.success and rep.sup_abs_u <= 1e-10 and abs(rep.b) <= 1e-10
        worst_u = max(worst_u, rep.sup_abs_u)
        worst_b = max(worst_b, abs(rep.b))
    verdict(
        "criterion 2: identity sources",
        ok,
        f"sup|u| <= {worst_u:.2e} (tol 1e-10), |b| <= {worst_b:.2e} (tol 1e-10)",
    )


def test_criterion_3_determinant_route_along_path():
    """For k = n the operator equals the metric determinant ratio; the two
    routes agree to 1e-12 at every grid point of every accepted Newton
    iterate along the continuation path.  Eight fixed continuation steps
    keep the path long enough for the iterate-count gate."""
    grid = TorusGrid(2, 12)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    u_star = grid.trig_field(MMS_TERMS)
    f = manufactured_source(grid, g, u_star, 2)
    rep = solve(grid, g, f, 2, options=SolverOptions(continuation_steps=8), record_path=True)
    det_g = np.linalg.det(g)
    worst = 0.0
    for state in rep.path:
        w = g + grid.complex_hessian(state["u"])
        lam = relative_eigenvalues_only(g, w)
        sigma_n = elementary_all(lam)[..., 2]
        det_ratio = (np.linalg.det(w) / det_g).real
        worst = max(worst, float(np.abs(sigma_n - det_ratio).max()))
    ok = rep.success and len(rep.path) > 10 and worst <= 1e-12
    verdict(
        "criterion 3: determinant route along Newton path",
        ok,
        f"max |sigma_n - det ratio| = {worst:.2e} over {len(rep.path)} iterates (tol 1e-12)",
    )


def _pencils_with_spectra(rng, lam):
    """Pencils (g, w) whose relative eigenvalues are the rows of lam:
    g = L L^H with L = I + 0.1 (complex Gaussian) and
    w = L U diag(lam) U^H L^H with U Haar-unitary."""
    m, n = lam.shape
    chol = np.eye(n) + 0.1 * (rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))
    q, r = np.linalg.qr(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    frame = chol @ (q * (diag / np.abs(diag))[:, None, :])
    w = (frame * lam[:, None, :]) @ np.conj(np.swapaxes(frame, -1, -2))
    w = 0.5 * (w + np.conj(np.swapaxes(w, -1, -2)))
    return chol @ np.conj(np.swapaxes(chol, -1, -2)), w


def _unit_hermitian(rng, shape):
    """Hermitian matrices of unit Frobenius norm, shape (..., n, n)."""
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = x + np.conj(np.swapaxes(x, -1, -2))
    return h / np.linalg.norm(h, axis=(-2, -1))[..., None, None]


def test_criterion_4_derivative_identities_on_samples():
    """On sampled cone spectra: the Euler identity sum_i F^i lambda_i = F
    holds to 1e-10 relative (1e4 samples); the analytic gradient matches
    central differences at step 1e-5 to 1e-6 on interior samples; the
    second-derivative quadratic form (the eigenframe oracle) is nonpositive
    to 1e-10 (1e3 samples, 10 perturbations each).

    The same three identities on the pencil kernel the solver runs, on
    pencils (g, w) with the sampled spectra: Re tr(Phi w) = F to 1e-10
    relative; Re tr(Phi H) matches central differences of
    ``PencilTable.root`` at step 1e-5 to 1e-6 along unit-Frobenius
    Hermitian H (interior samples); second differences of F at step 1e-3,
    divided by h^2, are at most 1e-7 F along such H and along the flat
    ray H = w / |w|, where F is exactly linear."""
    ok = True
    details = []
    for n, k in ((3, 2), (4, 3)):
        lam = sample_gamma_k(n, k, 10000, seed=5)
        grad = sigma_root_gradient(lam, k)
        f_val = elementary_all(lam)[..., k] ** (1.0 / k)
        euler = np.abs((grad * lam).sum(-1) - f_val) / np.abs(f_val)
        ok = ok and euler.max() <= 1e-10
        details.append(f"euler({n},{k})={euler.max():.1e}")

        # interior margin keeps the finite-difference stencil inside the cone
        interior = elementary_all(lam)[..., k] >= 0.05
        lam_in = lam[interior]
        h = 1e-5
        fd = np.empty_like(lam_in)
        for i in range(n):
            plus = lam_in.copy()
            minus = lam_in.copy()
            plus[:, i] += h
            minus[:, i] -= h
            fp = elementary_all(plus)[..., k] ** (1.0 / k)
            fm = elementary_all(minus)[..., k] ** (1.0 / k)
            fd[:, i] = (fp - fm) / (2.0 * h)
        gd = np.abs(fd - sigma_root_gradient(lam_in, k)).max()
        ok = ok and gd <= 1e-6
        details.append(f"grad_fd({n},{k})={gd:.1e}")

        rng = np.random.default_rng(7)
        lam_c = sample_gamma_k(n, k, 1000, seed=9)[:, None, :] * np.ones((1, 10, 1))
        diag = rng.normal(size=lam_c.shape)
        off = rng.normal(size=lam_c.shape + (n,)) + 1j * rng.normal(
            size=lam_c.shape + (n,)
        )
        quad = oracles.concavity_form(lam_c, k, diag, off)
        ok = ok and quad.max() <= 1e-10
        details.append(f"concavity({n},{k})={quad.max():.1e}")

        # the pencil kernel on the same spectra
        rng = np.random.default_rng(11)
        g, w = _pencils_with_spectra(rng, lam)
        ginv = oracles.reference_inverse(g)
        table = pencil_table(ginv, w, k)
        root = table.root()
        phi = table.gradient(ginv)
        k_euler = np.abs(np.einsum("...ij,...ji->...", phi, w).real - root) / root
        ok = ok and k_euler.max() <= 1e-10
        details.append(f"kernel_euler({n},{k})={k_euler.max():.1e}")

        g_in, w_in, ginv_in = g[interior], w[interior], ginv[interior]
        root_in, phi_in = root[interior], phi[interior]

        def f_along(direction, step):
            return pencil_table(ginv_in, w_in + step * direction, k).root()

        pert = _unit_hermitian(rng, w_in.shape)
        slope = np.einsum("...ij,...ji->...", phi_in, pert).real
        k_gd = np.abs((f_along(pert, h) - f_along(pert, -h)) / (2.0 * h) - slope).max()
        ok = ok and k_gd <= 1e-6
        details.append(f"kernel_grad_fd({n},{k})={k_gd:.1e}")

        h2 = 1e-3
        flat = w_in / np.linalg.norm(w_in, axis=(-2, -1))[..., None, None]
        second = max(
            ((f_along(d, h2) - 2.0 * root_in + f_along(d, -h2)) / (h2 * h2 * root_in)).max()
            for d in (pert, flat)
        )
        ok = ok and second <= 1e-7
        details.append(f"kernel_d2({n},{k})={second:.1e}")
    verdict(
        "criterion 4: Euler / gradient / concavity identities, eigenframe and kernel",
        ok,
        "; ".join(details) + " (tols 1e-10, 1e-6, 1e-10; kernel 1e-10, 1e-6, 1e-7 F)",
    )


def test_criterion_5_basic_inequality_and_enumeration():
    """The trailing-entry inequality holds with zero violations on 1e5
    samples for (3,2), (4,2), (4,3), (5,3); the recurrence evaluation of
    sigma_k agrees with subset enumeration to 1e-12 for n <= 6."""
    rep = audits.audit_basic_inequality(samples=100000, seed=1)
    enum_worst = 0.0
    rng = np.random.default_rng(3)
    for n in range(3, 7):
        vals = np.concatenate(
            [rng.normal(size=(300, n)), sample_gamma_k(n, n - 1, 100, seed=n)]
        )
        sig = elementary_all(vals)
        for row, srow in zip(vals, sig):
            for k in range(1, n + 1):
                ref = oracles.sigma_enumerated(row, k)
                enum_worst = max(
                    enum_worst, abs(srow[k] - ref) / max(1.0, abs(ref))
                )
    ok = rep.passed and rep.violations == 0 and enum_worst <= 1e-12
    verdict(
        "criterion 5: basic inequality and enumeration cross-check",
        ok,
        f"violations={rep.violations} on 1e5 x 4 pairs; enum err={enum_worst:.1e} (tol 1e-12)",
    )


def test_criterion_6_commutation_identities():
    """Commutation residuals on non-flat presets drop at least 10x from
    N=12 to N=24 at orders 3 and 4, and omitting the torsion product from
    the fourth-order identity breaks closure by 10x or more."""
    rep = audits.audit_commutation()
    ok = (
        rep.passed
        and rep.constants["min_decay"] >= 10.0
        and rep.constants["mutation_ratio"] >= 10.0
    )
    verdict(
        "criterion 6: commutation identities under refinement",
        ok,
        f"min decay={rep.constants['min_decay']:.1f} (need >= 10), "
        f"mutation ratio={rep.constants['mutation_ratio']:.1e} (need >= 10)",
    )


def test_criterion_7_exponential_weight_bounds(family):
    """Weighted gradient constants C(p), p in {4,...,64}, computed on the
    strongest family solution satisfy max_p C(p) <= 3 C(64)."""
    rep = audits.audit_cherrier(family.grid, family.g, family.reports[-1].u)
    c_max, c_tail = rep.constants["C_max"], rep.constants["C_tail"]
    ok = rep.passed and c_max <= 3.0 * c_tail
    verdict(
        "criterion 7: exponential-weight gradient bounds",
        ok,
        f"max C(p)={c_max:.3e}, 3*C(64)={3 * c_tail:.3e}",
    )


def test_criterion_8_amplitude_family_estimates(family):
    """Across the 10-member amplitude family: oscillations stay finite, the
    offset obeys |b| <= sup|f| + log C(n,k) + 1e-6, and the second-order
    ratio max |ddbar u| / (1 + max |du|^2) stays within 10x its median."""
    c0 = audits.audit_c0(family)
    bb = audits.audit_b_bound(family)
    c2 = audits.audit_c2(family)
    ok = c0.passed and bb.passed and c2.passed
    verdict(
        "criterion 8: amplitude family estimates",
        ok,
        f"max osc={c0.constants['max_osc']:.3f}, "
        f"max|b|={bb.constants['max_abs_b']:.3f} within bound, "
        f"C2 spread={c2.constants['max_ratio'] / c2.constants['median_ratio']:.2f}x (need <= 10x)",
    )


def test_criterion_9_integral_constant_stability():
    """Empirical constants of the two algebraic lemmas are stable: per-i
    ratio maxima move < 20% when the sample count doubles, and the
    torsion-corrected integral constants move < 20% under grid refinement."""
    r21 = audits.audit_lemma21(4, 3, samples=20000, seed=2)
    r22 = audits.audit_lemma22()
    ok = r21.passed and r22.passed
    verdict(
        "criterion 9: lemma constant stability",
        ok,
        f"ratio-bound drift={r21.constants['stability_rel']:.3f} (tol 0.2), "
        f"integral worst drift fraction={r22.constants['worst_drift_fraction']:.3f} (tol 1)",
    )
