"""Empirical audits of the structural estimates the solver relies on.

Each audit measures one inequality or identity on sampled cone data or on
computed solutions and returns an AuditReport: tabulated rows, the extracted
empirical constants, and a pass/fail verdict against explicit tolerances.
The audits are deliberately redundant with the analytic facts they probe; a
regression anywhere in the symmetric-function, operator, or geometry layers
shows up here as a constant drifting or a violation count going positive.
The verdicts are fixed: their tolerances are the module constants below
(c0 and basic-inequality need none: finiteness, zero violations), no
caller can loosen them, and each report's ``tolerances`` records them.

Conventions shared with the solver: spectra are relative eigenvalues of the
metric pencil, descending; potentials carry the sup u = 0 gauge; b is the
scalar offset making the source compatible.

The lemma-22 audit runs on the top-coefficient route: each integrand
band ^ omega_u^i ^ T_i is evaluated as a pointwise contraction of the rank-
one band with mixed cofactors of g and omega_u and with the coefficients
of sqrt-1 d dbar omega, built from one-axis spectral derivatives, never as
a form.  omega_u, its minors and the densities exist one slab of grid
axis 0 at a time: each slab builds its omega_u from the gradient du, and
the integrals are summed slab by slab.  It covers
n <= 3, where sqrt-1 d dbar omega (in T_0 at n = 3) is the only torsion
correction.  The Form algebra of ``forms`` is the slow reference route the
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from math import comb, factorial, log
from statistics import median

import numpy as np

from .errors import DomainError, require_integer
from .geometry import (
    TorusGrid,
    chern_tensors,
    commutation_residual,
    covariant_derivatives,
    gradient_norm_sq,
    metric_preset,
)
from .solver import SolveReport, SolverOptions, plain, solve
from .symfunc import (
    _sigma_table,
    basic_inequality_check,
    sample_gamma_k,
    sample_gamma_k_boundary,
)

# Verdict tolerances, each under the key its reports record it by.
# lemma21 "stability_rtol": a sampled per-i maximum may move by at most 20 %
# when the sample count halves; more, and the sup is not yet sampled.
LEMMA21_STABILITY_RTOL = 0.2
# lemma22 "stability_rtol", "stability_atol": a constant may drift by 20 %
# of its size between the two grids, plus an absolute allowance for
# constants that are zero up to rounding.  A torsion correction counts as
# tested only if it exceeds this allowance.
LEMMA22_STABILITY_RTOL = 0.2
LEMMA22_STABILITY_ATOL = 1e-8
# commutation "decay": spectral accuracy on band-limited data makes each
# residual fall by orders of magnitude from N_lo to N_hi; a wrong identity
# or derivative stalls instead.
COMMUTATION_DECAY = 10.0
# commutation "mutation_factor": without its torsion-product term the
# fourth-order identity must miss by 10x the intact residual at N_hi, so the
# control is told apart from discretization error.
COMMUTATION_MUTATION_FACTOR = 10.0
# commutation "floor": each residual must start above rounding at N_lo, or
# its decay ratio measures noise.
COMMUTATION_FLOOR = 1e-12
# b-bound "slack": room for the solver's residual in b, 1000x the default
# newton_tol; a constant source attains the sharp two-sided bound, so its
# sharp margin is the slack alone.
B_BOUND_SLACK = 1e-6
# c2 "spread": the ratio Lambda / (1 + K) may peak at 10x its family median;
# a uniform constant in the Hou-Ma-Wu bound keeps the peak near the median.
C2_SPREAD = 10.0
# cherrier "factor": no C(p) may exceed 3x the last one, C(p_max), so an
# early spike fails.  A C(p) still growing at p_max peaks there and passes;
# its tail growth is reported, not judged.
CHERRIER_FACTOR = 3.0

# Fixed inputs, each recorded under its name in its report's params.
# lemma22 "amplitude": scale of the test potential.  Its ddbar u has
# eigenvalues in [-0.23, 0.09], so omega_u = omega + sqrt-1 ddbar u stays
# positive definite on every preset (Weyl: the kahler g has eigenvalues
# >= 0.41, the others >= 1).
LEMMA22_AMPLITUDE = 0.005
# commutation "presets": kahler checks the curvature terms with zero
# torsion, torsion adds the torsion products and carries the mutation
# control, so neither can be left out.
COMMUTATION_PRESETS = ("kahler", "torsion")
# commutation "epsilon": the torsion preset's departure from the identity,
# inside the preset's admissible (0, 0.2].
COMMUTATION_EPSILON = 0.15


@dataclass
class AuditReport:
    """Outcome of one audit: rows of measurements, derived constants, the
    tolerances they were judged against, and the verdict, which is passed
    exactly when no violation was counted."""

    name: str
    params: dict
    constants: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    violations: int = 0
    passed: bool = field(init=False)
    message: str = ""
    rows: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.passed = bool(self.violations == 0)

    def as_dict(self) -> dict:
        return plain(self)


# ------------------------------------------------------------- cone audits

def _mixed_cone_samples(n: int, k: int, samples: int, seed: int) -> np.ndarray:
    """Interior draws plus a near-boundary shell, randomly interleaved so a
    prefix is a fair subsample."""
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples!r}")
    interior = sample_gamma_k(n, k, samples, seed=seed)
    shell = sample_gamma_k_boundary(n, k, max(samples // 4, 4), seed=seed + 1)
    lam = np.vstack([interior, shell])
    rng = np.random.default_rng(seed + 2)
    return np.take(lam, rng.permutation(lam.shape[0]), axis=0)


def audit_lemma21(
    n: int = 4,
    k: int = 3,
    samples: int = 20000,
    seed: int = 0,
) -> AuditReport:
    """Ratio bound |lambda_{j_1}..lambda_{j_i}| / sigma_i(lambda|j) on Gamma_k.

    Enumerates every (i, j, subset) with 1 <= i <= k - 2 for n <= 6 (at
    i = 0 the ratio is the empty product over sigma_0 = 1, so it checks
    nothing) and maximizes the ratio over sampled spectra (interior plus
    boundary shell).  The verdict requires positive denominators throughout
    and per-i maxima over the two disjoint halves of the samples that differ
    by at most LEMMA21_STABILITY_RTOL of the larger one, i.e. the empirical
    constants have saturated.  Every nonpositive denominator is a violation,
    and so is a failed stability check, so the audit passes exactly when it
    counts no violation.
    """
    if not 3 <= k <= n <= 6:
        raise DomainError(f"audit needs 3 <= k <= n <= 6, got n={n}, k={k}")
    lam = _mixed_cone_samples(n, k, samples, seed)
    half = lam.shape[0] // 2
    # sigma_0..sigma_{k-2} of lambda with entry j deleted, one table per j
    rest = lam.copy()
    deleted = []
    for j in range(n):
        rest[:, j] = 0.0
        deleted.append(_sigma_table(rest, k - 2))
        rest[:, j] = lam[:, j]
    rows = []
    violations = 0
    by_i_half: dict[int, float] = {}
    by_i_other: dict[int, float] = {}
    for i in range(1, k - 1):
        numers = {
            subset: np.abs(np.prod(lam[:, [p - 1 for p in subset]], axis=-1))
            for subset in combinations(range(1, n + 1), i)
        }
        for j in range(1, n + 1):
            denom = deleted[j - 1][i]
            bad = int(np.count_nonzero(denom <= 0.0))
            good = denom > 0.0
            if bad:
                denom = denom[good]
            head = max(np.count_nonzero(good[:half]), 1)
            others = [p for p in range(1, n + 1) if p != j]
            for subset in combinations(others, i):
                numer = numers[subset][good] if bad else numers[subset]
                violations += bad  # counted per row, as the rows report it
                ratio = numer / denom
                half_max = other_max = np.inf  # no sample has a positive denominator
                if ratio.size:
                    half_max = float(ratio[:head].max())
                    other_max = float(ratio[head:].max(initial=0.0))
                full_max = max(half_max, other_max)
                rows.append(
                    {
                        "i": i,
                        "j": j,
                        "subset": "+".join(map(str, subset)),
                        "max_ratio": full_max,
                        "max_ratio_half": half_max,
                        "denominator_violations": bad,
                    }
                )
                by_i_half[i] = max(by_i_half.get(i, 0.0), half_max)
                by_i_other[i] = max(by_i_other.get(i, 0.0), other_max)
    by_i_full = {i: max(by_i_half[i], by_i_other[i]) for i in by_i_half}
    stability = max(
        abs(by_i_half[i] - by_i_other[i]) / (by_i_full[i] + 1e-300)
        if np.isfinite(by_i_full[i]) else np.inf
        for i in by_i_full
    )
    # an unsaturated constant is one more violation; an infinite stability
    # comes from rows without a positive denominator, counted above
    if np.isfinite(stability) and stability > LEMMA21_STABILITY_RTOL:
        violations += 1
    constants = {f"C_i_{i}": by_i_full[i] for i in sorted(by_i_full)}
    constants["C_global"] = max(by_i_full.values())
    constants["stability_rel"] = stability
    return AuditReport(
        name="lemma21_ratio_bound",
        params={"n": n, "k": k, "samples": samples, "seed": seed},
        rows=rows,
        constants=constants,
        tolerances={"stability_rtol": LEMMA21_STABILITY_RTOL},
        violations=violations,
        message="denominators positive and constants saturated"
        if violations == 0
        else "ratio bound audit failed",
    )


def audit_basic_inequality(
    pairs=((3, 2), (4, 2), (4, 3), (5, 3)),
    samples: int = 100000,
    seed: int = 0,
) -> AuditReport:
    """Trailing-entry bound |lambda_p| <= (n - k) lambda_k on Gamma_k.

    Zero tolerance: a single violating sample fails the audit.  Rows record
    the worst margin (n - k) lambda_k - max_p |lambda_p| per (n, k).
    """
    if len(pairs) == 0:
        raise DomainError("basic-inequality audit needs at least one (n, k) pair")
    for pair in pairs:
        if np.shape(pair) != (2,):
            raise DomainError(f"basic-inequality pairs are (n, k), got {pair!r}")
    rows = []
    violations = 0
    for idx, (n, k) in enumerate(pairs):
        lam = _mixed_cone_samples(n, k, samples, seed + 101 * idx)
        ok = basic_inequality_check(lam, k)
        bad = int(np.count_nonzero(~ok))
        violations += bad
        trailing = np.abs(lam[:, k:]).max(axis=-1)
        margin = (n - k) * lam[:, k - 1] - trailing
        rows.append(
            {
                "n": n,
                "k": k,
                "samples": int(lam.shape[0]),
                "violations": bad,
                "min_margin": float(margin.min()),
            }
        )
    return AuditReport(
        name="basic_inequality",
        params={"pairs": list(map(list, pairs)), "samples": samples, "seed": seed},
        rows=rows,
        constants={"total_violations": violations},
        tolerances={"violations": 0},
        violations=violations,
        message="no violations" if violations == 0
        else f"{violations} samples violated the bound",
    )


# --------------------------------------------------------- lemma-22 audit

def _signed_minors(mats, a: int, b: int, nonzero) -> list[np.ndarray]:
    """Coefficients of s^i, i = 0..n-1, in the (a, b) cofactor of
    mats[0] + s mats[1]: the sum over choices of i rows taken from mats[1]
    of (-1)^(a+b) det of rows != a and columns != b (Leibniz sum), without
    the products through a slot (r, c) of mats[0] that nonzero[r, c] zeroes."""
    n = mats[0].shape[-1]
    rows = [r for r in range(n) if r != a]
    cols = [c for c in range(n) if c != b]
    out = [np.zeros(mats[0].shape[:-2], dtype=complex) for _ in range(n)]
    for choice in product((0, 1), repeat=n - 1):
        acc = out[sum(choice)]
        for perm in permutations(range(n - 1)):
            factors = [mats[m][..., r, cols[c]] for r, m, c in zip(rows, choice, perm)
                       if m or nonzero[r, cols[c]]]
            if len(factors) < n - 1:
                continue
            inversions = sum(1 for x, y in combinations(perm, 2) if x > y)
            term = factors[0]
            for factor in factors[1:]:
                term = term * factor
            if (a + b + inversions) % 2:
                acc -= term
            else:
                acc += term
    return out


def _ddbar_omega_contraction(grid: TorusGrid, g: np.ndarray, du: np.ndarray,
                             nonzero) -> np.ndarray:
    """For n = 3: sum_{p,q} (-1)^{p+q} u_p conj(u_q) Q_{p^c q^c}, so that
    band ^ sqrt-1 d dbar omega = sqrt-1 (this) dz^123 ^ dzbar^123.

    Q_{(a,i),(b,j)} = d_a dbar_b g_ij - d_i dbar_b g_aj - d_a dbar_j g_ib
    + d_i dbar_j g_ab (a < i, b < j) are the coefficients of
    sqrt-1 d dbar omega on dz^a dz^i dzbar^b dzbar^j, and p^c is the sorted
    complement of p.  Q is Hermitian in its index pairs, so only q >= p is
    assembled, a term at a time: per row p and column c of g, with
    p^c = (a, b), the row d_a g_bc - d_b g_ac, then its d_ybar for each q
    whose complement is {c, y}, contracted with the band into the output.
    Slots (r, c) of g that nonzero[r, c] zeroes are skipped.
    """
    n = grid.n
    comp = [tuple(r for r in range(n) if r != p) for p in range(n)]
    out = np.zeros(grid.shape)
    for p, c in product(range(n), repeat=2):
        a, b = comp[p]
        row = grid.dz(g[..., b, c], a) if nonzero[b, c] else None
        if nonzero[a, c]:
            d = grid.dz(g[..., a, c], b)
            row = np.negative(d, out=d) if row is None else np.subtract(row, d, out=row)
            del d  # before the next row exists
        if row is None:
            continue
        for q in range(p, n):
            if c not in comp[q]:
                continue
            (y,) = (s for s in comp[q] if s != c)
            term = grid.dzbar(row, y)
            term *= du[..., p]  # then Re(term conj(u_q)), in its real part
            re, im = term.real, term.imag
            re *= du[..., q].real
            im *= du[..., q].imag
            re += im
            re *= (1.0 if c > y else -1.0) * ((-1) ** (p + q) * 2.0 if p != q else 1.0)
            out += re
            del term, re, im  # before the next term exists
    return out


def _lemma22_slabs(grid: TorusGrid, g: np.ndarray, u: np.ndarray):
    """Yield (volume, bare, correction) of the lemma-22 integrands for
    n <= 3, by contraction, one new slab of grid axis 0 at a time.

    volume is det g; bare[i], i < n, is top(band ^ omega_u^i ^ omega^d) /
    top(omega^n) times det g, d = n - 1 - i, and correction that of the
    sqrt-1 d dbar omega part of T_0 (None below n = 3, its only
    correction), so their means are integrals against the metric volume.
    band = sqrt-1 du ^ dbar u and omega_u = omega + sqrt-1 ddbar u.

    The band is rank one, c_ab = u_a conj(u_b), so bare[i] =
    i! d! sum_ab c_ab K^i_ab / n!, where K^i is the s^i coefficient of the
    cofactor matrix of g + s (g + ddbar u); K^0, the cofactor matrix of g,
    is det g times its transposed inverse, so bare[0] = |du|_g^2 det g / n.
    Each slab builds its omega_u and minors from u_{i jbar} = d_jbar u_i
    (i <= j) of du, the lower triangle conjugate; only u_{0 0bar} takes a
    derivative along axis 0, so du, it and the correction are the whole
    fields.  Slots of g that are zero on the whole grid are skipped.
    """
    n = grid.n
    # cast once, so the gradient copies nothing; a real u that the caller
    # no longer holds is freed here, and the complex one after the gradient
    u = u.astype(complex)
    du = grid.holomorphic_gradient(u)
    del u
    nonzero = {(r, c): bool(g[..., r, c].any()) for r in range(n) for c in range(n)}
    correction = None  # before u_{0 0bar} exists, to keep the peak down
    if n == 3:
        correction = _ddbar_omega_contraction(grid, g, du, nonzero)
        correction /= factorial(n)
    u00 = grid.dzbar(du[..., 0], 0).real.copy()
    weights = [factorial(i) * factorial(n - 1 - i) / factorial(n) for i in range(n)]
    # one slab of omega_u; index-first, so each slot the minors read is
    # contiguous, as in the whole-grid stacks
    wbuf = np.empty((n, n) + grid.shape[1:], dtype=complex)
    wx = np.moveaxis(wbuf, (0, 1), (-2, -1))
    for x in range(grid.N):
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
        volume = np.zeros(grid.shape[1:])
        bare = [np.zeros(grid.shape[1:]) for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                minors = _signed_minors((gx, wx), a, b, nonzero)
                if a == 0 and nonzero[0, b]:  # det g along row 0
                    volume += (gx[..., 0, b] * minors[0]).real
                band = np.conj(dux[..., b])
                band *= dux[..., a]
                if a != b:  # c and K^i are Hermitian: (b, a) conjugates (a, b)
                    band *= 2.0
                for minor, acc in zip(minors, bare):
                    minor *= band
                    acc += minor.real
        for acc, weight in zip(bare, weights):
            acc *= weight
        yield volume, bare, None if correction is None else correction[x]


def _smooth_test_potential(grid: TorusGrid) -> np.ndarray:
    """Full-spectrum smooth potential of scale LEMMA22_AMPLITUDE: exponentials
    of low trig modes, so no finite grid represents it exactly and refinement
    is measurable."""
    u = np.add(np.sin(2 * np.pi * grid.x(0)), 0.5 * np.cos(2 * np.pi * grid.y(1)),
               out=grid.zeros())
    np.exp(u, out=u)
    return LEMMA22_AMPLITUDE * (u - u.mean())


def _lemma22_grid_constants(grid: TorusGrid, preset: str, epsilon: float) -> list[tuple]:
    """(C, correction integral, correction sup) for each power i < n on one
    grid, the integrals against the metric volume over the Dirichlet energy,
    summed slab by slab."""
    g = metric_preset(grid, preset, epsilon=epsilon)
    sums, corr_sum, corr_sup = np.zeros(grid.n), 0.0, 0.0
    for volume, bare, correction in _lemma22_slabs(
            grid, g, _smooth_test_potential(grid)):
        sums += [b.sum() for b in bare]
        if correction is not None:
            corr_sum += float(correction.sum())
            corr_sup = max(corr_sup, float(np.abs(correction / volume).max()))
    energy = grid.n * float(sums[0])  # bare[0] is |du|_g^2 det g / n
    sums[0] += corr_sum
    c = (np.abs(sums) / energy).tolist()
    return [(c[0], corr_sum / energy, corr_sup)] + [(ci, 0.0, 0.0) for ci in c[1:]]


def audit_lemma22(
    cases=((2, 8, 16), (3, 8, 12)),
    preset: str = "torsion",
    epsilon: float = 0.1,
) -> AuditReport:
    """Stability of the torsion-corrected integral constants under grid
    refinement.

    For each (n, N_lo, N_hi) case and each power i < n the constant
    C = |int band ^ omega_u^i ^ T_i| / int |du|^2 dV is computed on both
    grids; the verdict requires |C_hi - C_lo| <= LEMMA22_STABILITY_RTOL *
    max + LEMMA22_STABILITY_ATOL.  The test potential has full spectrum, so
    agreement is evidence the integral converged rather than both grids
    resolving the data exactly.

    Each row also carries, on the N_hi grid, the integral of the
    sqrt-1 d dbar omega part of the integrand over the same energy
    (correction_integral) and its sup density (correction_sup).  The
    correction counts as tested only if some |correction_integral| exceeds
    its row's allowed drift; constants["torsion_correction_tested"] says
    whether it did.  Cases need n <= 3 (at n >= 4 T_i gains a d omega ^
    dbar omega term that this route does not evaluate) and N_lo < N_hi.
    """
    if len(cases) == 0:
        raise DomainError("lemma-22 audit needs at least one (n, N_lo, N_hi) case")
    for case in cases:
        if np.shape(case) != (3,):
            raise DomainError(f"lemma-22 cases are (n, N_lo, N_hi) triples, got {case!r}")
        for name, value in zip(("n", "N_lo", "N_hi"), case):
            require_integer(name, value)
        n, n_lo, n_hi = case
        if not (2 <= n <= 3 and n_lo < n_hi):
            raise DomainError(
                f"lemma-22 cases need 2 <= n <= 3 (n >= 4 adds the d omega ^ dbar "
                f"omega correction) and N_lo < N_hi (a grid cannot drift from "
                f"itself), got (n, N_lo, N_hi) = ({n}, {n_lo}, {n_hi})"
            )
    rows = []
    worst = 0.0
    for n, n_lo, n_hi in cases:
        consts = {
            N: _lemma22_grid_constants(TorusGrid(n, N), preset, epsilon)
            for N in (n_lo, n_hi)
        }
        for i in range(n):
            (c_lo, _, _), (c_hi, corr_int, corr_sup) = consts[n_lo][i], consts[n_hi][i]
            drift = abs(c_hi - c_lo)
            bound = LEMMA22_STABILITY_RTOL * max(c_lo, c_hi) + LEMMA22_STABILITY_ATOL
            worst = max(worst, drift / bound if bound > 0 else np.inf)
            rows.append(
                {
                    "n": n,
                    "i": i,
                    "N_lo": n_lo,
                    "N_hi": n_hi,
                    "C_lo": c_lo,
                    "C_hi": c_hi,
                    "drift": drift,
                    "allowed": bound,
                    "correction_integral": corr_int,
                    "correction_sup": corr_sup,
                }
            )
    violations = sum(1 for r in rows if r["drift"] > r["allowed"])
    tested = any(abs(r["correction_integral"]) > r["allowed"] for r in rows)
    message = (
        "integral constants stable under refinement"
        if violations == 0
        else "integral constants drift under refinement"
    )
    if not tested:
        message += (
            "; torsion correction not tested: its integral is within the "
            "allowed drift in every row"
        )
    return AuditReport(
        name="lemma22_integral_stability",
        params={
            "cases": list(map(list, cases)),
            "preset": preset,
            "epsilon": epsilon,
            "amplitude": LEMMA22_AMPLITUDE,
        },
        rows=rows,
        constants={
            "max_constant": max(r["C_hi"] for r in rows),
            "worst_drift_fraction": worst,
            "torsion_correction_tested": tested,
        },
        tolerances={
            "stability_rtol": LEMMA22_STABILITY_RTOL,
            "stability_atol": LEMMA22_STABILITY_ATOL,
        },
        violations=violations,
        message=message,
    )


# -------------------------------------------------------- solution audits

def audit_cherrier(
    grid: TorusGrid,
    g: np.ndarray,
    u: np.ndarray,
    p_list=(4, 8, 16, 32, 64),
) -> AuditReport:
    """Exponential-weight gradient bounds
    C(p) = (p/4) int e^{-pu} |du|^2 dV / int e^{-pu} dV stay bounded in p.

    The exponent is shifted by min u before exponentiating (the ratio is
    shift-invariant) so large p stays well conditioned.  Blow-up as p grows
    would sink the iteration-to-C0 argument; the verdict requires
    max_p C(p) <= CHERRIER_FACTOR * C(p_max), so it needs at least two
    integer exponents, positive and strictly increasing, the last one p_max.
    """
    for p in p_list:
        require_integer("exponent", p)
    if len(p_list) < 2 or not 0 < p_list[0] or any(
            a >= b for a, b in zip(p_list, p_list[1:])):
        raise DomainError(
            f"need at least two positive, strictly increasing exponents, got {list(p_list)}"
        )
    v = u - u.min()
    grad = gradient_norm_sq(grid, u, g)  # checks the metric, once
    dens = np.linalg.det(g).real  # the volume density of grid.integrate
    rows = []
    for p in p_list:
        weight = np.exp(-float(p) * v)
        c_emp = (
            0.25 * p * grid.mean(weight * grad * dens) / grid.mean(weight * dens)
        )
        rows.append({"p": int(p), "C_emp": float(c_emp)})
    values = [r["C_emp"] for r in rows]
    c_tail = values[-1]
    c_max = max(values)
    # tail growth rate is informational: a bounded sequence tends to 1
    growth = values[-1] / values[-2] if values[-2] > 0 else 1.0
    ok = bool(np.isfinite(values).all()) and c_max <= CHERRIER_FACTOR * c_tail
    return AuditReport(
        name="cherrier_exponential_gradient",
        params={"p_list": list(map(int, p_list)), "N": grid.N, "n": grid.n},
        rows=rows,
        constants={"C_max": c_max, "C_tail": c_tail, "tail_growth": growth},
        tolerances={"factor": CHERRIER_FACTOR},
        violations=0 if ok else 1,
        message="weighted gradient constants bounded in p"
        if ok
        else f"C_max {c_max:.3e} exceeds {CHERRIER_FACTOR} * C({rows[-1]['p']})",
    )


@dataclass
class FamilyResult:
    """Solves for the scaled sources s * f_hat, s in amplitudes."""

    grid: TorusGrid
    g: np.ndarray
    k: int
    preset: str
    amplitudes: list[float]
    reports: list[SolveReport]


def run_family(
    n: int,
    k: int,
    N: int,
    preset: str,
    terms,
    amplitudes,
    epsilon: float = 0.1,
    options: SolverOptions | None = None,
) -> FamilyResult:
    """Solve the equation for every amplitude scaling of one source shape."""
    if len(amplitudes) == 0:
        raise DomainError("an amplitude family needs at least one amplitude")
    grid = TorusGrid(n, N)
    g = metric_preset(grid, preset, epsilon=epsilon)
    f_hat = grid.trig_field(terms)
    reports = [solve(grid, g, s * f_hat, k, options=options) for s in amplitudes]
    return FamilyResult(
        grid=grid,
        g=g,
        k=k,
        preset=preset,
        amplitudes=[float(s) for s in amplitudes],
        reports=reports,
    )


def audit_c0(family: FamilyResult) -> AuditReport:
    """Oscillation of u stays finite and scales tamely with the source:
    rows tabulate osc(u) = sup u - inf u (= sup|u| in the sup u = 0 gauge)
    against sup|f| across the amplitude family."""
    rows = []
    ok = True
    for s, rep in zip(family.amplitudes, family.reports):
        osc = rep.sup_abs_u
        rows.append(
            {
                "amplitude": s,
                "sup_abs_f": rep.sup_abs_f,
                "osc_u": osc,
                "osc_over_1_plus_f": osc / (1.0 + rep.sup_abs_f),
                "b": rep.b,
                "success": rep.success,
            }
        )
        ok = ok and rep.success and np.isfinite(osc)
    ratios = [r["osc_over_1_plus_f"] for r in rows]
    return AuditReport(
        name="c0_oscillation",
        params={"preset": family.preset, "k": family.k, "N": family.grid.N},
        rows=rows,
        constants={"max_osc": max(r["osc_u"] for r in rows), "max_ratio": max(ratios)},
        tolerances={"finite": True},
        violations=0 if ok else 1,
        message="oscillation finite across the family" if ok else "family member failed",
    )


def audit_b_bound(family: FamilyResult) -> AuditReport:
    """Offset bound |b| <= sup|f| + log C(n, k) + B_BOUND_SLACK.

    The normalization pins sigma_k to C(n, k) at u = 0, so evaluating the
    equation at the extrema of u bounds b by sup|f| around log C(n, k)
    independently of the metric; rows record both the audited bound and the
    sharper two-sided margin sup|f| - |b - log C(n, k)|.
    """
    n, k = family.grid.n, family.k
    log_c = log(comb(n, k))
    rows = []
    violations = 0
    for s, rep in zip(family.amplitudes, family.reports):
        threshold = rep.sup_abs_f + log_c + B_BOUND_SLACK
        ok = rep.success and abs(rep.b) <= threshold
        violations += 0 if ok else 1
        rows.append(
            {
                "amplitude": s,
                "abs_b": abs(rep.b),
                "threshold": threshold,
                "sharp_margin": rep.sup_abs_f + B_BOUND_SLACK - abs(rep.b - log_c),
                "success": rep.success,
            }
        )
    return AuditReport(
        name="b_offset_bound",
        params={"preset": family.preset, "n": n, "k": k, "N": family.grid.N},
        rows=rows,
        constants={
            "max_abs_b": max(r["abs_b"] for r in rows),
            "min_sharp_margin": min(r["sharp_margin"] for r in rows),
        },
        tolerances={"slack": B_BOUND_SLACK},
        violations=violations,
        message="offset inside the a priori window"
        if violations == 0
        else f"{violations} family members break the offset bound",
    )


def audit_c2(family: FamilyResult) -> AuditReport:
    """Second-order bound: R = Lambda / (1 + K) with Lambda = max |ddbar u|
    and K = max |du|^2 must not spike across the family.

    A uniform constant in the estimate Lambda <= C (1 + K) means max R stays
    within C2_SPREAD times the family median.
    """
    rows = []
    ok = True
    for s, rep in zip(family.amplitudes, family.reports):
        r_val = rep.max_abs_hessian / (1.0 + rep.max_grad_sq)
        rows.append(
            {
                "amplitude": s,
                "Lambda": rep.max_abs_hessian,
                "K": rep.max_grad_sq,
                "ratio": r_val,
                "success": rep.success,
            }
        )
        ok = ok and rep.success and np.isfinite(r_val)
    ratios = [r["ratio"] for r in rows]
    med = median(ratios)
    peak = max(ratios)
    ok = ok and peak <= C2_SPREAD * med
    return AuditReport(
        name="c2_ratio_spread",
        params={"preset": family.preset, "k": family.k, "N": family.grid.N},
        rows=rows,
        constants={"max_ratio": peak, "median_ratio": med},
        tolerances={"spread": C2_SPREAD},
        violations=0 if ok else 1,
        message="second-order ratio uniform across the family"
        if ok
        else "second-order ratio spikes across the family",
    )


# ----------------------------------------------------- commutation audit

COMMUTATION_TERMS = (
    (0.5, (1, 0, 0, 0), 0.0),
    (0.3, (0, 1, 1, 0), 0.4),
    (0.2, (0, 0, 2, 1), 1.3),
)


def audit_commutation(N_lo: int = 12, N_hi: int = 24) -> AuditReport:
    """Covariant-derivative commutation identities close under refinement.

    For each preset of COMMUTATION_PRESETS and derivative order 3 and 4 the
    residual must drop by at least COMMUTATION_DECAY from N_lo to N_hi while
    starting above COMMUTATION_FLOOR (so the check measures something).  A
    mutation control drops the torsion-product term from the fourth-order
    identity on the torsion preset; the mutated residual must exceed the
    intact one by COMMUTATION_MUTATION_FACTOR at N_hi, guarding the audit
    against a vacuous pass.  N_lo < N_hi is required.
    """
    for N in (N_lo, N_hi):
        require_integer("N", N)  # the grid's own check, before the comparison
    if N_lo >= N_hi:
        raise DomainError(
            f"commutation audit needs N_lo < N_hi (a residual cannot decay "
            f"without refinement), got N_lo={N_lo}, N_hi={N_hi}"
        )
    rows = []
    res: dict[tuple, float] = {}  # (preset, order or "mutated", N) -> residual
    for N in (N_lo, N_hi):
        grid = TorusGrid(2, N)
        u = grid.trig_field(list(COMMUTATION_TERMS))
        for preset in COMMUTATION_PRESETS:
            # one build and one evaluation per (preset, grid) serve both
            # orders and the control
            g = metric_preset(grid, preset, epsilon=COMMUTATION_EPSILON)
            tensors = chern_tensors(grid, g)
            derivs = covariant_derivatives(grid, u, tensors, order=4)
            res[preset, 3, N], res[preset, 4, N], res[preset, "mutated", N] = (
                commutation_residual(tensors, derivs))
            del tensors, derivs  # before the next build, to keep one at a time
    for preset in COMMUTATION_PRESETS:
        for order in (3, 4):
            lo, hi = res[preset, order, N_lo], res[preset, order, N_hi]
            achieved = lo / hi if hi > 0 else np.inf
            rows.append(
                {
                    "preset": preset,
                    "order": order,
                    "variant": "intact",
                    "res_lo": lo,
                    "res_hi": hi,
                    "decay": achieved,
                    "ok": lo > COMMUTATION_FLOOR and achieved >= COMMUTATION_DECAY,
                }
            )
    lo, hi = res["torsion", "mutated", N_lo], res["torsion", "mutated", N_hi]
    intact_hi = res["torsion", 4, N_hi]
    rows.append(
        {
            "preset": "torsion",
            "order": 4,
            "variant": "torsion_product_omitted",
            "res_lo": lo,
            "res_hi": hi,
            "decay": lo / hi if hi > 0 else np.inf,
            "ok": hi >= COMMUTATION_MUTATION_FACTOR * intact_hi,
        }
    )
    violations = sum(1 for r in rows if not r["ok"])
    return AuditReport(
        name="commutation_identities",
        params={
            "N_lo": N_lo,
            "N_hi": N_hi,
            "presets": list(COMMUTATION_PRESETS),
            "orders": [3, 4],
            "epsilon": COMMUTATION_EPSILON,
        },
        rows=rows,
        constants={
            "min_decay": min(r["decay"] for r in rows if r["variant"] == "intact"),
            "mutation_ratio": hi / intact_hi,
        },
        tolerances={
            "decay": COMMUTATION_DECAY,
            "mutation_factor": COMMUTATION_MUTATION_FACTOR,
            "floor": COMMUTATION_FLOOR,
        },
        violations=violations,
        message="identities close under refinement and the control breaks them"
        if violations == 0
        else "commutation audit failed",
    )
