"""Audit layer tests with reduced sample counts and grids; the acceptance
suite reruns the same audits at full size."""

import dataclasses
import json
import tracemalloc
from math import comb, log

import numpy as np
import pytest

from khessian import audits, geometry, symfunc
from khessian.cli import _write_outputs
from khessian.errors import DomainError
from khessian.forms import metric_form
from khessian.geometry import TorusGrid, metric_preset
from khessian.solver import SolverOptions

from oracles import (
    _correction_block,
    _lemma22_constant,
    audit_lemma21_loop,
    lemma22_terms,
    random_hermitian_field,
)


@pytest.fixture(scope="module")
def small_family():
    return audits.run_family(
        2,
        2,
        8,
        "euclidean",
        [(0.5, (1, 0, 0, 0), 0.0), (0.3, (0, 0, 1, 1), 0.7)],
        (0.5, 1.0),
    )


def test_report_serialization(tmp_path):
    rep = audits.audit_basic_inequality(pairs=((3, 2),), samples=500)
    _write_outputs(tmp_path, rep.as_dict(), rep.rows)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "rows.csv"
    loaded = json.loads(jpath.read_text())
    assert loaded["name"] == rep.name
    assert loaded["passed"] is True
    assert loaded["rows"][0]["n"] == 3
    lines = cpath.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "n"
    assert len(lines) == 1 + len(rep.rows)


def test_as_dict_round_trips_numpy_values_through_json():
    rep = audits.AuditReport(
        name="numpy",
        params={"shape": (2, 3)},
        constants={"c": np.float64(0.25)},
        violations=np.int64(0),
        rows=[{"x": np.float32(0.5), "v": np.arange(3), "m": np.eye(2)}],
    )
    plain = rep.as_dict()
    assert json.loads(json.dumps(plain)) == plain
    assert plain == {
        "name": "numpy",
        "params": {"shape": [2, 3]},
        "constants": {"c": 0.25},
        "tolerances": {},
        "violations": 0,
        "passed": True,
        "message": "",
        "rows": [{"x": 0.5, "v": [0, 1, 2], "m": [[1.0, 0.0], [0.0, 1.0]]}],
    }
    assert list(plain) == [f.name for f in dataclasses.fields(audits.AuditReport)]


@pytest.mark.parametrize("violations, passed", [(0, True), (2, False)])
def test_passed_is_derived_from_the_violation_count(violations, passed):
    rep = audits.AuditReport(name="count", params={}, violations=violations)
    assert rep.passed is passed


def test_lemma21_enumeration_and_pass():
    rep = audits.audit_lemma21(4, 3, samples=3000)
    assert rep.passed
    assert rep.violations == 0
    # i = 1 over 4 * 3 (position, subset) choices; i = 0 reads 1 and is left out
    assert len(rep.rows) == 12
    assert {row["i"] for row in rep.rows} == {1}
    assert "C_i_0" not in rep.constants
    assert rep.constants["C_global"] == rep.constants["C_i_1"] <= 2.0


@pytest.mark.parametrize("n, k, samples", [(4, 3, 400), (6, 5, 300)])
def test_lemma21_report_equals_the_per_row_loop(n, k, samples):
    for seed in (0, 5):
        expect = audit_lemma21_loop(n, k, samples=samples, seed=seed).as_dict()
        assert audits.audit_lemma21(n, k, samples=samples, seed=seed).as_dict() == expect


def test_lemma21_validation():
    with pytest.raises(DomainError):
        audits.audit_lemma21(7, 3, samples=10)
    with pytest.raises(DomainError):
        audits.audit_lemma21(4, 2, samples=10)


def test_cone_audits_reject_fewer_than_one_sample_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampler called")

    monkeypatch.setattr(audits, "sample_gamma_k", no_draws)
    for samples in (0, -3):
        with pytest.raises(DomainError):
            audits.audit_lemma21(4, 3, samples=samples)
        with pytest.raises(DomainError):
            audits.audit_basic_inequality(samples=samples)


def test_cone_audits_reject_a_negative_seed_as_a_domain_error():
    # not numpy's bare ValueError, which names no parameter
    with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
        audits.audit_lemma21(4, 3, samples=10, seed=-1)
    with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
        audits.audit_basic_inequality(pairs=((3, 2),), samples=10, seed=-1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: TorusGrid(2.5, 8), "n must be an integer, got 2.5"),
        (lambda: TorusGrid(2, 8.0), "N must be an integer, got 8.0"),
        (lambda: audits.audit_lemma22(cases=[(2.5, 8, 16)]), "n must be an integer, got 2.5"),
        (lambda: audits.audit_lemma22(cases=[(2, 8.0, 16)]), "N_lo must be an integer"),
        (lambda: audits.audit_commutation(N_lo=8.0), "N must be an integer, got 8.0"),
        (lambda: audits.audit_lemma21(n=4.0, samples=10), "n must be an integer, got 4.0"),
        (lambda: audits.audit_basic_inequality(pairs=[(3.0, 2)], samples=10),
         "n must be an integer, got 3.0"),
        (lambda: audits.audit_lemma22(cases=[(2, 8)]), r"\(n, N_lo, N_hi\) triples"),
        (lambda: audits.audit_basic_inequality(pairs=[(3,)], samples=10), r"pairs are \(n, k\)"),
    ],
    ids=["grid-n", "grid-N", "lemma22-n", "lemma22-N", "commutation-N", "lemma21-n", "basic-n",
         "lemma22-short-case", "basic-short-pair"],
)
def test_non_integer_sizes_and_short_records_raise_domain_errors(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def _feed_cone_samples(monkeypatch, lam):
    monkeypatch.setattr(audits, "_mixed_cone_samples", lambda *args: lam)


def _lemma21_fed(samples):
    """The lemma-21 report on the fed samples, after checking that the
    per-row loop gives the same one."""
    rep = audits.audit_lemma21(4, 3, samples=samples)
    assert rep.as_dict() == audit_lemma21_loop(4, 3, samples=samples).as_dict()
    return rep


def test_lemma21_fails_when_only_the_second_half_holds_the_largest_ratio(monkeypatch):
    # first half: entries in [0.5, 1], so |lambda_p| / sigma_1(lambda|j) <= 1/2;
    # second half adds (1, eps, eps, eps), whose ratio at i = 1 is ~1
    rng = np.random.default_rng(0)
    first = -np.sort(-rng.uniform(0.5, 1.0, size=(50, 4)), axis=-1)
    second = np.vstack([first[:49], [[1.0, 1e-3, 1e-3, 1e-3]]])
    _feed_cone_samples(monkeypatch, np.vstack([first, second]))
    rep = _lemma21_fed(50)
    assert rep.violations == 1
    assert rep.constants["stability_rel"] > rep.tolerances["stability_rtol"]
    assert rep.passed is False


def test_lemma21_fails_when_only_the_first_half_holds_the_largest_ratio(monkeypatch):
    # the mirror of the case above: the (1, eps, eps, eps) row lies in the
    # first half, so only a comparison of the two disjoint halves sees it
    rng = np.random.default_rng(0)
    first = -np.sort(-rng.uniform(0.5, 1.0, size=(50, 4)), axis=-1)
    second = np.vstack([first[:49], [[1.0, 1e-3, 1e-3, 1e-3]]])
    _feed_cone_samples(monkeypatch, np.vstack([second, first]))
    rep = _lemma21_fed(50)
    assert rep.violations == 1
    assert rep.constants["stability_rel"] > rep.tolerances["stability_rtol"]
    assert rep.passed is False


def test_lemma21_stability_is_positive_where_the_first_half_holds_every_maximum():
    # at seed 0 each per-i maximum falls in the first half of the samples,
    # where a comparison with the full-sample maximum reads exactly 0
    rep = audits.audit_lemma21(4, 3, samples=3000, seed=0)
    assert rep.constants["stability_rel"] > 0.0


def test_lemma21_counts_nonpositive_denominators_per_row(monkeypatch):
    # (1, 1, -5, -5) lies outside Gamma_3: sigma_1(lambda|j) < 0 for every j
    lam = np.vstack([np.ones((20, 4)), [[1.0, 1.0, -5.0, -5.0]] * 3])
    _feed_cone_samples(monkeypatch, lam)
    rep = _lemma21_fed(20)
    # i = 1: four positions j, three subsets each, three bad spectra per row
    assert rep.violations == 4 * 3 * 3
    assert sum(row["denominator_violations"] for row in rep.rows) == rep.violations
    assert rep.passed is False


def test_lemma21_reports_a_row_without_positive_denominators(monkeypatch):
    # sigma_1(lambda|j) < 0 for every j and every sample: the i = 1 rows
    # have no ratio to maximize, and the audit reports that instead of raising
    _feed_cone_samples(monkeypatch, np.array([[1.0, 1.0, -5.0, -5.0]] * 4))
    rep = _lemma21_fed(4)
    empty = [row for row in rep.rows if row["i"] == 1]
    assert len(empty) == 4 * 3
    for row in empty:
        assert row["denominator_violations"] == 4
        assert row["max_ratio"] == np.inf
        assert row["max_ratio_half"] == np.inf
    assert rep.violations == 4 * 3 * 4
    assert rep.constants["C_global"] == np.inf
    assert rep.passed is False


def test_basic_inequality_zero_violations():
    rep = audits.audit_basic_inequality(samples=5000)
    assert rep.passed
    assert rep.violations == 0
    assert all(row["min_margin"] >= 0.0 for row in rep.rows)
    assert len(rep.rows) == 4


def test_lemma22_pinned_identity_case():
    # n = 2, i = 0 has no correction terms and the ratio is exactly 1/2
    rep = audits.audit_lemma22(cases=((2, 8, 12),))
    assert rep.passed
    row0 = next(r for r in rep.rows if r["i"] == 0)
    assert row0["C_lo"] == pytest.approx(0.5, abs=1e-12)
    assert row0["C_hi"] == pytest.approx(0.5, abs=1e-12)
    row1 = next(r for r in rep.rows if r["i"] == 1)
    assert row1["drift"] <= row1["allowed"]


def test_lemma22_correction_block_inert_on_kahler():
    # with vanishing torsion the corrected block collapses to omega^degree
    grid = TorusGrid(3, 8)
    g = metric_preset(grid, "kahler")
    omega = metric_form(grid, g)
    top = omega.wedge_power(3)
    block = _correction_block(grid, g, 2)
    bare = omega.wedge_power(2)
    probe = omega  # wedge both to top degree and compare densities
    diff = block.wedge(probe).ratio_to(top) - bare.wedge(probe).ratio_to(top)
    assert np.abs(diff).max() < 1e-6


def _lemma22_metric(grid, name):
    if name == "random":  # non-diagonal and not Kahler: off-diagonal signs count
        return random_hermitian_field(grid, np.random.default_rng(grid.n))
    return metric_preset(grid, name)


@pytest.mark.parametrize("name", ["euclidean", "kahler", "torsion", "random"])
@pytest.mark.parametrize("n", [2, 3])
def test_lemma22_contraction_matches_form_route(n, name):
    grid = TorusGrid(n, 8)
    g = _lemma22_metric(grid, name)
    # every du component complex and nonzero, so a transposed band shows
    rng = np.random.default_rng(10 + n)
    u = grid.trig_field(
        [(0.01, rng.integers(-1, 2, size=2 * n), rng.uniform(0, 6)) for _ in range(4)]
    )
    # whole-grid densities, assembled from the sweep's slabs
    slabs = list(audits._lemma22_slabs(grid, g, u))
    assert len(slabs) == grid.N and all(len(bare) == n for _, bare, _ in slabs)
    assert all((c is None) == (n < 3) for _, _, c in slabs)
    volume = np.stack([v for v, _, _ in slabs])
    energy = n * grid.mean(np.stack([bare[0] for _, bare, _ in slabs]))
    for i in range(n):
        weighted = np.stack([bare[i] for _, bare, _ in slabs])
        correction = None
        if i == 0 and n == 3:  # T_0 = omega^2 + sqrt-1 d dbar omega
            weighted_correction = np.stack([c for _, _, c in slabs])
            weighted += weighted_correction
            correction = weighted_correction / volume
        density = weighted / volume
        c_ref, density_ref, correction_ref = _lemma22_constant(grid, g, u, i)
        c_new = abs(grid.mean(weighted)) / energy
        assert abs(c_new - c_ref) <= 1e-12 * c_ref
        scale = np.abs(density_ref).max()
        assert np.abs(density - density_ref).max() <= 1e-12 * scale
        if correction is None:
            assert n - 1 - i < 2 and not correction_ref.any()
        else:
            assert np.abs(correction - correction_ref).max() <= 1e-12 * scale
            if name in ("torsion", "random"):
                assert np.abs(correction).max() > 1e-3 * np.abs(density).max()


@pytest.mark.parametrize("name", ["euclidean", "kahler", "torsion", "random"])
@pytest.mark.parametrize("n", [2, 3])
def test_lemma22_grid_constants_match_whole_grid_route(n, name, monkeypatch):
    grid = TorusGrid(n, 8)
    g = _lemma22_metric(grid, name)
    monkeypatch.setattr(audits, "metric_preset", lambda grid, preset, epsilon: g)
    consts = audits._lemma22_grid_constants(grid, name, 0.1)
    u = audits._smooth_test_potential(grid)
    volume, energy, terms = lemma22_terms(grid, g, u)
    assert len(consts) == n
    for (c, corr_int, corr_sup), (density, correction) in zip(consts, terms):
        c_ref = abs(grid.mean(density * volume)) / energy
        assert abs(c - c_ref) <= 1e-12 * c_ref
        if correction is None:
            assert corr_int == corr_sup == 0.0
            continue
        assert abs(corr_int - grid.mean(correction * volume) / energy) <= 1e-12 * c
        assert abs(corr_sup - np.abs(correction).max()) <= 1e-12 * c


def _lemma22_terms_peak_fields():
    """Traced allocation peak of the lemma-22 slab sweep at n=3, N=8 on the
    torsion preset, in real grid fields."""
    grid = TorusGrid(3, 8)
    g = metric_preset(grid, "torsion", epsilon=0.1)
    u = audits._smooth_test_potential(grid)
    tracemalloc.start()
    try:
        for _ in audits._lemma22_slabs(grid, g, u):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / u.nbytes


def test_lemma22_terms_peak_stays_below_40_grid_fields():
    # the band and the minors are only one slab of grid axis 0 at a time
    assert _lemma22_terms_peak_fields() <= 40.0


def test_lemma22_terms_peak_stays_below_24_grid_fields():
    # omega_u is built one slab at a time from du: du, u_{0 0bar}, the
    # correction and the outputs are the only whole-grid fields it adds
    assert _lemma22_terms_peak_fields() <= 24.0


def test_lemma22_sweep_peak_stays_below_14_grid_fields():
    # the whole grids left are du (2n fields), u_{0 0bar} and the
    # correction; at N=8 one slab's omega_u, minors and sums add about 4.
    # The correction's contraction peaks lower, at 13: du, its output, one
    # row of d_x g and the d_ybar of that row with its transform's temporary
    assert _lemma22_terms_peak_fields() <= 14.0


def test_lemma22_reports_the_torsion_correction(monkeypatch):
    rep = audits.audit_lemma22(cases=((3, 8, 10),))
    assert rep.passed
    i0 = next(r for r in rep.rows if r["i"] == 0)
    assert i0["correction_sup"] > 0.0
    assert abs(i0["correction_integral"]) < 1e-12 < i0["allowed"]
    assert all(r["correction_integral"] == r["correction_sup"] == 0.0
               for r in rep.rows if r["i"] > 0)
    assert rep.constants["torsion_correction_tested"] is False
    assert "torsion correction not tested" in rep.message
    # a correction that integrates to more than the allowed drift is tested
    monkeypatch.setattr(audits, "_ddbar_omega_contraction",
                        lambda grid, g, du, nonzero: np.full(grid.shape, 1e-3))
    rep = audits.audit_lemma22(cases=((3, 8, 10),))
    assert rep.constants["torsion_correction_tested"] is True
    assert "not tested" not in rep.message


def test_lemma22_rejects_n_above_3_before_building_a_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(audits, "TorusGrid", no_grid)
    with pytest.raises(DomainError, match="n <= 3"):
        audits.audit_lemma22(cases=((2, 8, 16), (4, 8, 10)))


@pytest.mark.parametrize("case", [(2, 8, 8), (3, 10, 8)])
def test_lemma22_rejects_a_case_without_refinement_before_building_a_grid(
    monkeypatch, case
):
    # N_lo == N_hi compares a grid with itself: drift 0, so it could not fail
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(audits, "TorusGrid", no_grid)
    with pytest.raises(DomainError, match="N_lo < N_hi"):
        audits.audit_lemma22(cases=((2, 8, 16), case))


@pytest.mark.parametrize("amplitude", [0.0, -0.005, np.nan])
def test_lemma22_rejects_a_nonpositive_amplitude_before_building_a_grid(
    monkeypatch, amplitude
):
    # the amplitude is the constant LEMMA22_AMPLITUDE, so no call can pass one
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(audits, "TorusGrid", no_grid)
    assert audits.LEMMA22_AMPLITUDE > 0
    with pytest.raises(TypeError, match="amplitude"):
        audits.audit_lemma22(cases=((2, 8, 16),), amplitude=amplitude)


@pytest.mark.parametrize("p_list", [(0, 0), (4, -8), (16,), (), (64, 4), (4, 4)])
def test_cherrier_rejects_fewer_than_two_positive_exponents(small_family, p_list):
    # (0, 0) would give C = 0 for every p, a single p has C_max = C_tail,
    # and the verdict compares with the last C(p), which is C(p_max) only
    # for increasing exponents: (4, 4) could not fail, and a descending list
    # would judge against C(4)
    grid, g, u = small_family.grid, small_family.g, small_family.reports[-1].u
    with pytest.raises(DomainError, match="at least two positive, strictly increasing"):
        audits.audit_cherrier(grid, g, u, p_list=p_list)


@pytest.mark.parametrize("p_list", [(4.5, 8), (4, np.nan), ("a", "b"), (True, 8)])
def test_cherrier_rejects_exponents_that_are_not_integers(small_family, p_list):
    # 4.5 would be reported as p = 4 next to the value of C(4.5)
    grid, g, u = small_family.grid, small_family.g, small_family.reports[-1].u
    with pytest.raises(DomainError, match="exponent must be an integer"):
        audits.audit_cherrier(grid, g, u, p_list=p_list)


def test_cherrier_accepts_numpy_integer_exponents(small_family):
    grid, g, u = small_family.grid, small_family.g, small_family.reports[-1].u
    rep = audits.audit_cherrier(grid, g, u, p_list=np.array([4, 8]))
    assert rep.as_dict() == audits.audit_cherrier(grid, g, u, p_list=(4, 8)).as_dict()


@pytest.mark.parametrize(
    "call",
    [
        lambda: audits.audit_basic_inequality(pairs=()),
        lambda: audits.audit_lemma22(cases=()),
        lambda: audits.run_family(2, 2, 8, "euclidean", [(0.5, (1, 0, 0, 0), 0.0)], []),
    ],
    ids=["basic-inequality-pairs", "lemma22-cases", "family-amplitudes"],
)
def test_empty_audit_inputs_are_rejected(call):
    # no rows would pass basic-inequality vacuously and break the other
    # audits' max and median
    with pytest.raises(DomainError, match="at least one"):
        call()


def test_cherrier_zero_potential_and_shift_invariance(small_family):
    grid, g = small_family.grid, small_family.g
    rep = audits.audit_cherrier(grid, g, grid.zeros())
    assert rep.passed
    assert all(row["C_emp"] == 0.0 for row in rep.rows)
    u = small_family.reports[-1].u
    r1 = audits.audit_cherrier(grid, g, u)
    r2 = audits.audit_cherrier(grid, g, u + 5.0)
    np.testing.assert_allclose(
        [a["C_emp"] for a in r1.rows], [a["C_emp"] for a in r2.rows], rtol=1e-12
    )
    assert r1.passed


def test_cherrier_checks_the_metric_once(small_family, monkeypatch):
    calls = []
    check = geometry.require_metric

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(geometry, "require_metric", counted)
    for rep in small_family.reports:
        calls.clear()
        assert audits.audit_cherrier(small_family.grid, small_family.g, rep.u).passed
        assert len(calls) == 1


def test_family_solution_audits(small_family):
    c0 = audits.audit_c0(small_family)
    assert c0.passed
    assert all(np.isfinite(row["osc_u"]) for row in c0.rows)
    bb = audits.audit_b_bound(small_family)
    assert bb.passed
    assert bb.constants["min_sharp_margin"] >= 0.0
    c2 = audits.audit_c2(small_family)
    assert c2.passed
    assert c2.constants["max_ratio"] <= 10.0 * c2.constants["median_ratio"]


def test_b_bound_exact_on_constant_source():
    # constant f decouples: b = log C(n, k) - f exactly, u = 0
    fam = audits.run_family(2, 1, 8, "euclidean", [(0.4, (0, 0, 0, 0), 0.0)], (1.0,))
    rep = audits.audit_b_bound(fam)
    assert rep.passed
    assert fam.reports[0].b == pytest.approx(log(comb(2, 1)) - 0.4, abs=1e-10)
    # sharp two-sided margin is tight up to the slack for constant sources
    assert rep.rows[0]["sharp_margin"] == pytest.approx(1e-6, abs=1e-9)


def test_commutation_audit_reduced():
    # the reduced grids run every preset, both orders and the control
    rep = audits.audit_commutation(N_lo=8, N_hi=16)
    assert rep.passed
    intact = [r for r in rep.rows if r["variant"] == "intact"]
    assert [(r["preset"], r["order"]) for r in intact] == [
        (preset, order) for preset in ("kahler", "torsion") for order in (3, 4)
    ]
    assert all(r["decay"] >= 10.0 for r in intact)
    control = [r for r in rep.rows if r["variant"] != "intact"]
    assert len(control) == 1
    assert (control[0]["preset"], control[0]["order"]) == ("torsion", 4)
    assert control[0]["res_hi"] > 10.0 * intact[-1]["res_hi"]
    assert rep.constants["mutation_ratio"] > 10.0
    assert rep.params["presets"] == list(audits.COMMUTATION_PRESETS)
    assert rep.params["orders"] == [3, 4]
    assert rep.params["epsilon"] == audits.COMMUTATION_EPSILON


def _count_builds(monkeypatch):
    """Wrap the Chern and derivative builds that audit_commutation calls,
    recording each derivative build's order and result."""
    built = {"chern": 0, "derivatives": []}
    chern, derivatives = audits.chern_tensors, audits.covariant_derivatives

    def counted_chern(*args, **kwargs):
        built["chern"] += 1
        return chern(*args, **kwargs)

    def counted_derivatives(*args, **kwargs):
        out = derivatives(*args, **kwargs)
        built["derivatives"].append((kwargs.get("order"), out))
        return out

    monkeypatch.setattr(audits, "chern_tensors", counted_chern)
    monkeypatch.setattr(audits, "covariant_derivatives", counted_derivatives)
    return built


def test_commutation_audit_builds_once_per_preset_and_grid(monkeypatch):
    built = _count_builds(monkeypatch)
    rep = audits.audit_commutation(N_lo=8, N_hi=16)
    assert rep.passed
    assert len(rep.rows) == 5  # two presets x two orders, plus the control
    # (kahler, torsion) x (8, 16); every order and the control share them
    assert built["chern"] == 4
    assert [order for order, _ in built["derivatives"]] == [4] * 4


def test_commutation_audit_evaluates_order_4_once_per_grid(monkeypatch):
    evaluations = []
    evaluate = geometry.commutation_residual

    def counted(*args, **kwargs):
        evaluations.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(audits, "commutation_residual", counted)
    assert audits.audit_commutation(N_lo=8, N_hi=16).passed
    # (kahler, torsion) x (8, 16): both orders and the torsion control
    # share their grid's evaluation
    assert len(evaluations) == 4


def test_commutation_audit_fails_when_the_shared_build_loses_its_torsion(monkeypatch):
    chern = audits.chern_tensors

    def torsion_free(*args, **kwargs):
        tensors = chern(*args, **kwargs)
        return dataclasses.replace(tensors, torsion=np.zeros_like(tensors.torsion))

    monkeypatch.setattr(audits, "chern_tensors", torsion_free)
    rep = audits.audit_commutation(N_lo=8, N_hi=16)
    assert rep.passed is False
    assert rep.violations > 0
    assert not all(r["ok"] for r in rep.rows if r["preset"] == "torsion")


# ------------------------------------------------------- fixed verdicts

@pytest.mark.parametrize(
    "call, keyword",
    [
        (lambda **kw: audits.audit_lemma21(4, 3, samples=10, **kw), "stability_rtol"),
        (lambda **kw: audits.audit_lemma22(**kw), "stability_rtol"),
        (lambda **kw: audits.audit_lemma22(**kw), "stability_atol"),
        (lambda **kw: audits.audit_commutation(**kw), "decay"),
        (lambda **kw: audits.audit_commutation(**kw), "mutation_factor"),
        (lambda **kw: audits.audit_commutation(**kw), "floor"),
        (lambda **kw: audits.audit_commutation(**kw), "presets"),
        (lambda **kw: audits.audit_commutation(**kw), "orders"),
        (lambda **kw: audits.audit_commutation(**kw), "epsilon"),
        (lambda **kw: audits.audit_lemma22(**kw), "amplitude"),
        (lambda **kw: geometry.metric_preset(None, "kahler", **kw), "amplitude"),
        (lambda **kw: symfunc.sample_gamma_k(2, 1, 10, **kw), "scale"),
        (lambda **kw: symfunc.sample_gamma_k_boundary(2, 1, 10, **kw), "scale"),
        (lambda **kw: SolverOptions(**kw), "linear_rtol"),
        (lambda **kw: SolverOptions(**kw), "linear_maxiter"),
        (lambda **kw: SolverOptions(**kw), "gmres_restart"),
        (lambda **kw: audits.audit_b_bound(None, **kw), "slack"),
        (lambda **kw: audits.audit_c2(None, **kw), "spread"),
        (lambda **kw: audits.audit_cherrier(None, None, None, **kw), "factor"),
        (lambda **kw: symfunc.sample_gamma_k(2, 1, 10, **kw), "max_attempts"),
    ],
)
def test_removed_tolerance_keywords_are_rejected(call, keyword):
    # the binding fails before the body runs, so no argument needs to be real
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: 1.0})


def test_report_tolerances_are_the_module_constants(small_family):
    grid, g, u = small_family.grid, small_family.g, small_family.reports[-1].u
    reports = {
        "lemma21": audits.audit_lemma21(4, 3, samples=500),
        "lemma22": audits.audit_lemma22(cases=((2, 8, 12),)),
        "commutation": audits.audit_commutation(N_lo=8, N_hi=8),
        "b-bound": audits.audit_b_bound(small_family),
        "c2": audits.audit_c2(small_family),
        "cherrier": audits.audit_cherrier(grid, g, u),
    }
    expected = {
        "lemma21": {"stability_rtol": audits.LEMMA21_STABILITY_RTOL},
        "lemma22": {
            "stability_rtol": audits.LEMMA22_STABILITY_RTOL,
            "stability_atol": audits.LEMMA22_STABILITY_ATOL,
        },
        "commutation": {
            "decay": audits.COMMUTATION_DECAY,
            "mutation_factor": audits.COMMUTATION_MUTATION_FACTOR,
            "floor": audits.COMMUTATION_FLOOR,
        },
        "b-bound": {"slack": audits.B_BOUND_SLACK},
        "c2": {"spread": audits.C2_SPREAD},
        "cherrier": {"factor": audits.CHERRIER_FACTOR},
    }
    assert {name: rep.tolerances for name, rep in reports.items()} == expected


def _run_small_audit(name, family):
    if name == "lemma21":
        return audits.audit_lemma21(4, 3, samples=3000, seed=1)
    if name == "lemma22":
        return audits.audit_lemma22(cases=((2, 8, 12),))
    if name == "lemma22-fine":
        return audits.audit_lemma22(cases=((2, 16, 24),))
    if name == "commutation":
        return audits.audit_commutation(N_lo=8, N_hi=16)
    if name == "b-bound":
        return audits.audit_b_bound(family)
    if name == "c2":
        return audits.audit_c2(family)
    return audits.audit_cherrier(family.grid, family.g, family.reports[-1].u)


# (audit, constant, a stricter value than the measured quantity in the
# comment, other constants set first)
STRICTER = [
    # stability_rel is 1.8e-3 at 3000 samples and seed 1
    ("lemma21", "LEMMA21_STABILITY_RTOL", 0.0, {}),
    # the i = 1 constant, 0.478, drifts by 5.0e-5 from N = 8 to 12
    ("lemma22", "LEMMA22_STABILITY_RTOL", 1e-5, {}),
    # no atol can fail the audit while rtol * C allows 0.1; with rtol
    # zeroed, the atol judges a drift of 1.1e-11 from N = 16 to 24
    ("lemma22-fine", "LEMMA22_STABILITY_ATOL", 1e-12, {"LEMMA22_STABILITY_RTOL": 0.0}),
    # min_decay is 124
    ("commutation", "COMMUTATION_DECAY", 1e3, {}),
    # mutation_ratio is 1.6e6
    ("commutation", "COMMUTATION_MUTATION_FACTOR", 1e7, {}),
    # the smallest residual at N_lo is 0.010
    ("commutation", "COMMUTATION_FLOOR", 0.1, {}),
    # the smallest threshold - |b| is 0.38
    ("b-bound", "B_BOUND_SLACK", -0.5, {}),
    # the peak ratio is 1.34x the median
    ("c2", "C2_SPREAD", 1.0, {}),
    # C(p) still grows at p = 64, so its maximum is C(64) itself
    ("cherrier", "CHERRIER_FACTOR", 0.9, {}),
]


@pytest.mark.parametrize(
    "name, constant, stricter, setting", STRICTER,
    ids=[constant for _, constant, _, _ in STRICTER],
)
def test_a_stricter_constant_fails_its_audit(
    name, constant, stricter, setting, small_family, monkeypatch
):
    for key, value in setting.items():
        monkeypatch.setattr(audits, key, value)
    if setting:  # the constant alone decides under this setting
        assert _run_small_audit(name, small_family).passed
    monkeypatch.setattr(audits, constant, stricter)
    rep = _run_small_audit(name, small_family)
    assert rep.passed is False
    assert rep.violations > 0
    assert stricter in rep.tolerances.values()
