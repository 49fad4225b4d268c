import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from khessian import symfunc
from khessian.errors import ConeViolationError, DomainError, SamplingBudgetError

from oracles import (
    boundary_shift_bisection,
    elementary_all_last_axis,
    sample_gamma_k_box,
    sample_gamma_k_boundary_two_calls,
    sigma_enumerated,
    sigma_restricted_enumerated,
    sigma_restricted_pairs,
)

B = symfunc.BLOCK_ROWS
# row counts on either side of one and two block boundaries, each with a
# (rows, n) and an (a, b, n) batch of that many spectra
BLOCK_EDGE_SHAPES = [(B - 1,), (3, (B - 1) // 3), (B,), (2, B // 2), (B + 1,),
                     (5, (B + 1) // 5), (2 * B + 7,), (3, (2 * B + 7) // 3), ()]


# ---------------------------------------------------------------- sigma_k

def test_sigma_pinned_values():
    assert symfunc.sigma(1, [3.0, 2.0, 1.0]) == pytest.approx(6.0)
    assert symfunc.sigma(2, [3.0, 1.0, -1.0]) == pytest.approx(-1.0)
    assert symfunc.sigma(3, [3.0, 2.0, 1.0]) == pytest.approx(6.0)
    assert symfunc.sigma(0, [5.0, -2.0]) == pytest.approx(1.0)


def test_sigma_identity_spectrum_is_binomial():
    from math import comb

    for n in range(2, 7):
        lam = np.ones(n)
        for k in range(n + 1):
            assert symfunc.sigma(k, lam) == pytest.approx(comb(n, k))


def test_sigma_out_of_range_raises():
    with pytest.raises(DomainError):
        symfunc.sigma(4, [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        symfunc.sigma(-1, [1.0, 2.0])


def test_sigma_batched_matches_scalar():
    rng = np.random.default_rng(7)
    lam = rng.normal(size=(50, 4))
    batched = symfunc.sigma(2, lam)
    for row, val in zip(lam, batched):
        assert val == pytest.approx(symfunc.sigma(2, row))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_sigma_matches_subset_enumeration(args):
    n, lam = args
    lam = np.asarray(lam)
    for k in range(n + 1):
        expect = sigma_enumerated(lam, k)
        got = symfunc.sigma(k, lam)
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=6),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_sigma_recurrence_in_one_variable(lam, t):
    # sigma_j(lam, t) = sigma_j(lam) + t * sigma_{j-1}(lam): the coefficient
    # recurrence in its defining form, checked against an appended entry.
    lam = np.asarray(lam)
    e = symfunc.elementary_all(lam)
    ext = symfunc.elementary_all(np.append(lam, t))
    n = lam.size
    for j in range(1, n + 1):
        assert ext[j] == pytest.approx(e[j] + t * e[j - 1], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 7))
def test_elementary_all_bit_identical_to_last_axis_loop(n):
    rng = np.random.default_rng(n)
    for batch in [(33,), (4, 5)] + BLOCK_EDGE_SHAPES:
        lam = rng.normal(size=batch + (n,))
        expect = elementary_all_last_axis(lam)
        assert np.array_equal(symfunc.elementary_all(lam), expect)
        # a table truncated at sigma_top is the full table's leading rows
        for top in range(n + 1):
            table = symfunc._sigma_table(lam, top)
            assert table.shape == (top + 1,) + batch
            assert np.array_equal(table, np.moveaxis(expect[..., : top + 1], -1, 0))


@pytest.mark.parametrize("n", range(2, 7))
def test_in_gamma_k_matches_the_oracle_table_at_the_boundary(n):
    # boundary draws, with the uniform draws adding rows outside the cone; at
    # depth 1e-15 sigma_k is at rounding level, so letting the lambda_i enter
    # the recurrence in another order flips some verdicts
    rng = np.random.default_rng(n)
    for depth in (1e-8, 1e-15):
        for k in range(1, n + 1):
            count = B + 1 if k == n else 300
            lam = np.vstack([
                symfunc.sample_gamma_k_boundary(n, k, count, seed=k, depth=depth),
                rng.uniform(-1.0, 1.0, size=(B // 2, n)),
            ])
            table = np.moveaxis(elementary_all_last_axis(lam), -1, 0)
            expect = symfunc.gamma_k_verdict(table, k)
            assert np.array_equal(symfunc.in_gamma_k(lam, k), expect)
            assert 0 < np.count_nonzero(expect) < expect.size


def test_in_gamma_k_holds_one_block_beyond_its_verdict():
    # 400000 x 6 spectra: the whole-batch sigma table alone is 22 MB; the
    # blocked test holds the block's columns, sigma_0..sigma_k and a product
    # buffer, each at most n + 1 rows of BLOCK_ROWS doubles
    n, k = 6, 5
    lam = np.random.default_rng(0).uniform(-1.0, 1.0, size=(400_000, n))
    tracemalloc.start()
    try:
        ok = symfunc.in_gamma_k(lam, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - ok.nbytes <= 3 * (n + 1) * B * 8


# ---------------------------------------------------------------- restricted

def test_sigma_restricted_pinned():
    assert symfunc.sigma_restricted(1, [3.0, 2.0, 1.0], 0) == pytest.approx(3.0)
    assert symfunc.sigma_restricted(2, [1.0, 1.0, 1.0], 0) == pytest.approx(1.0)
    assert symfunc.sigma_restricted(2, [2.0, 1.0, -1.0], [1, 2]) == pytest.approx(0.0)


def test_sigma_restricted_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = rng.integers(2, 7)
        lam = rng.normal(size=n)
        r = int(rng.integers(0, n + 1))
        m = int(rng.integers(1, min(n, 3) + 1))
        excl = list(rng.choice(n, size=m, replace=False))
        expect = sigma_restricted_enumerated(r, lam, excl)
        assert symfunc.sigma_restricted(r, lam, excl) == pytest.approx(
            expect, rel=1e-10, abs=1e-10
        )


def test_sigma_restricted_expansion_identity():
    # sigma_k(lam) = sigma_k(lam|i) + lam_i * sigma_{k-1}(lam|i)
    rng = np.random.default_rng(11)
    lam = rng.normal(size=5)
    for k in range(1, 6):
        for i in range(5):
            lhs = symfunc.sigma(k, lam)
            rhs = symfunc.sigma_restricted(k, lam, i) + lam[i] * symfunc.sigma_restricted(
                k - 1, lam, i
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sigma_restricted_each_and_pairs_match_enumeration(n):
    rng = np.random.default_rng(50 + n)
    lam = rng.normal(size=(4, 3, n))
    for r in range(n + 1):
        each = symfunc.sigma_restricted_each(r, lam)
        pairs = sigma_restricted_pairs(r, lam)
        assert each.shape == lam.shape and pairs.shape == lam.shape + (n,)
        assert np.array_equal(pairs, np.swapaxes(pairs, -1, -2))
        assert np.array_equal(np.diagonal(pairs, axis1=-2, axis2=-1), each)
        for b in np.ndindex(lam.shape[:-1]):
            for i in range(n):
                expect = sigma_restricted_enumerated(r, lam[b], i)
                assert each[b + (i,)] == pytest.approx(expect, rel=1e-10, abs=1e-10)
                for p in range(n):
                    expect = sigma_restricted_enumerated(r, lam[b], sorted({i, p}))
                    assert pairs[b + (i, p)] == pytest.approx(expect, rel=1e-10, abs=1e-10)
        if r > n - 1:
            assert np.all(each == 0.0)
        if r > n - 2:
            off = ~np.eye(n, dtype=bool)
            assert np.all(pairs[..., off] == 0.0)


def test_sigma_restricted_bad_indices():
    with pytest.raises(DomainError):
        symfunc.sigma_restricted(1, [1.0, 2.0], 5)
    with pytest.raises(DomainError):
        symfunc.sigma_restricted(1, [1.0, 2.0, 3.0], [1, 1])
    with pytest.raises(DomainError):
        symfunc.sigma_restricted(1, [3.0, 2.0, 1.0], 1.5)
    with pytest.raises(DomainError):
        symfunc.sigma_restricted(1, [3.0, 2.0, 1.0], True)
    with pytest.raises(DomainError):
        symfunc.sigma_restricted(1, [3.0, 2.0, 1.0], [0, 1.5])


# ---------------------------------------------------------------- cones

def test_gamma_membership_examples():
    assert symfunc.in_gamma_k([2.0, 2.0, -1.0], 1)
    assert not symfunc.in_gamma_k([2.0, 2.0, -1.0], 2)  # sigma_2 = 0
    assert symfunc.in_gamma_k([1.0, 1.0, 1.0], 3)
    assert not symfunc.in_gamma_k([-1.0, -2.0], 1)


def test_gamma_nesting_pinned():
    # Gamma_n subset ... subset Gamma_1
    lam = np.array([3.0, 1.0, 0.5])
    for k in range(1, 4):
        assert symfunc.in_gamma_k(lam, k)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(min_value=-8, max_value=8, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_gamma_nesting_property(args):
    n, lam = args
    lam = np.asarray(lam)
    member = [symfunc.in_gamma_k(lam, k) for k in range(1, n + 1)]
    # once membership fails it must keep failing for larger k
    for a, b in zip(member, member[1:]):
        assert a or not b


def test_positive_orthant_inside_every_cone():
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.01, 3.0, size=(100, 5))
    for k in range(1, 6):
        assert np.all(symfunc.in_gamma_k(lam, k))


# ---------------------------------------------------------------- sampler

def test_sampler_membership_and_shape():
    lam = symfunc.sample_gamma_k(4, 2, count=500, seed=1)
    assert lam.shape == (500, 4)
    assert np.all(symfunc.in_gamma_k(lam, 2))
    assert np.all(lam[:, :-1] >= lam[:, 1:])  # descending


def test_sampler_deterministic():
    a = symfunc.sample_gamma_k(3, 2, count=64, seed=42)
    b = symfunc.sample_gamma_k(3, 2, count=64, seed=42)
    assert np.array_equal(a, b)
    c = symfunc.sample_gamma_k(3, 2, count=64, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_single_draw():
    lam = symfunc.sample_gamma_k(3, 3, count=1, seed=9)
    assert lam.shape == (1, 3)
    assert symfunc.in_gamma_k(lam[0], 3)
    # one candidate block serves both counts, so the row leads a larger draw
    assert np.array_equal(lam[0], symfunc.sample_gamma_k(3, 3, count=5, seed=9)[0])


@pytest.mark.parametrize("n", range(1, 7))
def test_gamma_k_members_of_the_box_have_at_least_k_positive_entries(n):
    # the fact behind the orthant envelope; the bound is reached
    lam = np.random.default_rng(n).uniform(-1.0, 1.0, size=(200_000, n))
    positives = np.count_nonzero(lam > 0.0, axis=-1)
    for k in range(1, n + 1):
        inside = symfunc.in_gamma_k(lam, k)
        assert positives[inside].min() == k


@pytest.mark.parametrize("n", range(1, 7))
def test_negated_spectra_have_the_alternating_table(n):
    # sigma_j(-lambda) = (-1)^j sigma_j(lambda), bit for bit, so one table
    # gives the signed verdict; 2 B + 7 rows cross two block boundaries
    lam = np.random.default_rng(n).uniform(-1.0, 1.0, size=(2 * B + 7, n))
    signs = (-1.0) ** np.arange(n + 1)
    assert np.array_equal(symfunc.elementary_all(-lam), signs * symfunc.elementary_all(lam))
    for k in range(1, n + 1):
        signed = symfunc.in_gamma_k(lam, k, signed=True)
        assert signed.dtype == np.int8
        expect = symfunc.in_gamma_k(lam, k).astype(np.int8) - symfunc.in_gamma_k(-lam, k)
        assert np.array_equal(signed, expect)
    assert symfunc.in_gamma_k(-np.ones(n), n, signed=True) == -1


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 5), (6, 6), (5, 1)])
def test_sampler_law_matches_the_box_rejection_oracle(n, k):
    # two-sample KS on each sorted coordinate and on sigma_1..sigma_k, 10^5
    # draws a side; the smallest p over these pairs is 0.0017, at (6, 6)
    box = sample_gamma_k_box(n, k, 100_000, seed=1)
    env = symfunc.sample_gamma_k(n, k, 100_000, seed=2)
    sig_box, sig_env = symfunc.elementary_all(box), symfunc.elementary_all(env)
    pairs = [(box[:, i], env[:, i]) for i in range(n)]
    pairs += [(sig_box[:, j], sig_env[:, j]) for j in range(1, k + 1)]
    for a, b in pairs:
        assert ks_2samp(a, b).pvalue > 1e-3


def test_sampler_fallback_deep_cone():
    # Gamma_6 has box mass 1/64; with the orthant envelope every candidate
    # is accepted.  It pins the deepest cone the n = 6 audits sample.
    lam = symfunc.sample_gamma_k(6, 6, count=200, seed=2)
    assert lam.shape == (200, 6)
    assert np.all(symfunc.in_gamma_k(lam, 6))


class RecordingRng:
    """A numpy Generator that records the arguments and result of each
    ``uniform`` call."""

    def __init__(self, rng, calls):
        self._rng = rng
        self._calls = calls

    def uniform(self, low, high, size=None):
        out = self._rng.uniform(low, high, size=size)
        self._calls.append((low, out))
        return out.copy()

    def __getattr__(self, name):
        return getattr(self._rng, name)


def record_draws(monkeypatch) -> list:
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RecordingRng(default_rng(seed), calls)
    )
    return calls


def test_sampler_reaches_no_fallback_up_to_n_9():
    # the envelope's lowest acceptance at n <= 9 is 0.021, at (9, 5), far
    # above what the attempt budget needs at this count
    for n in range(1, 10):
        for k in range(1, n + 1):
            out = symfunc.sample_gamma_k(n, k, count=2000, seed=n * 10 + k)
            assert out.shape == (2000, n)
            assert np.all(symfunc.in_gamma_k(out, k))


@pytest.mark.parametrize("n, k", [(11, 7), (12, 8)])
def test_sampler_keeps_the_box_law_at_low_acceptance(n, k):
    # the envelope accepts 0.0077 of its draws at (11, 7) and 0.0050 at
    # (12, 8); the box law conditioned on Gamma_k gives a negative entry to
    # 0.78 and 0.76 of the rows, an all-positive law to none
    out = symfunc.sample_gamma_k(n, k, count=2000, seed=3)
    assert np.all(symfunc.in_gamma_k(out, k))
    assert np.mean(out[:, -1] < 0.0) >= 0.5


def test_sampler_raises_when_the_budget_runs_out(monkeypatch):
    # (12, 8) accepts 0.0050 of its draws: 2000 rows need about 400000
    monkeypatch.setattr(symfunc, "MAX_ATTEMPTS", 200_000)
    with pytest.raises(SamplingBudgetError, match=r"/2000 accepted\)"):
        symfunc.sample_gamma_k(12, 8, count=2000, seed=3)


def test_sampler_budget_raises_before_drawing(monkeypatch):
    calls = record_draws(monkeypatch)
    monkeypatch.setattr(symfunc, "MAX_ATTEMPTS", 1000)  # below the first block
    with pytest.raises(SamplingBudgetError, match=r"after 0 attempts \(0/10 accepted\)"):
        symfunc.sample_gamma_k(3, 2, count=10)
    assert calls == []
    monkeypatch.setattr(symfunc, "MAX_ATTEMPTS", 1024)  # exactly one block
    assert symfunc.sample_gamma_k(3, 2, count=10).shape == (10, 3)
    assert [draw.shape for _, draw in calls] == [(1024, 3)]


def test_boundary_sampler_targets_thin_shell():
    lam = symfunc.sample_gamma_k_boundary(4, 2, count=100, seed=3)
    assert np.all(symfunc.in_gamma_k(lam, 2))
    # sigma_2 should be tiny relative to scale 1 samples
    s2 = symfunc.sigma(2, lam)
    assert np.median(s2) < 1e-5


@pytest.mark.parametrize("n", range(2, 7))
def test_boundary_shift_matches_bisection(n):
    depth = 1e-8
    for k in range(1, n + 1):
        for seed in range(3):
            lam = symfunc.sample_gamma_k(n, k, count=100, seed=seed)
            out = symfunc.sample_gamma_k_boundary(n, k, count=100, seed=seed, depth=depth)
            assert np.all(symfunc.in_gamma_k(out, k))
            # only the smallest entry moves, and only down, so it stays last
            assert np.array_equal(out[:, :-1], lam[:, :-1])
            t = boundary_shift_bisection(lam, k)
            np.testing.assert_allclose(
                out[:, -1], lam[:, -1] - t * (1.0 - depth), rtol=0.0, atol=1e-12
            )


@pytest.mark.parametrize("n", range(2, 7))
def test_boundary_sampler_equals_the_two_call_shift(n):
    for k in range(1, n + 1):
        for seed in range(2):
            assert np.array_equal(
                symfunc.sample_gamma_k_boundary(n, k, 200, seed=seed),
                sample_gamma_k_boundary_two_calls(n, k, 200, seed=seed),
            )


@pytest.mark.parametrize("n", range(2, 7))
def test_last_deleted_ratio_is_the_smallest_shift_bound(n):
    # Newton's inequalities: sigma_j(lam|n) / sigma_{j-1}(lam|n) decreases in
    # j on Gamma_{k-1}, so the boundary sampler needs only the j = k bound
    for k in range(2, n + 1):
        lam = symfunc.sample_gamma_k(n, k, count=500, seed=k)
        rest = [symfunc.sigma_restricted(j, lam, n - 1) for j in range(k + 1)]
        bounds = np.array([rest[j] / rest[j - 1] for j in range(1, k + 1)])
        assert np.all(bounds.argmin(axis=0) == k - 1)


def test_samplers_give_an_empty_batch_for_count_zero():
    assert symfunc.sample_gamma_k(3, 2, 0).shape == (0, 3)
    assert symfunc.sample_gamma_k_boundary(3, 2, 0).shape == (0, 3)


@pytest.mark.parametrize("count", [5.5, True, np.float64(3.0), "3", None])
def test_samplers_reject_a_non_integer_count(count):
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k(3, 2, count)
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k_boundary(3, 2, count)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1"])
def test_samplers_reject_a_scale_not_finite_and_positive(scale):
    # Gamma_k is a cone: the samplers take no scale, a caller multiplies the draw
    with pytest.raises(TypeError, match="scale"):
        symfunc.sample_gamma_k(3, 2, 4, scale=scale)
    with pytest.raises(TypeError, match="scale"):
        symfunc.sample_gamma_k_boundary(3, 2, 4, scale=scale)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3"])
def test_samplers_reject_a_seed_not_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match="seed"):
        symfunc.sample_gamma_k(3, 2, 4, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        symfunc.sample_gamma_k_boundary(3, 2, 4, seed=seed)


@pytest.mark.parametrize("depth", [-1.0, 0.0, 1.0, 2.0, np.nan])
def test_boundary_sampler_rejects_depth_outside_unit_interval(depth):
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k_boundary(3, 2, 4, depth=depth)


# ---------------------------------------------------------------- inequality

def test_basic_inequality_pinned():
    assert symfunc.basic_inequality_check(np.array([5.0, 4.0, 3.0, -1.0]), 3)


def test_basic_inequality_requires_cone():
    with pytest.raises(ConeViolationError):
        symfunc.basic_inequality_check(np.array([1.0, -1.0, -1.0]), 2)
    lam = np.array([[3.0, 2.0, 1.0], [1.0, -1.0, -1.0], [1.0, 1e-16, 0.0]])
    with pytest.raises(ConeViolationError) as info:
        symfunc.basic_inequality_check(lam, 2)
    assert info.value.count == 1  # floor 0: a tiny positive sigma_2 is inside


def test_basic_inequality_requires_descending():
    with pytest.raises(DomainError):
        symfunc.basic_inequality_check(np.array([1.0, 2.0, 3.0]), 2)


def test_basic_inequality_rejects_k_equal_n():
    with pytest.raises(DomainError):
        symfunc.basic_inequality_check(np.array([2.0, 1.0]), 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_basic_inequality_on_sampled_cone(seed):
    lam = symfunc.sample_gamma_k(4, 2, count=32, seed=seed)
    assert np.all(symfunc.basic_inequality_check(lam, 2))


# ---------------------------------------------------------------- lemma ratio

def test_lemma21_ratio_bounded_on_samples():
    # theorem: ratio <= (n-k)^i / theta(n,k) for Gamma_k spectra; here only
    # finiteness and positivity are asserted, the audit pins the constant.
    lam = symfunc.sample_gamma_k(5, 3, count=200, seed=8)
    denom = symfunc.sigma_restricted(1, lam, 0)
    assert np.all(denom > 0.0)
    val = np.abs(lam[:, 1]) / denom
    assert np.all(np.isfinite(val)) and np.all(val >= 0.0)
