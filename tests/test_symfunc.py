import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khessian import symfunc
from khessian.errors import ConeViolationError, DomainError

from oracles import (
    boundary_shift_bisection,
    elementary_all_last_axis,
    sigma_enumerated,
    sigma_restricted_enumerated,
    sigma_restricted_pairs,
)


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
    for shape in [(n,), (33, n), (4, 5, n)]:
        lam = rng.normal(size=shape)
        assert np.array_equal(symfunc.elementary_all(lam), elementary_all_last_axis(lam))


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
    lam = symfunc.sample_gamma_k(3, 3, seed=9)
    assert lam.shape == (3,)
    assert symfunc.in_gamma_k(lam, 3)


def test_sampler_fallback_deep_cone():
    # Gamma_n for larger n has tiny box mass; the constructive fallback
    # must still deliver members.
    lam = symfunc.sample_gamma_k(6, 6, count=200, seed=2)
    assert lam.shape == (200, 6)
    assert np.all(symfunc.in_gamma_k(lam, 6))


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


@pytest.mark.parametrize("count", [5.5, True, np.float64(3.0), "3"])
def test_samplers_reject_a_non_integer_count(count):
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k(3, 2, count)
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k_boundary(3, 2, count)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1"])
def test_samplers_reject_a_scale_not_finite_and_positive(scale):
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k(3, 2, 4, scale=scale)
    with pytest.raises(DomainError):
        symfunc.sample_gamma_k_boundary(3, 2, 4, scale=scale)


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

def test_lemma21_ratio_pinned():
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    # |lambda_2| / sigma_1(lambda|1) = 1/3
    assert symfunc.lemma21_ratio(lam, 3, 1, 1, [2]) == pytest.approx(1.0 / 3.0)
    # i = 0: empty product over positive sigma_0 = 1
    assert symfunc.lemma21_ratio(lam, 3, 0, 2, []) == pytest.approx(1.0)


def test_lemma21_ratio_validation():
    lam = np.array([2.0, 1.5, 1.0, 0.5])
    with pytest.raises(DomainError):
        symfunc.lemma21_ratio(lam, 2, 0, 1, [])  # k < 3
    with pytest.raises(DomainError):
        symfunc.lemma21_ratio(lam, 3, 2, 1, [2, 3])  # i > k-2
    with pytest.raises(DomainError):
        symfunc.lemma21_ratio(lam, 3, 1, 1, [1])  # subset hits j
    with pytest.raises(DomainError):
        symfunc.lemma21_ratio(lam, 3, 1, 1, [2, 3])  # wrong subset size


def test_lemma21_ratio_bounded_on_samples():
    # theorem: ratio <= (n-k)^i / theta(n,k) for Gamma_k spectra; here only
    # finiteness and positivity are asserted, the audit pins the constant.
    lam = symfunc.sample_gamma_k(5, 3, count=200, seed=8)
    for row in lam:
        val = symfunc.lemma21_ratio(row, 3, 1, 1, [2])
        assert np.isfinite(val) and val >= 0.0
