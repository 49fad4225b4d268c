"""Elementary symmetric functions of eigenvalue spectra and Garding cones.

A spectrum is the last axis of a real float array; every routine here is
vectorized over arbitrary leading (batch) axes.  Where entry order matters
(position-indexed checks, lemma ratios) the convention is descending,
``values[..., 0] >= values[..., 1] >= ...``, and positions are 1-based to
match the usual statement "lambda_1 >= ... >= lambda_n".

sigma_k is computed with the stable coefficient recurrence for
prod_i (1 + lambda_i t), sigma index first; no subset enumeration happens
outside tests, and no bisection: the cone boundary comes in closed form.
``sigma_restricted`` is the one deletion routine and ``gamma_k_verdict`` the
one Garding cone test; the operator calls it with a positive sigma_k floor.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConeViolationError, DomainError, SamplingBudgetError


def spectrum(values) -> np.ndarray:
    """Validating constructor: sort a single eigenvalue vector descending.

    Accepts any 1-D array-like with n >= 1 finite real entries.
    """
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise DomainError(f"spectrum must be a 1-D vector, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise DomainError("spectrum entries must be finite")
    return np.sort(lam)[::-1].copy()


def elementary_all(values) -> np.ndarray:
    """All elementary symmetric functions sigma_0..sigma_n along the last axis.

    Returns an array of shape ``values.shape[:-1] + (n+1,)`` holding the
    coefficients of prod_i (1 + lambda_i t), i.e. e[..., j] = sigma_j: a view
    of a table with the sigma index first, where e[j] += lambda_i e[j-1]
    updates contiguous batch rows, j descending so each lambda_i enters once.
    """
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    e = np.zeros((n + 1,) + lam.shape[:-1], dtype=float)
    e[0] = 1.0
    for i in range(n):
        for j in range(i + 1, 0, -1):
            e[j] += lam[..., i] * e[j - 1]
    return np.moveaxis(e, 0, -1)


def sigma(k: int, values) -> float | np.ndarray:
    """sigma_k(values); k = 0 gives 1, k = n the full product."""
    return sigma_restricted(k, values, ())


def sigma_restricted(r: int, values, excluded) -> float | np.ndarray:
    """sigma_r of the spectrum with the given entries deleted.

    ``excluded`` is a single 0-based index or an iterable of distinct
    0-based indices.  Deletion is implemented by zeroing: sigma_r of the
    zeroed vector equals sigma_r of the shortened one for r <= n - |excluded|
    and is 0 beyond that, which is the conventional value.
    """
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    idx = [excluded] if np.isscalar(excluded) else list(excluded)
    for i in idx:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise DomainError(f"excluded index must be an integer, got {i!r}")
        if not 0 <= i < n:
            raise DomainError(f"excluded index {i} out of range for n={n}")
    if len(set(idx)) != len(idx):
        raise DomainError(f"excluded indices must be distinct, got {idx}")
    if not 0 <= r <= n:
        raise DomainError(f"sigma_{r} undefined for spectra of length {n}")
    reduced = lam.copy()
    reduced[..., idx] = 0.0
    out = elementary_all(reduced)[..., r]
    return float(out) if out.ndim == 0 else out


def sigma_restricted_each(r: int, values) -> np.ndarray:
    """sigma_r(values | i) for every single deleted index i.

    Output shape equals the input shape; entry [..., i] is sigma_r of the
    spectrum with entry i removed.
    """
    lam = np.asarray(values, dtype=float)
    return np.stack([sigma_restricted(r, lam, i) for i in range(lam.shape[-1])], axis=-1)


def check_k(k: int, n: int) -> None:
    """Reject a cone index that is not an integer with 1 <= k <= n."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DomainError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")


def gamma_k_verdict(sig: np.ndarray, k: int, floor: float = 0.0) -> np.ndarray:
    """The Garding cone test on a sigma table whose first axis is the sigma
    index (sig[j] = sigma_j): True where sigma_1..sigma_k > 0 and
    sigma_k >= floor.  Floor 0 is the open cone Gamma_k; the operator passes
    a positive floor so the k-th root and its derivatives stay conditioned."""
    ok = sig[k] >= floor
    for j in range(1, k + 1):  # row by row: np.all over this strided view is slower
        ok &= sig[j] > 0.0
    return ok


def require_gamma_k(values, k: int, floor: float = 0.0) -> np.ndarray:
    """sigma_0..sigma_n of the spectra, sigma index first, after the verdict
    of ``gamma_k_verdict``; raises ConeViolationError with the number of
    spectra that fail it as ``count``."""
    check_k(k, np.shape(values)[-1])
    sig = np.moveaxis(elementary_all(values), -1, 0)
    ok = gamma_k_verdict(sig, k, floor)
    if not np.all(ok):
        bad = int(np.size(ok) - np.count_nonzero(ok))
        raise ConeViolationError(
            f"{bad} spectra outside Gamma_{k} (sigma_{k} floor {floor:g})", count=bad
        )
    return sig


def in_gamma_k(values, k: int) -> bool | np.ndarray:
    """Strict Garding cone test: sigma_j > 0 for all j = 1..k.

    Batched input gives a boolean array over the batch axes.
    """
    check_k(k, np.shape(values)[-1])
    ok = gamma_k_verdict(np.moveaxis(elementary_all(values), -1, 0), k)
    return bool(ok) if ok.ndim == 0 else ok


def sample_gamma_k(
    n: int,
    k: int,
    count: int | None = None,
    scale: float = 1.0,
    seed: int = 0,
    max_attempts: int = 10_000_000,
) -> np.ndarray:
    """Draw spectra uniformly from the box [-scale, scale]^n conditioned on
    Gamma_k membership, sorted descending.

    Rejection sampling is exact for the box-conditioned law.  If the observed
    acceptance rate drops below 1% (deep cones, large n) a constructive
    fallback fills the remainder: positive-orthant draws with a bounded
    negative perturbation of the trailing entries, shrunk until membership
    holds.  Fallback points are still i.i.d. draws from a fixed law, just not
    the box-conditioned one; they keep audits running instead of stalling.

    Returns shape (count, n), or (n,) when count is None.
    """
    check_k(k, n)
    if not isinstance(scale, numbers.Real) or not 0.0 < scale < np.inf:
        raise DomainError(f"scale must be finite and positive, got {scale!r}")
    want = 1 if count is None else count
    if isinstance(want, bool) or not isinstance(want, numbers.Integral) or want < 0:
        raise DomainError(f"count must be a nonnegative integer, got {count!r}")
    rng = np.random.default_rng(seed)
    got: list[np.ndarray] = [np.empty((0, n))]
    have = 0
    attempts = 0
    fallback = False
    # probe in blocks; block size adapts to the remaining need
    while have < want:
        block = min(max(4 * (want - have), 1024), 1_000_000)
        if attempts + block > max_attempts:
            raise SamplingBudgetError(
                f"rejection budget exhausted after {attempts} attempts "
                f"({have}/{want} accepted)"
            )
        cand = rng.uniform(-scale, scale, size=(block, n))
        keep = cand[in_gamma_k(cand, k)]
        attempts += block
        got.append(keep)
        have += keep.shape[0]
        if have < want and attempts >= 4096 and have < 0.01 * attempts:
            fallback = True
            break
    if fallback:
        need = want - have
        base = rng.uniform(scale * 1e-6, scale, size=(need, n))
        base = np.sort(base, axis=-1)[:, ::-1]
        # negative perturbation of the smallest entry, halved until inside
        perturb = -rng.uniform(0.0, 1.0, size=need) * base[:, -1]
        shrink = np.ones(need)
        for _ in range(80):
            trial = base.copy()
            trial[:, -1] = base[:, -1] + shrink * perturb
            bad = ~in_gamma_k(trial, k)
            if not np.any(bad):
                break
            shrink[bad] *= 0.5
        else:
            trial = base  # positive orthant is always inside
        got.append(trial)
    out = np.concatenate(got, axis=0)[:want]
    out = np.sort(out, axis=-1)[:, ::-1]
    return out[0] if count is None else out


def sample_gamma_k_boundary(
    n: int,
    k: int,
    count: int,
    seed: int = 0,
    scale: float = 1.0,
    depth: float = 1e-8,
) -> np.ndarray:
    """Spectra just inside the Gamma_k boundary.

    Starting from interior samples, the smallest entry is pushed down by the
    largest shift t* that keeps strict membership, then backed off by
    ``depth`` of that shift.  As sigma_j(lambda - t e_n) = sigma_j(lambda|n) +
    (lambda_n - t) sigma_{j-1}(lambda|n) with lambda|n in Gamma_{k-1}, and
    Newton's inequalities make sigma_j(lambda|n) / sigma_{j-1}(lambda|n)
    decrease in j, t* = lambda_n + sigma_k(lambda|n) / sigma_{k-1}(lambda|n)
    exactly.  Useful for stressing inequalities that must hold up to the cone
    boundary.
    """
    if not isinstance(depth, numbers.Real) or not 0.0 < depth < 1.0:
        raise DomainError(f"depth must lie in (0, 1), got {depth!r}")
    lam = np.atleast_2d(sample_gamma_k(n, k, count, scale=scale, seed=seed))
    # deletion by zeroing keeps sigma_n(lambda|n) = 0, so t* = lambda_n at k = n
    ratio = sigma_restricted(k, lam, n - 1) / sigma_restricted(k - 1, lam, n - 1)
    out = lam.copy()
    out[:, -1] -= (lam[:, -1] + ratio) * (1.0 - depth)
    out = np.sort(out, axis=-1)[:, ::-1]
    bad = ~in_gamma_k(out, k)
    if np.any(bad):  # fall back to the interior point where rounding left the cone
        out[bad] = lam[bad]
    return out


def _require_descending(lam: np.ndarray) -> None:
    if np.any(lam[..., :-1] < lam[..., 1:]):
        raise DomainError("spectrum must be sorted descending")


def basic_inequality_check(values, k: int) -> bool | np.ndarray:
    """For descending lambda in Gamma_k with k < n, test
    |lambda_p| <= (n - k) * lambda_k for every p = k+1..n.

    This bound is a theorem for Gamma_k spectra, so False flags either a
    cone-membership bug or a counterexample worth reporting.
    """
    lam = np.asarray(values, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    _require_descending(lam)
    require_gamma_k(lam, k)
    bound = (n - k) * lam[..., k - 1 : k]
    ok = np.all(np.abs(lam[..., k:]) <= bound, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def lemma21_ratio(values, k: int, i: int, j: int, subset) -> float:
    """|lambda_{j_1} ... lambda_{j_i}| / sigma_i(lambda | j) for a descending
    spectrum in Gamma_k, 3 <= k <= n, 0 <= i <= k-2.

    ``j`` and the members of ``subset`` are 1-based positions; subset entries
    are distinct and avoid j.  The denominator sigma_i(lambda|j) is positive
    for Gamma_k spectra (i <= k-2 < k); nonpositive values are reported as a
    violation via ConeViolationError.
    """
    lam = spectrum(values)
    n = lam.shape[-1]
    if not 3 <= k <= n:
        raise DomainError(f"need 3 <= k <= n, got k={k}, n={n}")
    if not 0 <= i <= k - 2:
        raise DomainError(f"need 0 <= i <= k-2, got i={i}, k={k}")
    if not 1 <= j <= n:
        raise DomainError(f"position j={j} out of range for n={n}")
    sub = [int(p) for p in subset]
    if len(sub) != i or len(set(sub)) != i:
        raise DomainError(f"subset must hold {i} distinct positions, got {sub}")
    for p in sub:
        if not 1 <= p <= n or p == j:
            raise DomainError(f"subset position {p} invalid (n={n}, j={j})")
    require_gamma_k(lam, k)
    denom = sigma_restricted(i, lam, j - 1)
    if denom <= 0.0:
        raise ConeViolationError(
            f"sigma_{i}(lambda|{j}) = {denom} <= 0 on a Gamma_{k} spectrum"
        )
    numer = 1.0
    for p in sub:
        numer *= abs(lam[p - 1])
    return float(numer / denom)
