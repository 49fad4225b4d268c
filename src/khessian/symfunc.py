"""Elementary symmetric functions of eigenvalue spectra and Garding cones.

A spectrum is the last axis of a real float array; every routine here is
vectorized over arbitrary leading (batch) axes.  Where entry order matters
(position-indexed checks) the convention is descending,
``values[..., 0] >= values[..., 1] >= ...``, and positions are 1-based to
match the usual statement "lambda_1 >= ... >= lambda_n".

sigma_k is computed with the stable coefficient recurrence for
prod_i (1 + lambda_i t), sigma index first, by one private kernel that runs
over blocks of BLOCK_ROWS spectra: each block's entries are copied to
contiguous columns once, and every update e[j] += lambda_i e[j-1] is a
multiply into one block buffer and an in-place add, so a block's table stays
in cache and no batch-sized temporary is made.  A table is truncated at the
highest sigma_top its caller needs: sigma_j depends only on sigma_0..sigma_j,
so the truncated table equals the leading rows of the full one bit for bit.
``in_gamma_k`` keeps only each block's verdict.  No subset enumeration
happens outside tests, and no bisection: the cone boundary comes in closed
form.  ``sigma_restricted`` is the one deletion routine and
``gamma_k_verdict`` the one Garding cone test; the operator calls it with a
positive sigma_k floor.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConeViolationError, DomainError, SamplingBudgetError, require_integer

# sample_gamma_k's rejection budget: candidate draws it may spend before
# raising SamplingBudgetError (a block that would pass it is not drawn)
MAX_ATTEMPTS = 10_000_000


# Spectra per block of the sigma recurrence: at n = 6 a block's columns,
# table and product buffer (14 rows of 128 KiB) fit a 2 MiB cache.
BLOCK_ROWS = 16384


def _sigma_blocks(lam: np.ndarray, top: int, out: np.ndarray | None = None):
    """Yield (rows, e) block by block over the spectra of ``lam``, its batch
    axes flattened to one: e[j] holds sigma_j of the spectra in the slice
    ``rows`` of that axis, for j = 0..top.

    e is ``out[:, rows]`` when an output table of shape (top+1, rows) is
    given, else a block buffer that the next block overwrites.  The updates
    are those of the full recurrence, j descending so each lambda_i enters
    once, with the j > top ones left out.
    """
    n = lam.shape[-1]
    flat = lam.reshape(math.prod(lam.shape[:-1]), n)
    size = min(flat.shape[0], BLOCK_ROWS)
    cols = np.empty((n, size))
    prod = np.empty(size)
    buf = np.empty((top + 1, size)) if out is None else None
    for start in range(0, flat.shape[0], BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, flat.shape[0]))
        m = rows.stop - start
        c, p = cols[:, :m], prod[:m]
        np.copyto(c, flat[rows].T)
        e = buf[:, :m] if out is None else out[:, rows]
        e[0] = 1.0
        e[1:] = 0.0
        for i in range(n):
            for j in range(min(i + 1, top), 0, -1):
                np.multiply(c[i], e[j - 1], out=p)
                e[j] += p
        yield rows, e


def _sigma_table(lam: np.ndarray, top: int) -> np.ndarray:
    """sigma_0..sigma_top of float spectra, sigma index first: shape
    (top+1,) + lam.shape[:-1]."""
    out = np.empty((top + 1, math.prod(lam.shape[:-1])))
    for _ in _sigma_blocks(lam, top, out):
        pass
    return out.reshape((top + 1,) + lam.shape[:-1])


def elementary_all(values) -> np.ndarray:
    """All elementary symmetric functions sigma_0..sigma_n along the last axis.

    Returns an array of shape ``values.shape[:-1] + (n+1,)`` holding the
    coefficients of prod_i (1 + lambda_i t), i.e. e[..., j] = sigma_j: a view
    of the kernel's table with the sigma index first, filled block by block
    of BLOCK_ROWS spectra with e[j] += lambda_i e[j-1], j descending so each
    lambda_i enters once.
    """
    lam = np.asarray(values, dtype=float)
    return np.moveaxis(_sigma_table(lam, lam.shape[-1]), 0, -1)


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
        require_integer("excluded index", i)
        if not 0 <= i < n:
            raise DomainError(f"excluded index {i} out of range for n={n}")
    if len(set(idx)) != len(idx):
        raise DomainError(f"excluded indices must be distinct, got {idx}")
    if not 0 <= r <= n:
        raise DomainError(f"sigma_{r} undefined for spectra of length {n}")
    reduced = lam.copy()
    reduced[..., idx] = 0.0
    out = _sigma_table(reduced, r)[r]
    return float(out) if out.ndim == 0 else out


def sigma_restricted_each(r: int, values) -> np.ndarray:
    """sigma_r(values | i) for every single deleted index i.

    Output shape equals the input shape; entry [..., i] is sigma_r of the
    spectrum with entry i removed.
    """
    lam = np.asarray(values, dtype=float)
    return np.stack([sigma_restricted(r, lam, i) for i in range(lam.shape[-1])], axis=-1)


def check_k(k: int, n: int) -> None:
    """Reject a non-integer n, and a k that is not an integer with 1 <= k <= n."""
    require_integer("n", n)
    require_integer("k", k)
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
    spectra that fail it as ``count``.  The table is the whole-batch one of
    ``elementary_all``, untruncated: the operator reads sigma_k and the
    deletions from it."""
    check_k(k, np.shape(values)[-1])
    sig = np.moveaxis(elementary_all(values), -1, 0)
    ok = gamma_k_verdict(sig, k, floor)
    if not np.all(ok):
        bad = int(np.size(ok) - np.count_nonzero(ok))
        raise ConeViolationError(
            f"{bad} spectra outside Gamma_{k} (sigma_{k} floor {floor:g})", count=bad
        )
    return sig


def in_gamma_k(values, k: int, *, signed: bool = False) -> bool | np.ndarray:
    """Strict Garding cone test: sigma_j > 0 for all j = 1..k.

    Batched input gives a boolean array over the batch axes.  Only
    sigma_0..sigma_k of one block are held at a time, never a batch table.
    With ``signed`` the verdict is an int8 array instead: 1 where lambda is
    in Gamma_k, -1 where -lambda is, 0 where neither is (both cannot be, as
    sigma_1 changes sign).  One table serves both, since
    sigma_j(-lambda) = (-1)^j sigma_j(lambda).
    """
    check_k(k, np.shape(values)[-1])
    lam = np.asarray(values, dtype=float)
    ok = np.empty(lam.shape[:-1], dtype=np.int8 if signed else bool)
    flat = ok.reshape(-1)
    for rows, e in _sigma_blocks(lam, k):
        flat[rows] = gamma_k_verdict(e, k)
        if signed:  # e is the block buffer: turn it into the table of -lambda
            e[1::2] *= -1.0
            flat[rows] -= gamma_k_verdict(e, k)
    return ok.item() if ok.ndim == 0 else ok


def _envelope_block(rng, shape: tuple[int, int], k: int, edges) -> np.ndarray:
    """Draw a block of candidates for ``sample_gamma_k`` and keep, of each
    candidate lambda, whichever of lambda and -lambda lies in Gamma_k.
    Candidates are uniform on the box when ``edges`` is None, else magnitudes
    uniform on [0, 1) with the count of negative entries drawn by ``edges``."""
    if edges is None:
        cand = rng.uniform(-1.0, 1.0, size=shape)
    else:
        cand = rng.uniform(0.0, 1.0, size=shape)
        draw = rng.integers(0, edges[-1], size=shape[0])
        for i in range(shape[1]):  # column by column: no block-sized sign table
            np.copysign(cand[:, i], edges[i] - 0.5 - draw, out=cand[:, i])
    sign = in_gamma_k(cand, k, signed=True)
    hit = sign != 0
    keep = np.compress(hit, cand, axis=0)
    keep *= np.compress(hit, sign)[:, None]
    return keep


def sample_gamma_k(
    n: int,
    k: int,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Draw spectra uniformly from the box [-1, 1]^n conditioned on Gamma_k
    membership, sorted descending.  Gamma_k is a cone, so a draw from a
    scaled box is a multiple of one of these.

    Rejection sampling is exact for the box-conditioned law, and two cone
    facts (Caffarelli-Nirenberg-Spruck) shrink its envelope without changing
    that law.  The box is symmetric, so a candidate lambda yields -lambda when
    that one is in Gamma_k (``in_gamma_k(..., signed=True)``).  And a Gamma_k
    spectrum has at least k positive entries, so when 2k > n + 1 a candidate
    whose count m of negative entries lies strictly between n - k and k is
    in neither cone: candidates are drawn with m from the other counts, with
    the box's weights C(n, m), and the first m entries negated.  Rows are
    sorted and the law is exchangeable, so fixed positions are exact.

    No second law fills in: a draw that would pass MAX_ATTEMPTS candidates
    raises SamplingBudgetError.  The envelope accepts at least 0.021 of its
    candidates for n <= 9, at (9, 5).

    Returns shape (count, n).
    """
    check_k(k, n)
    for name, value in (("count", count), ("seed", seed)):
        require_integer(name, value)
        if value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    rng = np.random.default_rng(seed)
    # edges[i] is the weight C(n, m) summed over the admissible counts m <= i
    # of negative entries: a draw d uniform on [0, edges[n]) picks m with
    # weight C(n, m), and entry i is negative when m > i, i.e. when d >= edges[i]
    edges = None
    if 2 * k > n + 1:
        edges = np.cumsum([math.comb(n, m) * (m <= n - k or m >= k) for m in range(n + 1)])
    got: list[np.ndarray] = [np.empty((0, n))]
    have = 0
    attempts = 0
    # probe in blocks; block size adapts to the remaining need
    while have < count:
        block = min(max(4 * (count - have), 1024), 1_000_000)
        if attempts + block > MAX_ATTEMPTS:
            raise SamplingBudgetError(
                f"rejection budget exhausted after {attempts} attempts "
                f"({have}/{count} accepted)"
            )
        keep = _envelope_block(rng, (block, n), k, edges)
        attempts += block
        got.append(keep)
        have += keep.shape[0]
    out = np.concatenate(got, axis=0)[:count]
    return np.sort(out, axis=-1)[:, ::-1]


def sample_gamma_k_boundary(
    n: int,
    k: int,
    count: int,
    seed: int = 0,
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
    lam = sample_gamma_k(n, k, count, seed=seed)
    # deletion by zeroing keeps sigma_n(lambda|n) = 0, so t* = lambda_n at k = n
    rest = lam.copy()
    rest[:, -1] = 0.0
    sig = _sigma_table(rest, k)
    ratio = sig[k] / sig[k - 1]
    out = lam.copy()
    # t* = sigma_k(lambda) / sigma_{k-1}(lambda|n) > 0, so the shift only
    # lowers the smallest entry and every row stays descending, unsorted
    out[:, -1] -= (lam[:, -1] + ratio) * (1.0 - depth)
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
