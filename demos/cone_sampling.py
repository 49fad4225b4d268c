"""
Sampling the ellipticity cone and measuring its inequalities
============================================================

The solver is only well posed on spectra in the k-th Garding cone. This
script samples that cone and measures the two pointwise facts the
estimates lean on: the dominance of the k-th eigenvalue over the tail,
and the boundedness of restricted-polynomial ratios.
"""

import numpy as np

from khessian import (
    basic_inequality_check,
    elementary_all,
    in_gamma_k,
    sample_gamma_k,
    sigma,
    sigma_restricted,
)

n, k = 4, 3
lam = sample_gamma_k(n, k, count=50000, seed=7)
print(f"sampled {len(lam)} spectra from the (n={n}, k={k}) cone")

# Membership means sigma_1..sigma_k are all strictly positive.
e = elementary_all(lam)
print("min over samples of sigma_j, j=1..k:",
      np.array2string(e[:, 1:k + 1].min(axis=0), precision=4))
assert in_gamma_k(lam, k).all()

# Eigenvalues sorted decreasing: entries past the k-th may go negative,
# but never by more than (n-k) times the k-th.
srt = np.sort(lam, axis=1)[:, ::-1]
margin = (n - k) * srt[:, k - 1] - np.abs(srt[:, k:]).max(axis=1)
print(f"\ntail dominance margin: min {margin.min():.4f} "
      f"(negative would be a violation)")
print("vectorized check agrees:", bool(basic_inequality_check(lam, k).all()))

# Ratios of restricted symmetric polynomials stay bounded across the cone.
# Positions are 1-based and the numerator position must avoid the excluded
# one; sweep all such choices at i = 1, |lambda_p| / sigma_1(lambda|j), over
# descending spectra, one batch per (j, p).
rows = srt[:2000]
worst = 0.0
for j in range(1, n + 1):
    denom = sigma_restricted(1, rows, j - 1)
    for p in range(1, n + 1):
        if p != j:
            worst = max(worst, float((np.abs(rows[:, p - 1]) / denom).max()))
print(f"\nworst restricted ratio over {len(rows)} spectra: {worst:.4f}")

# Scaling the spectrum leaves every ratio fixed, so the bound is genuinely
# about cone geometry rather than magnitude.
row = srt[0]
r1, r2 = (abs(x[1]) / sigma_restricted(1, x, 0) for x in (row, 10.0 * row))
print(f"scale invariance: {r1:.6f} vs {r2:.6f}")

# sigma_k itself is degree k homogeneous.
print(f"homogeneity: sigma_k(2x)/sigma_k(x) = "
      f"{sigma(k, 2.0 * row) / sigma(k, row):.1f} (expect {2 ** k})")
