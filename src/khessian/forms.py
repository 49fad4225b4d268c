"""Complex (p, q)-forms with grid-valued coefficients.

A form is stored sparsely as {(I, J): coefficient} where I and J are
strictly increasing tuples of 0-based indices and the coefficient multiplies
dz^I wedge dzbar^J (all dz factors first).  This is a deliberately small
exact-algebra layer: wedge products track permutation signs, d/dbar apply
the spectral derivatives of a TorusGrid.

It is the slow reference route.  The package runs none of it: the lemma-22
audit evaluates its integrands as top-coefficient contractions (see
``audits``), and the tests check those, the eigenframe formulas and the
cone-band density against wedge products built here.  Every intermediate
form holds one full-grid coefficient array per index pair, so at n = 3 a
wedge chain costs hundreds of derivatives and copies per integrand; at n = 4
one (1,1) form on an N = 8 grid is already 4.3 GB.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geometry import TorusGrid


def _merge_sign(a: tuple, b: tuple) -> int:
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


class Form:
    """Sparse exterior form of fixed total bidegree on a torus grid."""

    def __init__(self, grid: TorusGrid, terms: dict | None = None):
        self.grid = grid
        self.terms: dict[tuple, np.ndarray] = {}
        if terms:
            for key, coeff in terms.items():
                self._add_term(key, np.asarray(coeff, dtype=complex))

    # ------------------------------------------------------------- plumbing

    def _add_term(self, key: tuple, coeff) -> None:
        idx_i, idx_j = key
        idx_i, idx_j = tuple(idx_i), tuple(idx_j)
        for idx in (idx_i, idx_j):
            if list(idx) != sorted(set(idx)):
                raise DomainError(f"indices must be strictly increasing, got {idx}")
            if idx and (idx[0] < 0 or idx[-1] >= self.grid.n):
                raise DomainError(f"index out of range in {idx}")
        key = (idx_i, idx_j)
        if key in self.terms:
            self.terms[key] = self.terms[key] + coeff
        else:
            self.terms[key] = np.broadcast_to(
                np.asarray(coeff, dtype=complex), self.grid.shape
            ).copy() if np.ndim(coeff) == 0 else np.asarray(coeff, dtype=complex) + 0j

    def copy(self) -> "Form":
        out = Form(self.grid)
        out.terms = {k: v.copy() for k, v in self.terms.items()}
        return out

    def __add__(self, other: "Form") -> "Form":
        out = self.copy()
        for key, coeff in other.terms.items():
            out._add_term(key, coeff)
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self + other * (-1.0)

    def __mul__(self, scalar) -> "Form":
        out = Form(self.grid)
        for key, coeff in self.terms.items():
            out.terms[key] = coeff * scalar
        return out

    __rmul__ = __mul__

    # ---------------------------------------------------------------- algebra

    def wedge(self, other: "Form") -> "Form":
        if other.grid is not self.grid:
            raise DomainError("wedge requires forms on the same grid")
        out = Form(self.grid)
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                if set(i1) & set(i2) or set(j1) & set(j2):
                    continue
                # move dzbar^{j1} past dz^{i2}
                sign = -1 if (len(j1) * len(i2)) % 2 else 1
                sign *= _merge_sign(i1, i2) * _merge_sign(j1, j2)
                key = (tuple(sorted(i1 + i2)), tuple(sorted(j1 + j2)))
                out._add_term(key, sign * a * b)
        return out

    def wedge_power(self, power: int) -> "Form":
        if power < 0:
            raise DomainError("wedge power must be nonnegative")
        out = Form(self.grid, {((), ()): np.ones(self.grid.shape)})
        for _ in range(power):
            out = out.wedge(self)
        return out

    def d_holo(self) -> "Form":
        """Exterior derivative in the dz directions (new factor on the left)."""
        out = Form(self.grid)
        for (idx_i, idx_j), coeff in self.terms.items():
            for a in range(self.grid.n):
                if a in idx_i:
                    continue
                pos = sum(1 for v in idx_i if v < a)
                sign = -1 if pos % 2 else 1
                new_i = tuple(sorted(idx_i + (a,)))
                out._add_term((new_i, idx_j), sign * self.grid.dz(coeff, a))
        return out

    def d_anti(self) -> "Form":
        """Exterior derivative in the dzbar directions."""
        out = Form(self.grid)
        for (idx_i, idx_j), coeff in self.terms.items():
            for a in range(self.grid.n):
                if a in idx_j:
                    continue
                crossing = -1 if len(idx_i) % 2 else 1
                pos = sum(1 for v in idx_j if v < a)
                sign = crossing * (-1 if pos % 2 else 1)
                new_j = tuple(sorted(idx_j + (a,)))
                out._add_term((idx_i, new_j), sign * self.grid.dzbar(coeff, a))
        return out

    def top_coefficient(self) -> np.ndarray:
        """Coefficient of the full dz^{1..n} wedge dzbar^{1..n} term."""
        full = tuple(range(self.grid.n))
        return self.terms.get((full, full), np.zeros(self.grid.shape, dtype=complex))

    def ratio_to(self, other: "Form") -> np.ndarray:
        """Pointwise ratio of top coefficients (both forms must be top degree)."""
        denom = other.top_coefficient()
        if np.abs(denom).min() == 0.0:
            raise DomainError("reference top form vanishes somewhere")
        return self.top_coefficient() / denom


# ------------------------------------------------------------- constructors

def metric_form(grid: TorusGrid, g: np.ndarray) -> Form:
    """The Hermitian form sqrt(-1) g_{i jbar} dz^i wedge dzbar^j."""
    out = Form(grid)
    for i in range(grid.n):
        for j in range(grid.n):
            out._add_term(((i,), (j,)), 1j * g[..., i, j])
    return out


def one_form_holo(grid: TorusGrid, components: np.ndarray) -> Form:
    """sum_i c_i dz^i from components shaped grid + (n,)."""
    out = Form(grid)
    for i in range(grid.n):
        out._add_term(((i,), ()), components[..., i])
    return out


def one_form_anti(grid: TorusGrid, components: np.ndarray) -> Form:
    """sum_j c_j dzbar^j."""
    out = Form(grid)
    for j in range(grid.n):
        out._add_term(((), (j,)), components[..., j])
    return out


def gradient_band_form(grid: TorusGrid, u: np.ndarray) -> Form:
    """sqrt(-1) du wedge dbar(u) for a real scalar."""
    du = grid.holomorphic_gradient(u)
    return (one_form_holo(grid, du).wedge(one_form_anti(grid, np.conj(du)))) * 1j
