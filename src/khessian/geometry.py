"""Spectral geometry on the flat complex torus C^n / (Z + iZ)^n.

Fields live on a uniform (N,)*(2n) grid; axis 2j holds x^{j+1} and axis
2j+1 holds y^{j+1} for the complex coordinates z^j = x^j + i y^j, each of
period 1.  Derivatives are Fourier multipliers, exact for band-limited data:

    d/dz^j  = (d/dx^j - i d/dy^j) / 2,    d/dzbar^j = (d/dx^j + i d/dy^j) / 2.

First derivatives act on the two axes of block j only, so they are applied
one axis at a time: E = F^-1 diag(pi i m) F, an N x N matrix over one axis,
gives d/dz^j = E_x - i E_y and d/dzbar^j = E_x + i E_y, on the field cast
to complex.  E keeps the Nyquist wavenumber m = -N/2 of the transforms,
which makes it complex: d_z of a real field has a Nyquist part that is not
conjugate-symmetric, and keeping it matches the full complex-transform
multiplier.  ``complex_hessian`` composes them, d_i (d_jbar u).  The
inverse Laplacian, and the Hessian fields of the solver's fused GMRES
operator, use real-to-complex FFTs from ``scipy.fft`` (faster than numpy's),
imported when first called, since it loads ``scipy.special`` and only a solve
needs it, and on one worker, since at solver grid sizes two gain nothing.

Hermitian metrics are (grid + (n, n)) complex arrays g[..., i, j] = g_{i jbar},
not assumed Kahler.  Every metric, Hessian, Chern and covariant-derivative
stack this module returns has such a grid-first shape but index-first
memory: it is an ``np.moveaxis`` view of an (n,)*k + grid buffer, so each
slot [..., i, j, ...] is one contiguous field for the derivatives, and a
plain ``np.einsum`` contracts the stacks one whole field at a time.

The Chern connection of such a metric,

    Gamma^p_ij = g^{p qbar} d_i g_{j qbar},
    T^p_ij     = Gamma^p_ij - Gamma^p_ji,
    R_{i jbar k}^p = -d_jbar Gamma^p_ik,

furnishes covariant derivatives of scalars up to fourth order and the
commutation residuals used to validate them; derivative subscripts are
applied left to right, i.e. u_{i jbar l} differentiates u_{i jbar}.

The integration convention normalizes the flat torus to unit volume:
integrate(1, identity metric) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_integer
from .operator import (
    inverse_cholesky_factor,
    inverse_metric,
    require_hermitian,
)


class TorusGrid:
    """Uniform periodic grid with cached Fourier multiplier symbols and a
    one-axis differentiation matrix."""

    def __init__(self, n: int, N: int):
        require_integer("n", n)
        require_integer("N", N)
        if n < 2:
            raise DomainError(f"need complex dimension n >= 2, got {n}")
        if N < 8 or N % 2 != 0:
            raise DomainError(f"need even N >= 8 nodes per axis, got {N}")
        self.n = int(n)
        self.N = int(N)
        self.shape = (self.N,) * (2 * self.n)
        self._freq = np.fft.fftfreq(self.N) * self.N  # integer wavenumbers
        self._ticks = np.arange(self.N) / self.N
        self._dmat = None
        self._lap = None
        self._hess_sym = None
        self._inv_lap = None

    # ---------------------------------------------------------- coordinates

    def _axis_view(self, values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return values.reshape(shape)

    def x(self, j: int) -> np.ndarray:
        """Broadcastable x^{j+1} coordinate values (0-based j)."""
        return self._axis_view(self._ticks, 2 * j)

    def y(self, j: int) -> np.ndarray:
        return self._axis_view(self._ticks, 2 * j + 1)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        return self._axis_view(self._ticks, axis)

    def zeros(self, extra: tuple = (), dtype=float) -> np.ndarray:
        return np.zeros(self.shape + extra, dtype=dtype)

    # ---------------------------------------------------------- derivatives

    @property
    def laplace_symbol(self) -> np.ndarray:
        """Fourier symbol of the complex Laplacian sum_j d_j d_jbar."""
        if self._lap is None:
            acc = np.zeros(self.shape)
            for a in range(2 * self.n):
                m = self._axis_view(self._freq, a)
                acc = acc - (np.pi * m) ** 2
            self._lap = acc
        return self._lap

    def _check_shape(self, field: np.ndarray) -> None:
        # reject broadcastable coordinate views: Fourier symbols and
        # one-axis products would silently attach their content to the
        # wrong axes
        if field.shape != self.shape:
            raise DomainError(
                f"field shape {field.shape} does not match grid {self.shape}; "
                "broadcast coordinate expressions to full shape first"
            )

    def fft(self, field: np.ndarray) -> np.ndarray:
        self._check_shape(field)
        return np.fft.fftn(field, axes=range(2 * self.n))

    def ifft(self, hat: np.ndarray) -> np.ndarray:
        self._check_shape(hat)
        return np.fft.ifftn(hat, axes=range(2 * self.n))

    def _diff_matrix(self) -> np.ndarray:
        """E = F^-1 diag(pi i m) F on one axis of N nodes, with the integer
        wavenumbers m of the transforms, Nyquist m = -N/2 included, so E is
        complex."""
        if self._dmat is None:
            eye_hat = np.fft.fft(np.eye(self.N), axis=0)
            self._dmat = np.fft.ifft(1j * np.pi * self._freq[:, None] * eye_hat, axis=0)
        return self._dmat

    def _along_axis(self, field: np.ndarray, axis: int) -> np.ndarray:
        """E applied along one grid axis of a complex field, as a
        (pre, N, rest) array; the last axis, whose rest is 1, takes one
        product from the right instead of N^(2n-1) matrix-vector ones.  The
        batch count pre comes from the field's size, so a slab field[x]
        (leading grid axes fixed) goes through the same product along the
        axes it keeps."""
        e = self._diff_matrix()
        pre = field.size // self.N ** (2 * self.n - axis)
        if axis == 2 * self.n - 1:
            return (field.reshape(pre, self.N) @ e.T)[..., None]
        return np.matmul(e, field.reshape(pre, self.N, -1))

    def _first_derivative(self, field: np.ndarray, j: int, bar: bool) -> np.ndarray:
        """d_j field = E_x field - i E_y field, or d_jbar field with + i,
        for E along the axes x = 2j and y = 2j + 1 of block j.  A real
        field is cast to complex first.  The field is the grid or a slab of
        it that keeps both axes of block j; ``dz`` and ``dzbar`` check the
        grid shape."""
        field = np.asarray(field, dtype=complex)
        dy = self._along_axis(field, 2 * j + 1).reshape(field.shape)
        dy *= 1j if bar else -1j
        dy += self._along_axis(field, 2 * j).reshape(field.shape)
        return dy

    def dz(self, field: np.ndarray, j: int) -> np.ndarray:
        self._check_shape(field)
        return self._first_derivative(field, j, bar=False)

    def dzbar(self, field: np.ndarray, j: int) -> np.ndarray:
        self._check_shape(field)
        return self._first_derivative(field, j, bar=True)

    def holomorphic_gradient(self, field: np.ndarray) -> np.ndarray:
        """All first derivatives d_j field, shape grid + (n,)."""
        out = _index_first(self, 1)
        field = np.asarray(field, dtype=complex)  # cast a real field once
        for j in range(self.n):
            out[..., j] = self.dz(field, j)
        return out

    # Real fields take real-to-complex transforms over the half spectrum
    # (last axis cut to N/2 + 1 entries); the symbols below live there.

    def _half_symbol(self, j: int, bar: bool, reflect: bool) -> np.ndarray:
        """Half-spectrum symbol of d_j (or d_jbar), optionally at the
        reflected index -m mod N, which keeps m = -N/2 at the Nyquist plane."""
        freq = self._freq
        if reflect:
            freq = np.where(np.arange(self.N) == self.N // 2, freq, -freq)
        mx = self._axis_view(freq, 2 * j)
        my = self._axis_view(freq, 2 * j + 1)
        sym = np.pi * (1j * mx - my) if bar else np.pi * (1j * mx + my)
        return sym[..., : self.N // 2 + 1]

    def _hessian_symbols(self) -> list[list[np.ndarray]]:
        """Half-spectrum symbols of the real fields that make up ddbar u.

        With S = symbol of d_i d_jbar and S~(m) = conj S(-m mod N), entry
        [i][i] is the real S_ii, [i][j] (i < j) is (S + S~)/2, the symbol of
        Re u_{i jbar}, and [j][i] is (S - S~)/2i, the symbol of Im u_{i jbar}.
        Each depends on the axes of blocks i and j only, so it is stored
        broadcastable.  Away from the Nyquist planes S~ = conj S.
        """
        if self._hess_sym is None:
            n = self.n
            sym = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    s = self._half_symbol(i, False, False) * self._half_symbol(j, True, False)
                    if i == j:
                        sym[i][i] = s.real
                        continue
                    s_ref = np.conj(
                        self._half_symbol(i, False, True) * self._half_symbol(j, True, True)
                    )
                    sym[i][j] = 0.5 * (s + s_ref)
                    sym[j][i] = -0.5j * (s - s_ref)
            self._hess_sym = sym
        return self._hess_sym

    def _require_real(self, field: np.ndarray, name: str) -> None:
        if not np.isrealobj(field):
            raise DomainError(f"{name} expects a real field")
        self._check_shape(field)

    def complex_hessian(self, field: np.ndarray) -> np.ndarray:
        """d_i d_jbar field for a real field, shape grid + (n, n).

        Built from one-axis products, d_i (d_jbar field) for i <= j, with no
        n-D transform.  Hermitian by construction: the diagonal takes the
        real part and the lower triangle is the conjugate of the upper one.
        The result is a view of a tensor-first (n, n) + grid buffer, which
        the pencil kernel reads without a copy.
        """
        self._require_real(field, "complex_hessian")
        field = field.astype(complex)  # cast once for all n blocks
        out = np.empty((self.n, self.n) + self.shape, dtype=complex)
        for j in range(self.n):
            dbar = self.dzbar(field, j)
            out[j, j] = self.dz(dbar, j).real
            for i in range(j):
                out[i, j] = self.dz(dbar, i)
                np.conj(out[i, j], out=out[j, i])
        return np.moveaxis(out, (0, 1), (-2, -1))

    def _preconditioned_hessian_fields(self, rhs: np.ndarray):
        """Yields (i, j, field) for the n^2 real fields of d_i d_jbar v, laid
        out as ``_hessian_symbols``, for v = Laplacian^{-1} rhs of a real
        mean-free rhs, for the solver's fused operator, which never needs the
        assembled Hessian.  One forward transform, then one inverse
        transform for each field but the last diagonal one: the diagonal
        symbols sum to the Laplacian's, so the diagonal fields sum to rhs,
        and the last is rhs minus the others."""
        from scipy.fft import irfftn, rfftn
        hat = rfftn(rhs, workers=1) * self._inverse_laplace_half()
        last = rhs.copy()
        for i, row in enumerate(self._hessian_symbols()):
            for j, sym in enumerate(row):
                if i == j == self.n - 1:
                    yield i, j, last
                    continue
                part = irfftn(hat * sym, s=self.shape, workers=1)
                if i == j:
                    last -= part
                yield i, j, part

    def _inverse_laplace_half(self) -> np.ndarray:
        if self._inv_lap is None:
            sym = self.laplace_symbol[..., : self.N // 2 + 1].copy()
            zero = (0,) * (2 * self.n)
            sym[zero] = 1.0
            inv = 1.0 / sym
            inv[zero] = 0.0
            self._inv_lap = inv
        return self._inv_lap

    def solve_laplacian(self, rhs: np.ndarray) -> np.ndarray:
        """Real mean-zero solution of the complex Laplace equation for a real
        rhs; the rhs mean is discarded (zero mode of the symbol)."""
        self._require_real(rhs, "solve_laplacian")
        from scipy.fft import irfftn, rfftn
        hat = rfftn(rhs, workers=1) * self._inverse_laplace_half()
        return irfftn(hat, s=self.shape, workers=1)

    # ---------------------------------------------------------- integration

    def mean(self, field: np.ndarray) -> float:
        return float(np.mean(field.real if np.iscomplexobj(field) else field))

    def integrate(self, field: np.ndarray, metric: np.ndarray | None = None) -> float:
        """Trapezoidal (= mean, by periodicity) integral of field against the
        metric volume density det g; unit volume for the flat metric.
        Raises DomainError for a metric ``require_metric`` rejects."""
        if metric is None:
            return self.mean(field)
        metric, _ = require_metric(self, metric)
        dens = np.linalg.det(metric).real
        return self.mean(field * dens)

    # ---------------------------------------------------------- constructors

    def trig_field(self, terms) -> np.ndarray:
        """Real trigonometric polynomial sum_t amp * cos(2 pi m . xi + phase).

        Each term is (amplitude, freqs, phase) with ``freqs`` a length-2n
        integer vector against the coordinates (x^1, y^1, ..., x^n, y^n).
        """
        out = np.zeros(self.shape)
        for idx, (amp, freqs, phase) in enumerate(terms):
            if not np.iterable(freqs) or len(freqs) != 2 * self.n:
                raise DomainError(
                    f"term {idx}: frequency vector must have length {2 * self.n}, "
                    f"got {freqs!r}"
                )
            arg = np.zeros(self.shape)
            for a, m in enumerate(freqs):
                require_integer(f"term {idx}: frequency entry {a}", m)
                if m:
                    arg = arg + 2.0 * np.pi * m * self.axis_coordinate(a)
            out = out + float(amp) * np.cos(arg + float(phase))
        return out


def _index_first(grid: TorusGrid, rank: int, alloc=np.empty) -> np.ndarray:
    """Complex grid + (n,)*rank stack whose memory is (n,)*rank + grid."""
    buf = alloc((grid.n,) * rank + grid.shape, dtype=complex)
    return np.moveaxis(buf, tuple(range(rank)), tuple(range(-rank, 0)))


# ------------------------------------------------------------------ metrics

PRESET_NAMES = ("euclidean", "kahler", "torsion")
# Scale of the kahler preset's potential: its metric's eigenvalues then
# span [0.41, 1.59] (n = 2 and 3, N = 16), far from flat and from degenerate.
KAHLER_AMPLITUDE = 0.02


def identity_metric(grid: TorusGrid) -> np.ndarray:
    g = _index_first(grid, 2, np.zeros)
    for i in range(grid.n):
        g[..., i, i] = 1.0
    return g


def kahler_potential(grid: TorusGrid, amplitude: float) -> np.ndarray:
    """Small torus-periodic potential mixing coordinates of different blocks."""
    n = grid.n
    phi = np.zeros(grid.shape)
    for j in range(n):
        phi = phi + np.cos(2 * np.pi * grid.x(j)) * np.sin(
            2 * np.pi * grid.y((j + 1) % n)
        )
    phi = phi + np.cos(2 * np.pi * grid.x(0))
    return amplitude * phi


def metric_preset(grid: TorusGrid, name: str, epsilon: float = 0.1) -> np.ndarray:
    """Build one of the named Hermitian metric families.

    euclidean: the identity.
    kahler:    g = id + ddbar(phi) for a small potential of scale
               KAHLER_AMPLITUDE (torsion-free).
    torsion:   diagonal g_ii = 1 + epsilon * h_i with nonnegative bump
               profiles h_i = 1 + (unit wave in a coordinate outside block
               i); distinct cross-coordinate waves force nonzero torsion,
               and g_ii >= 1 keeps relative-eigenvalue cone margins at least
               as good as the flat metric.
    """
    check_preset(name, epsilon)
    if name == "euclidean":
        return identity_metric(grid)
    if name == "kahler":
        g = identity_metric(grid)
        g += grid.complex_hessian(kahler_potential(grid, KAHLER_AMPLITUDE))
        inverse_cholesky_factor(g, "kahler preset")
        return g
    if name == "torsion":
        n = grid.n
        g = _index_first(grid, 2, np.zeros)  # off-diagonal slots stay untouched
        for i in range(n):
            other = (i + 1) % n
            if i % 2 == 0:
                wave = np.cos(2 * np.pi * grid.x(other))
            else:
                wave = np.sin(2 * np.pi * grid.y(other))
            g[..., i, i] = 1.0 + epsilon * (1.0 + wave)
        return g


def require_metric(grid: TorusGrid, g) -> tuple[np.ndarray, np.ndarray]:
    """(g, g^{-1}) as arrays, or DomainError unless g is a finite Hermitian
    positive-definite metric on the grid; every function that takes g checks
    it here.  The Cholesky factor behind g^{-1} reads only the lower triangle
    and passes an inf, so symmetry and finiteness are checked apart."""
    g = np.asarray(g)
    n = grid.n
    if g.shape != grid.shape + (n, n):
        raise DomainError(f"metric shape {g.shape} does not match grid {grid.shape}")
    ginv = inverse_metric(g)
    require_hermitian(g, "g")
    return g, ginv


def check_preset(name: str, epsilon: float) -> None:
    """Raise DomainError unless metric_preset accepts this name and epsilon
    (the torsion preset needs 0 < epsilon <= 0.2; the others ignore it)."""
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown metric preset {name!r}; choose from {PRESET_NAMES}")
    if name == "torsion" and not 0.0 < epsilon <= 0.2:
        raise DomainError(f"torsion preset needs 0 < epsilon <= 0.2, got {epsilon}")


# ------------------------------------------------------------ Chern tensors

@dataclass
class ChernTensors:
    """Connection data of a Hermitian metric on the grid.

    gamma[..., p, i, j]      : Gamma^p_ij
    torsion[..., p, i, j]    : T^p_ij = Gamma^p_ij - Gamma^p_ji
    curvature[..., i, j, k, p]: R_{i jbar k}^p = -d_jbar Gamma^p_ik

    Shapes are grid-first as listed; the memory of inverse, gamma, torsion
    and curvature is index-first, as for every stack of this module.
    """

    metric: np.ndarray
    inverse: np.ndarray
    gamma: np.ndarray
    torsion: np.ndarray
    curvature: np.ndarray


def chern_tensors(grid: TorusGrid, g: np.ndarray) -> ChernTensors:
    """Assemble connection, torsion and curvature of a Hermitian metric."""
    n = grid.n
    g, ginv = require_metric(grid, g)
    dg = _index_first(grid, 3)  # dg[..., i, j, q] = d_i g_{j qbar}
    for j in range(n):
        for q in range(n):
            for i in range(n):
                dg[..., i, j, q] = grid.dz(g[..., j, q], i)
    gamma = np.einsum("...qp,...ijq->...pij", ginv, dg, out=_index_first(grid, 3))
    torsion = np.subtract(gamma, np.swapaxes(gamma, -1, -2), out=_index_first(grid, 3))
    curvature = _index_first(grid, 4)
    for p in range(n):
        for i in range(n):
            for kk in range(n):
                for j in range(n):
                    curvature[..., i, j, kk, p] = -grid.dzbar(gamma[..., p, i, kk], j)
    return ChernTensors(metric=g, inverse=ginv, gamma=gamma, torsion=torsion,
                        curvature=curvature)


# ------------------------------------------------- covariant derivatives

@dataclass
class CovariantDerivatives:
    """Chern-covariant derivatives of a real scalar, subscripts left to right.

    grad[..., i]          : u_i
    hess[..., i, j]       : u_{i jbar}
    hol2[..., p, i]       : u_{p i}
    d3_mixed[..., i, j, l]: u_{i jbar l}
    d3_hol[..., p, i, j]  : u_{p i jbar}
    d3_anti[..., i, p, j] : u_{i pbar jbar}
    d4[..., i, j, l, m]   : u_{i jbar l mbar}

    Shapes are grid-first as listed; every field's memory is index-first.
    """

    grad: np.ndarray
    hess: np.ndarray
    hol2: np.ndarray
    d3_mixed: np.ndarray
    d3_hol: np.ndarray
    d3_anti: np.ndarray
    d4: np.ndarray | None


def covariant_derivatives(
    grid: TorusGrid, u: np.ndarray, tensors: ChernTensors, order: int = 4
) -> CovariantDerivatives:
    if order not in (3, 4):
        raise DomainError(f"covariant derivative order must be 3 or 4, got {order}")
    n = grid.n
    gamma = tensors.gamma
    grad = grid.holomorphic_gradient(u)
    hess = grid.complex_hessian(u)
    # u_{p i} = d_i d_p u - Gamma^q_ip u_q
    hol2 = _index_first(grid, 2)
    for p in range(n):
        for i in range(p, n):
            ent = grid.dz(grad[..., p], i)
            hol2[..., p, i] = ent
            hol2[..., i, p] = ent
    hol2 -= np.einsum("...qip,...q->...pi", gamma, grad)
    # u_{i jbar l} = d_l u_{i jbar} - Gamma^p_li u_{p jbar}
    d3_mixed = _index_first(grid, 3)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                d3_mixed[..., i, j, l] = grid.dz(hess[..., i, j], l)
    d3_mixed -= np.einsum("...pli,...pj->...ijl", gamma, hess)
    # u_{i pbar jbar} = d_jbar u_{i pbar} - conj(Gamma^q_jp) u_{i qbar}
    # = conj(u_{p ibar j}), as u is real and u_{i pbar} Hermitian
    d3_anti = np.conj(np.swapaxes(d3_mixed, -3, -2), out=_index_first(grid, 3))
    # u_{p i jbar} = d_jbar u_{p i}
    d3_hol = _index_first(grid, 3)
    for p in range(n):
        for i in range(n):
            for j in range(n):
                d3_hol[..., p, i, j] = grid.dzbar(hol2[..., p, i], j)
    d4 = None
    if order == 4:
        # u_{i jbar l mbar} = d_mbar u_{i jbar l} - conj(Gamma^q_mj) u_{i qbar l}
        d4 = _index_first(grid, 4)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for m in range(n):
                        d4[..., i, j, l, m] = grid.dzbar(d3_mixed[..., i, j, l], m)
        d4 -= np.einsum("...qmj,...iql->...ijlm", np.conj(gamma), d3_mixed)
    return CovariantDerivatives(
        grad=grad, hess=hess, hol2=hol2, d3_mixed=d3_mixed, d3_hol=d3_hol,
        d3_anti=d3_anti, d4=d4,
    )


def commutation_residual(
    tensors: ChernTensors, derivatives: CovariantDerivatives
) -> tuple[float, float | None, float | None]:
    """(third, fourth, fourth_without_torsion_product): max-abs defects of
    the commutation identities.  third is the worse of the two
    index-exchange identities

        u_{i jbar l} = u_{l jbar i} - T^p_li u_{p jbar}
        u_{p i jbar} = u_{p jbar i} + u_q R_{i jbar p}^q

    The third, u_{i pbar jbar} = u_{i jbar pbar} - conj(T^q_jp) u_{i qbar},
    is not evaluated: d3_anti is d3_mixed conjugated with its first two
    slots exchanged, so that defect is the first one's, transformed alike.
    fourth is the defect of

        u_{i jbar l mbar} = u_{l mbar i jbar}
            + u_{p jbar} R_{l mbar i}^p - u_{p mbar} R_{i jbar l}^p
            - T^p_li u_{p mbar jbar} - conj(T^q_mj) u_{l qbar i}
            + T^p_li conj(T^q_mj) u_{p qbar}.

    The last value drops the final torsion-squared term from the same
    evaluation, the audit's mutation control.  Both fourth-order values are
    None for order-3 derivatives.
    """
    t, r, d = tensors.torsion, tensors.curvature, derivatives
    res_a = (
        d.d3_mixed
        - np.swapaxes(d.d3_mixed, -3, -1)  # u_{l jbar i} in [i, j, l] slots
        + np.einsum("...pli,...pj->...ijl", t, d.hess)
    )
    res_b = (
        d.d3_hol
        - np.transpose(d.d3_mixed, axes=tuple(range(d.d3_mixed.ndim - 3)) + (-3, -1, -2))
        - np.einsum("...q,...ijpq->...pij", d.grad, r)
    )
    third = max(float(np.abs(res_a).max()), float(np.abs(res_b).max()))
    del res_a, res_b  # before the larger fourth-order defect
    if d.d4 is None:
        return third, None, None
    t_bar = np.conj(t)
    res = (
        d.d4
        - np.transpose(d.d4, axes=tuple(range(d.d4.ndim - 4)) + (-2, -1, -4, -3))
        - np.einsum("...lmip,...pj->...ijlm", r, d.hess)
        + np.einsum("...ijlp,...pm->...ijlm", r, d.hess)
        + np.einsum("...pli,...pmj->...ijlm", t, d.d3_anti)
        + np.einsum("...qmj,...lqi->...ijlm", t_bar, d.d3_mixed)
    )
    omitted = float(np.abs(res).max())
    t_hess = np.einsum("...pli,...pq->...liq", t, d.hess)
    res -= np.einsum("...liq,...qmj->...ijlm", t_hess, t_bar)
    return third, float(np.abs(res).max()), omitted


# ------------------------------------------------------------- functionals

def gradient_norm_sq(grid: TorusGrid, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise |du|_g^2 = g^{i jbar} u_i conj(u_j) for a real scalar."""
    return _gradient_norm_sq(grid, u, require_metric(grid, g)[1])


def _gradient_norm_sq(grid: TorusGrid, u: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """``gradient_norm_sq`` from the inverse of a checked metric."""
    du = grid.holomorphic_gradient(u)
    # raised tensor g^{i jbar} = ginv[..., j, i]
    out = np.einsum("...ji,...i,...j->...", ginv, du, np.conj(du))
    return out.real
