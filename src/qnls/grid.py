"""Discretization substrate.

Two domains are supported: periodic boxes [0, L)^d for d in {1, 2, 3}
(dynamics, spectral calculus) and a half-line radial grid for the 5-D
elliptic problem (half-offset nodes; ``RadialGrid.gradient`` and the
ground-state solver's Laplacian are fourth-order finite differences).
The second-order :func:`radial_laplacian_apply` and
:func:`radial_helmholtz_solve` have no caller in the package; they stay
for their tests and for the benchmark's ``grid.helmholtz_*`` metrics.
All quadrature conventions used elsewhere in the package are fixed here:
Riemann sum times h^d on the torus, midpoint rule with the S^4 surface
weight on the radial grid, orthonormal FFT normalization, the min-image
displacement on the torus and the periodic convolution built on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as _gamma_fn, pi

import numpy as np
import scipy.fft
from scipy.linalg import solve_banded

# Surface area of S^4 (radial quadrature weight in R^5) and unit-ball volume.
SPHERE_AREA_4 = 8.0 * pi**2 / 3.0
BALL_VOLUME_5 = 8.0 * pi**2 / 15.0

# trailing axes of a sample array; a grid of dimension d transforms the last d
_SPACE_AXES = (-3, -2, -1)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    return pi ** (d / 2.0) / _gamma_fn(d / 2.0 + 1.0)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UniformGrid:
    """Periodic box [0, L)^d with n points per axis, spacing h = L/n.

    n must be a power of two (>= 8) so transforms stay fast and sizes
    predictable; d is capped at 3 because full grids in higher dimension
    are out of reach at desk scale.
    """

    d: int
    n: int
    L: float

    def __post_init__(self) -> None:
        if not 1 <= self.d <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"box length must be positive, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def axis(self) -> np.ndarray:
        """1-D coordinate axis [0, L)."""
        return np.arange(self.n) * self.h

    def coords(self) -> list[np.ndarray]:
        """d meshgrid coordinate arrays of shape ``self.shape``."""
        ax = self.axis()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij"))

    def wavenumbers(self) -> np.ndarray:
        """Signed wavenumbers 2*pi*m/L for one axis, FFT ordering."""
        return 2.0 * pi * np.fft.fftfreq(self.n, d=self.h)

    def displacement(self, s) -> list[np.ndarray]:
        """Signed min-image displacement x - s in [-L/2, L/2), one array per axis."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        half = self.L / 2.0
        axes = [(self.axis() - s[j] + half) % self.L - half for j in range(self.d)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def distance(self, s) -> np.ndarray:
        """Min-image distance |x - s| from the point s, shape ``self.shape``."""
        return np.sqrt(sum(z**2 for z in self.displacement(s)))

    def k2(self) -> np.ndarray:
        """|k|^2 multiplier array of shape ``self.shape``."""
        k = self.wavenumbers()
        return sum(km**2 for km in np.meshgrid(*([k] * self.d), indexing="ij"))

    def derivative_wavenumbers(self) -> list[np.ndarray]:
        """Wavenumber meshes with the Nyquist mode zeroed (odd derivatives)."""
        k = self.wavenumbers()
        k = k.copy()
        k[self.n // 2] = 0.0
        return list(np.meshgrid(*([k] * self.d), indexing="ij"))

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Orthonormal forward transform over the last d axes.

        Leading axes are a batch: a stacked pair of shape (2, *shape) goes
        through in one call.  In d = 1 the one-axis ``fft`` gives the same
        bits as ``fftn`` over the last axis with less call overhead.
        """
        if self.d == 1:
            return scipy.fft.fft(values, axis=-1, norm="ortho")
        return scipy.fft.fftn(values, axes=_SPACE_AXES[-self.d:], norm="ortho")

    def ifft(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fft`, batched the same way."""
        if self.d == 1:
            return scipy.fft.ifft(values, axis=-1, norm="ortho")
        return scipy.fft.ifftn(values, axes=_SPACE_AXES[-self.d:], norm="ortho")

    def convolve(self, kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Periodic convolution int k(x - y) f(y) dy as a Riemann sum.

        ``kernel`` holds k at the min-image displacement of each node from
        the origin.  Both arguments broadcast over their leading (batch)
        axes.  Through the orthonormal pair the circular sum is n^(d/2)
        ifft(fft(k) fft(f)); the Riemann sum adds h^d.
        """
        scale = np.sqrt(self.size) * self.h**self.d
        return self.ifft(self.fft(kernel) * self.fft(values)) * scale

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Spectral gradient, exact for resolved plane waves; batched like :meth:`fft`."""
        vhat = self.fft(values)
        return [self.ifft(1j * km * vhat) for km in self.derivative_wavenumbers()]

    def dirichlet(self, values: np.ndarray) -> float:
        """Dirichlet integral int |grad f|^2 = h^d sum |k|^2 |f_hat|^2 by Parseval.

        Uses the Nyquist-zeroed wavenumbers of :meth:`gradient`.
        """
        k2 = sum(km**2 for km in self.derivative_wavenumbers())
        return float(np.sum(k2 * np.abs(self.fft(values)) ** 2) * self.h**self.d)

    def integrate(self, values: np.ndarray):
        """Riemann sum times h^d (spectrally accurate for smooth data)."""
        return np.sum(values) * self.h**self.d


@dataclass(frozen=True)
class RadialGrid:
    """Half-line grid for radial functions in R^5.

    Nodes sit at r_j = (j + 1/2) * dr so the coordinate singularity of the
    radial Laplacian is never touched; r_max is the Dirichlet cutoff.
    """

    m: int
    r_max: float

    #: ambient dimension is fixed; only the 5-D elliptic problem lives here
    d = 5

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError(f"need at least 4 radial nodes, got {self.m}")
        if not self.r_max > 0:
            raise ValueError(f"cutoff must be positive, got {self.r_max}")

    @property
    def dr(self) -> float:
        return self.r_max / self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,)

    @property
    def size(self) -> int:
        return self.m

    def nodes(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) * self.dr

    def integrate(self, values: np.ndarray):
        """Midpoint rule: sum f(r_j) * sigma_4 * r_j^4 * dr."""
        r = self.nodes()
        return SPHERE_AREA_4 * np.sum(values * r**4) * self.dr

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Fourth-order centered d/dr.

        Ghost values come from even reflection across r=0 (exact for the
        half-offset nodes) and odd reflection at the Dirichlet cutoff.
        """
        g = radial_ghosts(np.asarray(values))
        fp = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * self.dr)
        return [fp]

    def dirichlet(self, values: np.ndarray) -> float:
        """int |grad f|^2 with the fourth-order :meth:`gradient`."""
        return float(self.integrate(np.abs(self.gradient(values)[0]) ** 2))


def radial_ghosts(f: np.ndarray) -> np.ndarray:
    """Pad radial samples with two ghost nodes per side.

    Even reflection across r=0 (f(-dr/2) = f(dr/2), exact for smooth radial
    functions on half-offset nodes) and odd reflection about r_max
    (homogeneous Dirichlet).
    """
    return np.concatenate(([f[1], f[0]], f, [-f[-1], -f[-2]]))


def radial_laplacian_apply(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Apply the radial Laplacian d^2/dr^2 + (4/r) d/dr in R^5.

    Second-order centered stencil; even reflection across r=0 (exact for the
    half-offset nodes), homogeneous Dirichlet at r_max.
    """
    f = np.asarray(values)
    r = grid.nodes()
    dr = grid.dr
    lo = f[0]
    hi = -f[-1]
    up = np.empty_like(f)
    dn = np.empty_like(f)
    up[:-1] = f[1:]
    up[-1] = hi
    dn[1:] = f[:-1]
    dn[0] = lo
    return (up - 2.0 * f + dn) / dr**2 + (4.0 / r) * (up - dn) / (2.0 * dr)


def radial_helmholtz_solve(
    grid: RadialGrid, alpha: float, beta: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (alpha - beta * Laplacian_r) f = rhs on the radial grid.

    Same stencil and boundary closure as :func:`radial_laplacian_apply`,
    folded into a tridiagonal system and handed to the banded solver.
    """
    m = grid.m
    r = grid.nodes()
    dr = grid.dr
    upper = -beta * (1.0 / dr**2 + 2.0 / (r * dr))   # couples f_{j+1}
    lower = -beta * (1.0 / dr**2 - 2.0 / (r * dr))   # couples f_{j-1}
    diag = np.full(m, alpha + 2.0 * beta / dr**2)
    # ghost folds: f_{-1} = f_0 (even), f_m = -f_{m-1} (Dirichlet)
    diag[0] += lower[0]
    diag[-1] -= upper[-1]
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, np.asarray(rhs))


@dataclass(frozen=True)
class Field:
    """Complex samples attached to the grid they live on."""

    grid: UniformGrid | RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"sample shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)


def transform_forward(f: Field) -> Field:
    """Forward spectral transform (orthonormal convention)."""
    if not isinstance(f.grid, UniformGrid):
        raise TypeError("spectral transforms are defined on uniform grids only")
    return Field(f.grid, f.grid.fft(f.values))


def transform_inverse(f: Field) -> Field:
    if not isinstance(f.grid, UniformGrid):
        raise TypeError("spectral transforms are defined on uniform grids only")
    return Field(f.grid, f.grid.ifft(f.values))


def gradient(f: Field) -> list[Field]:
    """Gradient of a field; one Field per space direction."""
    return [Field(f.grid, g) for g in f.grid.gradient(f.values)]
