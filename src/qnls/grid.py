"""Discretization substrate.

Two domains are supported: periodic boxes [0, L)^d for d in {1, 2, 3}
(dynamics, spectral calculus) and a half-line radial grid for the 5-D
elliptic problem (half-offset nodes; ``RadialGrid.gradient`` and the
ground-state solver's Laplacian are fourth-order finite differences).
All quadrature conventions used elsewhere in the package are fixed here:
Riemann sum times h^d on the torus, midpoint rule with the S^4 surface
weight on the radial grid, orthonormal FFT normalization, the min-image
displacement on the torus and the periodic convolution built on both.
Both grids' ``integrate`` and ``dirichlet`` reduce over the sample axes
(the last d on the torus, the last one on the radial grid), so a stacked
(2, *shape) pair gives one value per field in one call, each with the bits
of its own one-field call; the pair functionals, momentum included, reach
h^d and the radial weight only through them.

The torus transforms send complex128 and float64 input straight to
pocketfft's ``c2c``, the call ``scipy.fft.fftn(..., norm="ortho")`` ends
in for either dtype, so the bits are the same and only scipy.fft's argument
handling around each transform is skipped.  (Real data cast to complex
first would give other bits: ``c2c`` transforms float64 input on its own
real-to-complex path.)  A transform with ``out`` set to its complex input
runs in place, with the bits of the out-of-place call: pocketfft copies
each line of samples out of its input before it transforms the line, so
where the result goes does not change the arithmetic.  ``c2c`` is bound
once at import from scipy's compiled ``pypocketfft`` module, loaded by
file with :func:`_scipy_extension`: importing it through its package runs
``scipy.fft``'s ``__init__``, which loads scipy's array-API layer,
``numpy.f2py`` and ``scipy.special``, about 0.4 s of CPU per process
and more than half of the package's start-up.  Every other dtype,
float32 and integers among them, stays on the public ``scipy.fft``
functions, imported on first use, which convert it as they document; so
does every input when the compiled module cannot be loaded.

Each grid computes its constant arrays once, on first use: the spacing,
nodes and r^4 of the radial grid; the axis, coordinate meshes,
wavenumbers, |k|^2 and Nyquist-zeroed wavenumber meshes of the torus.  The accessors return
these shared arrays read-only, so a caller that wants to write into one
must copy it first.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from math import gamma as _gamma_fn, isfinite, pi

import numpy as np


def _scipy_extension(dotted_name: str):
    """One of scipy's compiled modules, loaded from its file; None on any failure.

    ``dotted_name`` is the module's name inside scipy, such as
    ``"scipy.linalg._flapack"``.  ``find_spec`` locates scipy without
    importing it, so no package ``__init__`` along the dotted path runs.
    A module scipy has already imported is returned as it is; otherwise
    ``sys.modules`` is left as it was found, so a later import of the
    package loads the module the usual way, and CPython hands that second
    load of a single-phase extension the same function objects.  None
    sends the caller to the public import.
    """
    if dotted_name in sys.modules:
        return sys.modules[dotted_name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    base = os.path.join(scipy_spec.submodule_search_locations[0], *dotted_name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base + suffix
        if not os.path.isfile(path):
            continue
        loader = importlib.machinery.ExtensionFileLoader(dotted_name, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(dotted_name, path, loader=loader))
            loader.exec_module(module)
        except Exception:   # whatever the file raises, the public import raises again in context
            return None
        finally:
            sys.modules.pop(dotted_name, None)
        return module
    return None


_c2c = getattr(_scipy_extension("scipy.fft._pocketfft.pypocketfft"), "c2c", None)

# Surface area of S^4 (radial quadrature weight in R^5) and unit-ball volume.
SPHERE_AREA_4 = 8.0 * pi**2 / 3.0
BALL_VOLUME_5 = 8.0 * pi**2 / 15.0

# trailing axes of a sample array; a grid of dimension d transforms the last d
_SPACE_AXES = (-3, -2, -1)
_COMPLEX, _REAL = np.dtype(complex), np.dtype(float)
# pocketfft's normalisation code for norm="ortho", 1/sqrt(n) both ways
_ORTHO = 1


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    return pi ** (d / 2.0) / _gamma_fn(d / 2.0 + 1.0)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a shared grid constant read-only and return it."""
    a.flags.writeable = False
    return a


def _mesh(axis: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """The d read-only ``ij`` meshgrid arrays of one axis repeated d times."""
    return tuple(map(_read_only, np.meshgrid(*([axis] * d), indexing="ij")))


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
        if not (self.L > 0 and isfinite(self.L)):
            raise ValueError(f"box length must be a finite positive number, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @cached_property
    def _axis(self) -> np.ndarray:
        return _read_only(np.arange(self.n) * self.h)

    @cached_property
    def _coords(self) -> tuple[np.ndarray, ...]:
        return _mesh(self._axis, self.d)

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * pi * np.fft.fftfreq(self.n, d=self.h))

    @cached_property
    def _axes(self) -> tuple[int, ...]:
        return _SPACE_AXES[-self.d:]

    @cached_property
    def _k2(self) -> np.ndarray:
        return _read_only(sum(km**2 for km in _mesh(self._wavenumbers, self.d)))

    @cached_property
    def _derivative_wavenumbers(self) -> tuple[np.ndarray, ...]:
        k = self._wavenumbers.copy()
        k[self.n // 2] = 0.0
        return _mesh(k, self.d)

    @cached_property
    def _dirichlet_k2(self) -> np.ndarray:
        return _read_only(sum(km**2 for km in self._derivative_wavenumbers))

    def axis(self) -> np.ndarray:
        """1-D coordinate axis [0, L)."""
        return self._axis

    def coords(self) -> list[np.ndarray]:
        """d meshgrid coordinate arrays of shape ``self.shape``."""
        return list(self._coords)

    def wavenumbers(self) -> np.ndarray:
        """Signed wavenumbers 2*pi*m/L for one axis, FFT ordering."""
        return self._wavenumbers

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
        return self._k2

    def derivative_wavenumbers(self) -> list[np.ndarray]:
        """Wavenumber meshes with the Nyquist mode zeroed (odd derivatives)."""
        return list(self._derivative_wavenumbers)

    def fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Orthonormal forward transform over the last d axes.

        Leading axes are a batch: a stacked pair of shape (2, *shape) goes
        through in one call.  Complex128 and float64 input go to
        pocketfft's ``c2c`` directly, other dtypes through ``scipy.fft``
        (module docstring).  ``out``, if given, is a complex128 array of
        the shape of ``values`` that receives the result and is returned;
        it may be ``values`` itself (module docstring).
        """
        return self._transform(values, True, out)

    def ifft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`fft`, batched and dispatched the same way."""
        return self._transform(values, False, out)

    def _transform(self, values: np.ndarray, forward: bool, out: np.ndarray | None) -> np.ndarray:
        dtype = values.dtype
        if (dtype is _COMPLEX or dtype is _REAL) and _c2c is not None:
            return _c2c(values, self._axes, forward, _ORTHO, out, 1)
        import scipy.fft

        result = (scipy.fft.fftn if forward else scipy.fft.ifftn)(values, axes=self._axes, norm="ortho")
        if out is None:
            return result
        out[...] = result
        return out

    def convolve(self, kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Periodic convolution int k(x - y) f(y) dy as a Riemann sum.

        ``kernel`` holds k at the min-image displacement of each node from
        the origin.  Both arguments broadcast over their leading (batch)
        axes.  Through the orthonormal pair the circular sum is n^(d/2)
        ifft(fft(k) fft(f)); the Riemann sum adds h^d.
        """
        return self.convolver(kernel)(values)

    def convolver(self, kernel: np.ndarray):
        """The map f -> ``convolve(kernel, f)``, with the kernel transformed once."""
        kernel_hat = self.fft(kernel)
        scale = np.sqrt(self.size) * self.h**self.d
        return lambda values: self.ifft(kernel_hat * self.fft(values)) * scale

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Spectral gradient, exact for resolved plane waves; batched like :meth:`fft`."""
        vhat = self.fft(values)
        return [self.ifft(1j * km * vhat) for km in self.derivative_wavenumbers()]

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Spectral Laplacian ifft(-|k|^2 fft(f)), complex; batched like :meth:`fft`."""
        return self.ifft(-self._k2 * self.fft(values))

    def dirichlet(self, values: np.ndarray):
        """Dirichlet integral int |grad f|^2 = h^d sum |k|^2 |f_hat|^2 by Parseval.

        Uses the Nyquist-zeroed wavenumbers of :meth:`gradient`; reduces
        over the last d axes, like :meth:`integrate`.
        """
        return self._dirichlet_of_spectrum(self.fft(values))

    def _dirichlet_of_spectrum(self, values_hat: np.ndarray):
        """:meth:`dirichlet` of the samples whose :meth:`fft` is ``values_hat``."""
        return self.integrate(self._dirichlet_k2 * np.abs(values_hat) ** 2)

    def integrate(self, values: np.ndarray):
        """Riemann sum times h^d over the last d axes (spectrally accurate for smooth data).

        ``np.add.reduce`` is what ``np.sum`` calls, bit for bit, without its
        per-call dispatch, which is a fair share of a sum over 256 samples.
        """
        return np.add.reduce(values, axis=self._axes) * self.h**self.d


@dataclass(frozen=True)
class RadialGrid:
    """Half-line grid for radial functions in R^5.

    Nodes sit at r_j = (j + 1/2) * dr so the coordinate singularity of the
    radial Laplacian is never touched; r_max is the Dirichlet cutoff.
    The quadrature weights reach sigma_4 r_max^4 dr and the stencils divide
    by dr^2, so r_max^5 and (m / r_max)^2 must be at most 1e300: that leaves
    a factor 1e8 of the float range to the sampled values and the sums.
    """

    m: int
    r_max: float

    #: ambient dimension is fixed; only the 5-D elliptic problem lives here
    d = 5

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError(f"need at least 4 radial nodes, got {self.m}")
        if not (self.r_max > 0 and isfinite(self.r_max)):
            raise ValueError(f"cutoff must be a finite positive number, got {self.r_max}")
        if not self.m * 1e-150 <= self.r_max <= 1e60:
            raise ValueError(
                f"r_max^5 and (m / r_max)^2 must be at most 1e300, "
                f"got m {self.m}, r_max {self.r_max!r}"
            )

    @cached_property
    def dr(self) -> float:
        return self.r_max / self.m

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,)

    @property
    def size(self) -> int:
        return self.m

    @cached_property
    def _nodes(self) -> np.ndarray:
        return _read_only((np.arange(self.m) + 0.5) * self.dr)

    @cached_property
    def _r4(self) -> np.ndarray:
        return _read_only(self._nodes**4)

    def nodes(self) -> np.ndarray:
        return self._nodes

    def integrate(self, values: np.ndarray):
        """Midpoint rule over the last axis: sum f(r_j) * sigma_4 * r_j^4 * dr."""
        return SPHERE_AREA_4 * np.sum(values * self._r4, axis=-1) * self.dr

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Fourth-order centered d/dr over the last axis.

        Ghost values come from even reflection across r=0 (exact for the
        half-offset nodes) and odd reflection at the Dirichlet cutoff.
        """
        return [_centred_d1(radial_ghosts(np.asarray(values)), self.dr)]

    def dirichlet(self, values: np.ndarray):
        """int |grad f|^2 with the fourth-order :meth:`gradient`, over the last axis.

        The stencil is scaled by the product with 1/(12 dr), which is how
        numpy divides a complex array by a real scalar: so complex samples
        keep the bits of :meth:`gradient` up to the sign of zeros, and
        float64 samples give the bits of the same samples stored as complex
        with a zero imaginary part (|x + 0i| = |x| under hypot).
        """
        d1 = _d1_numerator(radial_ghosts(np.asarray(values))) * (1.0 / (12.0 * self.dr))
        return self.integrate(np.abs(d1) ** 2)


def _d1_numerator(g: np.ndarray) -> np.ndarray:
    """12 dx times the fourth-order centred first derivative at g[..., 2:-2]."""
    return g[..., :-4] - 8.0 * g[..., 1:-3] + 8.0 * g[..., 3:-1] - g[..., 4:]


def _centred_d1(g: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order centred first derivative at the nodes g[..., 2:-2] of samples spaced dx."""
    return _d1_numerator(g) / (12.0 * dx)


def _centred_d2(g: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order centred second derivative at the nodes g[..., 2:-2] of samples spaced dx."""
    return (
        -g[..., 4:] + 16.0 * g[..., 3:-1] - 30.0 * g[..., 2:-2] + 16.0 * g[..., 1:-3] - g[..., :-4]
    ) / (12.0 * dx**2)


def radial_ghosts(f: np.ndarray) -> np.ndarray:
    """Pad radial samples with two ghost nodes per side of the last axis.

    Even reflection across r=0 (f(-dr/2) = f(dr/2), exact for smooth radial
    functions on half-offset nodes) and odd reflection about r_max
    (homogeneous Dirichlet).
    """
    return np.concatenate((f[..., 1::-1], f, -f[..., :-3:-1]), axis=-1)


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

