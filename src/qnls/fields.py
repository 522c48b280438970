"""The state pair (u, v) and its functionals.

Mass, kinetic and potential energy, momentum, the Gagliardo-Nirenberg
quotient J = M^(1/2) H^(5/2) / R^2, L^p norms, and the Galilean boost
(u, v) -> (e^{i kappa x.xi} u, e^{i x.xi} v).  The coupling kappa = 1/2 is
the mass-resonance value at which the boost commutes with the flow.

A pair is its grid, one (2, *shape) array ``values`` holding u then v, and
kappa, and nothing else.  Its ``u`` and ``v`` are :class:`Field` views of
the halves, made on each access, so pickle and deepcopy copy the three
fields and need no special case.  ``FieldPair(u, v, kappa)`` and
:func:`pair_from_arrays` copy their arrays into one, with the dtype of
``np.array((u, v))``, so the caller's arrays are not aliased;
``from_stack`` and ``with_stack`` hold a stacked array as it is
(``with_values`` is gone: the pair of new halves u, v on the same grid and
coupling is ``p.with_stack(np.array((u, v)))``).  Nothing
derived from the writable array is cached on the pair: the real view that
:func:`kinetic` takes of a complex radial pair with no imaginary part, and
its test, are per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, RadialGrid, UniformGrid

MASS_RESONANT_KAPPA = 0.5


@dataclass(frozen=True, init=False)
class FieldPair:
    """Dynamical state (u, v) with coupling kappa: ``values``, one (2, *shape) array on ``grid``."""

    grid: UniformGrid | RadialGrid
    values: np.ndarray
    kappa: float

    def __init__(self, u: Field, v: Field, kappa: float) -> None:
        if u.grid != v.grid:
            raise ValueError("u and v must live on the same grid")
        self._hold(u.grid, np.array((u.values, v.values)), kappa)

    @classmethod
    def from_stack(cls, grid: UniformGrid | RadialGrid, values: np.ndarray, kappa: float) -> FieldPair:
        """The pair whose (u, v) is ``values``, of shape (2, *grid.shape), held without a copy."""
        return cls.__new__(cls)._hold(grid, values, kappa)

    def _hold(self, grid: UniformGrid | RadialGrid, values: np.ndarray, kappa: float) -> FieldPair:
        if not (kappa > 0 and math.isfinite(kappa)):
            raise ValueError(f"coupling must be a finite positive number, got {kappa}")
        if values.shape != (2, *grid.shape):
            raise ValueError(f"stacked shape {values.shape} is not (2, *{grid.shape})")
        self.__dict__.update(grid=grid, values=values, kappa=kappa)
        return self

    #: u and v, Fields viewing the halves of ``values``, made on each access
    u = property(lambda self: Field(self.grid, self.values[0]))
    v = property(lambda self: Field(self.grid, self.values[1]))

    def with_stack(self, values: np.ndarray) -> FieldPair:
        """The pair of this grid and coupling holding ``values`` (:meth:`from_stack`)."""
        return FieldPair.from_stack(self.grid, values, self.kappa)


def pair_from_arrays(
    grid: UniformGrid | RadialGrid,
    u: np.ndarray,
    v: np.ndarray,
    kappa: float = MASS_RESONANT_KAPPA,
) -> FieldPair:
    return FieldPair.from_stack(grid, np.array((u, v)), kappa)


def mass(p: FieldPair) -> float:
    """M = ||u||_2^2 + ||v||_2^2."""
    mu, mv = p.grid.integrate(np.abs(p.values) ** 2).tolist()
    return mu + mv


def kinetic(p: FieldPair) -> float:
    """H = ||grad u||_2^2 + (kappa/2) ||grad v||_2^2.

    A complex radial pair with no non-zero (or NaN) imaginary part runs on
    the float view of its real parts, with the bits of the complex formulas;
    a float pair needs no test, and a torus pair never does, as a float64
    transform has other bits.
    """
    w = p.values
    if isinstance(p.grid, RadialGrid) and np.iscomplexobj(w) and not w.imag.any():
        w = w.real
    return _kinetic(p.grid.dirichlet(w), p.kappa)


def _kinetic(dirichlet: np.ndarray, kappa: float) -> float:
    """H from the pair's per-field Dirichlet integrals (du, dv): du + (kappa/2) dv."""
    du, dv = dirichlet.tolist()
    return float(du + 0.5 * kappa * dv)


def potential(p: FieldPair) -> float:
    """R = Re int conj(v) u^2."""
    return float(p.grid.integrate(np.real(np.conj(p.values[1]) * p.values[0] ** 2)))


def energy(p: FieldPair) -> float:
    """E = H - R."""
    return kinetic(p) - potential(p)


def momentum(p: FieldPair) -> np.ndarray:
    """P = Im int (conj(u) grad u + (1/2) conj(v) grad v), one entry per axis.

    By Parseval, P_j = h^d sum k_j (|u_hat|^2 + (1/2)|v_hat|^2) with the
    Nyquist-zeroed wavenumbers of the spectral gradient.
    """
    return kinetic_and_momentum(p)[1]


def kinetic_and_momentum(p: FieldPair) -> tuple[float, np.ndarray]:
    """(H, P) of a torus pair from one forward transform of its array, with the bits of :func:`kinetic`."""
    g = p.grid
    if not isinstance(g, UniformGrid):
        raise TypeError("momentum is defined on uniform grids only")
    spectrum = g.fft(p.values)
    dens = np.abs(spectrum[0]) ** 2 + 0.5 * np.abs(spectrum[1]) ** 2
    mom = np.array([g.integrate(km * dens) for km in g.derivative_wavenumbers()])
    return _kinetic(g.dirichlet_of_spectrum(spectrum), p.kappa), mom


def gn_functional(p: FieldPair) -> float:
    """J = M^(1/2) H^(5/2) R^(-2); undefined (raises) when R = 0."""
    r = potential(p)
    if r == 0.0:
        raise ValueError("J is undefined for states with vanishing potential term R")
    return mass(p) ** 0.5 * kinetic(p) ** 2.5 / r**2


def galilean_boost(p: FieldPair, xi) -> FieldPair:
    """Boost (u, v) -> (e^{i kappa x.xi} u, e^{i x.xi} v).

    Pointwise phase map: moduli, mass, and R are invariant; momentum shifts.
    On the torus the boosted pair is smooth-periodic only for lattice xi
    (components in (2 pi / L) Z / kappa-compatible); other xi are fine as
    long as the fields vanish at the box edge.
    """
    g = p.grid
    if not isinstance(g, UniformGrid):
        raise TypeError("the Galilean boost is defined on uniform grids only")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (g.d,):
        raise ValueError(f"xi must have {g.d} components, got shape {xi.shape}")
    phase = sum(c * x for c, x in zip(g.coords(), xi))
    rates = np.array((p.kappa, 1.0)).reshape((2,) + (1,) * g.d)
    return p.with_stack(np.exp(1j * rates * phase) * p.values)


def _check_exponent(p: float) -> None:
    """Raise ValueError unless 1 <= p <= inf; NaN is refused too."""
    if not p >= 1:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")


def lp_norm(f: Field, p: float) -> float:
    """(int |f|^p)^(1/p); p = inf returns the max modulus."""
    _check_exponent(p)
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    return float(f.grid.integrate(np.abs(f.values) ** p)) ** (1.0 / p)


def pair_lp_norm(p: FieldPair, q: float) -> float:
    """L^q norm of the pair: (int |u|^q + |v|^q)^(1/q), for q in [1, inf]."""
    _check_exponent(q)
    if q == np.inf:
        return float(np.max(np.abs(p.values)))
    mu, mv = p.grid.integrate(np.abs(p.values) ** q).tolist()
    return (mu + mv) ** (1.0 / q)
