"""The state pair (u, v) and its functionals.

Mass, kinetic and potential energy, momentum, the Gagliardo-Nirenberg
quotient J = M^(1/2) H^(5/2) / R^2, L^p norms, and the Galilean boost
(u, v) -> (e^{i kappa x.xi} u, e^{i x.xi} v).  The coupling kappa = 1/2 is
the mass-resonance value at which the boost commutes with the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, RadialGrid, UniformGrid

MASS_RESONANT_KAPPA = 0.5


@dataclass(frozen=True)
class FieldPair:
    """Dynamical state (u, v) with coupling kappa, both fields on one grid."""

    u: Field
    v: Field
    kappa: float

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must live on the same grid")
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"coupling must be a finite positive number, got {self.kappa}")

    @property
    def grid(self) -> UniformGrid | RadialGrid:
        return self.u.grid

    def with_values(self, u: np.ndarray, v: np.ndarray) -> "FieldPair":
        return FieldPair(Field(self.grid, u), Field(self.grid, v), self.kappa)


def pair_from_arrays(
    grid: UniformGrid | RadialGrid,
    u: np.ndarray,
    v: np.ndarray,
    kappa: float = MASS_RESONANT_KAPPA,
) -> FieldPair:
    return FieldPair(Field(grid, u), Field(grid, v), kappa)


def stack(p: FieldPair) -> np.ndarray:
    """(u, v) stacked as one (2, *shape) array, for one pass of a grid quadrature over both fields.

    On the radial grid, when no imaginary part is non-zero, the float view of
    the real parts is returned, without a copy, and the functionals run in
    real arithmetic with the bits of the complex formulas: a NaN imaginary
    part counts as non-zero, and -0.0 as zero, since |x + (-0)i| = |x| under
    hypot.  A torus stack is never viewed as real: a transform of float64
    input takes pocketfft's real path, with other bits (``grid`` module
    docstring).
    """
    w = np.array((p.u.values, p.v.values))
    return w.real if isinstance(p.grid, RadialGrid) and not w.imag.any() else w


def mass(p: FieldPair) -> float:
    """M = ||u||_2^2 + ||v||_2^2."""
    g = p.grid
    return float(g.integrate(np.abs(p.u.values) ** 2) + g.integrate(np.abs(p.v.values) ** 2))


def kinetic(p: FieldPair) -> float:
    """H = ||grad u||_2^2 + (kappa/2) ||grad v||_2^2."""
    return _kinetic(p.grid.dirichlet(stack(p)), p.kappa)


def _kinetic(dirichlet: np.ndarray, kappa: float) -> float:
    """H from the pair's per-field Dirichlet integrals (du, dv): du + (kappa/2) dv."""
    du, dv = dirichlet.tolist()
    return float(du + 0.5 * kappa * dv)


def potential(p: FieldPair) -> float:
    """R = Re int conj(v) u^2."""
    g = p.grid
    return float(g.integrate(np.real(np.conj(p.v.values) * p.u.values**2)))


def energy(p: FieldPair) -> float:
    """E = H - R."""
    return kinetic(p) - potential(p)


def momentum(p: FieldPair) -> np.ndarray:
    """P = Im int (conj(u) grad u + (1/2) conj(v) grad v), one entry per axis.

    By Parseval, P_j = h^d sum k_j (|u_hat|^2 + (1/2)|v_hat|^2) with the
    Nyquist-zeroed wavenumbers of the spectral gradient.
    """
    g = p.grid
    if not isinstance(g, UniformGrid):
        raise TypeError("momentum is defined on uniform grids only")
    return _momentum(g, *g.fft(stack(p)))


def _momentum(g: UniformGrid, uhat: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    """P of the pair whose transforms are ``uhat`` and ``vhat``."""
    dens = np.abs(uhat) ** 2 + 0.5 * np.abs(vhat) ** 2
    return np.array([g.integrate(km * dens) for km in g.derivative_wavenumbers()])


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
    coords = g.coords()
    phase = sum(c * x for c, x in zip(coords, xi))
    return p.with_values(
        np.exp(1j * p.kappa * phase) * p.u.values,
        np.exp(1j * phase) * p.v.values,
    )


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
        return max(lp_norm(p.u, q), lp_norm(p.v, q))
    g = p.grid
    total = g.integrate(np.abs(p.u.values) ** q) + g.integrate(np.abs(p.v.values) ** q)
    return float(total) ** (1.0 / q)
