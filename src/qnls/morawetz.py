"""Interaction-Morawetz machinery.

Weight construction from the smooth bump Gamma (correlation weights phi,
phi1, their radial average psi, and the potential a with grad a(z) =
psi(|z|/R) z), the momentum-killing boost parameter xi, the Morawetz
functional M(t), the Galilean-invariant window pairing that isolates the
positive bulk term, the Cauchy-Schwarz sign condition on the cross terms,
and the time-and-scale averaged interaction accumulator.

All radial weight tables are built in the scaled variable q = r/R, which
makes them R-independent; physical evaluations rescale on the fly.  The
tables' defining identities (Lap a = phi + (d-1) psi via r psi' = phi -
psi, the ordering 0 <= phi1 <= phi <= psi <= 1, support in q <= 2) are
machine-checked from the tables themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fields as fields_mod
from .evolution import _check_count, _drive, _stop_steps
from .fields import FieldPair, galilean_boost
from .grid import UniformGrid, _centred_d1, _centred_d2, unit_ball_volume

Q_MAX = 2.5      # the weight tables cover q = r/R in [0, Q_MAX]
N_RADII = 12     # the interaction average's log-spaced radii in [R0, R0 e^J]
S_STRIDE = 4     # its window centres: every S_STRIDE-th grid point
TABLE_SIZE = 4096   # nodes of each weight table on [0, Q_MAX]
N_RHO = 512         # radial quadrature nodes of the bump correlations
N_ANG = 96          # their Gauss-Jacobi angular nodes, d >= 2 (d = 1: the two of S^0)
BAND_SLICE = 2**14  # most transition-band nodes _bump_correlations evaluates at once


def bump_gamma(r, eps: float):
    """C-infinity radial bump: 1 for r <= 1-eps, 0 for r >= 1, monotone between.

    The transition uses the standard exp(-1/t) glue, so all derivatives
    vanish at both ends of (1-eps, 1).
    """
    if not 0 < eps <= 0.5:
        raise ValueError(f"smoothing width must lie in (0, 1/2], got {eps}")
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.zeros_like(r)
    out[r <= 1.0 - eps] = 1.0
    trans = (r > 1.0 - eps) & (r < 1.0)
    if np.any(trans):
        out[trans] = _glue((r[trans] - (1.0 - eps)) / eps)
    return float(out[0]) if scalar else out


def _glue(t: np.ndarray) -> np.ndarray:
    """The bump across its transition, t = (r - (1 - eps)) / eps, in place on t.

    Returns e^(-1/(1-t)) / (e^(-1/t) + e^(-1/(1-t))), which equals
    1 - smoothstep(t), written into t.  t is first clamped to [0, 1], where
    the formula is exactly 1 at 0 and exactly 0 at 1, so a value rounded
    just past either end gets the value :func:`bump_gamma` gives there.
    One temporary the size of t.
    """
    np.clip(t, 0.0, 1.0, out=t)
    with np.errstate(divide="ignore"):   # -1/0 = -inf at the ends, and e^-inf = 0
        g2 = np.subtract(1.0, t)
        g2 = np.exp(np.divide(-1.0, g2, out=g2), out=g2)
        g1 = np.exp(np.divide(-1.0, t, out=t), out=t)
    return np.divide(g2, np.add(g1, g2, out=g1), out=t)


def _sphere_area(n: int) -> float:
    """Surface area of S^n."""
    from math import gamma, pi

    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - u^2)^a on [-1, 1], a > -1: ascending nodes, weights.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Jacobi polynomials with alpha = beta = a (zero diagonal),
    the weights mu0 v_0^2 with v_0 the first eigenvector components and
    mu0 = int (1 - u^2)^a du.
    """
    k = np.arange(1.0, n)
    s = 2.0 * (k + a)
    num = 4.0 * k * (k + a) ** 2 * (k + 2.0 * a)
    den = s**2 * (s + 1.0) * (s - 1.0)
    if a == -0.5 and n > 1:   # Chebyshev: the formula's k = 1 entry is 0/0, its limit 1/2
        num[0], den[0] = 0.5, 1.0
    off = np.sqrt(num / den)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (2.0 * a + 1.0) * math.gamma(a + 1.0) ** 2 / math.gamma(2.0 * a + 2.0)
    return nodes, mu0 * vecs[0] ** 2


def _cumulative(f: np.ndarray, h: float) -> np.ndarray:
    """Running integral from the first node of f sampled with spacing h, fourth order.

    Each interval integrates the cubic through its four nearest samples:
    h/24 (-f_{i-1} + 13 f_i + 13 f_{i+1} - f_{i+2}) inside, and the
    one-sided h/24 (9 f_0 + 19 f_1 - 5 f_2 + f_3) on the first and, mirrored,
    the last interval.  Needs at least four samples.
    """
    parts = np.empty(f.size - 1)
    parts[0] = 9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3]
    parts[1:-1] = -f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:]
    parts[-1] = 9.0 * f[-1] + 19.0 * f[-2] - 5.0 * f[-3] + f[-4]
    return np.concatenate(([0.0], np.cumsum(parts) * (h / 24.0)))


def _bump_correlations(d: int, eps: float, q: np.ndarray, n_rho: int, n_ang: int) -> np.ndarray:
    """Correlations int Gamma^k(|z|) Gamma^2(|z - q e|) dz in R^d, k = 2 and 3.

    Returns shape (2, q.size), evaluated at the ascending scaled radii ``q``
    with one shared evaluation of g = Gamma^2(|z - q e|).  Rows with
    q >= 2 are exactly 0 (no overlap of the supports) and are skipped.
    Every d is one (rho, u) quadrature: midpoint radii rho, directions
    u = cos(angle to e) on S^(d-1).  For d >= 2 the u are Gauss-Jacobi
    nodes for the sin^(d-2) weight from :func:`_gauss_jacobi`, times the
    area of S^(d-2); d = 1 has S^0, u = -1, 1 of weight 1 and area 1.
    The angular sum inner(q, rho) serves both k.  For q, rho > 0 the
    distance falls as u rises, so g = 0 on a prefix of the ascending nodes
    and g = 1 on a suffix: the suffix sums come from a tail sum of the
    weights, and the bump is evaluated only on the band between.  A pair
    with rho <= q - 1 - delta has g = 0 on every node and one with
    q + rho <= 1 - eps - delta has g = 1 on every node, so its sum is 0 or
    the whole weight without a search; delta = 1e-9 keeps rounding out of
    both tests, and the sums are the ones the search would give.  The band
    is evaluated in slices of whole pairs of at most ``BAND_SLICE`` nodes,
    32 rows of q at a time, which bounds the working set whatever d and
    eps make the band; each pair's band is still summed by one bincount
    and added to its tail sum, so the slicing changes no bit.
    """
    if d == 1:   # S^0: the two directions u = -1, 1, counted once each
        u, wu, area = np.array((-1.0, 1.0)), np.ones(2), 1.0
    else:
        (u, wu), area = _gauss_jacobi(n_ang, (d - 3) / 2.0), _sphere_area(d - 2)
    tail = np.append(np.cumsum(wu[::-1])[::-1], 0.0)     # tail[k] = sum of wu[k:]
    rho = (np.arange(n_rho) + 0.5) / n_rho
    g_rho = bump_gamma(rho, eps)
    base = area * np.array((g_rho**2, g_rho**3)) * rho ** (d - 1) / n_rho
    out = np.zeros((2, q.size))
    n_live = int(np.searchsorted(q, 2.0))
    n_zero = int(np.searchsorted(q, 0.0, side="right"))
    out[:, :n_zero] = (base @ (g_rho**2 * tail[0]))[:, None]   # q = 0: dist = rho
    delta = 1e-9
    for i in range(n_zero, n_live, 32):
        j = min(i + 32, n_live)
        qc = q[i:j, None]
        # g = 1 on every node of a pair in one, 0 on every node of the rest but live
        one = qc + rho <= 1.0 - eps - delta
        live = ~one & (rho > qc - 1.0 - delta)
        inner = np.where(one, tail[0], 0.0)
        c2 = (qc**2 + rho**2)[live]
        two_qr = (2.0 * qc * rho)[live]
        # g = 0 on nodes [0, lo) (dist >= 1), g = 1 on [hi, u.size) (dist <= 1 - eps)
        lo = np.searchsorted(u, (c2 - 1.0) / two_qr, side="right")
        hi = np.searchsorted(u, (c2 - (1.0 - eps) ** 2) / two_qr, side="left")
        sums = tail[hi]
        # the band [lo, hi) of each pair that has one, in slices of whole pairs
        # of at most BAND_SLICE nodes (a pair has at most u.size)
        lens = hi - lo
        has = np.flatnonzero(lens)
        lo, lens, c2, two_qr = lo[has], lens[has], c2[has], two_qr[has]
        ends = np.cumsum(lens)
        a = 0
        while a < has.size:
            start = ends[a] - lens[a]
            b = int(np.searchsorted(ends, start + BAND_SLICE, side="right"))
            n_s = lens[a:b]
            pair = np.repeat(np.arange(b - a), n_s)
            node = np.repeat(lo[a:b] - (ends[a:b] - n_s), n_s)
            node += np.arange(start, ends[b - 1])
            dist = np.repeat(two_qr[a:b], n_s)
            dist = np.subtract(np.repeat(c2[a:b], n_s), np.multiply(dist, u[node], out=dist), out=dist)
            dist = np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
            g = _glue(np.divide(np.subtract(dist, 1.0 - eps, out=dist), eps, out=dist))   # Gamma(dist)
            g = np.multiply(np.square(g, out=g), wu[node], out=g)
            sums[has[a:b]] += np.bincount(pair, weights=g, minlength=b - a)
            a = b
        inner[live] = sums
        out[:, i:j] = base @ inner.T
    return out


@dataclass(frozen=True)
class MorawetzWeights:
    """Tabulated radial weights for one (d, R, eps).

    Tables live in q = r/R on [0, Q_MAX]; phi and phi1 vanish for q >= 2.
    :meth:`psi_of` interpolates psi and continues it analytically as
    psi = I2/q beyond the table (I2 = int_0^2 phi dq).
    """

    d: int
    R: float
    eps: float
    q: np.ndarray
    phi: np.ndarray
    phi1: np.ndarray
    psi: np.ndarray
    a: np.ndarray
    dphi: np.ndarray
    i2: float

    def psi_of(self, q):
        q = np.asarray(q, dtype=float)
        inside = np.interp(q, self.q, self.psi)
        tail = self.i2 / np.maximum(q, 1e-300)
        return np.where(q <= self.q[-1], inside, tail)


_TABLE_CACHE: dict = {}


def build_weights(d: int, R: float, eps: float) -> MorawetzWeights:
    """Build the weight tables for dimension d, window radius R, smoothing eps.

    phi is the normalized radial self-correlation of Gamma^2, phi1 the
    correlation of Gamma^3 with Gamma^2; psi and a follow by the
    fourth-order cumulative rule of :func:`_cumulative`, the phi' table by
    centered differences.  The scaled tables are cached per (d, eps) since
    they do not depend on R.
    """
    if d not in (1, 2, 5):
        raise ValueError(f"weights are built for d in {{1, 2, 5}}, got {d}")
    _check_radius(R)
    key = (d, float(eps))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _build_scaled_tables(*key)
    tables = _TABLE_CACHE[key]
    return MorawetzWeights(d=d, R=float(R), eps=float(eps), **tables)


def _build_scaled_tables(d, eps) -> dict:
    q = np.linspace(0.0, Q_MAX, TABLE_SIZE)
    dq = q[1] - q[0]
    phi, phi1 = _bump_correlations(d, eps, q, N_RHO, N_ANG) / unit_ball_volume(d)

    # psi(q) = (1/q) int_0^q phi;  a(q) = int_0^q psi q' dq'.  Cumulative
    # integrals by the fourth-order rule of _cumulative, so the table
    # identity Lap a = phi + (d-1) psi survives later differentiation.
    cum_phi = _cumulative(phi, dq)
    psi = np.empty_like(phi)
    psi[0] = phi[0]
    psi[1:] = cum_phi[1:] / q[1:]
    a = _cumulative(psi * q, dq)

    return dict(
        q=q,
        phi=phi,
        phi1=phi1,
        psi=psi,
        a=a,
        dphi=np.gradient(phi, dq),
        i2=float(cum_phi[-1]),
    )


def weight_identity_check(w: MorawetzWeights) -> dict:
    """Measure every tabulated weight identity and bound constant.

    Returns a report with the minimum of psi - phi (sign condition), the
    ordering margins, the max interior error of Lap a = phi + (d-1) psi,
    and the measured constants of |phi'| <= C/R and |phi - phi1| <= C eps.
    """
    q = w.q
    dq = q[1] - q[0]
    interior = slice(2, -2)

    # Lap a from the a-table alone: a'' + (d-1)/q * a', 4th-order stencils
    a = w.a
    lap_a = _centred_d2(a, dq) + (w.d - 1) * _centred_d1(a, dq) / q[interior]
    target = w.phi[interior] + (w.d - 1) * w.psi[interior]
    lap_a_err = float(np.max(np.abs(lap_a - target)))

    ratio = np.minimum(q[1:], 1.0 / q[1:])
    psi_minus_phi = w.psi - w.phi
    report = {
        "min_psi_minus_phi": float(np.min(psi_minus_phi)),
        "min_phi_minus_phi1": float(np.min(w.phi - w.phi1)),
        "min_phi1": float(np.min(w.phi1)),
        "max_psi": float(np.max(w.psi)),
        "lap_a_identity_error": lap_a_err,
        "sup_dphi_times_R": float(np.max(np.abs(w.dphi))),   # |phi'(r)| R = |dphi/dq|
        "sup_psi_minus_phi_over_min": float(np.max(psi_minus_phi[1:] / ratio)),
        "sup_phi_minus_phi1_over_eps": float(np.max(np.abs(w.phi - w.phi1)) / w.eps),
        "phi_at_zero": float(w.phi[0]),
        "support_bound": float(np.max(np.abs(w.phi[q >= 2.0]))) if np.any(q >= 2.0) else 0.0,
    }
    return report


@dataclass(frozen=True)
class BoostChoice:
    """Boost parameter for one window; degenerate means xi was forced to 0."""

    xi: np.ndarray
    denominator: float

    @property
    def degenerate(self) -> bool:
        return self.denominator <= 0


def _check_radius(R) -> None:
    """Raises ``ValueError`` unless the window radius, or each of a column of radii, is finite, > 0."""
    if not np.all(np.isfinite(R) & (np.asarray(R) > 0)):
        raise ValueError(f"window radius must be a finite positive number, got {R}")


def _cutoff(grid: UniformGrid, s, R, eps: float) -> np.ndarray:
    """Gamma(|x - s| / R) on the torus (min-image metric), for a radius R or a column of radii.

    Raises ``ValueError`` unless the centre s has exactly ``grid.d`` finite
    components and every radius is finite and positive.
    """
    if not isinstance(grid, UniformGrid):
        raise TypeError("window cutoffs are defined on uniform grids")
    centre = np.atleast_1d(np.asarray(s, dtype=float))
    if centre.shape != (grid.d,) or not np.all(np.isfinite(centre)):
        raise ValueError(f"window centre must have {grid.d} finite components, got {s}")
    _check_radius(R)
    return bump_gamma(grid.distance(s) / R, eps)


def _window(grid: UniformGrid, s, R: float, eps: float) -> np.ndarray:
    """Gamma^2(|x - s| / R), the square of :func:`_cutoff`."""
    return _cutoff(grid, s, R, eps) ** 2


def _densities(grid: UniformGrid, w: np.ndarray, kappa: float):
    """Pointwise densities of the stacked pair ``w`` = (u, v) (:func:`fields.stack`).

    Returns (L, A, nu): L = 2|grad u|^2 + kappa |grad v|^2 (per-component
    array of shape (d, ...) summed on request), A_j = Im(2 u d_j conj(u) +
    v d_j conj(v)), nu = 2 kappa |u|^2 + |v|^2.  The paired current
    B_j = Im(2 kappa u d_j conj(u) + kappa v d_j conj(v)) is kappa A_j
    identically, so callers use kappa A in its place.
    """
    u, v = w
    grads = grid.gradient(w)   # one stacked (du_j, dv_j) per axis
    du = [g[0] for g in grads]
    dv = [g[1] for g in grads]
    l_comp = np.array([2.0 * np.abs(du[j]) ** 2 + kappa * np.abs(dv[j]) ** 2 for j in range(grid.d)])
    a_comp = np.array(
        [np.imag(2.0 * u * np.conj(du[j]) + v * np.conj(dv[j])) for j in range(grid.d)]
    )
    nu = 2.0 * kappa * np.abs(u) ** 2 + np.abs(v) ** 2
    return l_comp, a_comp, nu


def _window_moments(p: FieldPair, win: np.ndarray):
    """Window moments (l, n, a): the integrals of sum_j L_j, nu and each A_j against win."""
    grid = p.grid
    l_comp, a_comp, nu = _densities(grid, fields_mod.stack(p), p.kappa)
    l_tot = float(grid.integrate(np.sum(l_comp, axis=0) * win))
    n_tot = float(grid.integrate(nu * win))
    a_vec = grid.integrate(a_comp * win)
    return l_tot, n_tot, a_vec


def _window_boost(p: FieldPair, win: np.ndarray) -> BoostChoice:
    """Momentum-killing boost a / n for the window ``win`` (see :func:`boost_xi`)."""
    _, n_tot, a_vec = _window_moments(p, win)
    if n_tot <= 0.0:
        return BoostChoice(xi=np.zeros(p.grid.d), denominator=n_tot)
    return BoostChoice(xi=a_vec / n_tot, denominator=n_tot)


def boost_xi(p: FieldPair, s, R: float, w: MorawetzWeights) -> BoostChoice:
    """Momentum-killing boost parameter for the window centered at s.

    Chosen so the Gamma^2-weighted momentum density Im(2 u grad conj(u) +
    v grad conj(v)) integrates to zero after the boost:

        xi = int Im(2 u grad conj(u) + v grad conj(v)) Gamma^2 dx
             / int (2 kappa |u|^2 + |v|^2) Gamma^2 dx,

    with xi = 0 (flagged) when the denominator vanishes.  This vanishing
    condition is the normative contract; the boosted weighted momentum is
    zero by the exact algebra  A^xi = A - xi * nu  pointwise.
    """
    return _window_boost(p, _window(p.grid, s, R, w.eps))


def weighted_momentum(p: FieldPair, s, R: float, w: MorawetzWeights) -> np.ndarray:
    """int Im(2 u grad conj(u) + v grad conj(v)) Gamma^2(|x-s|/R) dx."""
    return _window_moments(p, _window(p.grid, s, R, w.eps))[2]


def morawetz_action(p: FieldPair, w: MorawetzWeights) -> float:
    """M(t) = 2 int int Im(2 conj(u) grad u + conj(v) grad v)(x)
    . grad a(x-y) (2 kappa |u(y)|^2 + |v(y)|^2) dx dy.

    The current in the integrand is -A and the y-weight is nu, both from
    :func:`_densities`.  The y-integral is a convolution with grad a(z) =
    psi(|z|/R) z, sampled on the min-image displacement from the origin.
    Raises ``ValueError`` for weights built for another dimension.
    """
    grid = p.grid
    if not isinstance(grid, UniformGrid) or grid.d > 2:
        raise TypeError("the Morawetz action is evaluated in d = 1 or 2")
    if w.d != grid.d:
        raise ValueError(f"weights are built for d = {w.d}, the grid has d = {grid.d}")
    _, a_comp, nu = _densities(grid, fields_mod.stack(p), p.kappa)
    origin = np.zeros(grid.d)
    kernel = w.psi_of(grid.distance(origin) / w.R) * np.array(grid.displacement(origin))
    conv = np.real(grid.convolve(kernel, nu))
    return -2.0 * float(np.sum(grid.integrate(a_comp * conv)))


def galilean_pairing(p: FieldPair, s, R: float, w: MorawetzWeights) -> float:
    """The window-paired combination whose boost invariance isolates the bulk term:

    int int [L(x) nu(y) - A(x).B(y)] Gamma^2(|x-s|/R) Gamma^2(|y-s|/R) dx dy

    which factorizes per window into (int L G^2)(int nu G^2) -
    (int A G^2).(int B G^2) = l n - kappa |a|^2, since B = kappa A.
    """
    l_tot, n_tot, a_vec = _window_moments(p, _window(p.grid, s, R, w.eps))
    return l_tot * n_tot - p.kappa * float(np.dot(a_vec, a_vec))


def galilean_invariance_check(p: FieldPair, xi, s, R: float, w: MorawetzWeights) -> float:
    """Relative change of the paired combination under the boost by xi.

    Zero for any kappa > 0 and any xi in exact arithmetic; the numerical
    deviation is pure roundoff provided the boosted pair is torus-smooth
    (lattice xi, or fields vanishing at the box edge).
    """
    base = galilean_pairing(p, s, R, w)
    boosted = galilean_pairing(galilean_boost(p, xi), s, R, w)
    scale = max(abs(base), 1e-300)
    return abs(boosted - base) / scale


def cauchy_schwarz_margin(
    p: FieldPair, n_pairs: int = 10_000, rng: np.random.Generator | None = None
) -> float:
    """Minimum symmetrized two-point margin of the cross-term sign inequality.

    For sampled point pairs (x, y) and each component j, measures

        (1/2)[L_j(x) nu(y) + L_j(y) nu(x)] - (1/2)[A_j(x) B_j(y) + A_j(y) B_j(x)]

    with L_j = 2|d_j u|^2 + kappa |d_j v|^2 and B_j = kappa A_j.  The
    x<->y symmetrization is the form in which the double integrals are
    actually compared (the cross terms enter under a change of variables
    that swaps the two points); per pair it follows from the pointwise Cauchy-Schwarz bound
    and AM-GM, so the returned minimum is nonnegative up to roundoff for
    any state.  Plane-wave pairs with gradient parallel to the phase
    saturate it.  Raises ``ValueError`` unless ``n_pairs`` is an integer >= 1,
    and ``TypeError`` for a pair that is not on a periodic box.
    """
    _check_count("n_pairs", n_pairs, 1)
    grid = p.grid
    if not isinstance(grid, UniformGrid):
        raise TypeError("the Cauchy-Schwarz margin is defined on uniform grids")
    if rng is None:
        rng = np.random.default_rng(0)
    l_comp, a_comp, nu = _densities(grid, fields_mod.stack(p), p.kappa)
    l_flat = l_comp.reshape(grid.d, -1)
    a_flat = a_comp.reshape(grid.d, -1)
    b_flat = p.kappa * a_flat
    nu_flat = nu.reshape(-1)
    npts = nu_flat.size
    ix = rng.integers(0, npts, size=n_pairs)
    iy = rng.integers(0, npts, size=n_pairs)
    margin = np.inf
    for j in range(grid.d):
        lhs = 0.5 * (a_flat[j, ix] * b_flat[j, iy] + a_flat[j, iy] * b_flat[j, ix])
        rhs = 0.5 * (l_flat[j, ix] * nu_flat[iy] + l_flat[j, iy] * nu_flat[ix])
        margin = min(margin, float(np.min(rhs - lhs)))
    return margin


@dataclass(frozen=True)
class InteractionParams:
    """Knobs of the averaged interaction estimate (d = 1 evaluation)."""

    R0: float
    J: float
    T0: float
    eps: float
    cadence: ClassVar[int] = 25   # steps between time samples

    def __post_init__(self) -> None:
        for key in ("R0", "J", "T0"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{key} must be a finite positive number, got {value}")
        if not 0 < self.eps <= 0.5:
            raise ValueError(f"eps must lie in (0, 1/2], got {self.eps}")

    @property
    def nu(self) -> float:
        return self.R0 * np.exp(self.J) / (self.J * self.T0) + self.eps


@dataclass(frozen=True)
class InteractionResult:
    accumulator: float
    nu: float
    e0: float
    per_radius: np.ndarray  # accumulator share per R shell
    radii: np.ndarray
    per_time: np.ndarray    # accumulator share per time sample
    times: np.ndarray
    n_time_samples: int
    outcome: str

    @property
    def ratio(self) -> float:
        """accumulator / (nu * E0^2); inf when E0 = 0."""
        return self.accumulator / (self.nu * self.e0**2) if self.e0 != 0 else np.inf


def interaction_lhs(p0: FieldPair, dt: float, params: InteractionParams) -> InteractionResult:
    """Time-and-scale averaged interaction accumulator in d = 1.

    Evolves the data over [0, T0] by Strang stepping and accumulates

        (1/(J T0)) int_0^{T0} int_{R0}^{R0 e^J} (1/R)
            int [ (int L^xi G_s^2 dx) (int nu G_s^2 dy) ] ds  dR/R dt,

    where G_s = Gamma((. - s)/R) and xi = xi(t, s, R) is the
    momentum-killing boost of :func:`boost_xi`.  With that xi the window
    integrals collapse algebraically to l n - kappa a^2 >= 0 per center s
    (l, n, a the Gamma^2-weighted moments of L, nu, A), so the x and y
    integrals become three spectral correlations per shell and the
    integrand is nonnegative by construction; degenerate windows contribute
    zero without special-casing.  The s integral runs over every
    ``S_STRIDE``-th grid point, R over ``N_RADII`` log-spaced radii, t over
    samples every ``InteractionParams.cadence`` (25) steps.  The suppressed
    positive constant of the estimate is not modeled; ratio stability under
    parameter doubling is what the result is for.

    The time samples are the stops of the driver that ``evolve`` uses
    (``evolution._drive``), and so is the rule that ends a run early: input
    that is not finite is ``"blow-up"`` with no sample and E0 NaN; so is a
    step after which max |u|, |v| exceeds ``RESOLUTION_FACTOR / h``, whose
    state is not integrated; and a substep that misses its tolerance is
    ``"substep-failure"``.  The samples taken before the end are kept;
    ``times`` and ``per_time`` cover the whole schedule, zero past the end.
    """
    grid = p0.grid
    if not isinstance(grid, UniformGrid) or grid.d != 1:
        raise TypeError("the interaction accumulator is evaluated in d = 1")
    kappa = p0.kappa

    radii = params.R0 * np.exp(np.linspace(0.0, params.J, N_RADII))
    ln_w = np.full(N_RADII, params.J / (N_RADII - 1))
    ln_w[0] *= 0.5
    ln_w[-1] *= 0.5

    # window kernels per shell, sampled on the min-image distance from the
    # origin and transformed once for every sample
    kernels = _window(grid, [0.0], radii[:, None], params.eps)
    window_sums = grid.convolver(kernels[:, None, :])

    stops = _stop_steps(params.T0, dt, params.cadence)
    t_samples = np.array(stops, dtype=float) * dt
    t_w = np.zeros_like(t_samples)
    t_w[1:] += 0.5 * np.diff(t_samples)
    t_w[:-1] += 0.5 * np.diff(t_samples)
    stride_w = grid.h * S_STRIDE
    shares: list[np.ndarray] = []   # one per sample, in the order of the stops

    def observe(step: int, w: np.ndarray, tripped: bool) -> None:
        """Appends t_w * ln_w * (1/R) * int (l n - kappa a^2) ds per shell, unless tripped."""
        if not tripped:
            l_comp, a_comp, nu = _densities(grid, w, kappa)
            sums = window_sums(np.array((l_comp[0], a_comp[0], nu))).real
            # views, not a moveaxis: per-call overhead dominates on these arrays
            l_w, a_w, n_w = sums[:, 0], sums[:, 1], sums[:, 2]
            cells = np.maximum(l_w * n_w - kappa * a_w**2, 0.0)
            inner = np.add.reduce(cells[:, ::S_STRIDE], 1) * stride_w
            shares.append(t_w[len(shares)] * (ln_w * inner / radii))

    outcome = _drive(p0, dt, stops, observe)
    # summed in sample order, as a running total would be
    per_r = sum(shares, np.zeros(N_RADII))
    per_t = np.zeros(len(stops))
    per_t[: len(shares)] = [np.sum(share) for share in shares]

    total = float(np.sum(per_r)) / (params.J * params.T0)
    # E0 is NaN without a sample, which only input that is not finite leaves
    e0 = fields_mod.energy(p0) if shares else math.nan
    return InteractionResult(
        accumulator=total,
        nu=params.nu,
        e0=e0,
        per_radius=per_r / (params.J * params.T0),
        radii=radii,
        per_time=per_t / (params.J * params.T0),
        times=t_samples,
        n_time_samples=len(shares),
        outcome=outcome,
    )
