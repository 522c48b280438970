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

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from . import fields as fields_mod
from .evolution import SplitStepper, SubstepFailure, _whole_steps
from .fields import FieldPair, galilean_boost
from .grid import UniformGrid, unit_ball_volume

Q_MAX = 2.5      # the weight tables cover q = r/R in [0, Q_MAX]
N_RADII = 12     # the interaction average's log-spaced radii in [R0, R0 e^J]
S_STRIDE = 4     # its window centres: every S_STRIDE-th grid point
TABLE_SIZE = 4096   # nodes of each weight table on [0, Q_MAX]
N_RHO = 512         # radial quadrature nodes of the bump correlations
N_ANG = 96          # their Gauss-Jacobi angular nodes


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
        t = (r[trans] - (1.0 - eps)) / eps
        g1 = np.exp(-1.0 / t)
        g2 = np.exp(-1.0 / (1.0 - t))
        out[trans] = g2 / (g1 + g2)   # equals 1 - smoothstep(t)
    return float(out[0]) if scalar else out


def _sphere_area(n: int) -> float:
    """Surface area of S^n."""
    from math import gamma, pi

    return 2.0 * pi ** ((n + 1) / 2.0) / gamma((n + 1) / 2.0)


def _bump_correlations(d: int, eps: float, q: np.ndarray, n_rho: int, n_ang: int) -> np.ndarray:
    """Correlations int Gamma^k(|z|) Gamma^2(|z - q e|) dz in R^d, k = 2 and 3.

    Returns shape (2, q.size), evaluated at the ascending scaled radii ``q``
    with one shared evaluation of g = Gamma^2(|z - q e|).  Rows with
    q >= 2 are exactly 0 (no overlap of the supports) and are skipped.
    d = 1 integrates directly on midpoint nodes.  d >= 2 reduces to a
    (rho, angle) quadrature with Gauss-Jacobi nodes u for the sin^(d-2)
    weight; the angular sum inner(q, rho) serves both k.  For q, rho > 0
    the distance falls as u rises, so g = 0 on a prefix of the ascending
    nodes and g = 1 on a suffix: the suffix sums come from a tail sum of
    the weights, and the bump is evaluated only on the band between.
    """
    out = np.zeros((2, q.size))
    n_live = int(np.searchsorted(q, 2.0))
    if d == 1:
        s = np.linspace(-1.0, 1.0, 2 * n_rho, endpoint=False)
        s = s + (s[1] - s[0]) / 2.0
        ds = s[1] - s[0]
        gs = bump_gamma(np.abs(s), eps)
        fs = np.array((gs**2, gs**3)) * ds
        for i in range(0, n_live, 256):
            j = min(i + 256, n_live)
            out[:, i:j] = fs @ (bump_gamma(np.abs(s[None, :] - q[i:j, None]), eps) ** 2).T
        return out

    a = (d - 3) / 2.0
    u, wu = roots_jacobi(n_ang, a, a)
    tail = np.append(np.cumsum(wu[::-1])[::-1], 0.0)     # tail[k] = sum of wu[k:]
    rho = (np.arange(n_rho) + 0.5) / n_rho
    g_rho = bump_gamma(rho, eps)
    base = _sphere_area(d - 2) * np.array((g_rho**2, g_rho**3)) * rho ** (d - 1) / n_rho
    n_zero = int(np.searchsorted(q, 0.0, side="right"))
    out[:, :n_zero] = (base @ (g_rho**2 * tail[0]))[:, None]   # q = 0: dist = rho
    for i in range(n_zero, n_live, 32):
        j = min(i + 32, n_live)
        qc = q[i:j, None]
        c2 = (qc**2 + rho**2).ravel()
        two_qr = (2.0 * qc * rho).ravel()
        # g = 0 on nodes [0, lo) (dist >= 1), g = 1 on [hi, n_ang) (dist <= 1 - eps)
        lo = np.searchsorted(u, (c2 - 1.0) / two_qr, side="right")
        hi = np.searchsorted(u, (c2 - (1.0 - eps) ** 2) / two_qr, side="left")
        lens = hi - lo
        pair = np.repeat(np.arange(lens.size), lens)
        node = np.arange(pair.size) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        dist = np.sqrt(np.maximum(c2[pair] - two_qr[pair] * u[node], 0.0))
        band = np.bincount(pair, weights=bump_gamma(dist, eps) ** 2 * wu[node], minlength=lens.size)
        inner = (tail[hi] + band).reshape(j - i, n_rho)
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
    correlation of Gamma^3 with Gamma^2; psi and a follow by cumulative
    quadrature, the phi' table by centered differences.  The scaled
    tables are cached per (d, eps) since they do not depend on R.
    """
    if d not in (1, 2, 5):
        raise ValueError(f"weights are built for d in {{1, 2, 5}}, got {d}")
    if not R > 0:
        raise ValueError("window radius must be positive")
    key = (d, float(eps))
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _build_scaled_tables(*key)
    tables = _TABLE_CACHE[key]
    return MorawetzWeights(d=d, R=float(R), eps=float(eps), **tables)


def _build_scaled_tables(d, eps) -> dict:
    # imported here: scipy.interpolate loads scipy.optimize, sparse and
    # spatial, which nothing else in the package needs
    from scipy.interpolate import CubicSpline

    q = np.linspace(0.0, Q_MAX, TABLE_SIZE)
    phi, phi1 = _bump_correlations(d, eps, q, N_RHO, N_ANG) / unit_ball_volume(d)

    # psi(q) = (1/q) int_0^q phi;  a(q) = int_0^q psi q' dq'.  Cumulative
    # integrals via spline antiderivatives: smooth in q, so the table
    # identity Lap a = phi + (d-1) psi survives later differentiation.
    cum_phi = CubicSpline(q, phi).antiderivative()(q)
    psi = np.empty_like(phi)
    psi[0] = phi[0]
    psi[1:] = cum_phi[1:] / q[1:]
    a = CubicSpline(q, psi * q).antiderivative()(q)

    return dict(
        q=q,
        phi=phi,
        phi1=phi1,
        psi=psi,
        a=a,
        dphi=np.gradient(phi, q[1] - q[0]),
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
    da = (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * dq)
    d2a = (-a[:-4] + 16.0 * a[1:-3] - 30.0 * a[2:-2] + 16.0 * a[3:-1] - a[4:]) / (
        12.0 * dq**2
    )
    lap_a = d2a + (w.d - 1) * da / q[interior]
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


def _window(grid: UniformGrid, s, R: float, eps: float) -> np.ndarray:
    """Gamma^2(|x - s| / R) on the torus (min-image metric)."""
    return bump_gamma(grid.distance(s) / R, eps) ** 2


def _densities(p: FieldPair):
    """Pointwise densities used across the module.

    Returns (L, A, nu): L = 2|grad u|^2 + kappa |grad v|^2 (per-component
    array of shape (d, ...) summed on request), A_j = Im(2 u d_j conj(u) +
    v d_j conj(v)), nu = 2 kappa |u|^2 + |v|^2.  The paired current
    B_j = Im(2 kappa u d_j conj(u) + kappa v d_j conj(v)) is kappa A_j
    identically, so callers use kappa A in its place.
    """
    grid = p.grid
    kappa = p.kappa
    u, v = p.u.values, p.v.values
    grads = grid.gradient(np.array((u, v)))   # one stacked (du_j, dv_j) per axis
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
    l_comp, a_comp, nu = _densities(p)
    l_tot = float(grid.integrate(np.sum(l_comp, axis=0) * win))
    n_tot = float(grid.integrate(nu * win))
    a_vec = np.array([float(grid.integrate(a_comp[j] * win)) for j in range(grid.d)])
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
    if not isinstance(p.grid, UniformGrid):
        raise TypeError("boost_xi requires a uniform grid")
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
    """
    grid = p.grid
    if not isinstance(grid, UniformGrid) or grid.d > 2:
        raise TypeError("the Morawetz action is evaluated in d = 1 or 2")
    _, a_comp, nu = _densities(p)
    origin = np.zeros(grid.d)
    kernel = w.psi_of(grid.distance(origin) / w.R) * np.array(grid.displacement(origin))
    conv = np.real(grid.convolve(kernel, nu))
    return -2.0 * float(grid.integrate(a_comp * conv))


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
    saturate it.
    """
    grid = p.grid
    if rng is None:
        rng = np.random.default_rng(0)
    l_comp, a_comp, nu = _densities(p)
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
    cadence: int = 25

    @property
    def nu(self) -> float:
        return self.R0 * np.exp(self.J) / (self.J * self.T0) + self.eps


@dataclass(frozen=True)
class InteractionResult:
    accumulator: float
    nu: float
    e0: float
    ratio: float            # accumulator / (nu * E0^2)
    per_radius: np.ndarray  # accumulator share per R shell
    radii: np.ndarray
    per_time: np.ndarray    # accumulator share per time sample
    times: np.ndarray
    n_time_samples: int
    outcome: str


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
    samples every ``cadence`` steps.  The suppressed positive constant of the
    estimate is not modeled; ratio stability under parameter doubling is
    what the result is for.
    """
    grid = p0.grid
    if not isinstance(grid, UniformGrid) or grid.d != 1:
        raise TypeError("the interaction accumulator is evaluated in d = 1")
    kappa = p0.kappa

    radii = params.R0 * np.exp(np.linspace(0.0, params.J, N_RADII))
    ln_w = np.full(N_RADII, params.J / (N_RADII - 1))
    ln_w[0] *= 0.5
    ln_w[-1] *= 0.5

    # window kernels per shell, sampled on the min-image distance from the origin
    kernels = bump_gamma(grid.distance([0.0]) / radii[:, None], params.eps) ** 2

    nsteps = _whole_steps(params.T0, dt)
    sample_steps = list(range(0, nsteps + 1, params.cadence))
    if sample_steps[-1] != nsteps:
        sample_steps.append(nsteps)
    t_samples = np.array(sample_steps, dtype=float) * dt
    t_w = np.zeros_like(t_samples)
    t_w[1:] += 0.5 * np.diff(t_samples)
    t_w[:-1] += 0.5 * np.diff(t_samples)

    stepper = SplitStepper(p0, dt)
    stride_w = grid.h * S_STRIDE
    per_r = np.zeros(N_RADII)
    per_t = np.zeros(len(sample_steps))
    outcome = "completed"

    def shell_integrands(w: np.ndarray) -> np.ndarray:
        """ln_w * (1/R) * int (l n - kappa a^2) ds, one entry per shell."""
        l_comp, a_comp, nu = _densities(p0.with_values(w[0], w[1]))
        dens = np.array((l_comp[0], a_comp[0], nu))
        l_w, a_w, n_w = np.moveaxis(np.real(grid.convolve(kernels[:, None, :], dens)), 1, 0)
        cells = np.maximum(l_w * n_w - kappa * a_w**2, 0.0)
        inner = np.sum(cells[:, ::S_STRIDE], axis=1) * stride_w
        return ln_w * inner / radii

    n_samples = 0
    for idx, sample_step in enumerate(sample_steps):
        try:
            while stepper.steps < sample_step:
                stepper.step()
        except SubstepFailure:
            outcome = "substep-failure"
            break
        w = stepper.sync()
        if not np.all(np.isfinite(w)):
            outcome = "blow-up"
            break
        shares = t_w[idx] * shell_integrands(w)
        per_r += shares
        per_t[idx] = np.sum(shares)
        n_samples += 1

    total = float(np.sum(per_r)) / (params.J * params.T0)
    e0 = fields_mod.energy(p0)
    nu_param = params.nu
    ratio = total / (nu_param * e0**2) if e0 != 0 else np.inf
    return InteractionResult(
        accumulator=total,
        nu=nu_param,
        e0=e0,
        ratio=ratio,
        per_radius=per_r / (params.J * params.T0),
        radii=radii,
        per_time=per_t / (params.J * params.T0),
        times=t_samples,
        n_time_samples=n_samples,
        outcome=outcome,
    )
