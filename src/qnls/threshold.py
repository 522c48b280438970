"""Variational thresholds, coercivity, and scattering-window diagnostics.

The scale-invariant products M(Q)E(Q) and M(Q)H(Q) of the 5-D ground
state split states into below / at / above threshold.  Below threshold the
trapping variable y = M(u)H(u) / (M(Q)H(Q)) obeys 5y - 4y^(5/4) <= the
mass-energy ratio and stays < 1 along the flow, and the coercivity gap
4 H(u^xi) - 5 R(u) >= delta' H(u^xi) holds with the explicit constant
delta' = 4 (1 - (1-delta)^(1/4)) extracted from the Gagliardo-Nirenberg
chain.  The windowed L^6_t L^3_x norm is the scattering decay proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as fields_mod
from .fields import FieldPair, galilean_boost
from .grid import RadialGrid, UniformGrid
from .ground_state import GroundState
from .morawetz import _cutoff, _window_boost

#: relative guard band for the at-threshold classification
GUARD_BAND = 1e-9
#: smoothing width of the ball cutoff chi = Gamma((x - s)/R)
BALL_EPS = 0.05


@dataclass(frozen=True)
class ThresholdReport:
    me: float                 # M(u) E(u)
    mh: float                 # M(u) H(u)
    threshold_me: float       # M(Q) E(Q)
    threshold_mh: float       # M(Q) H(Q)
    y: float                  # mh / threshold_mh
    me_ratio: float           # me / threshold_me
    classification: str       # below | at | above
    coercivity_gap: float     # 4 H(u) - 5 R(u) at xi = 0
    delta_prime: float        # 4 (1 - (1-delta)^(1/4)); nan when not below


def variational_thresholds(gs: GroundState) -> tuple[float, float]:
    """(M(Q)E(Q), M(Q)H(Q)) from a converged ground state.

    Rejects unconverged or degenerate states; by the 1:5:4 proportions the
    two products satisfy M(Q)E(Q) = M(Q)^2 and M(Q)H(Q) = 5 M(Q)^2.
    """
    if gs.mass <= 0:
        raise ValueError("not a ground state: vanishing mass")
    if not np.isfinite(gs.residual_norm) or gs.residual_norm > 1e-6:
        raise ValueError(
            f"not a converged ground state (residual {gs.residual_norm:.3e})"
        )
    return gs.threshold_me, gs.threshold_mh


def classify_data(p: FieldPair, gs: GroundState) -> ThresholdReport:
    """Fill the threshold report for one state against the ground state.

    Raises ``ValueError`` for a state that is not finite, whose NaN ratios
    would otherwise fall through every comparison to ``"above"``.
    """
    if not np.isfinite(p.values).all():
        raise ValueError("cannot classify a state that is not finite")
    me_q, mh_q = variational_thresholds(gs)
    m = fields_mod.mass(p)
    h = fields_mod.kinetic(p)
    r = fields_mod.potential(p)
    me = m * (h - r)
    mh = m * h
    y = mh / mh_q
    me_ratio = me / me_q

    below = me_ratio < 1.0 - GUARD_BAND and y < 1.0 - GUARD_BAND
    at = (abs(me_ratio - 1.0) <= GUARD_BAND or abs(y - 1.0) <= GUARD_BAND) and (
        me_ratio <= 1.0 + GUARD_BAND and y <= 1.0 + GUARD_BAND
    )
    if at:
        classification = "at"
    elif below:
        classification = "below"
    else:
        classification = "above"

    return ThresholdReport(
        me=me,
        mh=mh,
        threshold_me=me_q,
        threshold_mh=mh_q,
        y=y,
        me_ratio=me_ratio,
        classification=classification,
        coercivity_gap=4.0 * h - 5.0 * r,
        delta_prime=_delta_prime(y),
    )


def _delta_prime(y: float) -> float:
    """delta' = 4 (1 - y^(1/4)) for the product ratio y = 1 - delta; NaN for y >= 1."""
    return 4.0 * (1.0 - y**0.25) if y < 1.0 else float("nan")


def trapping_curve(y: float) -> float:
    """5y - 4y^(5/4): below-threshold states satisfy curve(y) <= ME ratio."""
    return 5.0 * y - 4.0 * y**1.25


def boosted_kinetic(p: FieldPair, xi) -> float:
    """H(u^xi) by the exact quadratic expansion in xi.

    H(u^xi) = H(u) + 2 kappa xi . P(u) + |xi|^2 (kappa^2 ||u||^2 +
    (kappa/2) ||v||^2); for real radial profiles the momentum term
    vanishes.  Agrees with kinetic(galilean_boost(p, xi)) on uniform grids.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    g, kap = p.grid, p.kappa
    if isinstance(g, UniformGrid):
        h, mom = fields_mod.kinetic_and_momentum(p)
        if xi.shape != mom.shape:
            raise ValueError(f"xi must have {g.d} components")
        lin = 2.0 * kap * float(np.dot(xi, mom))
    elif p.values.imag.any():   # NaN counts as non-zero
        raise ValueError("radial boosted kinetic assumes real profiles")
    else:   # the real view, so that kinetic tests no realness of its own
        p = p.with_stack(p.values.real)
        h, lin = fields_mod.kinetic(p), 0.0
    mu, mv = g.integrate(np.abs(p.values) ** 2).tolist()
    quad = float(np.dot(xi, xi)) * (kap**2 * mu + 0.5 * kap * mv)
    return h + lin + quad


def coercivity_gap(p: FieldPair, xi) -> float:
    """4 H(u^xi) - 5 R(u); R is boost-invariant so xi enters only through H."""
    return 4.0 * boosted_kinetic(p, xi) - 5.0 * fields_mod.potential(p)


def delta_prime_from_delta(delta: float) -> float:
    """The explicit coercivity constant 4 (1 - (1-delta)^(1/4))."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    return _delta_prime(1.0 - delta)


@dataclass(frozen=True)
class BallCoercivityReport:
    localized_kinetic: float      # H(chi u^xi)
    localized_potential: float    # R(chi u)
    delta_prime: float
    identity_error: float         # chi^2-localization identity residual
    kinetic_excess_constant: float  # (H_loc - H_glob) R^2 / M when positive

    @property
    def gap(self) -> float:
        """4 H(chi u^xi) - 5 R(chi u)."""
        return 4.0 * self.localized_kinetic - 5.0 * self.localized_potential

    @property
    def margin(self) -> float:
        """gap - delta' H(chi u^xi); -inf when delta' is not finite."""
        h_loc = self.localized_kinetic
        return self.gap - (self.delta_prime * h_loc if np.isfinite(self.delta_prime) else np.inf)


def coercivity_on_balls(p: FieldPair, s, radius: float, gs: GroundState) -> BallCoercivityReport:
    """Localized coercivity with cutoff chi = Gamma((x - s)/R), smoothed over BALL_EPS.

    Checks the localization identity int chi^2 |grad u|^2 = int
    |grad(chi u)|^2 + chi Lap(chi) |u|^2, then evaluates the localized gap
    4 H(u_R^xi) - 5 R(u_R) against delta' H(u_R^xi) with delta' from the
    localized product M H / (M(Q) H(Q)).  The boost is the momentum-killing
    xi of the window chi^2.  Small radii legitimately fail; the report says
    so with the measured margin.
    """
    grid = p.grid
    if not isinstance(grid, UniformGrid) or grid.d > 2:
        raise TypeError("ball coercivity is evaluated on uniform grids in d <= 2")
    chi = _cutoff(grid, s, radius, BALL_EPS)
    boosted = galilean_boost(p, _window_boost(p, chi**2).xi)
    cut = p.with_stack(chi * p.values)
    cut_boosted = boosted.with_stack(chi * boosted.values)

    # localization identity on the boosted u component: the gradients of
    # u^xi and chi u^xi from one stacked transform
    ub = boosted.values[0]
    grads = grid.gradient(np.array((ub, cut_boosted.values[0])))
    lhs = float(grid.integrate(chi**2 * sum(np.abs(g[0]) ** 2 for g in grads)))
    lap_chi = grid.laplacian(chi).real
    rhs = float(
        grid.integrate(sum(np.abs(g[1]) ** 2 for g in grads))
    ) + float(grid.integrate(chi * lap_chi * np.abs(ub) ** 2))
    scale = max(abs(lhs), abs(rhs), 1.0)
    identity_error = abs(lhs - rhs) / scale

    m_loc = fields_mod.mass(cut_boosted)
    h_loc = fields_mod.kinetic(cut_boosted)
    r_loc = fields_mod.potential(cut)
    y_loc = m_loc * h_loc / gs.threshold_mh

    h_glob = fields_mod.kinetic(boosted)
    m_glob = fields_mod.mass(p)
    excess = (h_loc - h_glob) * radius**2 / m_glob if m_glob > 0 else 0.0

    return BallCoercivityReport(
        localized_kinetic=h_loc,
        localized_potential=r_loc,
        delta_prime=_delta_prime(y_loc),
        identity_error=identity_error,
        kinetic_excess_constant=excess,
    )


def window_scattering_norm(ts, window: tuple[float, float]) -> float:
    """(int_window ||(u,v)(t)||_{L^3}^6 dt)^(1/6) from recorded diagnostics.

    Quadrature in t over the stored cadence rows; the window must be
    covered by the recorded range.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must have positive length")
    times = ts.times()
    if times.size < 2 or t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValueError(
            f"window [{t0}, {t1}] exceeds the stored range "
            f"[{times[0] if times.size else np.nan}, {times[-1] if times.size else np.nan}]"
        )
    l3 = ts.column("l3_pair")
    grid_t = np.linspace(t0, t1, 257)
    vals = np.interp(grid_t, times, l3)
    integral = np.trapezoid(vals**6, grid_t)
    return float(integral ** (1.0 / 6.0))


def rescale_to_E0(p: FieldPair) -> tuple[FieldPair, float]:
    """Rescale u_lambda = lambda^2 u(lambda .) so that M(u) = E(u).

    Realized exactly on the grid: the box shrinks to L/lambda (same
    samples, same index layout) and the values scale by lambda^2, which
    reproduces the continuum exponents M ~ lambda^(4-d),
    H, R ~ lambda^(6-d) to roundoff.  M = E then reads lambda^2 = M/E in
    every d; requires M > 0 and E > 0.
    """
    m0 = fields_mod.mass(p)
    e0 = fields_mod.energy(p)
    if m0 <= 0:
        raise ValueError("rescaling requires positive mass")
    if e0 <= 0:
        raise ValueError(f"rescaling requires positive energy, got E = {e0:.3e}")
    lam = float(np.sqrt(m0 / e0))
    g = p.grid
    if isinstance(g, RadialGrid):
        new_grid = RadialGrid(g.m, g.r_max / lam)
    else:
        new_grid = UniformGrid(g.d, g.n, g.L / lam)
    scaled = FieldPair.from_stack(new_grid, lam**2 * p.values, p.kappa)
    e_new = fields_mod.energy(scaled)
    m_new = fields_mod.mass(scaled)
    if abs(m_new - e_new) > 1e-10 * max(abs(e_new), 1e-300):
        raise RuntimeError(
            f"rescale post-check failed: |M - E|/E = {abs(m_new - e_new) / abs(e_new):.3e}"
        )
    return scaled, lam
