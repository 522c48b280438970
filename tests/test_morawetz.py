import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from qnls import fields
from qnls.grid import UniformGrid, unit_ball_volume
from qnls.fields import galilean_boost, pair_from_arrays
from qnls.morawetz import (
    Q_MAX,
    InteractionParams,
    _bump_correlations,
    boost_xi,
    build_weights,
    bump_gamma,
    cauchy_schwarz_margin,
    galilean_invariance_check,
    interaction_lhs,
    morawetz_action,
    weight_identity_check,
    weighted_momentum,
)
from qnls.threshold import rescale_to_E0

from conftest import random_envelope_pair


def test_bump_endpoints_and_monotonicity():
    assert bump_gamma(0.0, 0.1) == 1.0
    assert bump_gamma(1.5, 0.1) == 0.0
    assert bump_gamma(0.89, 0.1) == 1.0        # exactly 1 below 1 - eps
    assert bump_gamma(1.0, 0.1) == 0.0         # exactly 0 at 1
    rng = np.random.default_rng(0)
    r = np.sort(rng.uniform(0.0, 1.3, size=2000))
    g = bump_gamma(r, 0.1)
    assert np.all(np.diff(g) <= 1e-15)
    with pytest.raises(ValueError):
        bump_gamma(0.5, 0.9)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_weight_table_invariants(d):
    w = build_weights(d, 10.0, 0.05)
    rep = weight_identity_check(w)
    assert rep["min_psi_minus_phi"] >= -1e-12
    assert rep["min_phi_minus_phi1"] >= -1e-12
    assert rep["min_phi1"] >= -1e-12
    assert rep["max_psi"] <= 1.0 + 1e-12
    assert rep["lap_a_identity_error"] < 1e-6
    assert rep["support_bound"] == 0.0
    assert (1 - w.eps) ** d <= rep["phi_at_zero"] <= 1.0


def _dense_correlation(d, k, eps, q, n_rho, n_ang):
    """int Gamma^k(|z|) Gamma^2(|z - q e|) dz with Gamma^2 evaluated on every node."""
    def gam2(r):
        return bump_gamma(r, eps) ** 2

    if d == 1:
        s = np.linspace(-1.0, 1.0, 2 * n_rho, endpoint=False)
        s = s + (s[1] - s[0]) / 2.0
        dense = bump_gamma(np.abs(s), eps)[None, :] ** k * gam2(np.abs(s[None, :] - q[:, None]))
        return np.sum(dense, axis=1) * (s[1] - s[0])
    u, wu = roots_jacobi(n_ang, (d - 3) / 2.0, (d - 3) / 2.0)
    rho = (np.arange(n_rho) + 0.5) / n_rho
    base = bump_gamma(rho, eps) ** k * rho ** (d - 1) / n_rho
    qi, ri = q[:, None, None], rho[None, :, None]
    dist = np.sqrt(np.maximum(qi**2 + ri**2 - 2.0 * qi * ri * u[None, None, :], 0.0))
    inner = np.sum(gam2(dist) * wu, axis=2)
    sphere = 2.0 * np.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)   # |S^(d-2)|
    return sphere * np.sum(base[None, :] * inner, axis=1)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("eps", [0.025, 0.05, 0.25])
def test_band_quadrature_matches_dense_quadrature(d, eps):
    q = np.linspace(0.0, Q_MAX, 513)
    phi, phi1 = _bump_correlations(d, eps, q, 64, 24) / unit_ball_volume(d)
    for table, k in ((phi, 2), (phi1, 3)):
        dense = _dense_correlation(d, k, eps, q, 64, 24) / unit_ball_volume(d)
        assert np.max(np.abs(table - dense)) <= 1e-13 * np.max(np.abs(dense))
    outside = q >= 2.0
    assert np.any(outside)
    assert np.all(phi[outside] == 0.0)
    assert np.all(phi1[outside] == 0.0)


def test_weight_constants_stable_under_eps_halving():
    reports = [weight_identity_check(build_weights(1, 10.0, eps)) for eps in (0.1, 0.05, 0.025)]
    cs = [rep["sup_phi_minus_phi1_over_eps"] for rep in reports]
    assert all(c < 10.0 for c in cs)
    assert max(cs) / min(cs) < 2.0
    # |phi'| <= C / R: the scaled table is R-free, so C is R-independent
    # by construction; it must also be finite and eps-stable
    ds = [rep["sup_dphi_times_R"] for rep in reports]
    assert all(np.isfinite(c) for c in ds)
    assert max(ds) / min(ds) < 2.0


def test_weight_tables_are_r_independent():
    w1 = build_weights(1, 10.0, 0.05)
    w2 = build_weights(1, 20.0, 0.05)
    assert np.array_equal(w1.phi, w2.phi)
    assert np.array_equal(w1.a, w2.a)


def test_boost_xi_worked_example():
    # u = e^{ix} G, v = 0, Gamma = 1 on the support, kappa = 1/2:
    # Im(2 u grad conj u) = -2 G^2, denominator = int G^2, so xi = -2
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    G = np.exp(-((x - 20.0) ** 2) / 8.0)
    p = pair_from_arrays(g, np.exp(1j * x) * G, np.zeros(g.shape, complex), 0.5)
    w = build_weights(1, 100.0, 0.05)
    choice = boost_xi(p, [20.0], 100.0, w)
    assert not choice.degenerate
    assert choice.xi[0] == pytest.approx(-2.0, rel=1e-10)
    post = weighted_momentum(galilean_boost(p, choice.xi), [20.0], 100.0, w)
    assert np.max(np.abs(post)) < 1e-10 * fields.mass(p)


def test_boost_xi_real_pair_and_degenerate():
    g = UniformGrid(1, 128, 20.0)
    x = g.axis()
    w = build_weights(1, 5.0, 0.05)
    real = pair_from_arrays(g, np.exp(-((x - 10) ** 2)) + 0j, np.exp(-((x - 10) ** 2)) + 0j)
    ch = boost_xi(real, [10.0], 5.0, w)
    assert not ch.degenerate
    assert abs(ch.xi[0]) < 1e-14
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    chz = boost_xi(zero, [10.0], 5.0, w)
    assert chz.degenerate
    assert chz.xi[0] == 0.0
    assert chz.denominator == 0.0


def test_boost_postcondition_random_windows():
    rng = np.random.default_rng(12)
    g = UniformGrid(1, 256, 40.0)
    w = build_weights(1, 8.0, 0.05)
    for _ in range(50):
        p = random_envelope_pair(g, rng)
        s = [g.L / 2 + rng.uniform(-4, 4)]
        radius = rng.uniform(3.0, 12.0)
        ch = boost_xi(p, s, radius, w)
        post = weighted_momentum(galilean_boost(p, ch.xi), s, radius, w)
        scale = fields.mass(p) * (1.0 + float(np.abs(ch.xi[0])))
        assert np.max(np.abs(post)) < 1e-10 * scale


def test_action_vanishes_for_real_and_zero_pairs():
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    w = build_weights(1, 8.0, 0.05)
    real = pair_from_arrays(g, np.exp(-((x - 20) ** 2)) + 0j, 0.5 * np.exp(-((x - 20) ** 2)) + 0j)
    assert abs(morawetz_action(real, w)) < 1e-14
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    assert morawetz_action(zero, w) == 0.0


def test_action_matches_direct_double_sum():
    # M = 2 sum_x sum_y Im(2 conj(u) u' + conj(v) v')(x) psi(|z|/R) z nu(y) h^2,
    # z = x - y wrapped into [-L/2, L/2) by integer index arithmetic
    g = UniformGrid(1, 64, 16.0)
    x = g.axis()
    u = np.exp(-((x - 7.0) ** 2) / 3.0 + 0.9j * x)
    v = 0.6 * np.exp(-((x - 9.0) ** 2) / 2.0 - 0.4j * x)
    p = pair_from_arrays(g, u, v, 0.7)
    w = build_weights(1, 3.0, 0.05)
    (du,), (dv,) = g.gradient(u), g.gradient(v)
    current = np.imag(2.0 * np.conj(u) * du + np.conj(v) * dv)
    nu = 2.0 * 0.7 * np.abs(u) ** 2 + np.abs(v) ** 2
    idx = np.arange(g.n)
    z = ((idx[:, None] - idx[None, :] + g.n // 2) % g.n - g.n // 2) * g.h
    direct = 2.0 * np.sum(current[:, None] * w.psi_of(np.abs(z) / w.R) * z * nu[None, :]) * g.h**2
    assert abs(direct) > 1e-3
    assert morawetz_action(p, w) == pytest.approx(direct, rel=1e-12)


def test_action_bound_stable_under_radius_doubling():
    # |M(t)| <= C R E0^2 on normalized (M = E = E0) pairs, C stable in R
    rng = np.random.default_rng(13)
    g = UniformGrid(1, 256, 40.0)
    sups = []
    for radius in (4.0, 8.0, 16.0):
        w = build_weights(1, radius, 0.05)
        rng_local = np.random.default_rng(14)
        worst = 0.0
        trials = 0
        while trials < 30:
            p = random_envelope_pair(g, rng_local, amp=0.3)
            if fields.energy(p) <= 0.01 * fields.kinetic(p):
                continue
            trials += 1
            ps, _ = rescale_to_E0(p)
            val = abs(morawetz_action(ps, build_weights(1, radius, 0.05)))
            worst = max(worst, val / (radius * fields.energy(ps) ** 2))
        sups.append(worst)
    assert all(np.isfinite(s) for s in sups)
    assert sups[1] <= 2.0 * sups[0]
    assert sups[2] <= 2.0 * sups[1]


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
def test_galilean_invariance_of_pairing(kappa):
    rng = np.random.default_rng(15)
    g = UniformGrid(1, 256, 40.0)
    w = build_weights(1, 8.0, 0.05)
    for _ in range(10):
        p = random_envelope_pair(g, rng, kappa=kappa)
        xi = rng.normal(scale=2.0, size=1)   # arbitrary, not lattice
        dev = galilean_invariance_check(p, xi, [g.L / 2 + rng.uniform(-3, 3)], rng.uniform(4, 10), w)
        assert dev < 1e-10


def test_galilean_invariance_zero_boost_exact():
    rng = np.random.default_rng(16)
    g = UniformGrid(1, 128, 20.0)
    w = build_weights(1, 5.0, 0.05)
    p = random_envelope_pair(g, rng)
    assert galilean_invariance_check(p, np.zeros(1), [10.0], 5.0, w) == 0.0


def test_cauchy_schwarz_margin_zero_and_random():
    g = UniformGrid(1, 256, 40.0)
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    assert cauchy_schwarz_margin(zero, n_pairs=100) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_envelope_pair(g, rng)
        assert cauchy_schwarz_margin(p, n_pairs=2000, rng=rng) >= -1e-12


def test_cauchy_schwarz_near_equality_plane_waves():
    # u = e^{ix}, v = e^{2ix}: gradients parallel to the phase saturate the
    # bound; margin vanishes relative to the product scale L * nu
    g = UniformGrid(1, 256, 2 * np.pi)
    x = g.axis()
    p = pair_from_arrays(g, np.exp(1j * x), np.exp(2j * x), 0.5)
    margin = cauchy_schwarz_margin(p, n_pairs=5000)
    scale = (2 + 2.0) * (1 + 1.0)    # L = 4, nu = 2 for this pair
    assert abs(margin) < 1e-6 * scale


def test_interaction_zero_data():
    g = UniformGrid(1, 256, 100.0)
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    res = interaction_lhs(zero, 1e-2, InteractionParams(R0=2.0, J=4.0, T0=1.0, eps=0.25, cadence=10))
    assert res.accumulator == 0.0
    assert res.outcome == "completed"


def test_interaction_rejects_a_partial_last_step():
    g = UniformGrid(1, 16, 10.0)
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    with pytest.raises(ValueError):
        interaction_lhs(zero, 1e-3, InteractionParams(R0=1.0, J=1.0, T0=0.0105, eps=0.25))


def test_interaction_substep_failure_is_a_labeled_outcome():
    # |u| dt = 25: even 1024 RK4 substeps miss the default tolerance (the
    # coarse attempts overflow on the way, hence the silenced warnings)
    g = UniformGrid(1, 16, 10.0)
    p = pair_from_arrays(g, np.full(g.shape, 50.0 + 0j), np.full(g.shape, 50.0 + 0j))
    with np.errstate(over="ignore", invalid="ignore"):
        res = interaction_lhs(p, 0.5, InteractionParams(R0=1.0, J=1.0, T0=0.5, eps=0.25))
    assert res.outcome == "substep-failure"
    assert res.n_time_samples == 1


def test_interaction_flags_non_finite_imaginary_part():
    g = UniformGrid(1, 16, 10.0)
    u = np.zeros(g.shape, complex)
    u[3] = complex(0.0, np.nan)
    p = pair_from_arrays(g, u, np.zeros(g.shape, complex))
    res = interaction_lhs(p, 0.1, InteractionParams(R0=1.0, J=1.0, T0=0.1, eps=0.25))
    assert res.outcome == "blow-up"
    assert res.n_time_samples == 0


def test_interaction_breakdowns_sum_to_total():
    g = UniformGrid(1, 256, 100.0)
    x = g.axis()
    u = 0.05 * np.exp(-((x - 50.0) ** 2) / 8.0) * np.exp(0.4j * x)
    p = pair_from_arrays(g, u, 0.5 * u)
    res = interaction_lhs(p, 1e-2, InteractionParams(R0=2.0, J=4.0, T0=2.0, eps=0.25, cadence=5))
    assert np.sum(res.per_radius) == pytest.approx(res.accumulator, rel=1e-12)
    assert np.sum(res.per_time) == pytest.approx(res.accumulator, rel=1e-12)


def test_interaction_nonnegative_and_scales_like_e0_squared():
    # perturbative amplitude scaling: accumulator ~ E0^2 for weak data
    g = UniformGrid(1, 256, 100.0)
    x = g.axis()
    base_u = np.exp(-((x - 50.0) ** 2) / 8.0) * np.exp(0.4j * x)
    params = InteractionParams(R0=2.0, J=4.0, T0=2.0, eps=0.25, cadence=5)
    results = []
    for lam in (0.02, 0.01):
        p = pair_from_arrays(g, lam * base_u, 0.5 * lam * base_u)
        res = interaction_lhs(p, 1e-2, params)
        assert res.accumulator >= 0.0
        results.append(res.accumulator / fields.energy(p) ** 2)
    assert results[0] == pytest.approx(results[1], rel=0.2)
