import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from qnls import fields
from qnls.grid import RadialGrid, UniformGrid, unit_ball_volume
from qnls.fields import galilean_boost, pair_from_arrays
from qnls.morawetz import (
    N_ANG,
    N_RHO,
    Q_MAX,
    TABLE_SIZE,
    InteractionParams,
    InteractionResult,
    _bump_correlations,
    _cumulative,
    _cutoff,
    _gauss_jacobi,
    boost_xi,
    build_weights,
    bump_gamma,
    cauchy_schwarz_margin,
    galilean_invariance_check,
    galilean_pairing,
    interaction_lhs,
    morawetz_action,
    weight_identity_check,
    weighted_momentum,
)
from qnls.threshold import coercivity_on_balls, rescale_to_E0

from conftest import random_envelope_pair, random_radial_pair, run_python

# the benchmark's independent numpy re-implementation of the accumulator, imported read-only
_REFERENCE_SPEC = importlib.util.spec_from_file_location(
    "accumulator_reference", Path(__file__).resolve().parents[1] / "perfbench" / "accumulator_reference.py"
)
accumulator_reference = importlib.util.module_from_spec(_REFERENCE_SPEC)
_REFERENCE_SPEC.loader.exec_module(accumulator_reference)


@pytest.mark.parametrize("call, error, match", [
    (lambda: build_weights(3, 8.0, 0.05), ValueError, r"d in \{1, 2, 5\}"),
    (lambda: morawetz_action(random_radial_pair(RadialGrid(16, 8.0), np.random.default_rng(0)),
                             build_weights(1, 8.0, 0.05)), TypeError, "d = 1 or 2"),
    (lambda: interaction_lhs(random_envelope_pair(UniformGrid(2, 16, 10.0), np.random.default_rng(0)),
                             1e-3, InteractionParams(R0=1.0, J=1.0, T0=0.01, eps=0.25)),
     TypeError, "d = 1"),
], ids=["weights-d3", "action-radial", "accumulator-2d"])
def test_morawetz_refuses_a_dimension_it_is_not_evaluated_in(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
    # input that is not finite: NaN falls in neither the core nor the transition
    assert bump_gamma(np.nan, 0.1) == 0.0
    assert bump_gamma(np.inf, 0.1) == 0.0
    assert bump_gamma(-np.inf, 0.1) == 1.0
    assert np.array_equal(bump_gamma(np.array([np.nan, 0.95, np.inf, -np.inf]), 0.1),
                          [0.0, bump_gamma(0.95, 0.1), 0.0, 1.0])


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


@pytest.mark.parametrize("d", [1, 2, 5])
def test_one_dimensional_correlations_never_form_the_q_by_s_matrix(d):
    # d = 1 runs the band loop on the two directions of S^0, so no temporary
    # spans the table's q grid times the 2 N_RHO nodes (4.6 MiB traced when
    # 256-row chunks of it were formed); for d = 2 and 5 a 32-row chunk holds
    # up to 1.4e5 band nodes, 8.3-8.4 MiB traced when they were evaluated
    # in one pass instead of in BAND_SLICE slices
    q = np.linspace(0.0, Q_MAX, TABLE_SIZE)
    tracemalloc.start()
    try:
        _bump_correlations(d, 0.05, q, N_RHO, N_ANG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (2 if d == 1 else 3) * 2**20


def test_gauss_jacobi_rule_integrates_every_degree_up_to_2n_minus_1():
    # d = 5: weight (1 - u^2)^1, 96 nodes, exact for u^k with k <= 191;
    # the moment of u^2m is the Beta function B(m + 1/2, 2), of odd k zero
    u, wu = _gauss_jacobi(96, 1.0)
    assert np.all(np.diff(u) > 0)
    for k in range(192):
        got = float(np.sum(wu * u**k))
        if k % 2:
            assert abs(got) <= 1e-15
        else:
            m = k // 2
            beta = math.exp(math.lgamma(m + 0.5) + math.lgamma(2.0) - math.lgamma(m + 2.5))
            assert got == pytest.approx(beta, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 24, 96])
def test_gauss_jacobi_rule_is_gauss_chebyshev_in_two_dimensions(n):
    # d = 2: weight (1 - u^2)^(-1/2), whose recurrence starts with beta_1^2 = 1/2
    u, wu = _gauss_jacobi(n, -0.5)
    j = np.arange(n, 0, -1)
    assert np.max(np.abs(u - np.cos((2 * j - 1) * np.pi / (2 * n)))) <= 1e-15
    assert np.max(np.abs(wu - np.pi / n)) <= 1e-14


def test_cumulative_rule_is_exact_on_cubics():
    q = np.linspace(0.0, Q_MAX, TABLE_SIZE)
    f = 1.0 - 2.0 * q + 3.0 * q**2 - 0.5 * q**3
    exact = q - q**2 + q**3 - q**4 / 8.0
    assert np.max(np.abs(_cumulative(f, q[1] - q[0]) - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_cumulative_rule_is_fourth_order():
    errors = []
    for n in (161, 321, 641):
        x = np.linspace(0.0, Q_MAX, n)
        errors.append(np.max(np.abs(_cumulative(np.sin(3.0 * x), x[1] - x[0]) - (1.0 - np.cos(3.0 * x)) / 3.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_table_builds_import_no_scipy():
    # the nodes come from numpy's eigh and the integrals from _cumulative,
    # so a fresh process builds every table without a scipy module
    code = """
import sys
from qnls.morawetz import build_weights
for d in (1, 2, 5):
    build_weights(d, 8.0, 0.05)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert run_python(code).strip() == "[]"


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


# every public function that builds a window Gamma(|x - s| / R), at s = 10
_WINDOW_CALLS = {
    "boost_xi": lambda p, R, w, gs: boost_xi(p, [10.0], R, w),
    "weighted_momentum": lambda p, R, w, gs: weighted_momentum(p, [10.0], R, w),
    "galilean_pairing": lambda p, R, w, gs: galilean_pairing(p, [10.0], R, w),
    "galilean_invariance_check": lambda p, R, w, gs: galilean_invariance_check(p, [0.3], [10.0], R, w),
    "coercivity_on_balls": lambda p, R, w, gs: coercivity_on_balls(p, [10.0], R, gs),
}


@pytest.mark.parametrize("call", list(_WINDOW_CALLS))
@pytest.mark.parametrize("radius", [0.0, -5.0, math.nan])
def test_windows_reject_a_radius_that_is_not_positive(call, radius, gs_mid):
    # a negative radius turned the window into the whole box, NaN into
    # nothing, and 0 into a division by zero
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    u = 0.5 * np.exp(-((x - 20.0) ** 2) / 4.0) * np.exp(0.7j * x)
    p = pair_from_arrays(g, u, 0.2 * u**2, 0.5)
    with pytest.raises(ValueError, match="radius"):
        _WINDOW_CALLS[call](p, radius, build_weights(1, 5.0, 0.05), gs_mid)


@pytest.mark.parametrize("radius", [math.inf, 0.0, -1.0, math.nan])
def test_weights_reject_a_radius_that_is_not_finite_and_positive(radius):
    # an infinite radius was accepted, and morawetz_action then returned
    # -1.4e-16 without an error
    with pytest.raises(ValueError, match="window radius must be a finite positive number"):
        build_weights(1, radius, 0.05)


def test_windows_are_refused_off_the_torus():
    g = RadialGrid(64, 10.0)
    r = g.nodes()
    p = pair_from_arrays(g, np.exp(-(r**2)) + 0j, 0.5 * np.exp(-(r**2)) + 0j, 0.5)
    w = build_weights(1, 5.0, 0.05)
    for call in ("boost_xi", "weighted_momentum", "galilean_pairing", "galilean_invariance_check"):
        with pytest.raises(TypeError, match="uniform grids"):
            _WINDOW_CALLS[call](p, 5.0, w, None)
    # the margin differentiated across the stacked (u, v) axis and failed with IndexError
    with pytest.raises(TypeError, match="uniform grids"):
        cauchy_schwarz_margin(p)


# every public function that builds a window, on a 2-D box at centre s
_WINDOW_CALLS_2D = {
    "boost_xi": lambda p, s, w, gs: boost_xi(p, s, 5.0, w),
    "weighted_momentum": lambda p, s, w, gs: weighted_momentum(p, s, 5.0, w),
    "galilean_pairing": lambda p, s, w, gs: galilean_pairing(p, s, 5.0, w),
    "galilean_invariance_check": lambda p, s, w, gs: galilean_invariance_check(p, [0.3, 0.0], s, 5.0, w),
    "coercivity_on_balls": lambda p, s, w, gs: coercivity_on_balls(p, s, 5.0, gs),
}


@pytest.mark.parametrize("call", list(_WINDOW_CALLS_2D))
@pytest.mark.parametrize("centre", [[10.0, 10.0, 99.0], [math.nan, 10.0], [10.0], [10.0, math.inf]])
def test_windows_reject_a_centre_that_is_not_a_point_of_the_box(call, centre, gs_mid):
    # a third component was dropped, NaN gave an empty window reported as
    # a degenerate boost, and one component raised a bare IndexError
    g = UniformGrid(2, 32, 20.0)
    x, y = g.coords()
    u = 0.5 * np.exp(-((x - 10.0) ** 2 + (y - 10.0) ** 2) / 4.0) * np.exp(0.7j * x)
    p = pair_from_arrays(g, u, 0.2 * u**2, 0.5)
    with pytest.raises(ValueError, match="centre"):
        _WINDOW_CALLS_2D[call](p, centre, build_weights(2, 5.0, 0.05), gs_mid)


def test_windows_accept_a_centre_with_one_component_per_axis():
    g2 = UniformGrid(2, 32, 20.0)
    assert _cutoff(g2, [10.0, 10.0], 5.0, 0.05).shape == g2.shape
    g1 = UniformGrid(1, 256, 40.0)
    assert np.array_equal(_cutoff(g1, [20.0], 5.0, 0.05), _cutoff(g1, 20.0, 5.0, 0.05))
    # the interaction accumulator's kernels: the origin, a column of radii
    radii = np.array([[2.0], [4.0]])
    assert _cutoff(g1, [0.0], radii, 0.05).shape == (2, 256)


def test_action_vanishes_for_real_and_zero_pairs():
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    w = build_weights(1, 8.0, 0.05)
    real = pair_from_arrays(g, np.exp(-((x - 20) ** 2)) + 0j, 0.5 * np.exp(-((x - 20) ** 2)) + 0j)
    assert abs(morawetz_action(real, w)) < 1e-14
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    assert morawetz_action(zero, w) == 0.0


@pytest.mark.parametrize("d", [1, 5])
def test_action_rejects_weights_built_for_another_dimension(d):
    # a 2-D pair with d = 1 or 5 tables gave a number and no error
    g = UniformGrid(2, 32, 16.0)
    x, y = g.coords()
    u = 0.5 * np.exp(-((x - 8.0) ** 2 + (y - 8.0) ** 2) / 4.0) * np.exp(0.7j * x)
    p = pair_from_arrays(g, u, 0.2 * u**2, 0.5)
    with pytest.raises(ValueError, match=f"built for d = {d}, the grid has d = 2"):
        morawetz_action(p, build_weights(d, 5.0, 0.05))
    assert math.isfinite(morawetz_action(p, build_weights(2, 5.0, 0.05)))


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


@pytest.mark.parametrize("n_pairs", [0, -1, 2.5, True])
def test_cauchy_schwarz_margin_refuses_a_pair_count_below_one_or_not_an_integer(n_pairs):
    g = UniformGrid(1, 64, 40.0)
    p = pair_from_arrays(g, np.ones(g.shape, complex), np.ones(g.shape, complex))
    with pytest.raises(ValueError, match="n_pairs"):
        cauchy_schwarz_margin(p, n_pairs=n_pairs)


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
    res = interaction_lhs(zero, 1e-2, InteractionParams(R0=2.0, J=4.0, T0=1.0, eps=0.25))
    assert res.accumulator == 0.0
    assert res.outcome == "completed"
    # a sample at every InteractionParams.cadence = 25th of the 100 steps
    assert np.array_equal(np.round(res.times / 1e-2), [0, 25, 50, 75, 100])


def test_interaction_rejects_a_partial_last_step():
    g = UniformGrid(1, 16, 10.0)
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    with pytest.raises(ValueError):
        interaction_lhs(zero, 1e-3, InteractionParams(R0=1.0, J=1.0, T0=0.0105, eps=0.25))


@pytest.mark.parametrize("key, value", [
    ("R0", -1.0), ("J", 0.0), ("T0", 0.0), ("T0", math.nan), ("eps", 0.0),
    ("R0", math.inf), ("J", math.inf), ("T0", math.inf),
    ("dt", -1e-2), ("dt", 0.0), ("dt", math.inf),
])
def test_interaction_rejects_a_bad_value_naming_it(key, value):
    # each of these crashed, returned a negative accumulator or raised
    # without naming the value
    g = UniformGrid(1, 16, 10.0)
    u = np.exp(-((g.axis() - 5.0) ** 2)) + 0j
    p = pair_from_arrays(g, u, 0.5 * u)
    kwargs = {"R0": 1.0, "J": 1.0, "T0": 0.1, "eps": 0.25}
    with pytest.raises(ValueError, match=key):
        if key == "dt":
            interaction_lhs(p, value, InteractionParams(**kwargs))
        else:
            interaction_lhs(p, 1e-2, InteractionParams(**{**kwargs, key: value}))


def test_interaction_params_refuse_a_largest_radius_beyond_the_float_range():
    # R0 e^J overflowed in interaction_lhs, with a RuntimeWarning, and the
    # window check then raised a ValueError quoting the 12 radii
    for R0, J, T0 in ((2.5, 800.0, 1.0), (1e307, 4.0, 1.0), (1.0, 710.0, 1.0),
                      # R0 e^J is finite, but nu = R0 e^J / (J T0) + eps overflows
                      (2.5, 1e-300, 1e-10), (1.0, 709.0, 1e-4)):
        with pytest.raises(ValueError, match=r"R0 e\^J and nu = R0 e\^J / \(J T0\) \+ eps"):
            InteractionParams(R0=R0, J=J, T0=T0, eps=0.25)
    assert InteractionParams(R0=1.0, J=709.0, T0=1.0, eps=0.25).nu < math.inf   # e^709 = 8.2e307


@pytest.mark.parametrize("accumulator, e0, nu_ratio", [
    (0.0, 0.0, math.inf), (1.0, 0.0, math.inf),
    # E0^2 underflows to 0: 0 / 0 warned and gave NaN, 1 / 0 warned and gave inf
    (0.0, 4.4e-321, math.inf), (1.0, 4.4e-321, math.inf),
    (0.0, math.nan, math.nan), (3.0, 2.0, 3.0 / 4.0),
])
def test_the_ratio_is_infinite_whenever_its_denominator_is_zero(accumulator, e0, nu_ratio):
    nu = InteractionParams(R0=1.0, J=1.0, T0=1.0, eps=0.25).nu
    res = InteractionResult(accumulator=accumulator, nu=nu, e0=e0, per_radius=np.zeros(12),
                            radii=np.ones(12), per_time=np.zeros(1), times=np.zeros(1),
                            n_time_samples=1, outcome="completed")
    assert res.ratio * nu == pytest.approx(nu_ratio, rel=1e-15, nan_ok=True)


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
    res = interaction_lhs(p, 1e-2, InteractionParams(R0=2.0, J=4.0, T0=2.0, eps=0.25))
    assert np.sum(res.per_radius) == pytest.approx(res.accumulator, rel=1e-12)
    assert np.sum(res.per_time) == pytest.approx(res.accumulator, rel=1e-12)


def test_interaction_lhs_matches_the_independent_reference():
    # the trapezoid weights in log R and in t, against a sum that shares no
    # code with the program, within the benchmark gate's relative 1e-8; the
    # 55 steps end on a short last interval (samples at steps 0, 25, 50, 55)
    g = UniformGrid(1, 128, 64.0)
    x = g.axis()
    u = 0.3 * np.exp(-((x - 32.0) ** 2) / 18.0) * np.exp(0.3j * x)
    v = 0.2 * np.exp(-((x - 30.0) ** 2) / 8.0) + 0j
    p = pair_from_arrays(g, u, v)
    dt, params = 2e-3, InteractionParams(R0=1.0, J=3.0, T0=0.11, eps=0.25)
    res = interaction_lhs(p, dt, params)
    assert (res.outcome, res.n_time_samples) == ("completed", 4)
    expected = accumulator_reference.interaction_accumulator(
        u, v, g.L, p.kappa, dt, params.T0, params.R0, params.J, params.eps,
    )
    assert res.accumulator == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_interaction_nonnegative_and_scales_like_e0_squared():
    # perturbative amplitude scaling: accumulator ~ E0^2 for weak data
    g = UniformGrid(1, 256, 100.0)
    x = g.axis()
    base_u = np.exp(-((x - 50.0) ** 2) / 8.0) * np.exp(0.4j * x)
    params = InteractionParams(R0=2.0, J=4.0, T0=2.0, eps=0.25)
    results = []
    for lam in (0.02, 0.01):
        p = pair_from_arrays(g, lam * base_u, 0.5 * lam * base_u)
        res = interaction_lhs(p, 1e-2, params)
        assert res.accumulator >= 0.0
        results.append(res.accumulator / fields.energy(p) ** 2)
    assert results[0] == pytest.approx(results[1], rel=0.2)
