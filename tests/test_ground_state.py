from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from qnls import fields
from qnls.grid import RadialGrid, UniformGrid
from qnls.fields import pair_from_arrays
from qnls.ground_state import (
    ConvergenceError,
    _balanced_iteration,
    _band_matvec,
    _interleave,
    _lap4_apply,
    _lap4_band,
    _newton_band,
    _residuals,
    oracle_coarse_solve,
    petviashvili_normalization,
    petviashvili_solve,
    sharp_gn_constant,
    solve_periodic_profile,
)

from conftest import random_radial_pair


def test_pohozaev_ratios_at_acceptance_resolution(gs_fine):
    one, h_m, r_m = gs_fine.ratios
    assert one == 1.0
    assert h_m == pytest.approx(5.0, abs=5e-3)
    assert r_m == pytest.approx(4.0, abs=4e-3)
    assert gs_fine.residual_norm < 1e-10
    # E(Q) = M(Q) since 5 - 4 = 1
    assert gs_fine.energy / gs_fine.mass == pytest.approx(1.0, rel=1e-3)


def test_normalization_factor_is_one_at_fixed_point(gs_fine):
    assert abs(petviashvili_normalization(gs_fine.pair) - 1.0) < 1e-8


def test_residual_decreases_monotonically(gs_mid):
    tail = np.array(gs_mid.residual_history[-10:])
    assert tail.size == 10
    assert np.all(np.diff(tail) < 0)


def test_profiles_nonnegative(gs_mid):
    assert float(np.min(gs_mid.phi)) > -1e-10
    assert float(np.min(gs_mid.vphi)) > -1e-10


def test_gaussian_is_not_a_ground_state(gs_mid):
    # negative control: ratios of a non-solution are far from (1, 5, 4)
    grid = gs_mid.grid
    r = grid.nodes()
    gauss = pair_from_arrays(grid, 3 * np.exp(-(r**2)) + 0j, 3 * np.exp(-(r**2)) + 0j, 0.5)
    h_m = fields.kinetic(gauss) / fields.mass(gauss)
    r_m = fields.potential(gauss) / fields.mass(gauss)
    assert abs(h_m - 5.0) > 0.1 or abs(r_m - 4.0) > 0.1


def test_dilation_moves_kinetic_ratio(gs_fine):
    # lam^2 Q(lam r) at lam = 2: M scales by 1/2, H by 2, so H/M -> 4 * 5
    grid = gs_fine.grid
    lam = 2.0
    new_grid = RadialGrid(grid.m // 2, grid.r_max / lam)
    rs = new_grid.nodes()
    phi = lam**2 * np.interp(lam * rs, grid.nodes(), gs_fine.phi)
    vphi = lam**2 * np.interp(lam * rs, grid.nodes(), gs_fine.vphi)
    scaled = pair_from_arrays(new_grid, phi.astype(complex), vphi.astype(complex), 0.5)
    h_m = fields.kinetic(scaled) / fields.mass(scaled)
    assert h_m == pytest.approx(20.0, rel=1e-2)


def test_cross_solver_mass_agreement(gs_fine):
    oracle = oracle_coarse_solve(m=512, r_max=16.0, kappa=0.5)
    assert oracle.mass == pytest.approx(gs_fine.mass, rel=1e-2)
    assert oracle.ratios[1] == pytest.approx(5.0, rel=5e-2)
    assert oracle.ratios[2] == pytest.approx(4.0, rel=5e-2)


def test_oracle_solver_other_coupling():
    gs = oracle_coarse_solve(m=384, r_max=16.0, kappa=1.0, tol=1e-10)
    assert gs.residual_norm < 1e-6


def test_oracle_rejects_fine_grids():
    with pytest.raises(ValueError):
        oracle_coarse_solve(m=1024)


def test_grid_refinement_stability(gs_fine):
    finer = petviashvili_solve(RadialGrid(4096, 30.0), tol=1e-9)
    wider = petviashvili_solve(RadialGrid(2048, 40.0), tol=1e-10)
    assert finer.mass == pytest.approx(gs_fine.mass, rel=1e-3)
    assert wider.mass == pytest.approx(gs_fine.mass, rel=1e-3)


def test_sharp_gn_constant_consistency(gs_fine):
    c = sharp_gn_constant(gs_fine)
    j_q = fields.gn_functional(gs_fine.pair)
    assert c == pytest.approx(j_q ** (-0.5), rel=1e-3)
    # power law: doubling the mass shrinks the constant by sqrt(2)
    doubled = 4.0 * 5.0 ** (-1.25) * (2.0 * gs_fine.mass) ** (-0.5)
    assert doubled == pytest.approx(c / np.sqrt(2.0), rel=1e-14)


def test_random_trials_respect_gn_bound(gs_mid):
    rng = np.random.default_rng(8)
    c_gn = gs_mid.gn_constant
    grid = gs_mid.grid
    for _ in range(300):
        p = random_radial_pair(grid, rng)
        r = fields.potential(p)
        bound = c_gn * fields.mass(p) ** 0.25 * fields.kinetic(p) ** 1.25
        assert r <= bound * (1 + 1e-12)


def test_ground_state_minimizes_j(gs_mid):
    rng = np.random.default_rng(9)
    j_q = fields.gn_functional(gs_mid.pair)
    for _ in range(100):
        p = random_radial_pair(gs_mid.grid, rng)
        if fields.potential(p) <= 0:
            continue
        assert fields.gn_functional(p) >= j_q * (1 - 1e-6)


def test_solver_error_paths():
    grid = RadialGrid(128, 12.0)
    with pytest.raises(ValueError):
        petviashvili_solve(grid, tol=-1.0)
    with pytest.raises(ConvergenceError):
        petviashvili_solve(grid, tol=1e-14, max_iter=3)
    torus = UniformGrid(1, 64, 20.0)
    with pytest.raises(ValueError):
        solve_periodic_profile(torus, tol=-1.0)
    with pytest.raises(ConvergenceError):
        solve_periodic_profile(torus, tol=1e-14, max_iter=3)


@pytest.mark.parametrize(
    "d,n,L,h_over_m,r_over_m",
    [
        # torus Pohozaev identities: 2M + 2H = 3R and the d-dependent
        # dilation identity give H/M = (6-d)/(10-2d)... solved per d:
        (1, 256, 40.0, 0.2, 0.8),
        (2, 64, 16.0, 0.5, 1.0),
    ],
)
def test_periodic_profile_pohozaev(d, n, L, h_over_m, r_over_m, soliton_1d, soliton_2d):
    sol = soliton_1d if d == 1 else soliton_2d
    m = fields.mass(sol)
    assert fields.kinetic(sol) / m == pytest.approx(h_over_m, abs=2e-4)
    assert fields.potential(sol) / m == pytest.approx(r_over_m, abs=2e-4)


def test_periodic_profile_solves_discrete_system(soliton_2d):
    grid = soliton_2d.grid
    k2 = grid.k2()
    phi = np.real(soliton_2d.u.values)
    vphi = np.real(soliton_2d.v.values)
    lap_phi = np.real(grid.ifft(-k2 * grid.fft(phi)))
    lap_vphi = np.real(grid.ifft(-k2 * grid.fft(vphi)))
    r1 = phi - lap_phi - phi * vphi
    r2 = 2 * vphi - 0.5 * lap_vphi - phi**2
    assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-11


def _radial_operators():
    """The radial band of ``petviashvili_solve``: L4 and its banded inverses."""
    grid = RadialGrid(256, 15.0)
    l4 = _lap4_band(grid)

    def inverse(alpha, beta):
        band = -beta * l4
        band[2] += alpha
        return partial(solve_banded, (2, 2), band)

    r = grid.nodes()
    start = (3.0 * np.exp(-(r**2)), 2.0 * np.exp(-(r**2) / 2.0))
    return grid, partial(_lap4_apply, grid), inverse(1.0, 1.0), inverse(2.0, 0.5), start


def _periodic_operators():
    """The spectral multipliers of ``solve_periodic_profile`` on a 2-D box."""
    grid = UniformGrid(2, 32, 12.0)
    k2 = grid.k2()

    def multiplier(mult):
        return lambda f: np.real(grid.ifft(mult * grid.fft(f)))

    rho2 = sum((c - 6.0) ** 2 for c in grid.coords())
    start = (3.0 * np.exp(-rho2 / 2.0), 2.0 * np.exp(-rho2 / 3.0))
    return (grid, multiplier(-k2), multiplier(1.0 / (1.0 + k2)),
            multiplier(1.0 / (2.0 + 0.5 * k2)), start)


@pytest.mark.parametrize("operators", [_radial_operators, _periodic_operators])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(0.1, 10.0))
def test_balanced_sweep_is_scale_free(operators, c):
    # the moment balance divides out any common scale of the update, so
    # one sweep from (c phi, c vphi) lands on the sweep from (phi, vphi)
    grid, lap, inv1, inv2, (phi, vphi) = operators()
    ref = _balanced_iteration(grid, lap, inv1, inv2, 0.5, phi, vphi, np.inf, 1)
    out = _balanced_iteration(grid, lap, inv1, inv2, 0.5, c * phi, c * vphi, np.inf, 1)
    for a, b in zip(out[:2], ref[:2]):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("m, r_max", [(64, 10.0), (2048, 30.0)])
def test_lap4_band_matches_stencil(m, r_max):
    grid = RadialGrid(m, r_max)
    f = np.random.default_rng(m).normal(size=m)
    direct = _lap4_apply(grid, f)
    banded = _band_matvec(_lap4_band(grid), f)
    assert np.max(np.abs(banded - direct)) <= 1e-15 * np.max(np.abs(direct))


def test_lap4_quadratic():
    # f = r^2: Lap f = 2 + 4/r * 2r = 10 everywhere (2d at d=5)
    g = RadialGrid(256, 10.0)
    r = g.nodes()
    lap = _lap4_apply(g, r**2)
    assert np.max(np.abs(lap[:-2] - 10.0)) < 1e-9


def test_lap4_constant_interior():
    g = RadialGrid(256, 10.0)
    lap = _lap4_apply(g, np.ones(256))
    # the odd reflection at r_max pollutes only the last two nodes
    assert np.max(np.abs(lap[:-2])) < 1e-12


def _gaussian_lap4_error(m, r_max, r_core):
    """Max error of the stencil on e^{-r^2}, whose Laplacian is (4 r^2 - 10) e^{-r^2}."""
    g = RadialGrid(m, r_max)
    r = g.nodes()
    f = np.exp(-(r**2))
    expected = (4 * r**2 - 10.0) * f
    core = r < r_core
    return np.max(np.abs(_lap4_apply(g, f) - expected)[core]), np.max(np.abs(expected))


def test_lap4_gaussian_closed_form():
    err, scale = _gaussian_lap4_error(1024, 20.0, 10.0)
    assert err / scale < 1e-6


def test_lap4_fourth_order_convergence():
    ratio = _gaussian_lap4_error(512, 12.0, 8.0)[0] / _gaussian_lap4_error(1024, 12.0, 8.0)[0]
    assert 16.0 * 0.8 < ratio < 16.0 * 1.2


def test_newton_band_is_the_jacobian():
    # the system is quadratic: F(x + d) - F(x) - J d = (-d_phi d_vphi, -d_phi^2)
    grid = RadialGrid(128, 12.0)
    rng = np.random.default_rng(4)
    r = grid.nodes()
    phi, vphi = 3.0 * np.exp(-(r**2)), 2.0 * np.exp(-(r**2) / 2.0)
    d_phi, d_vphi = 1e-3 * rng.normal(size=grid.m), 1e-3 * rng.normal(size=grid.m)
    band = _newton_band(_lap4_band(grid), 0.7, phi, vphi)
    jd = _band_matvec(band, _interleave(d_phi, d_vphi))

    def lap(f):
        return _lap4_apply(grid, f)

    f0 = _residuals(lap, 0.7, phi, vphi)
    f1 = _residuals(lap, 0.7, phi + d_phi, vphi + d_vphi)
    assert np.max(np.abs(f1[0] - f0[0] - jd[0::2] + d_phi * d_vphi)) < 1e-9
    assert np.max(np.abs(f1[1] - f0[1] - jd[1::2] + d_phi**2)) < 1e-9


def test_newton_finish_converges_on_a_coarse_grid():
    # the balanced sweep alone stalls here near 5e-6
    gs = petviashvili_solve(RadialGrid(64, 10.0), tol=1e-6)
    assert gs.residual_norm < 1e-6
    assert gs.iterations == len(gs.residual_history)


def test_residual_floor_reported(gs_fine):
    assert 0.0 < gs_fine.residual_floor < 1e-8
    assert gs_fine.iterations == len(gs_fine.residual_history)


def test_tolerance_below_the_floor_names_it():
    with pytest.raises(ConvergenceError, match="floor"):
        petviashvili_solve(RadialGrid(4096, 30.0), tol=1e-10)
