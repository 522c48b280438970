import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from qnls import fields, ground_state, grid as grid_module
from qnls.grid import RadialGrid, UniformGrid
from qnls.fields import pair_from_arrays
from qnls.ground_state import (
    HANDOVER_SWEEPS,
    ConvergenceError,
    _balanced_sweep,
    _banded_solver,
    _band_matvec,
    _interleave,
    _lap4_apply,
    _lap4_band,
    _newton_band,
    _oracle_operators,
    _residuals,
    _tridiagonal_solver,
    oracle_coarse_solve,
    petviashvili_normalization,
    petviashvili_solve,
    solve_periodic_profile,
)

from conftest import random_radial_pair


@pytest.mark.parametrize("call, error, match", [
    (lambda: petviashvili_normalization(pair_from_arrays(
        UniformGrid(1, 16, 8.0), np.ones(16, complex), np.ones(16, complex))), TypeError, "radial grid"),
    (lambda: oracle_coarse_solve(m=16, kappa=-1.0), ConvergenceError, "did not converge in 6000"),
    (lambda: oracle_coarse_solve(m=16, kappa=np.nan), ConvergenceError, "degenerated at step 2"),
    (lambda: _tridiagonal_solver(np.zeros(3), np.zeros(4), np.zeros(3)), np.linalg.LinAlgError,
     "singular"),
], ids=["normalization-torus", "oracle-no-convergence", "oracle-degenerate", "tridiagonal-singular"])
def test_ground_state_refusals(call, error, match):
    # kappa = -1 has no ground state, so the oracle's damped iteration never
    # settles; a NaN coupling makes its second iterate NaN
    with pytest.raises(error, match=match):
        call()


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
    # the sweep residuals are not monotone (103, 89, 102, ...), but from the
    # last sweep on every Newton step, damped or full, lowers the residual
    tail = np.array(gs_mid.residual_history[HANDOVER_SWEEPS - 1:])
    assert tail.size >= 4
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
    assert gs.iterations == 287
    assert gs.mass == pytest.approx(1220.0086113341674, rel=1e-12)


def test_oracle_rejects_fine_grids():
    with pytest.raises(ValueError):
        oracle_coarse_solve(m=1024)


def _dense_radial_laplacian(grid):
    """Dense second-order radial Laplacian: the oracle's operator as a full matrix."""
    m = grid.m
    r = grid.nodes()
    dr = grid.dr
    mat = np.zeros((m, m))
    for j in range(m):
        c_dn = 1.0 / dr**2 - 2.0 / (r[j] * dr)
        c_md = -2.0 / dr**2
        c_up = 1.0 / dr**2 + 2.0 / (r[j] * dr)
        if j > 0:
            mat[j, j - 1] += c_dn
        else:
            mat[j, j] += c_dn          # even reflection at r = 0
        mat[j, j] += c_md
        if j < m - 1:
            mat[j, j + 1] += c_up
        else:
            mat[j, j] -= c_up          # Dirichlet ghost at r_max
    return mat


@pytest.mark.parametrize("kappa", [0.25, 0.7])
@pytest.mark.parametrize("m", [4, 5, 64, 512])
def test_oracle_diagonals_are_the_dense_operators_bit_for_bit(m, kappa):
    grid = RadialGrid(m, 16.0)
    lap = _dense_radial_laplacian(grid)
    eye = np.eye(m)
    dense = (lap, eye - lap, 2.0 * eye - kappa * lap)
    for (lower, main, upper), mat in zip(_oracle_operators(grid, kappa), dense):
        for k, diagonal in ((-1, lower), (0, main), (1, upper)):
            assert np.diagonal(mat, k).tobytes() == diagonal.tobytes()
        assert not np.triu(mat, 2).any() and not np.tril(mat, -2).any()


def test_oracle_keeps_its_iterations_and_mass():
    # an LU solve rounds differently from the explicit inverses the oracle
    # once multiplied by: the counts stay and M moves in its last digits
    gs = oracle_coarse_solve(m=512, r_max=16.0, kappa=0.5)
    assert gs.iterations == 276
    assert gs.mass == pytest.approx(726.9686156374783, rel=1e-12)
    assert gs.residual_norm == pytest.approx(4.346e-7, rel=1e-3)


def test_oracle_works_in_o_m_memory():
    # two dense 512^2 inverses took about 10 MiB
    tracemalloc.start()
    try:
        oracle_coarse_solve(m=512, r_max=16.0, kappa=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_shares_no_code_with_the_fourth_order_path(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the oracle reached the fourth-order path")

    for name in ("_lap4_apply", "_lap4_band", "_banded_solver", "radial_ghosts"):
        monkeypatch.setattr(ground_state, name, unused)
    monkeypatch.setattr(grid_module, "radial_ghosts", unused)
    gs = oracle_coarse_solve(m=64, r_max=12.0, kappa=0.5, tol=1e-8)
    assert gs.residual_norm < 1e-3


def test_grid_refinement_stability(gs_fine):
    finer = petviashvili_solve(RadialGrid(4096, 30.0), tol=1e-9)
    wider = petviashvili_solve(RadialGrid(2048, 40.0), tol=1e-10)
    assert finer.mass == pytest.approx(gs_fine.mass, rel=1e-3)
    assert wider.mass == pytest.approx(gs_fine.mass, rel=1e-3)


def test_sharp_gn_constant_consistency(gs_fine):
    c = gs_fine.gn_constant
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
    # a NaN tolerance is refused before the first sweep, not after max_iter of them
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            petviashvili_solve(grid, tol=tol)
    with pytest.raises(ConvergenceError):
        petviashvili_solve(grid, tol=1e-14, max_iter=3)
    # HANDOVER_SWEEPS = 5 sweeps and 5 Newton steps: one budget covers both,
    # so a cut inside the Newton phase fails
    gs = petviashvili_solve(grid, tol=1e-8, max_iter=10)
    assert HANDOVER_SWEEPS == 5
    assert gs.iterations == 10 == len(gs.residual_history)
    with pytest.raises(ConvergenceError, match="no convergence after 9 iterations"):
        petviashvili_solve(grid, tol=1e-8, max_iter=9)
    torus = UniformGrid(1, 64, 20.0)
    for tol in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            solve_periodic_profile(torus, tol=tol)
        with pytest.raises(ValueError, match="tolerance"):
            oracle_coarse_solve(m=64, r_max=12.0, tol=tol)
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
    ref = _balanced_sweep(grid, lap, inv1, inv2, 0.5, phi, vphi)
    out = _balanced_sweep(grid, lap, inv1, inv2, 0.5, c * phi, c * vphi)
    for a, b in zip(out, ref):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("m, r_max", [(4, 1.0), (5, 1.0), (64, 10.0), (2048, 30.0)])
def test_lap4_band_matches_stencil(m, r_max):
    # at m = 4 and 5 the reflections at r = 0 and r_max fold into neighbouring rows
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


def test_acceptance_solve_takes_few_iterations(gs_fine):
    # 10 iterations at m = 256 and 4 Newton steps at m = 2048, where sweeping
    # down to a residual of 30 took 17 sweeps and 4 Newton steps
    assert gs_fine.iterations <= 25


@pytest.mark.parametrize("kappa", [0.25, 1.0])
def test_acceptance_grid_reaches_tol_for_other_couplings(kappa):
    # the README's measured outcomes beside gs_fine's kappa = 0.5: 9.9e-11
    # and 6.0e-11, below a round-off floor of about 5e-10
    gs = petviashvili_solve(RadialGrid(2048, 30.0), kappa=kappa, tol=1e-10)
    assert gs.residual_norm < 1e-10


@pytest.mark.parametrize("kappa", [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_newton_starts_inside_its_basin(kappa):
    # after HANDOVER_SWEEPS sweeps the damped Newton phase reaches Q, not
    # phi = vphi = 0, and each of its steps lowers the residual
    gs = petviashvili_solve(RadialGrid(256, 12.0), kappa=kappa, tol=1e-8)
    assert gs.residual_norm < 1e-8
    assert float(np.min(gs.phi)) > -1e-10
    assert float(np.min(gs.vphi)) > -1e-10
    assert gs.ratios[1] == pytest.approx(5.0, rel=1e-3)
    assert gs.ratios[2] == pytest.approx(4.0, rel=1e-3)
    assert np.all(np.diff(gs.residual_history[HANDOVER_SWEEPS - 1:]) < 0)


def test_residual_floor_reported(gs_fine):
    assert 0.0 < gs_fine.residual_floor < 1e-8
    assert gs_fine.iterations == len(gs_fine.residual_history)


def test_tolerance_below_the_floor_names_it():
    with pytest.raises(ConvergenceError, match="floor"):
        petviashvili_solve(RadialGrid(4096, 30.0), tol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    m=st.integers(4, 4096),
    alpha=st.floats(0.5, 4.0),
    beta=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_solver_matches_solve_banded(m, alpha, beta, seed):
    # dgbtrf once, then dgbtrs per right-hand side, is the gbsv behind
    # solve_banded split in two: every solve must give the same bits
    rng = np.random.default_rng(seed)
    grid = RadialGrid(m, rng.uniform(5.0, 40.0))
    l4 = _lap4_band(grid)
    sweep = -beta * l4
    sweep[2] += alpha
    r = grid.nodes()
    phi = rng.uniform(0.2, 3.0) * np.exp(-((r / rng.uniform(0.5, 3.0)) ** 2))
    vphi = rng.uniform(0.2, 3.0) * np.exp(-((r / rng.uniform(0.5, 3.0)) ** 2))
    jac = _newton_band(l4, beta, phi, vphi)
    for band, l in ((sweep, 2), (jac, 4)):
        solve = _banded_solver(band, l)
        for _ in range(2):          # the factors survive a back-substitution
            rhs = rng.normal(size=band.shape[1])
            want = solve_banded((l, l), band, rhs, check_finite=False)
            assert np.array_equal(solve(rhs), want)


def test_banded_solver_rejects_a_singular_band():
    band = np.ones((5, 8))
    band[:, 3] = 0.0                # column 3 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _banded_solver(band, 2)


def _counting_dgbtrf(monkeypatch) -> list:
    """Record (bandwidth, order) of every band that ``dgbtrf`` factors."""
    bands = []
    dgbtrf = ground_state._lapack.dgbtrf

    def counting_dgbtrf(ab, kl, ku, **kwargs):
        bands.append((kl, ab.shape[1]))
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(ground_state._lapack, "dgbtrf", counting_dgbtrf)
    return bands


def test_solve_factors_each_band_once(monkeypatch):
    # L1 and L2 once per solve, then one Jacobian per Newton step, damped or not
    bands = _counting_dgbtrf(monkeypatch)
    gs = petviashvili_solve(RadialGrid(256, 12.0))
    newton_steps = gs.iterations - HANDOVER_SWEEPS
    assert newton_steps >= 1
    assert bands == [(2, 256), (2, 256)] + [(4, 512)] * newton_steps


def test_fine_level_factors_only_its_jacobians(monkeypatch):
    # m = 2048 starts from the solve at m = 256, whose iterations open the
    # history; the fine level factors no (5, m) band, one Jacobian per step
    coarse = petviashvili_solve(RadialGrid(256, 30.0))
    bands = _counting_dgbtrf(monkeypatch)
    gs = petviashvili_solve(RadialGrid(2048, 30.0))
    assert gs.residual_history[: coarse.iterations] == coarse.residual_history
    fine_steps = gs.iterations - coarse.iterations
    assert fine_steps >= 2
    assert bands == [(2, 256), (2, 256)] + [(4, 512)] * (coarse.iterations - HANDOVER_SWEEPS) + [
        (4, 4096)] * fine_steps
    # one budget covers both levels
    with pytest.raises(ConvergenceError, match=f"no convergence after {gs.iterations - 1} "):
        petviashvili_solve(RadialGrid(2048, 30.0), max_iter=gs.iterations - 1)


def test_a_damped_step_that_never_lowers_the_residual_fails(monkeypatch):
    # with the Jacobian's sign flipped every step points uphill: halving it
    # down to MIN_DAMPING = 2^-10 never lowers the residual, and the first
    # Newton step after the sweeps raises
    newton_band = ground_state._newton_band
    monkeypatch.setattr(ground_state, "_newton_band", lambda *args: -newton_band(*args))
    with pytest.raises(ConvergenceError, match=(
        f"Newton step {HANDOVER_SWEEPS + 1} did not reduce the residual "
        r"\(\d\.\d+e[+-]\d+ at the full step, \d\.\d+e[+-]\d+ at damping factor 9\.8e-04\); "
        "smallest residual .* floor")):
        petviashvili_solve(RadialGrid(256, 12.0))


# M at tol 1e-9 from sweeping on the fine grid down to a residual of 30, then
# Newton (the schedule before the nested solve), to the last digit; the nested
# solve must agree to 1e-12 relative
_MASSES = {
    (256, 12.0): {0.1: 252.8671619581034, 0.25: 452.8413083498142, 0.5: 733.062109382887,
                  1.0: 1233.4317968370447, 2.0: 2157.2004882141855, 4.0: 3910.2109614119254,
                  8.0: 7306.682862943209},
    (2048, 30.0): {0.1: 252.7413805521012, 0.25: 452.77187594703366, 0.5: 733.0094844894888,
                   1.0: 1233.3850031171323, 2.0: 2157.1516117218043, 4.0: 3910.1532225879155,
                   8.0: 7306.734691266236},
}


@pytest.mark.parametrize("m, r_max", list(_MASSES))
@pytest.mark.parametrize("kappa", [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_schedule_keeps_the_mass(m, r_max, kappa):
    gs = petviashvili_solve(RadialGrid(m, r_max), kappa=kappa, tol=1e-9)
    assert abs(gs.mass / _MASSES[m, r_max][kappa] - 1.0) < 1e-12
    assert float(np.min(gs.phi)) > -1e-10 and float(np.min(gs.vphi)) > -1e-10
