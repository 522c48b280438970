import numpy as np
import pytest

from qnls import fields
from qnls.grid import RadialGrid, UniformGrid
from qnls.fields import galilean_boost, pair_from_arrays
from qnls.evolution import EvolutionConfig, evolve
from qnls.threshold import (
    boosted_kinetic,
    classify_data,
    coercivity_gap,
    coercivity_on_balls,
    delta_prime_from_delta,
    rescale_to_E0,
    trapping_curve,
    variational_thresholds,
    window_scattering_norm,
)

from conftest import random_envelope_pair, random_radial_pair


def _count_transforms(monkeypatch) -> dict:
    """Count the forward and inverse torus transforms from here on."""
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(UniformGrid, name)

        def counted(self, values, out=None, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, values, out)

        monkeypatch.setattr(UniformGrid, name, counted)
    return calls


def test_threshold_products_consistency(gs_fine):
    me, mh = variational_thresholds(gs_fine)
    # 1 : 5 : 4 makes E(Q) = M(Q): so ME = M^2 and MH = 5 M^2
    assert mh / me == pytest.approx(5.0, rel=1e-3)
    assert me == pytest.approx(gs_fine.mass**2, rel=1e-3)


def test_threshold_rejects_degenerate_state(gs_fine):
    from dataclasses import replace

    zero = np.zeros(gs_fine.grid.shape, complex)
    broken = replace(gs_fine, pair=gs_fine.pair.with_stack(np.array((zero, zero))))
    with pytest.raises(ValueError):
        variational_thresholds(broken)
    unconverged = replace(gs_fine, residual_norm=1.0)
    with pytest.raises(ValueError):
        variational_thresholds(unconverged)


def test_threshold_products_scale_with_dilation(gs_fine):
    # lam^2 Q(lam .): M -> lam^{-1} M, H -> lam H, E -> lam... at d = 5 the
    # products transform as ME -> (scalings), checked through the exponents
    m, h = gs_fine.mass, gs_fine.kinetic
    lam = 2.0
    assert (lam**-1 * m) * (lam * h) == pytest.approx(m * h, rel=1e-14)


def test_classify_ground_state_is_at(gs_fine):
    rep = classify_data(gs_fine.pair, gs_fine)
    assert rep.classification == "at"
    assert rep.y == pytest.approx(1.0, abs=1e-12)


def test_classify_scaled_state_below(gs_fine):
    half = pair_from_arrays(
        gs_fine.grid, 0.5 * gs_fine.pair.u.values, 0.5 * gs_fine.pair.v.values, 0.5
    )
    rep = classify_data(half, gs_fine)
    assert rep.classification == "below"
    assert rep.y == pytest.approx(0.0625, rel=1e-12)


def test_classify_large_state_above(gs_fine):
    big = pair_from_arrays(
        gs_fine.grid, 2.0 * gs_fine.pair.u.values, 2.0 * gs_fine.pair.v.values, 0.5
    )
    assert classify_data(big, gs_fine).classification == "above"


def test_trapping_curve_constraint_random_states(gs_mid):
    # 5y - 4y^(5/4) <= ME ratio for any 5-D state, by the GN chain
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = random_radial_pair(gs_mid.grid, rng)
        rep = classify_data(p, gs_mid)
        assert trapping_curve(rep.y) <= rep.me_ratio + 1e-9


def test_coercivity_gap_vanishes_at_ground_state(gs_fine):
    gap = coercivity_gap(gs_fine.pair, np.zeros(1))
    assert abs(gap) < 1e-3 * gs_fine.kinetic


def test_coercivity_gap_random_substhreshold(gs_mid):
    rng = np.random.default_rng(22)
    grid = gs_mid.grid
    for _ in range(200):
        p = random_radial_pair(grid, rng)
        mh = fields.mass(p) * fields.kinetic(p)
        delta = rng.uniform(0.05, 0.9)
        c = ((1 - delta) * gs_mid.threshold_mh / mh) ** 0.25
        p = pair_from_arrays(grid, c * p.u.values, c * p.v.values, 0.5)
        xi = rng.uniform(0.0, 2.0)
        gap = coercivity_gap(p, xi)
        dprime = delta_prime_from_delta(delta)
        hxi = boosted_kinetic(p, xi)
        assert gap >= dprime * hxi - 1e-9 * hxi


def test_boosted_kinetic_matches_direct_boost():
    rng = np.random.default_rng(23)
    g = UniformGrid(1, 256, 40.0)
    for _ in range(10):
        p = random_envelope_pair(g, rng, kappa=0.5)
        xi = rng.normal(scale=1.0, size=1)
        direct = fields.kinetic(galilean_boost(p, xi))
        assert boosted_kinetic(p, xi) == pytest.approx(direct, rel=1e-11)


def test_potential_term_boost_invariant():
    rng = np.random.default_rng(24)
    g = UniformGrid(1, 256, 40.0)
    p = random_envelope_pair(g, rng, kappa=0.5)
    xi = rng.normal(size=1)
    assert fields.potential(galilean_boost(p, xi)) == pytest.approx(
        fields.potential(p), rel=1e-12, abs=1e-14
    )


@pytest.mark.parametrize("imag", [1e-3, np.nan])
@pytest.mark.parametrize("field", ["u", "v"])
def test_radial_boost_rejects_profiles_that_are_not_real(field, imag):
    # a NaN imaginary part must fail the realness check too, not pass it
    # and turn H(u^xi) and the coercivity gap into NaN
    g = RadialGrid(64, 8.0)
    r = g.nodes()
    arrays = {"u": np.exp(-(r**2)).astype(complex), "v": np.exp(-(r**2) / 2.0).astype(complex)}
    arrays[field].imag[5] = imag
    p = pair_from_arrays(g, arrays["u"], arrays["v"], 0.5)
    with pytest.raises(ValueError, match="real profiles"):
        boosted_kinetic(p, np.zeros(1))
    with pytest.raises(ValueError, match="real profiles"):
        coercivity_gap(p, np.zeros(1))


def test_classify_data_separates_states_just_past_each_threshold(gs_mid):
    # 1 -+ 1e-6 of a threshold product lies outside the guard band: below or
    # above, never at.  y = M H / M(Q)H(Q) is placed by scaling a wide 1-D
    # Gaussian pair, whose E < 0 keeps M E below its threshold; M E by scaling
    # a 5-D radial pair on the rising side of c -> M(c u) E(c u), where y < 1
    me_q, mh_q = variational_thresholds(gs_mid)
    g = UniformGrid(1, 256, 40.0)
    bump = np.exp(-((g.axis() - 20.0) ** 2) / 32.0) + 0j
    wide = pair_from_arrays(g, bump, bump)
    radial = random_radial_pair(RadialGrid(1024, 24.0), np.random.default_rng(0))
    for p, product in ((wide, "mh"), (radial, "me")):
        m, h, r = fields.mass(p), fields.kinetic(p), fields.potential(p)
        for target, label in ((1.0 - 1e-6, "below"), (1.0 + 1e-6, "above")):
            if product == "mh":
                c = (target * mh_q / (m * h)) ** 0.25
            else:
                # c^4 M (H - c R) rises on [0, 4 H / (5 R)]
                lo, hi = 0.0, 0.8 * h / r
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if mid**4 * m * (h - mid * r) < target * me_q else (lo, mid)
                c = lo
            rep = classify_data(p.with_stack(np.array((c * p.u.values, c * p.v.values))), gs_mid)
            placed, other = (rep.y, rep.me_ratio) if product == "mh" else (rep.me_ratio, rep.y)
            assert placed == pytest.approx(target, abs=1e-12)
            assert other < 0.5
            assert rep.classification == label


def test_delta_prime_formula():
    assert delta_prime_from_delta(1.0) == pytest.approx(4.0)
    assert delta_prime_from_delta(0.5) == pytest.approx(4 * (1 - 0.5**0.25))
    with pytest.raises(ValueError):
        delta_prime_from_delta(0.0)


def test_ball_coercivity_reduces_to_global(gs_fine):
    rng = np.random.default_rng(25)
    g = UniformGrid(1, 256, 40.0)
    p = random_envelope_pair(g, rng, kappa=0.5, amp=0.3)
    rep = coercivity_on_balls(p, [g.L / 2], 60.0, gs_fine)
    from qnls.morawetz import boost_xi, build_weights

    ch = boost_xi(p, [g.L / 2], 60.0, build_weights(1, 60.0, 0.05))
    direct = coercivity_gap(p, ch.xi)
    assert rep.gap == pytest.approx(direct, rel=1e-8)


def test_ball_coercivity_builds_no_weight_tables(gs_fine):
    from qnls import morawetz

    saved = dict(morawetz._TABLE_CACHE)
    morawetz._TABLE_CACHE.clear()
    try:
        g = UniformGrid(2, 16, 12.0)
        p = random_envelope_pair(g, np.random.default_rng(27), kappa=0.5, amp=0.3)
        coercivity_on_balls(p, [6.0, 6.0], 4.0, gs_fine)
        assert morawetz._TABLE_CACHE == {}
    finally:
        morawetz._TABLE_CACHE.update(saved)


def test_ball_coercivity_localization_identity(gs_fine):
    rng = np.random.default_rng(26)
    g = UniformGrid(1, 256, 40.0)
    for _ in range(5):
        p = random_envelope_pair(g, rng, kappa=0.5, sigma=1.8, amp=0.4)
        rep = coercivity_on_balls(p, [g.L / 2], 12.0, gs_fine)
        assert rep.identity_error < 1e-10


def test_ball_coercivity_radius_sweep(gs_fine):
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    u = 0.3 * np.exp(-((x - 20.0) ** 2) / 4.0) * np.exp(0.7j * x)
    p = pair_from_arrays(g, u, 0.2 * np.exp(-((x - 20.0) ** 2) / 6.0) + 0j, 0.5)
    margins = {}
    for radius in (5.0, 10.0, 20.0):
        rep = coercivity_on_balls(p, [20.0], radius, gs_fine)
        margins[radius] = rep.margin
        assert rep.kinetic_excess_constant < 100.0
    assert any(np.isfinite(m) and m > 0 for m in margins.values())


# every report field, recorded before the two u-gradients shared one stacked transform
BALL_PINS = {
    1: (4.061757491428924, 5.349105942082025, 3.7129800172648983,
        5.406689024916079e-07, 0.0028502657318987615),
    2: (40.67131184766454, -1.0567749633258534, 3.5254513887387597,
        8.759732345631047e-11, 5.8631694275825235e-08),
}


@pytest.mark.parametrize("grid, seed, s, radius", [
    (UniformGrid(1, 256, 40.0), 41, [20.0], 8.0),
    (UniformGrid(2, 64, 16.0), 42, [8.0, 8.0], 5.0),
], ids=["d1", "d2"])
def test_ball_coercivity_report_is_pinned(gs_mid, grid, seed, s, radius):
    p = random_envelope_pair(grid, np.random.default_rng(seed), amp=0.5)
    rep = coercivity_on_balls(p, s, radius, gs_mid)
    got = (rep.localized_kinetic, rep.localized_potential, rep.delta_prime,
           rep.identity_error, rep.kinetic_excess_constant)
    assert got == pytest.approx(BALL_PINS[grid.d], rel=1e-12, abs=0.0)


def test_torus_functionals_transform_each_array_once(gs_mid, monkeypatch):
    p = random_envelope_pair(UniformGrid(2, 64, 16.0), np.random.default_rng(43), amp=0.5)
    calls = _count_transforms(monkeypatch)
    boosted_kinetic(p, [0.3, -0.2])   # H and P from one spectrum
    assert calls == {"fft": 1, "ifft": 0}
    calls.update(fft=0, ifft=0)
    # the window's densities, the stacked gradients of u^xi and chi u^xi, the
    # Laplacian of chi, and H of the cut and of the whole boosted pair
    coercivity_on_balls(p, [8.0, 8.0], 5.0, gs_mid)
    assert calls["fft"] <= 5 and calls["ifft"] <= 5


def test_window_norm_zero_and_range_check():
    g = UniformGrid(1, 64, 10.0)
    zero = pair_from_arrays(g, np.zeros(g.shape, complex), np.zeros(g.shape, complex))
    ts = evolve(zero, EvolutionConfig(dt=1e-2, t_final=1.0, cadence=5))
    assert window_scattering_norm(ts, (0.2, 0.8)) == 0.0
    with pytest.raises(ValueError):
        window_scattering_norm(ts, (0.5, 2.0))
    with pytest.raises(ValueError):
        window_scattering_norm(ts, (0.8, 0.2))


def test_window_norm_soliton_stationary_value(soliton_1d):
    from qnls.fields import pair_lp_norm

    ts = evolve(soliton_1d, EvolutionConfig(dt=1e-3, t_final=1.0, cadence=20))
    val = window_scattering_norm(ts, (0.1, 0.9))
    expected = 0.8 ** (1 / 6) * pair_lp_norm(soliton_1d, 3.0)
    assert val == pytest.approx(expected, rel=1e-6)


def test_window_norm_decays_for_dispersing_data():
    g = UniformGrid(1, 512, 200.0)
    x = g.axis()
    u = 0.1 * np.exp(-((x - 100.0) ** 2) / 8.0).astype(complex)
    p = pair_from_arrays(g, u, np.zeros(g.shape, complex), 0.5)
    ts = evolve(p, EvolutionConfig(dt=5e-3, t_final=30.0, cadence=20))
    norms = [
        window_scattering_norm(ts, (t0, t0 + 5.0)) for t0 in (5.0, 12.0, 19.0)
    ]
    assert norms[0] > norms[1] > norms[2]


def test_rescale_to_e0_demo_and_errors():
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    u = 0.4 * np.exp(-((x - 20.0) ** 2) / 2.0) * np.exp(2.2j * x)
    p = pair_from_arrays(g, u, 0.3 * np.exp(-((x - 20.0) ** 2) / 3.0) + 0j, 0.5)
    scaled, lam = rescale_to_E0(p)
    assert fields.mass(scaled) == pytest.approx(fields.energy(scaled), rel=1e-10)
    assert lam == pytest.approx(np.sqrt(fields.mass(p) / fields.energy(p)), rel=1e-15)
    # idempotent: a second rescale moves lambda by < 1e-10
    again, lam2 = rescale_to_E0(scaled)
    assert abs(lam2 - 1.0) < 1e-10

    z = np.zeros(g.shape, complex)
    focusing = pair_from_arrays(g, np.exp(-((x - 20) ** 2)) * 3 + 0j, np.exp(-((x - 20) ** 2)) * 3 + 0j)
    if fields.energy(focusing) <= 0:
        with pytest.raises(ValueError):
            rescale_to_E0(focusing)
    with pytest.raises(ValueError):
        rescale_to_E0(pair_from_arrays(g, z, z))


def test_rescale_to_e0_refuses_an_energy_that_cancels_to_round_off():
    # H and R agree to 1e-10, so E = H - R keeps only the last digits of
    # each and the rescaled pair misses M = E by far more than 1e-10
    g = UniformGrid(1, 128, 30.0)
    u = np.exp(-(g.axis() - 15.0) ** 2) + 0j
    p = pair_from_arrays(g, u, u)
    c = fields.kinetic(p) / fields.potential(p) * (1.0 - 1e-10)
    with pytest.raises(RuntimeError, match="rescale post-check failed"):
        rescale_to_E0(pair_from_arrays(g, c * u, c * u))


@pytest.mark.parametrize("call, error, match", [
    (lambda gs, torus, radial: boosted_kinetic(torus, [0.1, 0.2]), ValueError, "xi must have 1"),
    (lambda gs, torus, radial: coercivity_on_balls(radial, [1.0], 2.0, gs), TypeError, "d <= 2"),
    (lambda gs, torus, radial: coercivity_on_balls(
        random_envelope_pair(UniformGrid(3, 8, 8.0), np.random.default_rng(1)), [4.0] * 3, 2.0, gs),
     TypeError, "d <= 2"),
], ids=["boosted-xi-length", "ball-radial", "ball-3d"])
def test_threshold_functionals_refuse_a_wrong_xi_or_grid(call, error, match, gs_mid):
    torus = random_envelope_pair(UniformGrid(1, 64, 20.0), np.random.default_rng(2))
    radial = random_radial_pair(RadialGrid(16, 8.0), np.random.default_rng(2))
    with pytest.raises(error, match=match):
        call(gs_mid, torus, radial)


@pytest.mark.parametrize("seed", range(5))
def test_rescale_to_e0_on_the_radial_grid(seed):
    p = random_radial_pair(RadialGrid(1024, 24.0), np.random.default_rng(seed))
    assert fields.energy(p) > 0
    scaled, lam = rescale_to_E0(p)
    assert scaled.grid == RadialGrid(1024, 24.0 / lam)
    assert np.array_equal(scaled.u.values, lam**2 * p.u.values)
    assert np.array_equal(scaled.v.values, lam**2 * p.v.values)
    e = fields.energy(scaled)
    assert abs(fields.mass(scaled) - e) / e < 1e-12


def test_rescale_identity_when_already_balanced():
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    u = np.exp(-((x - 20.0) ** 2) / 2.0) * np.exp(1.0j * x)
    p = pair_from_arrays(g, u, np.zeros(g.shape, complex), 0.5)
    scaled, lam = rescale_to_E0(p)
    p_bal = scaled
    again, lam2 = rescale_to_E0(p_bal)
    assert lam2 == pytest.approx(1.0, abs=1e-10)
