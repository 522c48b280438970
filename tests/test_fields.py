import numpy as np
import pytest

from qnls.grid import Field, RadialGrid, UniformGrid
from qnls.fields import (
    FieldPair,
    energy,
    galilean_boost,
    gn_functional,
    kinetic,
    lp_norm,
    mass,
    momentum,
    pair_from_arrays,
    pair_lp_norm,
    potential,
)
from qnls.threshold import boosted_kinetic

from conftest import (
    radial_dirichlet_reference,
    radial_integral_reference,
    random_envelope_pair,
    random_radial_pair,
)


def _grid1(n=256, L=2 * np.pi):
    return UniformGrid(1, n, L)


def test_mass_zero_pair():
    g = _grid1()
    z = np.zeros(g.shape, dtype=complex)
    assert mass(pair_from_arrays(g, z, z)) == 0.0


def test_mass_constant_field():
    g = _grid1()
    p = pair_from_arrays(g, np.ones(g.shape, complex), np.zeros(g.shape, complex))
    assert mass(p) == pytest.approx(2 * np.pi, rel=1e-14)


def test_mass_gaussian_quadrature_oracle():
    # oracle: 2 int e^{-x^2} = 2 sqrt(pi) = 3.5449077018110318 (scipy.quad)
    g = UniformGrid(1, 512, 40.0)
    x = g.axis()
    u = np.exp(-((x - 20.0) ** 2) / 2.0).astype(complex)
    assert mass(pair_from_arrays(g, u, u)) == pytest.approx(3.5449077018110318, abs=1e-10)


def test_kinetic_plane_waves():
    g = _grid1()
    x = g.axis()
    e_ix = np.exp(1j * x)
    zero = np.zeros_like(e_ix)
    assert kinetic(pair_from_arrays(g, e_ix, zero)) == pytest.approx(2 * np.pi, rel=1e-12)
    assert kinetic(pair_from_arrays(g, zero, e_ix, 0.5)) == pytest.approx(np.pi / 2, rel=1e-12)


def test_potential_constant():
    g = _grid1()
    ones = np.ones(g.shape, complex)
    assert potential(pair_from_arrays(g, ones, ones)) == pytest.approx(2 * np.pi, rel=1e-14)


def test_potential_phase_cancellation():
    g = _grid1()
    x = g.axis()
    p = pair_from_arrays(g, np.exp(1j * x), np.exp(2j * x))
    assert potential(p) == pytest.approx(2 * np.pi, rel=1e-12)
    p2 = pair_from_arrays(g, np.exp(1j * x), np.exp(1j * x))
    assert potential(p2) == pytest.approx(0.0, abs=1e-12)


def test_energy_identity_and_linear_data():
    g = _grid1()
    z = np.zeros(g.shape, complex)
    assert energy(pair_from_arrays(g, z, z)) == 0.0
    rng = np.random.default_rng(2)
    p = random_envelope_pair(g, rng)
    assert energy(p) == kinetic(p) - potential(p)
    # v = 0 makes R vanish: E = ||grad u||^2 >= 0
    pu = pair_from_arrays(g, p.u.values, z)
    assert potential(pu) == 0.0
    assert energy(pu) >= 0.0


def test_momentum_real_pair_vanishes():
    g = _grid1()
    x = g.axis()
    p = pair_from_arrays(g, np.cos(x) + 0j, np.sin(2 * x) + 0j)
    assert np.max(np.abs(momentum(p))) < 1e-13


def test_momentum_plane_wave():
    g = _grid1()
    x = g.axis()
    p = pair_from_arrays(g, np.exp(1j * x), np.zeros(g.shape, complex))
    assert momentum(p)[0] == pytest.approx(2 * np.pi, rel=1e-12)


def test_momentum_boost_shift_law_at_resonance():
    # P(u^xi) = P(u) + (xi/2) M(u) at kappa = 1/2
    rng = np.random.default_rng(3)
    g = UniformGrid(1, 256, 40.0)
    for _ in range(5):
        p = random_envelope_pair(g, rng, kappa=0.5)
        xi = rng.normal(scale=1.5, size=1)
        shifted = momentum(galilean_boost(p, xi))
        expected = momentum(p) + 0.5 * xi * mass(p)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(shifted - expected)) < 1e-10 * scale


def test_gn_functional_rejects_vanishing_potential():
    g = _grid1()
    x = g.axis()
    p = pair_from_arrays(g, np.exp(-((x - np.pi) ** 2)).astype(complex), np.zeros(g.shape, complex))
    with pytest.raises(ValueError):
        gn_functional(p)


def test_boost_identity_and_invariances():
    rng = np.random.default_rng(4)
    g = UniformGrid(1, 256, 40.0)
    p = random_envelope_pair(g, rng)
    same = galilean_boost(p, np.zeros(1))
    assert np.array_equal(same.u.values, p.u.values)
    assert np.array_equal(same.v.values, p.v.values)
    for _ in range(5):
        xi = rng.normal(scale=2.0, size=1)
        b = galilean_boost(p, xi)
        assert mass(b) == pytest.approx(mass(p), rel=1e-12)
        assert potential(b) == pytest.approx(potential(p), rel=1e-12, abs=1e-14)
        assert np.max(np.abs(np.abs(b.u.values) - np.abs(p.u.values))) < 1e-12
        assert np.max(np.abs(np.abs(b.v.values) - np.abs(p.v.values))) < 1e-12


def test_lp_norm_constant_and_zero():
    g = _grid1()
    f = Field(g, np.full(g.shape, 2.0 - 1.0j))
    assert lp_norm(f, 3.0) == pytest.approx(np.sqrt(5.0) * (2 * np.pi) ** (1 / 3), rel=1e-12)
    assert lp_norm(Field(g, np.zeros(g.shape, complex)), 3.0) == 0.0
    assert lp_norm(f, np.inf) == pytest.approx(np.sqrt(5.0), rel=1e-14)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


@pytest.mark.parametrize("q", [0.5, 0.0, -1.0, np.nan])
@pytest.mark.parametrize("norm", [lp_norm, pair_lp_norm], ids=["lp_norm", "pair_lp_norm"])
def test_lp_norms_refuse_exponents_below_one(norm, q):
    g = _grid1()
    p = pair_from_arrays(g, np.exp(-((g.axis() - np.pi) ** 2)).astype(complex), np.zeros(g.shape, complex))
    with pytest.raises(ValueError, match=f"got {q}"):
        norm(p.u if norm is lp_norm else p, q)


def test_lp_norm_gaussian_quadrature_oracle():
    # oracle: (int e^{-3x^2/2} dx)^(1/3) = 1.4472025091165355^(1/3)
    #       = 1.13112283231531 (scipy.quad; the analytic value sqrt(2pi/3))
    g = UniformGrid(1, 512, 40.0)
    x = g.axis()
    f = Field(g, np.exp(-((x - 20.0) ** 2) / 2.0).astype(complex))
    assert lp_norm(f, 3.0) == pytest.approx(1.13112283231531, abs=1e-10)


def test_pair_lp_norm_combines_components():
    g = _grid1()
    x = g.axis()
    u = np.exp(-((x - np.pi) ** 2)).astype(complex)
    p = pair_from_arrays(g, u, u)
    single = lp_norm(p.u, 3.0)
    assert pair_lp_norm(p, 3.0) == pytest.approx(2 ** (1 / 3) * single, rel=1e-12)


def test_pair_sup_norm_is_the_larger_max_modulus():
    p = random_envelope_pair(_grid1(), np.random.default_rng(5))
    u, v = p.u.values, p.v.values
    for q in (p, p.with_values(3.0 * u, v), p.with_values(u, 3.0 * v)):
        umax, vmax = np.max(np.abs(q.u.values)), np.max(np.abs(q.v.values))
        assert pair_lp_norm(q, np.inf) == max(umax, vmax)


def test_amplitude_and_dilation_scaling_laws():
    # u_lam(x) = lam^2 u(lam x) realized analytically: M ~ lam^(4-d),
    # H ~ lam^(6-d), R ~ lam^(6-d) in d = 1
    g = UniformGrid(1, 512, 80.0)
    c = g.L / 2

    def make(lam):
        x = g.axis()
        u = lam**2 * np.exp(-(lam * (x - c)) ** 2) * np.exp(1j * lam * (x - c))
        v = lam**2 * 0.7 * np.exp(-((lam * (x - c)) ** 2) / 2)
        return pair_from_arrays(g, u, v.astype(complex))

    p1, p2 = make(1.0), make(2.0)
    assert mass(p2) / mass(p1) == pytest.approx(2.0 ** (4 - 1), rel=1e-8)
    assert kinetic(p2) / kinetic(p1) == pytest.approx(2.0 ** (6 - 1), rel=1e-8)
    assert potential(p2) / potential(p1) == pytest.approx(2.0 ** (6 - 1), rel=1e-8)


def test_pair_requires_matching_grids_and_positive_kappa():
    g1 = UniformGrid(1, 16, 1.0)
    g2 = UniformGrid(1, 32, 1.0)
    z1 = np.zeros(g1.shape, complex)
    z2 = np.zeros(g2.shape, complex)
    with pytest.raises(ValueError):
        FieldPair(Field(g1, z1), Field(g2, z2), 0.5)
    with pytest.raises(ValueError):
        pair_from_arrays(g1, z1, z1, kappa=-1.0)
    with pytest.raises(ValueError, match="coupling"):
        pair_from_arrays(g1, z1, z1, kappa=np.inf)


@pytest.mark.parametrize("m", [4, 5, 1024])
def test_radial_pair_functionals_keep_the_one_field_formulas_bits(m):
    # H and H(u^xi) each take one stacked pass, in real arithmetic when no
    # imaginary part is non-zero; with M and R they keep the bits of the
    # one-field complex formulas, also with a -0.0 imaginary part and with a
    # non-zero one
    g = RadialGrid(m, 12.0)
    rng = np.random.default_rng(m)
    real = random_radial_pair(g, rng)
    minus = real.with_values(np.conj(real.u.values), np.conj(real.v.values))
    cplx = real.with_values(real.u.values + 1j * rng.normal(size=m), real.v.values * (1 + 0.5j))
    for p in (real, minus, cplx):
        u, v, kap = p.u.values, p.v.values, p.kappa
        mu = radial_integral_reference(g, np.abs(u) ** 2)
        mv = radial_integral_reference(g, np.abs(v) ** 2)
        h = radial_dirichlet_reference(g, u) + 0.5 * kap * radial_dirichlet_reference(g, v)
        assert mass(p) == float(mu + mv)
        assert kinetic(p) == h
        assert potential(p) == float(radial_integral_reference(g, np.real(np.conj(v) * u**2)))
        if p is not cplx:
            for xi in (0.0, 0.7, [1.3]):
                quad = float(np.dot(np.atleast_1d(xi), np.atleast_1d(xi))) * (
                    kap**2 * float(mu) + 0.5 * kap * float(mv))
                assert boosted_kinetic(p, xi) == h + 0.0 + quad
        assert all(type(f(p)) is float for f in (mass, kinetic, potential))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
def test_torus_pair_functionals_keep_the_one_field_formulas_bits(d, n):
    # H, P and H(u^xi) each take stacked passes over (u, v); they keep the
    # bits of the one-field formulas written out here
    g = UniformGrid(d, n, 9.0)
    rng = np.random.default_rng(d)
    p = random_envelope_pair(g, rng)
    u, v, kap, hd = p.u.values, p.v.values, p.kappa, g.h**g.d
    kd = g.derivative_wavenumbers()
    k2 = sum(km**2 for km in kd)
    uhat, vhat = g.fft(u), g.fft(v)
    du = float(np.sum(k2 * np.abs(uhat) ** 2) * hd)
    dv = float(np.sum(k2 * np.abs(vhat) ** 2) * hd)
    h = du + 0.5 * kap * dv
    dens = np.abs(uhat) ** 2 + 0.5 * np.abs(vhat) ** 2
    mom = np.array([np.sum(km * dens) for km in kd]) * hd
    mu = float(np.sum(np.abs(u) ** 2) * hd)
    mv = float(np.sum(np.abs(v) ** 2) * hd)
    assert kinetic(p) == h
    assert momentum(p).tobytes() == mom.tobytes()
    for xi in (np.zeros(d), rng.normal(size=d), np.full(d, 0.7)):
        quad = float(np.dot(xi, xi)) * (kap**2 * mu + 0.5 * kap * mv)
        assert boosted_kinetic(p, xi) == h + 2.0 * kap * float(np.dot(xi, mom)) + quad
