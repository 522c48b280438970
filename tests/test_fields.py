import copy
import dataclasses
import pickle

import numpy as np
import pytest

from qnls.grid import Field, RadialGrid, UniformGrid
from qnls.fields import (
    FieldPair,
    energy,
    galilean_boost,
    gn_functional,
    kinetic,
    kinetic_and_momentum,
    lp_norm,
    mass,
    momentum,
    pair_from_arrays,
    pair_lp_norm,
    potential,
)
from qnls.threshold import boosted_kinetic, coercivity_on_balls

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
    for q in (p, p.with_stack(np.array((3.0 * u, v))), p.with_stack(np.array((u, 3.0 * v)))):
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


def test_a_pair_owns_one_array_that_its_fields_view():
    g = UniformGrid(1, 16, 4.0)
    u, v = np.arange(16) + 0j, np.ones(16, complex)
    p = pair_from_arrays(g, u, v)
    u[0] = 5.0   # the constructor copied the caller's arrays
    assert p.u.values[0] == 0.0 and p.values.shape == (2, 16)
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        q.values[1, 3] = 7.0   # a new array, whose halves the copy's fields view
        assert q.v.values[3] == 7.0 and p.v.values[3] == 1.0
    w = p.values
    held = p.with_stack(w)
    held.v.values[3] = 7.0   # held without a copy
    assert held.values is w and p.v.values[3] == 7.0
    with pytest.raises(ValueError, match="stacked shape"):
        FieldPair.from_stack(g, w[:, :8], 0.5)


class _CountsImag(np.ndarray):
    """An array that counts the reads of its imaginary part, one per realness test."""

    reads = 0

    @property
    def imag(self):
        _CountsImag.reads += 1
        return super().imag


def test_a_pair_builds_no_field_and_a_radial_boost_tests_realness_once(monkeypatch, gs_mid):
    # a pair is its grid, its stacked array and kappa; u and v are made on
    # request, so building a pair or running a functional builds no Field
    assert [f.name for f in dataclasses.fields(FieldPair)] == ["grid", "values", "kappa"]
    built = []
    post_init = Field.__post_init__

    def counted(field):
        built.append(field)
        post_init(field)

    monkeypatch.setattr(Field, "__post_init__", counted)
    pair_from_arrays(_grid1(16), np.ones(16, complex), np.zeros(16, complex))
    assert len(built) == 0
    p2 = random_envelope_pair(UniformGrid(2, 32, 20.0), np.random.default_rng(8), sigma=1.4, amp=0.4)
    built.clear()
    coercivity_on_balls(p2, [10.0, 10.0], 8.0, gs_mid)
    assert len(built) == 0
    assert p2.u.values.base is p2.values and len(built) == 1   # a view made on request

    # a radial boosted_kinetic tests realness once, and kinetic on its real
    # view none; a float pair needs no test at all
    g = RadialGrid(64, 12.0)
    real = random_radial_pair(g, np.random.default_rng(9))
    for stacked, tests in ((np.array(real.values), 1), (real.values.real.copy(), 0)):
        counted_pair = real.with_stack(stacked.view(_CountsImag))
        for xi in (0.0, 0.7):
            expected = boosted_kinetic(real, xi)
            _CountsImag.reads = 0
            assert boosted_kinetic(counted_pair, xi) == expected
            assert _CountsImag.reads == 1
        _CountsImag.reads = 0
        assert kinetic(counted_pair) == kinetic(real)
        assert _CountsImag.reads == tests


@pytest.mark.parametrize("dtypes", [(complex, complex), (float, float), (float, complex)],
                         ids=["complex", "float64", "mixed"])
def test_the_pair_constructor_copies_and_stacks_like_pair_from_arrays(dtypes):
    # FieldPair(u, v, kappa) copies the two Fields' samples into one array
    # with the dtype np.array((u, v)) gives, so its functionals keep the
    # bits of pair_from_arrays
    g = UniformGrid(2, 16, 8.0)
    base = random_envelope_pair(g, np.random.default_rng(3), sigma=1.0)
    u, v = (w if t is complex else w.real.copy() for w, t in zip(base.values, dtypes))
    p = FieldPair(Field(g, u), Field(g, v), 0.5)
    q = pair_from_arrays(g, u, v, 0.5)
    assert p.grid == g and p.values.dtype == np.array((u, v)).dtype == q.values.dtype
    assert p.values.tobytes() == q.values.tobytes()
    u[0, 0] += 1.0   # the constructor copied
    assert p.values[0, 0, 0] == q.values[0, 0, 0] != u[0, 0]
    for f in (mass, kinetic, potential, momentum, energy, lambda r: pair_lp_norm(r, 3.0),
              lambda r: pair_lp_norm(r, np.inf), lambda r: boosted_kinetic(r, [0.3, -0.2])):
        assert np.asarray(f(p)).tobytes() == np.asarray(f(q)).tobytes()


@pytest.mark.parametrize("call, error, match", [
    (lambda torus, radial: kinetic_and_momentum(radial), TypeError, "uniform grids"),
    (lambda torus, radial: momentum(radial), TypeError, "uniform grids"),
    (lambda torus, radial: galilean_boost(radial, 0.5), TypeError, "uniform grids"),
    (lambda torus, radial: galilean_boost(torus, [0.5, 0.5]), ValueError, "xi must have 1"),
], ids=["kinetic_and_momentum-radial", "momentum-radial", "boost-radial", "boost-xi-length"])
def test_torus_functionals_refuse_a_radial_pair_or_a_wrong_xi(call, error, match):
    torus = random_envelope_pair(_grid1(64), np.random.default_rng(4))
    radial = random_radial_pair(RadialGrid(16, 8.0), np.random.default_rng(4))
    with pytest.raises(error, match=match):
        call(torus, radial)


@pytest.mark.parametrize("m", [4, 5, 1024])
def test_radial_pair_functionals_keep_the_one_field_formulas_bits(m):
    # H and H(u^xi) each take one stacked pass, in real arithmetic when no
    # imaginary part is non-zero; with M and R they keep the bits of the
    # one-field complex formulas, also with a -0.0 imaginary part and with a
    # non-zero one
    g = RadialGrid(m, 12.0)
    rng = np.random.default_rng(m)
    real = random_radial_pair(g, rng)
    minus = real.with_stack(np.array((np.conj(real.u.values), np.conj(real.v.values))))
    cplx = real.with_stack(np.array((real.u.values + 1j * rng.normal(size=m), real.v.values * (1 + 0.5j))))
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
