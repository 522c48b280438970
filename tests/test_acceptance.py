"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line through the terminal-summary hook in
conftest.py; run `pytest tests/test_acceptance.py -v` to see them.
"""

import json
import time

import numpy as np
import pytest

from qnls import fields
from qnls.grid import Field, RadialGrid, UniformGrid
from qnls.fields import galilean_boost, pair_from_arrays
from qnls.evolution import EvolutionConfig, dispersive_decay_fit, evolve
from qnls.ground_state import (
    oracle_coarse_solve,
    petviashvili_solve,
    solve_periodic_profile,
)
from qnls.morawetz import (
    InteractionParams,
    boost_xi,
    build_weights,
    bump_gamma,
    cauchy_schwarz_margin,
    galilean_invariance_check,
    interaction_lhs,
    weight_identity_check,
    weighted_momentum,
)
from qnls.threshold import (
    boosted_kinetic,
    classify_data,
    coercivity_gap,
    coercivity_on_balls,
    delta_prime_from_delta,
    rescale_to_E0,
    trapping_curve,
)
from qnls.cli import parse_config, read_snapshot, run_command, write_snapshot

from conftest import random_envelope_pair, random_radial_pair


def test_criterion_01_pohozaev_ratios():
    """Pohozaev ratios 1:5:4 within 1e-3 at m=2048, r_max=30, under 60 s"""
    t0 = time.time()
    gs = petviashvili_solve(RadialGrid(2048, 30.0), kappa=0.5, tol=1e-10)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert abs(gs.ratios[1] - 5.0) < 1e-3
    assert abs(gs.ratios[2] - 4.0) < 1e-3
    assert gs.residual_norm < 1e-10


def test_criterion_02_sharp_constant_and_gn_bound(gs_fine, gs_mid):
    """C_GN formula vs J(Q)^(-1/2) within 1e-3; 10^4 radial trials obey GN"""
    c_formula = 4.0 * 5.0 ** (-1.25) * gs_fine.mass ** (-0.5)
    c_direct = fields.gn_functional(gs_fine.pair) ** (-0.5)
    assert abs(c_formula - c_direct) / c_formula < 1e-3

    # vectorized random radial trials on the mid grid
    grid = gs_mid.grid
    r = grid.nodes()
    wgt = (8.0 * np.pi**2 / 3.0) * r**4 * grid.dr
    rng = np.random.default_rng(100)
    n_total = 0
    violations = 0
    c_gn = gs_fine.gn_constant
    while n_total < 10_000:
        batch = 2000
        wu = rng.uniform(0.5, 3.0, size=(batch, 1))
        wv = rng.uniform(0.5, 3.0, size=(batch, 1))
        au = rng.uniform(0.2, 2.0, size=(batch, 1))
        av = rng.uniform(0.2, 2.0, size=(batch, 1))
        bu = rng.uniform(-0.5, 0.5, size=(batch, 1))
        bv = rng.uniform(-0.5, 0.5, size=(batch, 1))
        cu = rng.uniform(1.0, 3.0, size=(batch, 1))
        cv = rng.uniform(1.0, 3.0, size=(batch, 1))
        u = au * np.exp(-((r / wu) ** 2)) * (1 + bu * np.cos(cu * r))
        v = av * np.exp(-((r / wv) ** 2)) * (1 + bv * np.sin(cv * r))
        du = np.gradient(u, grid.dr, axis=1)
        dv = np.gradient(v, grid.dr, axis=1)
        mass_b = ((u**2 + v**2) * wgt).sum(axis=1)
        kin_b = ((du**2 + 0.25 * dv**2) * wgt).sum(axis=1)
        pot_b = ((v * u**2) * wgt).sum(axis=1)
        bound = c_gn * mass_b**0.25 * kin_b**1.25
        violations += int(np.sum(pot_b > bound * (1 + 1e-10)))
        n_total += batch
    assert n_total >= 10_000
    assert violations == 0


def test_criterion_03_cross_solver_oracle(gs_fine):
    """Petviashvili M_gs matches the independent coarse solver within 1e-2"""
    oracle = oracle_coarse_solve(m=512, r_max=16.0, kappa=0.5)
    assert abs(oracle.mass - gs_fine.mass) / gs_fine.mass < 1e-2


def test_criterion_04_conservation_drift(soliton_2d):
    """M drift < 1e-10, E and P drift < 1e-8 over 10^4 Strang steps (d=2)"""
    ts = evolve(
        soliton_2d,
        EvolutionConfig(dt=1e-3, t_final=10.0, cadence=200, snapshot_every=1),
    )
    m = ts.column("mass")
    e = ts.column("energy")
    mom = np.array([rec.momentum for rec in ts.records])
    assert ts.outcome == "completed"
    assert np.max(np.abs(m - m[0])) / abs(m[0]) < 1e-10
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-8
    p_scale = max(float(np.max(np.abs(mom[0]))), np.sqrt(m[0] * ts.records[0].kinetic))
    assert np.max(np.abs(mom - mom[0])) / p_scale < 1e-8
    # stationary-solution property: |u(t)| envelope fixed to 1e-4
    phi_mod = np.abs(soliton_2d.u.values)
    for _, pr in ts.snapshots:
        assert np.max(np.abs(np.abs(pr.u.values) - phi_mod)) < 1e-4 * np.max(phi_mod)


def test_criterion_05_soliton_phase_law(soliton_2d):
    """phases of <u,phi>, <v,vphi> advance at rates 1 and 2 within 1e-3"""
    grid = soliton_2d.grid
    phi = np.real(soliton_2d.u.values)
    vphi = np.real(soliton_2d.v.values)
    ts = evolve(soliton_2d, EvolutionConfig(dt=1e-3, t_final=5.0, cadence=50, snapshot_every=1))
    t, pu, pv = [], [], []
    for tt, pr in ts.snapshots:
        t.append(tt)
        pu.append(np.angle(grid.integrate(phi * pr.u.values)))
        pv.append(np.angle(grid.integrate(vphi * pr.v.values)))
    rate_u = np.polyfit(t, np.unwrap(pu), 1)[0]
    rate_v = np.polyfit(t, np.unwrap(pv), 1)[0]
    assert abs(rate_u - 1.0) < 1e-3
    assert abs(rate_v - 2.0) < 1e-3


def _boosted_velocity(kappa: float, xi: float) -> tuple[float, float]:
    """Measured mass-centroid velocity of a soliton boosted with the
    resonant phase pattern (e^{i xi x} u, e^{2 i xi x} v), and the boost's
    predicted velocity 2 xi."""
    grid = UniformGrid(1, 256, 40.0)
    sol = solve_periodic_profile(grid, kappa=kappa, tol=1e-12)
    x = grid.axis()
    u0 = np.exp(1j * xi * x) * np.real(sol.u.values)
    v0 = np.exp(2j * xi * x) * np.real(sol.v.values)
    p0 = pair_from_arrays(grid, u0, v0, kappa)
    ts = evolve(p0, EvolutionConfig(dt=1e-3, t_final=2.0, cadence=100, snapshot_every=1))
    t, cc = [], []
    for tt, pr in ts.snapshots:
        rho = np.abs(pr.u.values) ** 2 + np.abs(pr.v.values) ** 2
        ang = np.angle(np.sum(rho * np.exp(2j * np.pi * x / grid.L)))
        t.append(tt)
        cc.append(ang)
    cc = np.unwrap(np.array(cc)) * grid.L / (2 * np.pi)
    vel = np.polyfit(t, cc, 1)[0]
    return vel, 2.0 * xi


def test_criterion_06_mass_resonance_discriminator():
    """boosted soliton moves at 2 xi within 2% at kappa=1/2; kappa=1 fails >10x"""
    xi = 2 * np.pi * 2 / 40.0   # lattice wavenumber so both phases are periodic
    v_res, pred = _boosted_velocity(0.5, xi)
    v_off, _ = _boosted_velocity(1.0, xi)
    dev_res = abs(v_res - pred) / pred
    dev_off = abs(v_off - pred) / pred
    assert dev_res < 0.02
    assert dev_off > 10.0 * dev_res
    assert dev_off > 0.05    # the failure is macroscopic, not numerical noise


def test_criterion_07_dispersive_decay():
    """fitted L^inf decay exponent -d/2 within 5% in d=1 and d=2"""
    g1 = UniformGrid(1, 2048, 400.0)
    x = g1.axis()
    f1 = Field(g1, np.exp(-((x - 200.0) ** 2) / (2 * 1.5**2)).astype(complex))
    s1 = dispersive_decay_fit(f1, (8.0, 30.0), r=np.inf)
    assert abs(s1 + 0.5) / 0.5 < 0.05

    g2 = UniformGrid(2, 512, 400.0)
    xs = g2.coords()
    rho2 = (xs[0] - 200.0) ** 2 + (xs[1] - 200.0) ** 2
    f2 = Field(g2, np.exp(-rho2 / (2 * 1.5**2)).astype(complex))
    s2 = dispersive_decay_fit(f2, (8.0, 30.0), r=np.inf)
    assert abs(s2 + 1.0) / 1.0 < 0.05


def test_criterion_08_morawetz_weight_suite():
    """Gamma exact; psi-phi >= -1e-12; Lap a identity < 1e-6; constants stable"""
    r = np.linspace(0, 1.5, 4001)
    for eps in (0.1, 0.05):
        gam = bump_gamma(r, eps)
        assert np.all(gam[r <= 1 - eps] == 1.0)
        assert np.all(gam[r >= 1.0] == 0.0)
        assert np.all(np.diff(gam) <= 1e-15)

    for d in (1, 5):
        rep = weight_identity_check(build_weights(d, 10.0, 0.05))
        assert rep["min_psi_minus_phi"] >= -1e-12
        assert rep["lap_a_identity_error"] < 1e-6

    # constants C in |phi'| <= C/R and |phi - phi1| <= C eps, stable under
    # halving; the scaled tables are R-independent (exactly), so the C/R
    # law is checked by table identity plus eps-stability
    for d, eps_list in ((1, (0.1, 0.05, 0.025)), (5, (0.1, 0.05))):
        c_phi1 = []
        c_dphi = []
        for eps in eps_list:
            rep = weight_identity_check(build_weights(d, 10.0, eps))
            c_phi1.append(rep["sup_phi_minus_phi1_over_eps"])
            c_dphi.append(rep["sup_dphi_times_R"])
        assert all(c < 10.0 for c in c_phi1)
        assert max(c_phi1) / min(c_phi1) < 2.0
        assert max(c_dphi) / min(c_dphi) < 2.0
    w10 = build_weights(1, 10.0, 0.05)
    w20 = build_weights(1, 20.0, 0.05)
    assert np.array_equal(w10.phi, w20.phi)


def test_criterion_09_boost_postcondition():
    """post-boost weighted momentum < 1e-10 x mass scale on 10^3 windows"""
    rng = np.random.default_rng(200)
    grid = UniformGrid(1, 256, 40.0)
    w = build_weights(1, 8.0, 0.05)
    for _ in range(1000):
        p = random_envelope_pair(grid, rng, nmodes=4)
        s = [grid.L / 2 + rng.uniform(-4.0, 4.0)]
        radius = rng.uniform(3.0, 12.0)
        choice = boost_xi(p, s, radius, w)
        post = weighted_momentum(galilean_boost(p, choice.xi), s, radius, w)
        scale = fields.mass(p) * (1.0 + float(np.abs(choice.xi[0])))
        assert np.max(np.abs(post)) < 1e-10 * scale
    zero = pair_from_arrays(grid, np.zeros(grid.shape, complex), np.zeros(grid.shape, complex))
    choice = boost_xi(zero, [20.0], 5.0, w)
    assert choice.degenerate and choice.xi[0] == 0.0


def test_criterion_10_galilean_invariance_of_pairing():
    """window pairing invariant to < 1e-10 for kappa in {1/4, 1/2, 1, 2}"""
    rng = np.random.default_rng(300)
    grid = UniformGrid(1, 256, 40.0)
    w = build_weights(1, 8.0, 0.05)
    for kappa in (0.25, 0.5, 1.0, 2.0):
        for _ in range(25):
            p = random_envelope_pair(grid, rng, kappa=kappa, nmodes=4)
            xi = rng.normal(scale=2.0, size=1)
            dev = galilean_invariance_check(
                p, xi, [grid.L / 2 + rng.uniform(-3, 3)], rng.uniform(4.0, 10.0), w
            )
            assert dev < 1e-10


def test_criterion_11_sign_condition():
    """symmetrized Cauchy-Schwarz margin >= -1e-12 on 10^3 pairs x 10^4 samples"""
    rng = np.random.default_rng(400)
    grid = UniformGrid(1, 256, 40.0)
    for _ in range(1000):
        p = random_envelope_pair(grid, rng, nmodes=4)
        assert cauchy_schwarz_margin(p, n_pairs=10_000, rng=rng) >= -1e-12


def test_criterion_12_coercivity(gs_fine, gs_mid):
    """gap >= 4(1-(1-delta)^(1/4)) H(u^xi) on 10^3 states; zero gap at Q;
    localization identity < 1e-10"""
    rng = np.random.default_rng(500)
    grid = gs_mid.grid
    for _ in range(1000):
        p = random_radial_pair(grid, rng)
        mh = fields.mass(p) * fields.kinetic(p)
        delta = rng.uniform(0.05, 0.9)
        c = ((1 - delta) * gs_fine.threshold_mh / mh) ** 0.25
        p = pair_from_arrays(grid, c * p.u.values, c * p.v.values, 0.5)
        xi = rng.uniform(0.0, 2.0)
        gap = coercivity_gap(p, xi)
        hxi = boosted_kinetic(p, xi)
        assert gap >= delta_prime_from_delta(delta) * hxi - 1e-9 * hxi

    assert abs(coercivity_gap(gs_fine.pair, np.zeros(1))) < 1e-3 * gs_fine.kinetic

    g1 = UniformGrid(1, 256, 40.0)
    for _ in range(10):
        p = random_envelope_pair(g1, rng, kappa=0.5, sigma=1.8, amp=0.4)
        rep = coercivity_on_balls(p, [g1.L / 2], 12.0, gs_fine)
        assert rep.identity_error < 1e-10


def test_criterion_13_trapping(gs_fine):
    """10 sub-threshold d=2 runs: y(t) < 1 and 5y - 4y^(5/4) <= ME ratio"""
    rng = np.random.default_rng(600)
    grid = UniformGrid(2, 64, 20.0)
    xs = grid.coords()
    c = grid.L / 2
    for run in range(10):
        amp = rng.uniform(0.1, 0.3)
        wid = rng.uniform(1.5, 3.0)
        kx = 2 * np.pi * rng.integers(-2, 3) / grid.L
        ky = 2 * np.pi * rng.integers(-2, 3) / grid.L
        rho2 = (xs[0] - c) ** 2 + (xs[1] - c) ** 2
        u0 = amp * np.exp(-rho2 / (2 * wid**2)) * np.exp(1j * (kx * xs[0] + ky * xs[1]))
        if run % 2:
            v0 = np.zeros_like(u0)
        else:
            # nonpositive potential term: extra slack in the ME ratio
            v0 = -0.3 * amp * u0**2 / np.max(np.abs(u0))
        p0 = pair_from_arrays(grid, u0, v0, 0.5)
        assert classify_data(p0, gs_fine).classification == "below"
        ts = evolve(p0, EvolutionConfig(dt=2e-3, t_final=4.0, cadence=50, snapshot_every=1))
        assert ts.outcome == "completed"
        for _, pr in ts.snapshots:
            rep = classify_data(pr, gs_fine)
            assert rep.y < 1.0
            assert trapping_curve(rep.y) <= rep.me_ratio + 1e-9


def test_criterion_14_interaction_accumulator():
    """d=1 accumulator nonnegative; ratio stable (+-50%) under doubling T0;
    full run at n=256 in < 10 min"""
    t0 = time.time()
    grid = UniformGrid(1, 256, 512.0)
    x = grid.axis()
    c = grid.L / 2
    u0 = 0.08 * np.exp(-((x - c) ** 2) / (2 * 6.0**2)) * np.cos(0.2 * (x - c))
    p0 = pair_from_arrays(grid, u0.astype(complex), np.zeros(grid.shape, complex), 0.5)
    ps, _ = rescale_to_E0(p0)

    base = dict(R0=2.5, J=4.0, eps=0.25)   # J = 1/eps, per the estimate's regime
    res1 = interaction_lhs(ps, 2e-3, InteractionParams(T0=250.0, **base))
    res2 = interaction_lhs(ps, 2e-3, InteractionParams(T0=500.0, **base))
    assert res1.outcome == "completed" and res2.outcome == "completed"
    assert res1.accumulator >= 0.0
    assert res2.accumulator >= 0.0
    stability = res2.ratio / res1.ratio
    assert 0.5 <= stability <= 1.5
    assert time.time() - t0 < 600.0


def test_criterion_15_determinism_and_persistence(tmp_path):
    """snapshot round trip bit-exact; reruns of one config byte-identical"""
    rng = np.random.default_rng(700)
    grid = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(grid, rng)
    path = str(tmp_path / "state.snap")
    write_snapshot(p, 2.5, path)
    q, t = read_snapshot(path)
    assert t == 2.5
    assert np.array_equal(q.u.values, p.u.values)
    assert np.array_equal(q.v.values, p.v.values)

    conf = {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0,
        "dt": 1e-3, "t_final": 0.05, "cadence": 10,
        "initial": "gaussian", "amplitude": 0.4, "width": 2.0,
    }
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        run_command(parse_config(json.dumps({**conf, "output": out})))
        outs.append(open(out, "rb").read())
    assert outs[0].replace(b"a.csv", b"b.csv") == outs[1]
