import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import evolution, fields
from qnls.grid import Field, RadialGrid, UniformGrid
from qnls.fields import pair_from_arrays
from qnls.evolution import (
    EvolutionConfig,
    blow_up_detect,
    dispersive_decay_fit,
    evolve,
    nonlinear_step,
    strang_step,
    _SubstepBuffers,
)

from conftest import out_of_reach_pair, random_envelope_pair, random_radial_pair


def _zero_pair(g):
    z = np.zeros(g.shape, dtype=complex)
    return pair_from_arrays(g, z, z)


def linear_step(p, dt):
    """Exact free flow: uhat *= e^{-i|k|^2 dt}, vhat *= e^{-i kappa |k|^2 dt}.

    Built on the stepper's own multiplier, so the tests below check it.
    """
    grid = p.grid
    w = np.array((p.u.values, p.v.values), dtype=complex)
    w = grid.ifft(evolution._free_multiplier(grid, p.kappa, dt) * grid.fft(w))
    return p.with_stack(np.array(w))


def reference_rk4_step(p, dt):
    """Method-of-lines RK4 on the full right-hand side (splitting-free oracle)."""
    grid = p.grid
    kappa = p.kappa

    def rhs(u, v):
        return 1j * (grid.laplacian(u) + v * np.conj(u)), 1j * (kappa * grid.laplacian(v) + u * u)

    u, v = p.u.values, p.v.values
    k1u, k1v = rhs(u, v)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
    u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return p.with_stack(np.array((u, v)))


def test_linear_step_constant_unchanged():
    g = UniformGrid(1, 64, 10.0)
    p = pair_from_arrays(g, np.full(g.shape, 1.5 + 0.5j), np.full(g.shape, -0.2j))
    q = linear_step(p, 0.37)
    assert np.max(np.abs(q.u.values - p.u.values)) < 1e-14
    assert np.max(np.abs(q.v.values - p.v.values)) < 1e-14


def test_linear_step_single_mode_phase():
    g = UniformGrid(1, 64, 2 * np.pi)
    x = g.axis()
    k0 = 3.0
    dt = 0.21
    p = pair_from_arrays(g, np.exp(1j * k0 * x), np.zeros(g.shape, complex))
    q = linear_step(p, dt)
    expected = np.exp(-1j * k0**2 * dt) * p.u.values
    assert np.max(np.abs(q.u.values - expected)) < 1e-13


def test_linear_step_conserves_mass():
    rng = np.random.default_rng(0)
    g = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(g, rng)
    q = linear_step(p, 0.05)
    assert fields.mass(q) == pytest.approx(fields.mass(p), rel=1e-12)


def test_free_gaussian_width_law():
    # closed form: sigma^2(t) = sigma0^2 + 4 t^2 / sigma0^2 for i u_t + u_xx = 0
    g = UniformGrid(1, 512, 80.0)
    x = g.axis()
    c = g.L / 2
    sigma0 = 1.5
    u0 = np.exp(-((x - c) ** 2) / (2 * sigma0**2)).astype(complex)
    p = pair_from_arrays(g, u0, np.zeros(g.shape, complex))
    t = 1.7
    q = linear_step(p, t)
    dens = np.abs(q.u.values) ** 2
    var = g.integrate(dens * (x - c) ** 2) / g.integrate(dens)          # = sigma_t^2 / 2
    sigma_t2 = sigma0**2 + 4 * t**2 / sigma0**2
    assert 2 * var == pytest.approx(sigma_t2, rel=1e-8)


def test_linear_step_matches_kernel_quadrature():
    # direct quadrature of the free propagator kernel
    # (4 pi i t)^(-1/2) int e^{i|x-y|^2/(4t)} f(y) dy
    g = UniformGrid(1, 1024, 60.0)
    x = g.axis()
    c = g.L / 2
    u0 = np.exp(-((x - c) ** 2)).astype(complex)
    t = 1.3
    stepped = linear_step(pair_from_arrays(g, u0, u0 * 0), t).u.values
    pref = (4j * np.pi * t) ** (-0.5)
    kernel = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (4 * t))
    direct = pref * kernel @ u0 * g.h
    core = np.abs(x - c) < 10.0
    assert np.max(np.abs(stepped - direct)[core]) < 1e-6


def test_nonlinear_step_fixed_point():
    g = UniformGrid(1, 64, 10.0)
    p = pair_from_arrays(g, np.zeros(g.shape, complex), np.full(g.shape, 2.0 - 1.0j))
    q = nonlinear_step(p, 0.3)
    assert np.max(np.abs(q.u.values)) == 0.0
    assert np.max(np.abs(q.v.values - p.v.values)) < 1e-14


def test_nonlinear_step_taylor_expansion():
    # u = v = 1: u(dt) = 1 + i dt + O(dt^2), v(dt) = 1 + i dt + O(dt^2)
    g = UniformGrid(1, 8, 1.0)
    dt = 1e-4
    p = pair_from_arrays(g, np.ones(g.shape, complex), np.ones(g.shape, complex))
    q = nonlinear_step(p, dt)
    assert np.max(np.abs(q.u.values - (1 + 1j * dt))) < 5 * dt**2
    assert np.max(np.abs(q.v.values - (1 + 1j * dt))) < 5 * dt**2


def test_nonlinear_step_pointwise_invariant():
    rng = np.random.default_rng(5)
    g = UniformGrid(1, 128, 10.0)
    p = random_envelope_pair(g, rng, amp=2.0)
    inv0 = np.abs(p.u.values) ** 2 + np.abs(p.v.values) ** 2
    q = nonlinear_step(p, 1e-3)
    inv1 = np.abs(q.u.values) ** 2 + np.abs(q.v.values) ** 2
    assert np.max(np.abs(inv1 - inv0)) < 1e-10 * max(1.0, float(np.max(inv0)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    amp=st.floats(0.05, 3.0),
    dt=st.floats(1e-4, 5e-3),
)
def test_nonlinear_step_keeps_manley_rowe(seed, amp, dt):
    # u_t = i v conj(u), v_t = i u^2 leaves Re(conj(v) u^2) fixed at every point.
    # The substep refines on this invariant as well as on |u|^2 + |v|^2,
    # so its drift stays below tol times its scale.
    tol = 1e-10
    g = UniformGrid(1, 64, 10.0)
    p = random_envelope_pair(g, np.random.default_rng(seed), amp=amp)
    q = nonlinear_step(p, dt)
    mr0 = np.real(np.conj(p.v.values) * p.u.values**2)
    mr1 = np.real(np.conj(q.v.values) * q.u.values**2)
    scale = float(np.max(np.abs(p.u.values) ** 2 + np.abs(p.v.values) ** 2)) ** 1.5
    assert np.max(np.abs(mr1 - mr0)) <= 10.0 * tol * scale


def test_substep_refines_on_the_manley_rowe_drift():
    # one substep moves the density by 0.93 tol but Re(conj(v) u^2) by
    # 27 tol here: refining on the density alone would accept it
    tol = 1e-10
    g = UniformGrid(1, 64, 10.0)
    p = random_envelope_pair(g, np.random.default_rng(3628800), amp=1.5)
    q = nonlinear_step(p, 2.0**-8)
    scale = float(np.max(np.abs(p.u.values) ** 2 + np.abs(p.v.values) ** 2))
    mr0 = np.real(np.conj(p.v.values) * p.u.values**2)
    mr1 = np.real(np.conj(q.v.values) * q.u.values**2)
    assert np.max(np.abs(mr1 - mr0)) < tol * scale**1.5


def test_strang_step_zero_pair():
    g = UniformGrid(1, 64, 10.0)
    q = strang_step(_zero_pair(g), 0.1)
    assert np.max(np.abs(q.u.values)) == 0.0
    assert np.max(np.abs(q.v.values)) == 0.0


def test_strang_matches_rk4_reference_to_second_order():
    rng = np.random.default_rng(6)
    g = UniformGrid(1, 128, 20.0)
    p = random_envelope_pair(g, rng, amp=0.5)

    def gap(dt):
        a = strang_step(p, dt)
        b = p
        for _ in range(10):
            b = reference_rk4_step(b, dt / 10)   # splitting-free oracle
        return max(
            np.max(np.abs(a.u.values - b.u.values)),
            np.max(np.abs(a.v.values - b.v.values)),
        )

    g1, g2 = gap(2e-2), gap(1e-2)
    assert g1 / g2 == pytest.approx(8.0, rel=0.35)   # local error: O(dt^3)


def test_strang_second_order_on_soliton(soliton_2d):
    phi = np.real(soliton_2d.u.values)
    vphi = np.real(soliton_2d.v.values)

    def global_err(dt):
        p = soliton_2d
        n = int(round(1.0 / dt))
        for _ in range(n):
            p = strang_step(p, dt)
        eu = np.exp(1j * 1.0) * phi
        ev = np.exp(2j * 1.0) * vphi
        return max(np.max(np.abs(p.u.values - eu)), np.max(np.abs(p.v.values - ev)))

    ratio = global_err(4e-3) / global_err(2e-3)
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_evolve_zero_data():
    g = UniformGrid(1, 64, 10.0)
    ts = evolve(_zero_pair(g), EvolutionConfig(dt=1e-2, t_final=0.1, cadence=2))
    assert ts.outcome == "completed"
    assert np.all(ts.column("mass") == 0.0)
    assert np.all(ts.column("energy") == 0.0)
    assert blow_up_detect(ts) == "global-looking"


def test_evolve_conserves_on_soliton(soliton_2d):
    ts = evolve(soliton_2d, EvolutionConfig(dt=1e-3, t_final=1.0, cadence=100))
    m = ts.column("mass")
    e = ts.column("energy")
    assert np.max(np.abs(m - m[0])) / abs(m[0]) < 1e-10
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-8
    assert blow_up_detect(ts) == "global-looking"


def test_soliton_phase_rates(soliton_2d):
    grid = soliton_2d.grid
    phi = np.real(soliton_2d.u.values)
    vphi = np.real(soliton_2d.v.values)
    cfg = EvolutionConfig(dt=1e-3, t_final=1.0, cadence=50, snapshot_every=1)
    ts = evolve(soliton_2d, cfg)
    t, pu, pv = [], [], []
    for tt, pr in ts.snapshots:
        t.append(tt)
        pu.append(np.angle(grid.integrate(phi * pr.u.values)))
        pv.append(np.angle(grid.integrate(vphi * pr.v.values)))
    rate_u = np.polyfit(t, np.unwrap(pu), 1)[0]
    rate_v = np.polyfit(t, np.unwrap(pv), 1)[0]
    assert rate_u == pytest.approx(1.0, abs=1e-3)
    assert rate_v == pytest.approx(2.0, abs=1e-3)


def test_blow_up_flagged_on_focusing_spike():
    # negative-energy large-amplitude data: focusing grows the max modulus
    # past the resolution bound and the run ends with the labeled outcome,
    # not an exception
    g = UniformGrid(2, 128, 10.0)
    xs = g.coords()
    rho2 = (xs[0] - 5.0) ** 2 + (xs[1] - 5.0) ** 2
    u = 10.0 * np.exp(-rho2).astype(complex)
    v = 10.0 * np.exp(-rho2).astype(complex)
    p = pair_from_arrays(g, u, v)
    assert fields.energy(p) < 0
    ts = evolve(p, EvolutionConfig(dt=2e-4, t_final=2.0, cadence=20))
    assert ts.outcome == "blow-up"
    assert ts.blow_up_time is not None and ts.blow_up_time < 2.0
    assert blow_up_detect(ts) == "blow-up"


def test_substep_failure_is_a_labeled_outcome():
    # amplitude 1000 at dt = 1 is far past the substep's reach, so the
    # first substep exhausts its refinement limit; the run ends with the
    # label, not an exception
    ts = evolve(out_of_reach_pair(), EvolutionConfig(dt=1.0, t_final=1.0))
    assert ts.outcome == "substep-failure"
    assert not ts.blown_up
    assert len(ts.records) == 1
    assert blow_up_detect(ts) == "undecided"


def test_decay_fit_d1_linf_slope():
    g = UniformGrid(1, 2048, 400.0)
    x = g.axis()
    f = Field(g, np.exp(-((x - 200.0) ** 2) / (2 * 1.5**2)).astype(complex))
    slope = dispersive_decay_fit(f, (8.0, 30.0), r=np.inf)
    assert slope == pytest.approx(-0.5, rel=0.05)


def test_decay_fit_l2_flat():
    g = UniformGrid(1, 2048, 400.0)
    x = g.axis()
    f = Field(g, np.exp(-((x - 200.0) ** 2) / (2 * 1.5**2)).astype(complex))
    slope = dispersive_decay_fit(f, (8.0, 30.0), r=2.0)
    assert abs(slope) < 1e-6


def test_boosted_soliton_shape_invariant(soliton_1d):
    # resonant boost pattern (xi, 2 xi): the modulus envelope translates
    # rigidly; recentering by the exact drift recovers the profile to 1e-3
    g = soliton_1d.grid
    x = g.axis()
    xi = 2 * np.pi * 2 / g.L
    u0 = np.exp(1j * xi * x) * np.real(soliton_1d.u.values)
    v0 = np.exp(2j * xi * x) * np.real(soliton_1d.v.values)
    p = pair_from_arrays(g, u0, v0, 0.5)
    t_final = 2.0
    ts = evolve(p, EvolutionConfig(dt=1e-3, t_final=t_final, cadence=1000, snapshot_every=1))
    _, last = ts.snapshots[-1]
    shift = 2.0 * xi * t_final
    k = g.wavenumbers()
    recentered = np.real(g.ifft(g.fft(np.abs(last.u.values)) * np.exp(1j * k * shift)))
    err = np.max(np.abs(recentered - np.abs(u0))) / np.max(np.abs(u0))
    assert err < 1e-3


def test_decay_fit_d2_l4_slope():
    # -d(1/2 - 1/r) = -2(1/2 - 1/4) = -0.5
    g = UniformGrid(2, 512, 400.0)
    xs = g.coords()
    rho2 = (xs[0] - 200.0) ** 2 + (xs[1] - 200.0) ** 2
    f = Field(g, np.exp(-rho2 / (2 * 1.5**2)).astype(complex))
    slope = dispersive_decay_fit(f, (8.0, 30.0), r=4.0)
    assert slope == pytest.approx(-0.5, rel=0.05)


def test_decay_fit_detects_wraparound():
    g = UniformGrid(1, 128, 20.0)
    x = g.axis()
    f = Field(g, np.exp(-((x - 10.0) ** 2)).astype(complex))
    with pytest.raises(RuntimeError):
        dispersive_decay_fit(f, (5.0, 50.0), r=np.inf)


def test_decay_fit_detects_wraparound_along_the_last_axis():
    # in 2-D the mass sits near the edge of the last axis only, which a mask
    # built from the first axis misses; its centred twin passes the same fit
    g = UniformGrid(2, 64, 40.0)
    x0, x1 = g.coords()

    def gaussian(c1):
        return Field(g, np.exp(-((x0 - 20.0) ** 2 + (x1 - c1) ** 2) / 2.0).astype(complex))

    assert dispersive_decay_fit(gaussian(20.0), (0.5, 2.0), r=np.inf) < 0.0
    with pytest.raises(RuntimeError, match="wrap-around"):
        dispersive_decay_fit(gaussian(1.0), (0.5, 2.0), r=np.inf)


@pytest.mark.parametrize("fraction, refused", [(1e-7, False), (1e-5, True), (1e-4, True)])
def test_decay_fit_refuses_a_boundary_mass_fraction_above_1e_6(fraction, refused):
    # a narrow packet holding the stated fraction of the mass sits between
    # L/64 and L/16 of the edge, where the wrap-around margin of L/16 sees
    # it; the short fit times hardly move it
    g = UniformGrid(1, 256, 40.0)
    x = g.axis()
    side = np.sqrt(fraction / (1.0 - fraction) / 0.3) * np.exp(-((x - 1.5625) ** 2) / (2 * 0.3**2))
    f = Field(g, np.exp(-((x - 20.0) ** 2) / 2.0) + side + 0j)
    if not refused:
        assert np.isfinite(dispersive_decay_fit(f, (1e-3, 1e-2), r=np.inf))
        return
    with pytest.raises(RuntimeError, match="boundary mass fraction") as err:
        dispersive_decay_fit(f, (1e-3, 1e-2), r=np.inf)
    assert float(str(err.value).rsplit(" ", 1)[1]) == pytest.approx(fraction, rel=1e-2)


@pytest.mark.parametrize("call, error, match", [
    (lambda radial: EvolutionConfig(dt=1e-3, t_final=-1e-3), ValueError, "nonnegative"),
    (lambda radial: dispersive_decay_fit(Field(UniformGrid(1, 64, 20.0), np.ones(64, complex)),
                                         (2.0, 1.0)), ValueError, "0 < t_start < t_end"),
    (lambda radial: evolution.SplitStepper(radial, 1e-3), TypeError, "uniform grids"),
    (lambda radial: evolve(radial, EvolutionConfig(dt=1e-3, t_final=1e-2)), TypeError, "uniform grid"),
    (lambda radial: dispersive_decay_fit(radial.u, (1.0, 2.0)), TypeError, "uniform grid"),
], ids=["negative-t_final", "decreasing-t_range", "stepper-radial", "evolve-radial", "decay-fit-radial"])
def test_evolution_refuses_a_radial_pair_or_a_backward_time(call, error, match):
    with pytest.raises(error, match=match):
        call(random_radial_pair(RadialGrid(16, 8.0), np.random.default_rng(0)))


def test_a_completed_run_has_no_blow_up_time_and_a_kinetic_that_is_not_finite_is_undecided():
    ts = evolve(_zero_pair(UniformGrid(1, 16, 10.0)), EvolutionConfig(dt=1e-2, t_final=0.02))
    assert ts.outcome == "completed" and ts.blow_up_time is None
    ts.records[-1] = dataclasses.replace(ts.records[-1], kinetic=np.nan)
    assert blow_up_detect(ts) == "undecided"


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=-1e-3, t_final=1.0)
    # an infinite dt made t / dt = 0 steps and a run "completed" at t = nan
    with pytest.raises(ValueError, match="dt"):
        EvolutionConfig(dt=np.inf, t_final=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=1e-3, t_final=1.0, cadence=0)
    with pytest.raises(ValueError):
        EvolutionConfig(dt=1e-3, t_final=0.0105)   # 10.5 steps
    # a count that is not an integer reached range() as an unlabelled TypeError
    for key, value in (("cadence", 1.5), ("snapshot_every", 2.0), ("snapshot_every", -1),
                       ("cadence", True)):
        with pytest.raises(ValueError, match=key):
            EvolutionConfig(dt=1e-2, t_final=0.03, **{key: value})
    cfg = EvolutionConfig(dt=1e-2, t_final=0.03, cadence=np.int64(3), snapshot_every=np.int32(2))
    assert (cfg.cadence, cfg.snapshot_every) == (3, 2)


def test_snapshot_every_holds_every_kth_row_from_row_zero():
    p = random_envelope_pair(UniformGrid(1, 64, 20.0), np.random.default_rng(3), amp=0.3)
    every = evolve(p, EvolutionConfig(dt=1e-3, t_final=0.02, cadence=2, snapshot_every=1))
    third = evolve(p, EvolutionConfig(dt=1e-3, t_final=0.02, cadence=2, snapshot_every=3))
    assert len(every.records) == 11 and len(every.snapshots) == 11
    assert [t for t, _ in third.snapshots] == [rec.t for rec in third.records[::3]]
    assert len(third.snapshots) == 4
    for (t, q), (t_ref, q_ref) in zip(third.snapshots, every.snapshots[::3], strict=True):
        assert t == t_ref
        assert q.u.values.tobytes() == q_ref.u.values.tobytes()
        assert q.v.values.tobytes() == q_ref.v.values.tobytes()
    assert evolve(p, EvolutionConfig(dt=1e-3, t_final=0.02, cadence=2)).snapshots == []


def test_evolve_holds_only_the_states_of_its_snapshot_rows():
    # 41 rows on 64^2; a stride of 20 keeps rows 0, 20 and 40, each state
    # (u, v) 2 * 64^2 complex values = 128 KiB
    p = random_envelope_pair(UniformGrid(2, 64, 16.0), np.random.default_rng(5), amp=0.3)
    evolve(p, EvolutionConfig(dt=1e-3, t_final=1e-3))   # builds the grid's cached tables
    peaks = {}
    for stride in (0, 20):
        cfg = EvolutionConfig(dt=1e-3, t_final=0.04, cadence=1, snapshot_every=stride)
        tracemalloc.start()
        try:
            ts = evolve(p, cfg)
            _, peaks[stride] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ts.outcome == "completed" and len(ts.records) == 41
        assert len(ts.snapshots) == (3 if stride else 0)
    assert peaks[20] - peaks[0] <= 3 * 128 * 2**10 + 64 * 2**10


def test_substep_buffers_hold_four_stacked_arrays():
    # k1, k2, k3 (the fourth stage reuses k3) and the stage argument, each a
    # stacked (u, v) of 2 * 64^2 complex values = 128 KiB, and the two real
    # invariants of 64 KiB each
    tracemalloc.start()
    try:
        buffers = _SubstepBuffers((2, 64, 64))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert buffers.k3.shape == (2, 64, 64)
    assert held <= 4 * 128 * 2**10 + 2 * 64 * 2**10 + 16 * 2**10
