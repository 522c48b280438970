import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from qnls import evolution, fields, grid as grid_mod, morawetz
from qnls.grid import UniformGrid
from qnls.fields import pair_from_arrays
from qnls.ground_state import solve_periodic_profile
from qnls.morawetz import InteractionParams, interaction_lhs
from qnls.evolution import (
    EvolutionConfig, SplitStepper, SubstepFailure, TimeSeries, blow_up_detect, evolve,
    nonlinear_step, strang_step,
)

from conftest import out_of_reach_pair, random_envelope_pair

GRIDS = [UniformGrid(1, 128, 20.0), UniformGrid(2, 32, 12.0), UniformGrid(3, 16, 10.0)]


def _stacked(p):
    return np.array((p.u.values, p.v.values))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}")
def test_fused_steps_match_composed_strang_steps(grid):
    p = random_envelope_pair(grid, np.random.default_rng(grid.d), amp=0.5)
    dt, nsteps = 1e-2, 25
    stepper = SplitStepper(p, dt)
    q = p
    for _ in range(nsteps):
        stepper.step()
        q = strang_step(q, dt)
    assert stepper.steps == nsteps
    ref = _stacked(q)
    assert np.max(np.abs(stepper.sync() - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sync_is_idempotent_and_leaves_the_trajectory_unchanged():
    grid = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(grid, np.random.default_rng(3), amp=0.5)
    watched, unwatched = SplitStepper(p, 1e-2), SplitStepper(p, 1e-2)
    for _ in range(10):
        watched.step()
        first = watched.sync().copy()
        assert np.array_equal(watched.sync(), first)
        assert watched.sync() is watched.sync()
        unwatched.step()
    # the look-ahead computed while un-fusing is the fused step's own
    assert np.array_equal(watched.sync(), unwatched.sync())


def test_unobserved_step_is_one_transform_each_way(monkeypatch):
    grid = UniformGrid(1, 64, 10.0)
    p = random_envelope_pair(grid, np.random.default_rng(4), amp=0.5)
    stepper = SplitStepper(p, 1e-2)
    stepper.step()
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(UniformGrid, name)

        def counted(self, values, out=None, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, values, out)

        monkeypatch.setattr(UniformGrid, name, counted)
    for expected in range(1, 4):
        stepper.step()
        assert calls == {"fft": expected, "ifft": expected}
    stepper.sync()
    stepper.sync()
    assert calls == {"fft": 4, "ifft": 4}


def _reference_substep(w0, dt, tol):
    """Out-of-place RK4 with the substep's refinement rule; returns (w, nsub)."""

    def quadratic(w):
        return np.array((w[1] * np.conj(w[0]), w[0] * w[0]))

    def density(w):
        sq = np.abs(w) ** 2
        return sq[0] + sq[1]

    def manley_rowe(w):
        return np.real(np.conj(w[1]) * w[0] ** 2)

    inv0, mr0 = density(w0), manley_rowe(w0)
    scale = max(float(np.max(inv0)), 1e-300)
    nsub = 1
    while True:
        w, h = w0, dt / nsub
        for _ in range(nsub):
            k1 = quadratic(w)
            k2 = quadratic(w + (0.5j * h) * k1)
            k3 = quadratic(w + (0.5j * h) * k2)
            k4 = quadratic(w + (1j * h) * k3)
            w = w + (1j * h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if (float(np.max(np.abs(density(w) - inv0))) / scale < tol
                and float(np.max(np.abs(manley_rowe(w) - mr0))) / scale**1.5 < tol):
            return w, nsub
        nsub *= 2
        assert nsub <= 1024


@pytest.mark.parametrize("amp, dt, refined", [(0.5, 1e-2, False), (2.0, 0.05, True)])
def test_nonlinear_step_is_the_reference_rk4_bit_for_bit(amp, dt, refined):
    grid = UniformGrid(1, 128, 10.0)
    p = random_envelope_pair(grid, np.random.default_rng(5), amp=amp)
    ref, nsub = _reference_substep(_stacked(p), dt, 1e-10)
    assert nsub >= 4 if refined else nsub == 1
    assert np.array_equal(_stacked(nonlinear_step(p, dt)), ref)


@pytest.mark.parametrize("batch", [(), (2,), (2, 2), (12, 3)])
@pytest.mark.parametrize("n", [256, 2048])
def test_one_dimensional_transforms_equal_fftn_over_the_last_axis(batch, n):
    grid = UniformGrid(1, n, 10.0)
    rng = np.random.default_rng(n + len(batch))
    shape = batch + (n,)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for x in (z, z.real):
        for ours, theirs in ((grid.fft, scipy.fft.fftn), (grid.ifft, scipy.fft.ifftn)):
            assert np.array_equal(ours(x), theirs(x, axes=(-1,), norm="ortho"))


@pytest.mark.parametrize("d, batch", [(1, ()), (1, (3, 2)), (2, ()), (2, (2,)), (2, (3, 2)),
                                      (3, ()), (3, (2,))])
@pytest.mark.parametrize("direct", [True, False], ids=["c2c", "fallback"])
def test_transforms_equal_fftn_over_the_space_axes(d, batch, direct, monkeypatch):
    # complex128 and float64 input go straight to pocketfft's c2c, float32
    # input and every input without the binding through scipy.fft: the same
    # bits either way, and float32 keeps scipy.fft's complex64 result
    calls = [0]
    if direct:
        def counted(*args, _c2c=grid_mod._c2c):
            calls[0] += 1
            return _c2c(*args)

        monkeypatch.setattr(grid_mod, "_c2c", counted)
    else:
        monkeypatch.setattr(grid_mod, "_c2c", None)
    grid = UniformGrid(d, {1: 64, 2: 32, 3: 16}[d], 10.0)
    rng = np.random.default_rng(10 * d + len(batch))
    shape = batch + grid.shape
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    axes = tuple(range(-d, 0))
    for x, bound in ((z, True), (z.real, True), (z.real.copy(), True),
                     (z.real.astype(np.float32), False)):
        before = calls[0]
        for ours, theirs in ((grid.fft, scipy.fft.fftn), (grid.ifft, scipy.fft.ifftn)):
            got, expected = ours(x), theirs(x, axes=axes, norm="ortho")
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert calls[0] - before == (2 if direct and bound else 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("direct", [True, False], ids=["c2c", "fallback"])
def test_transforms_into_their_input_keep_the_bits(d, direct, monkeypatch):
    # the stepper inverse-transforms its products in place
    if not direct:
        monkeypatch.setattr(grid_mod, "_c2c", None)
    grid = UniformGrid(d, {1: 64, 2: 32, 3: 16}[d], 10.0)
    rng = np.random.default_rng(d)
    for batch in ((2,), (2, 2)):
        z = rng.normal(size=batch + grid.shape) + 1j * rng.normal(size=batch + grid.shape)
        for transform in (grid.fft, grid.ifft):
            expected = transform(z)
            x = z.copy()
            assert transform(x, out=x) is x
            assert x.tobytes() == expected.tobytes()


def _scalar_rk4(tau):
    """One RK4 step of y' = y^2 from y = 1."""
    k1 = 1.0
    k2 = (1.0 + 0.5 * tau * k1) ** 2
    k3 = (1.0 + 0.5 * tau * k2) ** 2
    k4 = (1.0 + tau * k3) ** 2
    return 1.0 + tau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_drift_majorant_is_the_tail_of_the_scalar_rk4_step():
    # RK4 matches y = 1/(1 - tau) through tau^4, so the terms of 2 W^2 and W^3
    # below tau^5 are those of 2/(1 - tau)^2 and 1/(1 - tau)^3
    w_poly = evolution._rk4_majorant()
    assert w_poly.degree() == 15
    for tau in np.linspace(0.0, 1.0, 11):
        assert w_poly(tau) == pytest.approx(_scalar_rk4(tau), rel=1e-14)
    for tau in np.linspace(0.05, 0.5, 10):
        w = _scalar_rk4(tau)
        powers = tau ** np.arange(5)
        density_tail = 2.0 * w**2 - 2.0 * np.dot([1, 2, 3, 4, 5], powers)
        manley_rowe_tail = w**3 - np.dot([1, 3, 6, 10, 15], powers)
        expected = max(density_tail, manley_rowe_tail)
        assert evolution._DRIFT_MAJORANT(tau) == pytest.approx(expected, rel=1e-9)


def _random_state(rng, n, amp):
    """A stacked pair with maximum density amp^2 at a random node.

    Densities and the split between the fields are random, so are all phases;
    half the nodes sit at the maximum density.
    """
    dens = np.where(rng.random(n) < 0.5, 1.0, rng.random(n))
    share = rng.random(n)
    mod = np.sqrt(dens * np.array((share, 1.0 - share)))
    w = amp * mod * np.exp(2j * np.pi * rng.random((2, n)))
    return w, float(np.max(np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_amp=st.floats(-3.0, 3.0),
    frac=st.floats(1e-3, 1.0),
)
def test_a_certified_substep_is_the_reference_rk4_step(seed, log_amp, frac):
    tol = 1e-10
    w0, s = _random_state(np.random.default_rng(seed), 64, 10.0**log_amp)
    dt = frac * evolution._certified_tau(tol) / np.sqrt(s)
    ref, nsub = _reference_substep(w0, dt, tol)
    assert nsub == 1
    w = evolution._substep(w0, dt, evolution._SubstepBuffers(w0.shape), None)
    assert np.array_equal(w, ref)


def test_tau_star_is_the_certified_tau_of_the_substep_tolerance():
    # the value the README and the evolution module docstring quote
    assert evolution._TAU_STAR == evolution._certified_tau(evolution.SUBSTEP_TOL)
    assert round(evolution._TAU_STAR, 5) == 4.73e-3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), log_tau=st.floats(-3.0, np.log10(0.5)))
def test_measured_drift_stays_below_the_majorant(seed, log_tau):
    # one RK4 step over tau on a state of maximum density 1 (an infinite tol
    # accepts the first substep), drifts measured as the monitor does; 100
    # eps is the certificate's rounding allowance
    tau = 10.0**log_tau
    w0, s = _random_state(np.random.default_rng(seed), 256, 1.0)
    w, nsub = _reference_substep(w0, tau / np.sqrt(s), np.inf)
    assert nsub == 1

    def invariants(w):
        return np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2, np.real(np.conj(w[1]) * w[0] ** 2)

    (rho0, mr0), (rho, mr) = invariants(w0), invariants(w)
    drift = max(np.max(np.abs(rho - rho0)) / s, np.max(np.abs(mr - mr0)) / s**1.5)
    assert drift <= evolution._DRIFT_MAJORANT(tau) + 100.0 * np.finfo(float).eps


def _counted(monkeypatch, name):
    """Count the calls of ``evolution.<name>``.

    Only the monitor evaluates ``_manley_rowe``; ``_density`` runs in the
    exact certificate rule and in the monitor.
    """
    calls = [0]
    original = getattr(evolution, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(evolution, name, counted)
    return calls


@pytest.mark.parametrize("frac, monitored", [(1.0 - 1e-6, False), (1.0 + 1e-6, True)])
def test_the_monitor_runs_just_above_tau_star_only(frac, monitored, monkeypatch):
    tol = 1e-10
    w0, s = _random_state(np.random.default_rng(11), 64, 2.0)
    dt = frac * evolution._certified_tau(tol) / np.sqrt(s)
    calls = _counted(monkeypatch, "_manley_rowe")
    w = evolution._substep(w0, dt, evolution._SubstepBuffers(w0.shape), None)
    assert (calls[0] > 0) == monitored
    assert np.array_equal(w, _reference_substep(w0, dt, tol)[0])


@pytest.mark.parametrize("case", ["s nan", "s inf"])
def test_the_certificate_never_clears_what_it_cannot_bound(case, monkeypatch):
    # a tiny state at a tiny step: the certificate would clear it if it were finite
    w0, _ = _random_state(np.random.default_rng(12), 16, 1e-3)
    w0[0, 5] = {"s nan": np.nan, "s inf": np.inf}[case]
    calls = _counted(monkeypatch, "_manley_rowe")
    with np.errstate(invalid="ignore"), pytest.raises(SubstepFailure):
        evolution._substep(w0, 1e-3, evolution._SubstepBuffers(w0.shape), None)
    assert calls[0] > 0


def test_nan_state_is_a_substep_failure():
    grid = UniformGrid(1, 32, 10.0)
    p = random_envelope_pair(grid, np.random.default_rng(6), amp=0.5)
    u = p.u.values.copy()
    u[3] = np.nan
    bad = p.with_stack(np.array((u, p.v.values)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(SubstepFailure):
            SplitStepper(bad, 1e-2).step()
        ts = evolve(bad, EvolutionConfig(dt=1e-2, t_final=0.05))
    assert ts.outcome == "blow-up"
    assert len(ts.records) == 0


@pytest.mark.parametrize(
    "grid", [UniformGrid(2, 128, 12.0), UniformGrid(3, 32, 10.0), UniformGrid(1, 8192, 200.0)],
    ids=lambda g: f"d{g.d}n{g.n}",
)
def test_sync_is_trajectory_neutral_on_large_grids(grid):
    # pairs of 256 KiB and more: numpy may evaluate a product with a
    # temporary operand in place, swapping the operands of the multiply
    p = random_envelope_pair(grid, np.random.default_rng(grid.d), amp=0.5)
    watched, unwatched = SplitStepper(p, 1e-2), SplitStepper(p, 1e-2)
    for _ in range(5):
        watched.step()
        watched.sync()
        unwatched.step()
    assert np.array_equal(watched.sync(), unwatched.sync())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-4, 10.0),
    kappa=st.floats(0.1, 4.0),
    aligned=st.booleans(),
)
def test_modulus_bound_covers_the_synchronised_state(d, seed, dt, kappa, aligned):
    grid = UniformGrid(d, {1: 64, 2: 16, 3: 8}[d], 10.0)
    rng = np.random.default_rng(seed)
    shape = (2,) + grid.shape
    spectrum = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spectrum *= 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    if aligned:
        # phases chosen so that after L(dt/2) every mode peaks at one node:
        # the bound is attained there
        delta = np.zeros(grid.shape)
        delta[tuple(rng.integers(grid.n, size=d))] = 1.0
        peak = grid.fft(delta) * np.sqrt(grid.size)
        half = evolution._free_multiplier(grid, kappa, 0.5 * dt)
        spectrum = np.abs(spectrum) * np.conj(half) * peak
    w = grid.ifft(spectrum)
    stepper = SplitStepper(pair_from_arrays(grid, w[0], w[1], kappa), dt)
    bound = max(stepper._l1_sums()) * (1.0 + evolution.MODULUS_MARGIN)
    # the product and inverse transform that sync applies: L(dt/2) and L(dt)
    both = grid.ifft(stepper._free * stepper._spectrum())
    assert np.max(np.abs(both)) <= bound
    if aligned:
        assert np.max(np.abs(both[0])) >= bound * (1.0 - 1e-6)


def _evolve_checked_every_step(p0, cfg):
    """evolve with the exact modulus check after every step."""
    nsteps = round(cfg.t_final / cfg.dt)
    stepper = SplitStepper(p0, cfg.dt)
    ts = TimeSeries()
    pair = stepper.pair()
    ts.records.append(evolution._record(pair, 0.0))
    if cfg.snapshot_every:
        ts.snapshots.append((0.0, pair))
    mod_bound = evolution.RESOLUTION_FACTOR / p0.grid.h
    for step in range(1, nsteps + 1):
        try:
            stepper.step()
        except SubstepFailure:
            ts.outcome = "substep-failure"
            break
        w = stepper.sync()
        t = step * cfg.dt
        too_large = float(np.max(np.abs(w))) > mod_bound
        if too_large or step % cfg.cadence == 0 or step == nsteps:
            ts.records.append(evolution._record(stepper.pair(), t))
            if too_large:
                ts.outcome = "blow-up"
                break
            if cfg.snapshot_every and (len(ts.records) - 1) % cfg.snapshot_every == 0:
                ts.snapshots.append((t, p0.with_stack(np.array(w))))
    return ts


def _assert_same_series(ts, ref):
    assert ts.outcome == ref.outcome
    assert len(ts.records) == len(ref.records)
    for rec, expected in zip(ts.records, ref.records):
        for f in dataclasses.fields(rec):
            assert np.array_equal(getattr(rec, f.name), getattr(expected, f.name)), f.name
    assert len(ts.snapshots) == len(ref.snapshots)
    for (t, q), (t_ref, q_ref) in zip(ts.snapshots, ref.snapshots):
        assert t == t_ref
        assert np.array_equal(q.u.values, q_ref.u.values)
        assert np.array_equal(q.v.values, q_ref.v.values)


def _gaussian_pair(grid, amp):
    rho2 = sum((x - 0.5 * grid.L) ** 2 for x in grid.coords())
    u = amp * np.exp(-rho2).astype(complex)
    return pair_from_arrays(grid, u, u.copy())


def _spike():
    # tests/test_evolution.py::test_blow_up_flagged_on_focusing_spike, which
    # trips the modulus bound at step 754, between two rows
    cfg = EvolutionConfig(dt=2e-4, t_final=2.0, cadence=20)
    return _gaussian_pair(UniformGrid(2, 128, 10.0), 10.0), cfg


def _resolved():
    p = random_envelope_pair(UniformGrid(2, 32, 12.0), np.random.default_rng(9), amp=0.2)
    return p, EvolutionConfig(dt=1e-2, t_final=0.6, cadence=7, snapshot_every=1)


def _trips_between_rows():
    # max |u| passes 1/h = 6.4 at step 87
    return _gaussian_pair(UniformGrid(1, 64, 10.0), 6.0), EvolutionConfig(dt=1e-3, t_final=0.5, cadence=25)


def _every_5th_step():
    # the same run with rows every 5th step: the l1 sums first miss the
    # bound at step 84, and the next step, 85, is a row
    p0, cfg = _trips_between_rows()
    return p0, dataclasses.replace(cfg, cadence=5)


def _modulational():
    # the modulational instability of a flat pair: H grows from 9.9e-7 to
    # about 1e5 H(0) while max |u|, |v| stays below 1/h = 3.2, a resolved,
    # conservative run to t = 20
    grid = UniformGrid(1, 64, 20.0)
    u = 1.0 + 1e-3 * np.cos(2 * np.pi * grid.axis() / grid.L) + 0j
    p0 = pair_from_arrays(grid, u, np.ones(grid.shape, complex))
    return p0, EvolutionConfig(dt=1e-3, t_final=20.0, cadence=100)


@pytest.mark.parametrize("case", ["spike", "resolved", "trips_between_rows", "every_5th_step",
                                  "modulational", "torus_soliton"])
def test_evolve_matches_a_modulus_check_after_every_step(case, request):
    if case == "torus_soliton":
        # max |u| = 3.14 against the bound 1/h = 4.0, certified at every step
        p0 = request.getfixturevalue("soliton_2d")
        cfg = EvolutionConfig(dt=1e-3, t_final=0.2, cadence=50)
    else:
        p0, cfg = {"spike": _spike, "resolved": _resolved,
                   "trips_between_rows": _trips_between_rows, "every_5th_step": _every_5th_step,
                   "modulational": _modulational}[case]()
    ts, ref = evolve(p0, cfg), _evolve_checked_every_step(p0, cfg)
    _assert_same_series(ts, ref)
    if case == "resolved":
        assert ts.outcome == "completed" and len(ts.snapshots) > 1
    elif case == "modulational":
        assert ts.outcome == "completed" and ts.records[-1].t == pytest.approx(cfg.t_final)
        assert np.all(ts.column("max_modulus") < 1.0 / p0.grid.h)
        mass = ts.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]
        assert blow_up_detect(ts) == "undecided"
    elif case != "torus_soliton":
        assert ts.outcome == "blow-up" and round(ts.records[-1].t / cfg.dt) % cfg.cadence
    if case == "every_5th_step":
        assert [round(rec.t / cfg.dt) for rec in ts.records] == [*range(0, 90, 5), 87]


def test_a_row_that_trips_holds_no_snapshot_even_at_a_multiple_of_the_stride():
    # rows at steps 0, 25, 50 and 75, then the trip at step 87 as row 4
    p0, cfg = _trips_between_rows()
    cfg = dataclasses.replace(cfg, snapshot_every=2)
    ts = evolve(p0, cfg)
    _assert_same_series(ts, _evolve_checked_every_step(p0, cfg))
    assert ts.outcome == "blow-up"
    assert [round(rec.t / cfg.dt) for rec in ts.records] == [0, 25, 50, 75, 87]
    assert [round(t / cfg.dt) for t, _ in ts.snapshots] == [0, 50]


def _drive_checked_every_step(p0, dt, stops, observe):
    """The driver's rule with a sync and an exact modulus check after every step."""
    if not np.all(np.isfinite(_stacked(p0))):
        return "blow-up"
    stepper = SplitStepper(p0, dt)
    bound = evolution.RESOLUTION_FACTOR / p0.grid.h
    observe(0, stepper.sync(), False)
    for step in range(1, stops[-1] + 1):
        try:
            stepper.step()
        except SubstepFailure:
            return "substep-failure"
        w = stepper.sync()
        if not float(np.max(np.abs(w))) <= bound:
            if np.all(np.isfinite(w)):
                observe(step, w, True)
            return "blow-up"
        if step in stops:
            observe(step, w, False)
    return "completed"


def _interaction_checked_every_step(p0, dt, params, monkeypatch):
    """interaction_lhs stepped by :func:`_drive_checked_every_step`."""
    with monkeypatch.context() as patched:
        patched.setattr(morawetz, "_drive", _drive_checked_every_step)
        return interaction_lhs(p0, dt, params)


def _torus_soliton_1d():
    # max |u| = 1.875 against the bound 1/h = 0.5: the first step trips it
    return solve_periodic_profile(UniformGrid(1, 256, 512.0), kappa=0.5, tol=1e-12)


# samples before the trip: steps 0, 25, 50 and 75 of _trips_between_rows,
# which trips at step 87; step 0 of the torus soliton
@pytest.mark.parametrize("case, samples", [("trips_between_rows", 4), ("torus_soliton", 1)])
def test_the_accumulator_matches_a_modulus_check_after_every_step(case, samples, monkeypatch):
    if case == "torus_soliton":
        p0, dt, t0 = _torus_soliton_1d(), 1e-3, 0.5
    else:
        p0, cfg = _trips_between_rows()
        dt, t0 = cfg.dt, cfg.t_final
    params = InteractionParams(R0=1.0, J=1.0, T0=t0, eps=0.25)
    res = interaction_lhs(p0, dt, params)
    ref = _interaction_checked_every_step(p0, dt, params, monkeypatch)
    assert res.outcome == ref.outcome == "blow-up"
    assert res.n_time_samples == ref.n_time_samples == samples
    assert np.count_nonzero(res.per_time) == samples
    assert np.array_equal(res.per_time, ref.per_time)
    assert np.array_equal(res.per_radius, ref.per_radius)
    assert res.accumulator == ref.accumulator


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "inf-imag"])
def test_non_finite_input_is_a_blow_up_with_nothing_recorded(bad):
    # ends before the first transform: no RuntimeWarning, which pytest
    # turns into an error, from the stepper or from E0
    p = _gaussian_pair(UniformGrid(1, 64, 10.0), 0.5)
    u = p.u.values.copy()
    u[3] = bad
    p = p.with_stack(np.array((u, p.v.values)))
    ts = evolve(p, EvolutionConfig(dt=1e-3, t_final=0.05, cadence=10, snapshot_every=1))
    assert ts.outcome == "blow-up" and ts.records == [] and ts.snapshots == []
    assert ts.blow_up_time == 0.0
    res = interaction_lhs(p, 1e-3, InteractionParams(R0=1.0, J=1.0, T0=0.05, eps=0.25))
    assert res.outcome == "blow-up" and res.n_time_samples == 0
    assert res.accumulator == 0.0 and not np.any(res.per_time)
    assert math.isnan(res.e0)


def test_the_stepper_rests_in_ten_units_and_peaks_in_eleven():
    # a unit is one stacked (u, v) of 2 * 64^2 complex values, 128 KiB; the
    # stepper holds L(dt/2) and L(dt) (2 units), the substep buffers (4.5)
    # and its state and look-ahead (2), and makes each product a unit at
    # most and transforms it in place
    grid = UniformGrid(2, 64, 16.0)
    p = random_envelope_pair(grid, np.random.default_rng(5), amp=0.3)
    SplitStepper(p, 1e-3).step()   # builds the grid's cached tables
    unit = 2 * grid.size * 16
    tracemalloc.start()
    try:
        stepper = SplitStepper(p, 1e-3)
        resting, _ = tracemalloc.get_traced_memory()
        for k in range(1, 21):
            stepper.step()
            if k % 5 == 0:
                stepper.sync()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resting <= 10 * unit and after <= 10 * unit
    assert peak <= 11 * unit
    # every step was certified, so the monitor's second buffer never came
    assert stepper._buffers._inv0 is None


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}")
def test_states_handed_out_are_never_written_again(grid):
    p = random_envelope_pair(grid, np.random.default_rng(grid.d + 20), amp=0.5)
    stepper = SplitStepper(p, 1e-2)
    stepper.step()
    a = stepper.sync()
    b = stepper.pair()
    kept = [x.copy() for x in (a, b.u.values, b.v.values)]
    for _ in range(5):
        stepper.step()
        stepper.sync()
    for x, copy in zip((a, b.u.values, b.v.values), kept, strict=True):
        assert x.tobytes() == copy.tobytes()


def _bits(record):
    return {f.name: np.asarray(getattr(record, f.name)).tobytes()
            for f in dataclasses.fields(record)}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.d}")
def test_a_row_is_one_stacked_transform_with_the_functionals_bits(grid, monkeypatch):
    p = random_envelope_pair(grid, np.random.default_rng(grid.d + 30), amp=0.5)
    stepper = SplitStepper(p, 1e-2)
    for _ in range(3):
        stepper.step()
    w = stepper.sync()
    q = p.with_stack(np.array(w))
    expected = evolution.DiagnosticsRecord(
        t=0.03, mass=fields.mass(q), kinetic=fields.kinetic(q), potential=fields.potential(q),
        momentum=fields.momentum(q), l3_u=fields.lp_norm(q.u, 3.0),
        l3_pair=fields.pair_lp_norm(q, 3.0), max_modulus=fields.pair_lp_norm(q, np.inf),
    )
    shapes = []
    for name in ("fft", "ifft"):
        original = getattr(UniformGrid, name)

        def counted(self, values, out=None, _name=name, _original=original):
            shapes.append((_name, values.shape))
            return _original(self, values, out)

        monkeypatch.setattr(UniformGrid, name, counted)
    row = evolution._record(p.with_stack(w), 0.03)
    assert shapes == [("fft", w.shape)]
    assert _bits(row) == _bits(expected)


def test_evolve_unfuses_only_at_rows(monkeypatch):
    grid = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(grid, np.random.default_rng(10), amp=0.5)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.4, cadence=50)
    calls = {"fft": 0, "ifft": 0, "unfuse": 0}
    for name in ("fft", "ifft"):
        original = getattr(UniformGrid, name)

        def counted(self, values, out=None, _name=name, _original=original):
            calls[_name] += 1
            calls["unfuse"] += values.shape[:2] == (2, 2)
            return _original(self, values, out)

        monkeypatch.setattr(UniformGrid, name, counted)
    evolution._record(p, 0.0)
    per_row = calls["fft"] + calls["ifft"]
    calls.update(fft=0, ifft=0)
    ts = evolve(p, cfg)
    assert ts.outcome == "completed" and len(ts.records) == 9
    assert calls["unfuse"] == 8
    # one transform each way per step, plus the leading half-step from p0
    assert calls["fft"] + calls["ifft"] == 2 * (400 + 1) + 9 * per_row


@pytest.mark.parametrize("dt, error", [(np.nan, ValueError), (np.inf, ValueError),
                                       (-np.inf, ValueError), (1.0, SubstepFailure)],
                         ids=["nan", "inf", "minus-inf", "out-of-reach"])
@pytest.mark.parametrize("entry", ["nonlinear_step", "SplitStepper", "strang_step"])
def test_public_stepping_entries_reject_a_dt_that_is_not_finite(entry, dt, error):
    # a dt that is not finite climbed the 1024-substep ladder to a
    # SubstepFailure that blamed the drift (at +-inf after a RuntimeWarning
    # from the free multiplier); data far past the substep's reach at a
    # finite dt keeps that labelled failure
    run = {"nonlinear_step": nonlinear_step, "strang_step": strang_step,
           "SplitStepper": lambda *args: SplitStepper(*args).step()}[entry]
    with pytest.raises(error, match=f"dt must be a finite number, got {dt}" if error is ValueError
                       else "refinement limit"):
        run(out_of_reach_pair(), dt)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-4, 10.0),
    kappa=st.floats(0.1, 4.0),
    aligned=st.booleans(),
)
def test_l1_sums_bound_the_density_of_the_next_pre_substep_state(d, seed, dt, kappa, aligned):
    grid = UniformGrid(d, {1: 64, 2: 16, 3: 8}[d], 10.0)
    rng = np.random.default_rng(seed)
    shape = (2,) + grid.shape
    spectrum = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spectrum *= 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
    if aligned:
        # both fields peak at one node after L(dt/2): |u|^2 + |v|^2 = a^2 + b^2 there
        delta = np.zeros(grid.shape)
        delta[tuple(rng.integers(grid.n, size=d))] = 1.0
        peak = grid.fft(delta) * np.sqrt(grid.size)
        half = evolution._free_multiplier(grid, kappa, 0.5 * dt)
        spectrum = np.abs(spectrum) * np.conj(half) * peak
    w = grid.ifft(spectrum)
    stepper = SplitStepper(pair_from_arrays(grid, w[0], w[1], kappa), dt)
    a, b = stepper._l1_sums()
    bound = (a * a + b * b) * (1.0 + evolution.MODULUS_MARGIN) ** 2
    # the look-ahead L(dt/2) that the first step takes, and the L(dt) that a
    # fused step takes of the same kind of spectrum
    fused = grid.ifft(stepper._free[1] * stepper._spectrum())
    for ahead in (stepper._ahead, fused):
        density = np.abs(ahead[0]) ** 2 + np.abs(ahead[1]) ** 2
        assert np.max(density) <= bound
    if aligned:
        density = np.abs(stepper._ahead[0]) ** 2 + np.abs(stepper._ahead[1]) ** 2
        assert np.max(density) >= bound * (1.0 - 1e-6)


def test_an_unobserved_certified_step_makes_no_density_pass(monkeypatch):
    grid = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(grid, np.random.default_rng(14), amp=0.5)
    # |dt| sqrt(a^2 + b^2) is about 0.56 tau* at every step
    stepper, reference = SplitStepper(p, 1e-3), SplitStepper(p, 1e-3)
    density, monitor = _counted(monkeypatch, "_density"), _counted(monkeypatch, "_manley_rowe")
    for k in range(6):
        stepper.step()
        if k == 2:
            stepper.sync()   # the sums are taken before the spectrum goes
    assert density[0] == monitor[0] == 0
    # what the exact rule gives: the same array, after a pass per step
    monkeypatch.setattr(SplitStepper, "_l1_sums", lambda self: (math.inf, math.inf))
    for _ in range(6):
        reference.step()
    assert density[0] == 6 and monitor[0] == 0
    assert np.array_equal(stepper.sync(), reference.sync())


def test_a_step_the_l1_bound_misses_falls_back_to_the_exact_rule(monkeypatch):
    # tau is 0.9 tau* on the exact s, but the sums claim sqrt(2 s): 1.27 tau*
    tol = 1e-10
    w0, s = _random_state(np.random.default_rng(15), 64, 2.0)
    dt = 0.9 * evolution._certified_tau(tol) / np.sqrt(s)
    density, monitor = _counted(monkeypatch, "_density"), _counted(monkeypatch, "_manley_rowe")
    w = evolution._substep(w0, dt, evolution._SubstepBuffers(w0.shape), (np.sqrt(s), np.sqrt(s)))
    assert density[0] == 1 and monitor[0] == 0
    assert np.array_equal(w, _reference_substep(w0, dt, tol)[0])


@pytest.mark.parametrize("frac, monitored", [(1.0 - 1e-6, False), (1.0 + 1e-6, True)])
def test_the_l1_certificate_clears_nothing_the_exact_rule_refuses(frac, monitored, monkeypatch):
    # both fields peak at one node of the look-ahead, where the sums are
    # tight: a = b = max |u| = max |v|, and s = a^2 + b^2
    tol, amp, kappa = 1e-10, 3.0, 0.5
    grid = UniformGrid(1, 64, 10.0)
    spike = np.zeros((2, grid.n), dtype=complex)
    spike[:, 17] = amp
    dt = frac * evolution._certified_tau(tol) / (np.sqrt(2.0) * amp)
    half = evolution._free_multiplier(grid, kappa, 0.5 * dt)
    w = grid.ifft(np.conj(half) * grid.fft(spike))
    stepper = SplitStepper(pair_from_arrays(grid, w[0], w[1], kappa), dt)
    ahead = stepper._ahead.copy()
    density, monitor = _counted(monkeypatch, "_density"), _counted(monkeypatch, "_manley_rowe")
    stepper.step()
    assert (density[0] > 0) == (monitor[0] > 0) == monitored
    assert np.array_equal(stepper._state, _reference_substep(ahead, dt, tol)[0])


def test_runs_keep_their_bits_without_the_l1_bound(monkeypatch, soliton_2d):
    # the l1 sums certify every substep of the stepper and of the soliton
    # run; the other run trips the modulus bound between rows
    p = random_envelope_pair(UniformGrid(1, 128, 20.0), np.random.default_rng(16), amp=0.5)
    runs = [(soliton_2d, EvolutionConfig(dt=1e-3, t_final=0.05, cadence=7, snapshot_every=1)),
            _trips_between_rows()]

    def observe():
        stepper, states = SplitStepper(p, 1e-3), []
        for k in range(30):
            stepper.step()
            if k % 4 == 0:
                states.append(stepper.sync().copy())
        return states + [stepper.sync()], [evolve(p0, cfg) for p0, cfg in runs]

    states, series = observe()
    monkeypatch.setattr(SplitStepper, "_l1_sums", lambda self: (math.inf, math.inf))
    ref_states, ref_series = observe()
    assert all(np.array_equal(x, y) for x, y in zip(states, ref_states, strict=True))
    for ts, ref in zip(series, ref_series, strict=True):
        _assert_same_series(ts, ref)
