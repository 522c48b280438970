import dataclasses

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from qnls import evolution
from qnls.grid import UniformGrid
from qnls.fields import pair_from_arrays
from qnls.evolution import (
    EvolutionConfig, SplitStepper, SubstepFailure, TimeSeries, evolve, nonlinear_step,
    strang_step,
)

from conftest import random_envelope_pair

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

        def counted(self, values, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, values)

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


def test_nan_state_is_a_substep_failure():
    grid = UniformGrid(1, 32, 10.0)
    p = random_envelope_pair(grid, np.random.default_rng(6), amp=0.5)
    u = p.u.values.copy()
    u[3] = np.nan
    bad = p.with_values(u, p.v.values)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SubstepFailure):
            SplitStepper(bad, 1e-2).step()
        ts = evolve(bad, EvolutionConfig(dt=1e-2, t_final=0.05))
    assert ts.outcome == "substep-failure"
    assert len(ts.records) == 1


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
    bound = stepper._modulus_bound() * (1.0 + evolution.MODULUS_MARGIN)
    # the product and inverse transform that sync applies: L(dt/2) and L(dt)
    both = grid.ifft(stepper._free * stepper._spectrum())
    assert np.max(np.abs(both)) <= bound
    if aligned:
        assert np.max(np.abs(both[0])) >= bound * (1.0 - 1e-6)


def _evolve_checked_every_step(p0, cfg):
    """evolve with the exact modulus check after every step."""
    nsteps = round(cfg.t_final / cfg.dt)
    stepper = SplitStepper(p0, cfg.dt, cfg.substep_tol)
    ts = TimeSeries()
    pair = stepper.pair()
    ts.records.append(evolution._record(pair, 0.0))
    if cfg.store_fields:
        ts.snapshots.append((0.0, pair))
    h0 = ts.records[0].kinetic
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
            rec = evolution._record(stepper.pair(), t)
            ts.records.append(rec)
            if too_large or (h0 > 0 and rec.kinetic > cfg.blowup_growth * h0):
                ts.outcome = "blow-up"
                break
            if cfg.store_fields:
                ts.snapshots.append((t, p0.with_values(*w.copy())))
    return ts


def _gaussian_pair(grid, amp):
    rho2 = sum((x - 0.5 * grid.L) ** 2 for x in grid.coords())
    u = amp * np.exp(-rho2).astype(complex)
    return pair_from_arrays(grid, u, u.copy())


def _spike():
    # tests/test_evolution.py::test_blow_up_flagged_on_focusing_spike, which
    # trips the modulus bound at step 754, between two rows
    cfg = EvolutionConfig(dt=2e-4, t_final=2.0, cadence=20, blowup_growth=3.0)
    return _gaussian_pair(UniformGrid(2, 128, 10.0), 10.0), cfg


def _resolved():
    p = random_envelope_pair(UniformGrid(2, 32, 12.0), np.random.default_rng(9), amp=0.2)
    return p, EvolutionConfig(dt=1e-2, t_final=0.6, cadence=7, store_fields=True)


def _trips_between_rows():
    # max |u| passes 1/h = 6.4 at step 87
    return _gaussian_pair(UniformGrid(1, 64, 10.0), 6.0), EvolutionConfig(dt=1e-3, t_final=0.5, cadence=25)


@pytest.mark.parametrize("case", ["spike", "resolved", "trips_between_rows", "torus_soliton"])
def test_evolve_matches_a_modulus_check_after_every_step(case, request):
    if case == "torus_soliton":
        # max |u| = 3.14 against the bound 1/h = 4.0, certified at every step
        p0 = request.getfixturevalue("soliton_2d")
        cfg = EvolutionConfig(dt=1e-3, t_final=0.2, cadence=50)
    else:
        p0, cfg = {"spike": _spike, "resolved": _resolved,
                   "trips_between_rows": _trips_between_rows}[case]()
    ts, ref = evolve(p0, cfg), _evolve_checked_every_step(p0, cfg)
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
    if case == "resolved":
        assert ts.outcome == "completed" and len(ts.snapshots) > 1
    elif case != "torus_soliton":
        assert ts.outcome == "blow-up" and round(ts.records[-1].t / cfg.dt) % cfg.cadence


def test_evolve_unfuses_only_at_rows(monkeypatch):
    grid = UniformGrid(2, 32, 12.0)
    p = random_envelope_pair(grid, np.random.default_rng(10), amp=0.5)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.4, cadence=50)
    calls = {"fft": 0, "ifft": 0, "unfuse": 0}
    for name in ("fft", "ifft"):
        original = getattr(UniformGrid, name)

        def counted(self, values, _name=name, _original=original):
            calls[_name] += 1
            calls["unfuse"] += values.shape[:2] == (2, 2)
            return _original(self, values)

        monkeypatch.setattr(UniformGrid, name, counted)
    evolution._record(p, 0.0)
    per_row = calls["fft"] + calls["ifft"]
    calls.update(fft=0, ifft=0)
    ts = evolve(p, cfg)
    assert ts.outcome == "completed" and len(ts.records) == 9
    assert calls["unfuse"] == 8
    # one transform each way per step, plus the leading half-step from p0
    assert calls["fft"] + calls["ifft"] == 2 * (400 + 1) + 9 * per_row
