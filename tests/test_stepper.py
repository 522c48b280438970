import numpy as np
import pytest
import scipy.fft

from qnls.grid import UniformGrid
from qnls.evolution import (
    EvolutionConfig, SplitStepper, SubstepFailure, evolve, nonlinear_step, strang_step,
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

    inv0 = density(w0)
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
        if float(np.max(np.abs(density(w) - inv0))) / scale < tol:
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
