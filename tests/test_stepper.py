import numpy as np
import pytest

from qnls.grid import UniformGrid
from qnls.evolution import SplitStepper, strang_step

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
