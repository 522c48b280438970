import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnls
from qnls.grid import SPHERE_AREA_4, RadialGrid, UniformGrid
from qnls.fields import pair_from_arrays
from qnls.ground_state import petviashvili_solve, solve_periodic_profile


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", nodeid)
            if m and getattr(rep, "when", "call") == "call":
                rows.append((int(m.group(1)), verdict, m.group(2)))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num, verdict, label in sorted(rows):
            terminalreporter.write_line(f"criterion {num:02d} {verdict}  {label}")


@pytest.fixture(scope="session")
def gs_fine():
    """Acceptance-resolution 5-D ground state (m = 2048, r_max = 30)."""
    return petviashvili_solve(RadialGrid(2048, 30.0), kappa=0.5, tol=1e-10)


@pytest.fixture(scope="session")
def gs_mid():
    """Cheaper converged ground state for tests that only need constants."""
    return petviashvili_solve(RadialGrid(1024, 24.0), kappa=0.5, tol=1e-8)


@pytest.fixture(scope="session")
def soliton_1d():
    grid = UniformGrid(1, 256, 40.0)
    return solve_periodic_profile(grid, kappa=0.5, tol=1e-12)


@pytest.fixture(scope="session")
def soliton_2d():
    grid = UniformGrid(2, 64, 16.0)
    return solve_periodic_profile(grid, kappa=0.5, tol=1e-12)


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this qnls; return its stdout."""
    src = str(Path(qnls.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def random_envelope_pair(grid, rng, kappa=0.5, nmodes=6, amp=1.0, sigma=None, kmax=5):
    """Random band-limited pair under a Gaussian envelope that vanishes at
    the box edge (so boosts by arbitrary xi stay spectrally clean)."""
    if sigma is None:
        sigma = grid.L / 16.0
    c = grid.L / 2.0
    coords = grid.coords()
    env = np.exp(-sum((x - c) ** 2 for x in coords) / (2.0 * sigma**2))

    def one():
        out = np.zeros(grid.shape, dtype=complex)
        for _ in range(nmodes):
            ks = 2.0 * np.pi * rng.integers(-kmax, kmax + 1, size=grid.d) / grid.L
            phase = sum(k * x for k, x in zip(ks, coords))
            out += (rng.normal() + 1j * rng.normal()) * np.exp(1j * phase)
        return amp * env * out

    return pair_from_arrays(grid, one(), one(), kappa)


def out_of_reach_pair():
    """A Gaussian u of amplitude 1000 and v = 0 on a 1-D 64-point box of
    length 20: at dt = 1 the substep exhausts its refinement limit."""
    grid = UniformGrid(1, 64, 20.0)
    u = 1000.0 * np.exp(-((grid.axis() - 10.0) ** 2)) + 0j
    return pair_from_arrays(grid, u, np.zeros(grid.shape, complex), 0.5)


def radial_integral_reference(grid, values):
    """The radial midpoint rule of one field, written out: sum f(r_j) sigma_4 r_j^4 dr."""
    r = (np.arange(grid.m) + 0.5) * grid.dr
    return SPHERE_AREA_4 * np.sum(values * r**4) * grid.dr


def radial_dirichlet_reference(grid, f):
    """int |f'|^2 of one radial field by the one-field formula: the fourth-order
    stencil on the reflected samples, divided by 12 dr, then |.|^2 and the
    midpoint rule; complex input runs in complex arithmetic."""
    g = np.concatenate(([f[1], f[0]], f, [-f[-1], -f[-2]]))
    d1 = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * grid.dr)
    return float(radial_integral_reference(grid, np.abs(d1) ** 2))


def random_radial_pair(grid, rng, kappa=0.5, amp_scale=1.0):
    """Random smooth decaying radial pair on a RadialGrid."""
    r = grid.nodes()
    wu = rng.uniform(0.5, 3.0)
    wv = rng.uniform(0.5, 3.0)
    u = amp_scale * rng.uniform(0.2, 2.0) * np.exp(-((r / wu) ** 2)) * (
        1.0 + rng.uniform(-0.5, 0.5) * np.cos(rng.uniform(1.0, 3.0) * r)
    )
    v = amp_scale * rng.uniform(0.2, 2.0) * np.exp(-((r / wv) ** 2)) * (
        1.0 + rng.uniform(-0.5, 0.5) * np.sin(rng.uniform(1.0, 3.0) * r)
    )
    return pair_from_arrays(grid, u.astype(complex), v.astype(complex), kappa)
