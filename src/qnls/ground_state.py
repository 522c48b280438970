"""Ground state of the stationary system.

Solves  phi - Lap phi = phi * vphi,   2 vphi - kappa Lap vphi = phi^2
radially in R^5 by a balanced fixed-point iteration and extracts the
derived constants: the ground-state mass M_gs, the sharp
Gagliardo-Nirenberg constant C_GN = 4 * 5^(-5/4) * M_gs^(-1/2), and the
threshold products M(Q)E(Q), M(Q)H(Q).  The exact proportions
M : H : R = 1 : 5 : 4 are the primary correctness oracle.

Solver notes.  A sweep takes the plain update

    phi~ = L1^{-1}(phi vphi),  vphi~ = L2^{-1}(phi^2)

and then the moment balance

    phi = (sqrt(e1 e2) / rho) phi~,  vphi = (e1 / rho) vphi~,
    e1 = <L1 phi~, phi~>,  e2 = <L2 vphi~, vphi~>,  rho = int vphi~ phi~^2,

which enforces both Nehari identities <L1 phi, phi> = <L2 vphi, vphi> =
int vphi phi^2 exactly (Lakoba & Yang, J. Comput. Phys. 226 (2007) 1668).
One scalar normalization of the update, Petviashvili's S^gamma with
S = (e1 + e2) / (2 rho) (V. I. Petviashvili, Sov. J. Plasma Phys. 2
(1976) 257), is structurally marginal for this two-component system: the
amplitude map (a, b) -> (S^2 ab, S^2 a^2) has eigenvalue -1 along (1, -2)
and the iteration stalls in a period-2 cycle.  The balance sets both
amplitudes and is contraction-stable, and it needs no S: scaling
(phi~, vphi~) by c != 0 scales e1 and e2 by c^2 and rho by c^3, so both
balance coefficients scale by 1/c and the balanced iterate does not depend
on c.  An S^gamma in front of the update would cancel exactly.

The profile at the working resolution must carry the 1:5:4 identity to
1e-3, which a second-order discretization cannot deliver at m = 2048, so
the solver discretizes the radial Laplacian to fourth order internally:
a five-point stencil L4 with the even (r = 0) and odd (r_max) ghost folds
of ``radial_ghosts``, assembled once per solve as a (5, m) band.  A sweep
applies L1^{-1} and L2^{-1} as one pentadiagonal banded solve each.  The
package's only second-order radial operator is the dense one of the
independent oracle below.

The balanced sweep contracts only linearly and, at m = 2048, plateaus
near the round-off floor (1.5e-10 with exact banded inverses), so
:func:`petviashvili_solve` runs it down to the residual ``NEWTON_SWITCH``
and finishes with Newton steps on the full system (J. Yang, J. Comput.
Phys. 228 (2009) 7007).
With (phi_j, vphi_j) interleaved per node the Jacobian

    [[1 - L4 - diag vphi, -diag phi], [-2 diag phi, 2 - kappa L4]]

is a (4, 4) band, so a step is one O(m) banded solve.  ``iterations``
and ``residual_history`` count sweeps and Newton steps together, and
``max_iter`` bounds their sum.  The solve returns once the max-norm
residual of the fourth-order system falls below ``tol`` and raises
:class:`ConvergenceError` at the first Newton step that does not reduce
it: that is the float64 floor.  ``GroundState.residual_floor`` estimates
the floor as eps * max_i sum_j |J_ij| |x_j|; the 4/r term at the first
node makes it grow like 1/dr^2 (about 5e-10 at m = 2048, r_max = 30).
The residuals reached sit below that bound, yet on grids finer than
about m = 2048 at r_max = 30 they no longer reach 1e-10: m = 3072 and
4096 stall at residuals of 1.8-5.6e-10, so they cannot certify
tol = 1e-10.

A deliberately independent coarse solver (dense second-order matrices,
damped held-mass Picard) cross-checks M_gs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import solve_banded

from . import fields
from .fields import FieldPair, pair_from_arrays
from .grid import RadialGrid, UniformGrid, radial_ghosts

#: amplitude a of the Gaussian initial guess of every stationary solve
INITIAL_AMPLITUDE = 3.0

#: max-norm residual at which :func:`petviashvili_solve` leaves the
#: balanced sweep for Newton steps
NEWTON_SWITCH = 0.3


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual."""


@dataclass(frozen=True)
class GroundState:
    """Converged profile pair with residuals and derived constants."""

    pair: FieldPair
    residual_norm: float
    residual_floor: float                # round-off floor of the residual; NaN if not estimated
    iterations: int                      # sweeps plus Newton steps
    residual_history: tuple[float, ...]
    ratios: tuple[float, float, float]   # (1, H/M, R/M); exactly (1, 5, 4) in theory
    mass: float                          # M_gs
    kinetic: float
    potential: float
    energy: float
    gn_constant: float                   # C_GN
    threshold_me: float                  # M(Q) E(Q)
    threshold_mh: float                  # M(Q) H(Q)

    @property
    def grid(self):
        return self.pair.grid

    @property
    def kappa(self) -> float:
        return self.pair.kappa

    @property
    def phi(self) -> np.ndarray:
        return np.real(self.pair.u.values)

    @property
    def vphi(self) -> np.ndarray:
        return np.real(self.pair.v.values)


def _lap4_apply(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """Fourth-order radial Laplacian d^2/dr^2 + (4/r) d/dr (solver-internal)."""
    dr = grid.dr
    r = grid.nodes()
    g = radial_ghosts(f)
    d2 = (-g[4:] + 16.0 * g[3:-1] - 30.0 * g[2:-2] + 16.0 * g[1:-3] - g[:-4]) / (
        12.0 * dr**2
    )
    d1 = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * dr)
    return d2 + (4.0 / r) * d1


def _lap4_band(grid: RadialGrid) -> np.ndarray:
    """:func:`_lap4_apply` as a (5, m) band in ``solve_banded`` storage.

    ``band[2 + i - j, j]`` is the coefficient of f_j in row i; the ghost
    nodes of :func:`radial_ghosts` are folded onto the first and last rows.
    """
    m, dr = grid.m, grid.dr
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dr**2)
    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dr)
    c = d2[:, None] + d1[:, None] * (4.0 / grid.nodes())   # c[k + 2, i]: f_{i+k} in row i
    # even reflection at r = 0: f_{-1} = f_0, f_{-2} = f_1
    c[2, 0] += c[1, 0]
    c[3, 0] += c[0, 0]
    c[1, 1] += c[0, 1]
    # odd reflection at r_max: f_m = -f_{m-1}, f_{m+1} = -f_{m-2}
    c[3, m - 2] -= c[4, m - 2]
    c[2, m - 1] -= c[3, m - 1]
    c[1, m - 1] -= c[4, m - 1]
    band = np.zeros((5, m))
    for k in range(-2, 3):
        if k >= 0:
            band[2 - k, k:] = c[k + 2, : m - k]
        else:
            band[2 - k, :k] = c[k + 2, -k:]
    return band


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a square A in ``solve_banded`` storage with equal bandwidths."""
    u = (band.shape[0] - 1) // 2
    n = x.size
    y = np.zeros(n)
    for d in range(band.shape[0]):
        k = u - d                       # row i meets column i + k
        if k >= 0:
            y[: n - k] += band[d, k:] * x[k:]
        else:
            y[-k:] += band[d, : n + k] * x[: n + k]
    return y


def _newton_band(l4: np.ndarray, kappa: float, phi: np.ndarray, vphi: np.ndarray) -> np.ndarray:
    """Jacobian of the stationary system as a (4, 4) band.

    Unknowns and equations are interleaved per node, (phi_j, vphi_j), so
    the blocks [[1 - L4 - diag vphi, -diag phi], [-2 diag phi, 2 - kappa L4]]
    sit within four diagonals of the main one.
    """
    band = np.zeros((9, 2 * phi.size))
    band[0::2, 0::2] = -l4
    band[0::2, 1::2] = -kappa * l4
    band[4, 0::2] += 1.0 - vphi
    band[4, 1::2] += 2.0
    band[3, 1::2] = -phi
    band[5, 0::2] = -2.0 * phi
    return band


def _residual_floor(band: np.ndarray, phi: np.ndarray, vphi: np.ndarray) -> float:
    """eps * max_i sum_j |J_ij| |x_j|: what rounding x alone does to the residual."""
    x = np.abs(_interleave(phi, vphi))
    return float(np.finfo(float).eps * np.max(_band_matvec(np.abs(band), x)))


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a_0, b_0, a_1, b_1, ...): the node ordering of :func:`_newton_band`."""
    return np.stack((a, b), axis=1).ravel()


def _residuals(lap, kappa, phi, vphi) -> tuple[np.ndarray, np.ndarray]:
    """Both stationary equations evaluated at (phi, vphi)."""
    res1 = phi - lap(phi) - phi * vphi
    res2 = 2.0 * vphi - kappa * lap(vphi) - phi**2
    return res1, res2


def _max_norm(res: tuple[np.ndarray, np.ndarray]) -> float:
    return max(float(np.max(np.abs(res[0]))), float(np.max(np.abs(res[1]))))


def _moments(grid, lap, kappa, phi, vphi) -> tuple[float, float, float]:
    """(<L1 phi, phi>, <L2 vphi, vphi>, int vphi phi^2) with L1 = 1 - lap, L2 = 2 - kappa lap."""
    e1 = float(grid.integrate((phi - lap(phi)) * phi))
    e2 = float(grid.integrate((2.0 * vphi - kappa * lap(vphi)) * vphi))
    rho = float(grid.integrate(vphi * phi**2))
    return e1, e2, rho


def _balanced_iteration(grid, lap, inv1, inv2, kappa, phi, vphi, tol, max_iter):
    """The balanced sweep shared by both stationary solvers.

    ``lap`` applies the Laplacian, ``inv1`` and ``inv2`` apply L1^{-1} and
    L2^{-1}; (phi, vphi) is the initial guess.  Each sweep applies the plain
    update phi~ = L1^{-1}(phi vphi), vphi~ = L2^{-1}(phi^2) and then the
    moment balance of the module docstring, which makes the new iterate
    independent of the scale of (phi~, vphi~).  Stops once both equation
    residuals drop below ``tol`` in max-norm.  Returns
    (phi, vphi, residual, iterations, residual history).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    residual = np.inf
    history: list[float] = []
    for it in range(1, max_iter + 1):
        phi_t = inv1(phi * vphi)
        vphi_t = inv2(phi**2)

        # moment balance: pin both Nehari identities of the new iterate
        e1, e2, rho = _moments(grid, lap, kappa, phi_t, vphi_t)
        if not np.isfinite(rho) or rho == 0 or e1 <= 0 or e2 <= 0:
            raise ConvergenceError(f"balance moments degenerated at step {it}")
        phi = (np.sqrt(e1 * e2) / rho) * phi_t
        vphi = (e1 / rho) * vphi_t

        residual = _max_norm(_residuals(lap, kappa, phi, vphi))
        history.append(residual)
        if residual < tol:
            return phi, vphi, residual, it, tuple(history)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residual:.3e})"
    )


def petviashvili_normalization(pair: FieldPair) -> float:
    """S = (<L1 phi, phi> + <L2 vphi, vphi>) / (2 int vphi phi^2).

    A diagnostic of the Nehari identities, which the balanced sweep enforces
    without computing S: it equals 1 at any exact solution of the stationary
    system.  Evaluated with the solver's internal discretization.
    """
    grid = pair.grid
    if not isinstance(grid, RadialGrid):
        raise TypeError("normalization diagnostic is defined on the radial grid")
    phi, vphi = np.real(pair.u.values), np.real(pair.v.values)
    e1, e2, rho = _moments(grid, partial(_lap4_apply, grid), pair.kappa, phi, vphi)
    return (e1 + e2) / (2.0 * rho)


def _populate(
    pair: FieldPair, residual: float, floor: float, iterations: int, history: tuple[float, ...]
) -> GroundState:
    m = fields.mass(pair)
    h = fields.kinetic(pair)
    r = fields.potential(pair)
    e = h - r
    c_gn = 4.0 * 5.0 ** (-1.25) * m ** (-0.5)
    return GroundState(
        pair=pair,
        residual_norm=residual,
        residual_floor=floor,
        iterations=iterations,
        residual_history=history,
        ratios=(1.0, h / m, r / m),
        mass=m,
        kinetic=h,
        potential=r,
        energy=e,
        gn_constant=c_gn,
        threshold_me=m * e,
        threshold_mh=m * h,
    )


def petviashvili_solve(
    grid: RadialGrid, kappa: float = 0.5, tol: float = 1e-10, max_iter: int = 500
) -> GroundState:
    """Radial ground state: balanced sweeps, then a Newton finish.

    Starts from phi = vphi = INITIAL_AMPLITUDE * exp(-r^2), runs the balanced
    iteration with the solver's fourth-order radial operators down to
    ``NEWTON_SWITCH`` (or ``tol``, if looser) and then takes Newton steps
    until the residual is below ``tol``; see the module docstring.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    r = grid.nodes()
    guess = INITIAL_AMPLITUDE * np.exp(-(r**2))
    l4 = _lap4_band(grid)
    lap = partial(_lap4_apply, grid)

    def inverse(alpha, beta):
        band = -beta * l4
        band[2] += alpha
        return partial(solve_banded, (2, 2), band, check_finite=False)

    phi, vphi, residual, it, history = _balanced_iteration(
        grid, lap, inverse(1.0, 1.0), inverse(2.0, kappa), kappa, guess, guess.copy(),
        max(tol, NEWTON_SWITCH), max_iter,
    )
    history = list(history)
    res = _residuals(lap, kappa, phi, vphi)
    while residual >= tol:
        if it == max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations (residual {residual:.3e})"
            )
        jac = _newton_band(l4, kappa, phi, vphi)
        step = solve_banded((4, 4), jac, _interleave(*res), check_finite=False)
        it += 1
        phi_n, vphi_n = phi - step[0::2], vphi - step[1::2]
        res = _residuals(lap, kappa, phi_n, vphi_n)
        residual_n = _max_norm(res)
        history.append(residual_n)
        if not residual_n < residual:
            raise ConvergenceError(
                f"Newton step {it} did not reduce the residual ({residual_n:.3e}); "
                f"smallest residual {residual:.3e} against a round-off floor of "
                f"about {_residual_floor(jac, phi, vphi):.1e}"
            )
        phi, vphi, residual = phi_n, vphi_n, residual_n
    if float(np.min(phi)) < -1e-10 or float(np.min(vphi)) < -1e-10:
        raise ConvergenceError("converged to a sign-changing profile")
    floor = _residual_floor(_newton_band(l4, kappa, phi, vphi), phi, vphi)
    pair = pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
    return _populate(pair, residual, floor, it, tuple(history))


def _dense_radial_laplacian(grid: RadialGrid) -> np.ndarray:
    """Dense second-order radial Laplacian, assembled independently.

    No code shared with the fourth-order banded path used by
    :func:`petviashvili_solve`.
    """
    m = grid.m
    r = grid.nodes()
    dr = grid.dr
    mat = np.zeros((m, m))
    for j in range(m):
        c_dn = 1.0 / dr**2 - 2.0 / (r[j] * dr)
        c_md = -2.0 / dr**2
        c_up = 1.0 / dr**2 + 2.0 / (r[j] * dr)
        if j > 0:
            mat[j, j - 1] += c_dn
        else:
            mat[j, j] += c_dn          # even reflection at r = 0
        mat[j, j] += c_md
        if j < m - 1:
            mat[j, j + 1] += c_up
        else:
            mat[j, j] -= c_up          # Dirichlet ghost at r_max
    return mat


def oracle_coarse_solve(
    m: int = 512, r_max: float = 16.0, kappa: float = 0.5, tol: float = 1e-9
) -> GroundState:
    """Independent coarse verification solver.

    Picard iteration, damped by one half, on the integral form
    phi = L1^{-1}(phi vphi), vphi = L2^{-1}(phi^2), with the pair rescaled
    after every sweep so that int phi^2 is held at its running value.  The held-mass fixed point is a
    common rescaling (c phi*, c vphi*) of the true solution, so the measured
    scale c recovers it; the final profile is checked directly against the
    stationary equations.  Dense second-order linear algebra throughout.
    """
    if m > 512:
        raise ValueError("the oracle is a coarse solver; use m <= 512")
    grid = RadialGrid(m, r_max)
    r = grid.nodes()
    lap = _dense_radial_laplacian(grid)
    eye = np.eye(m)
    inv_l1 = np.linalg.inv(eye - lap)
    inv_l2 = np.linalg.inv(2.0 * eye - kappa * lap)

    phi = INITIAL_AMPLITUDE * np.exp(-(r**2))
    vphi = phi.copy()
    held = float(grid.integrate(phi**2))

    c = 1.0
    for it in range(1, 6001):
        phi_t = inv_l1 @ (phi * vphi)
        vphi_t = inv_l2 @ (phi**2)
        raw = float(grid.integrate(phi_t**2))
        if not np.isfinite(raw) or raw <= 0:
            raise ConvergenceError(f"oracle iterate degenerated at step {it}")
        c = np.sqrt(held / raw)
        phi_n = 0.5 * phi + 0.5 * c * phi_t
        vphi_n = 0.5 * vphi + 0.5 * c * vphi_t
        delta = max(
            float(np.max(np.abs(phi_n - phi))), float(np.max(np.abs(vphi_n - vphi)))
        )
        phi, vphi = phi_n, vphi_n
        if delta < tol:
            break
    else:
        raise ConvergenceError("oracle did not converge in 6000 sweeps")

    # undo the held-mass normalization: (c phi, c vphi) solves the system
    phi = c * phi
    vphi = c * vphi
    res1 = phi - lap @ phi - phi * vphi
    res2 = 2.0 * vphi - kappa * (lap @ vphi) - phi**2
    residual = max(float(np.max(np.abs(res1))), float(np.max(np.abs(res2))))
    pair = pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
    return _populate(pair, residual, np.nan, it, (residual,))


def sharp_gn_constant(gs: GroundState) -> float:
    """C_GN = 4 * 5^(-5/4) * M_gs^(-1/2), cross-checked against J(Q)^(-1/2)."""
    c_formula = gs.gn_constant
    c_direct = fields.gn_functional(gs.pair) ** (-0.5)
    rel = abs(c_formula - c_direct) / c_formula
    if rel > 1e-2:
        raise ConvergenceError(
            f"C_GN formula and J(Q)^(-1/2) disagree by {rel:.2e}; state not converged"
        )
    return c_formula


def solve_periodic_profile(
    grid: UniformGrid, kappa: float = 0.5, tol: float = 1e-12, max_iter: int = 2000
) -> FieldPair:
    """Torus analog of the ground-state solve for dynamics experiments.

    Same balanced iteration as :func:`petviashvili_solve`,
    but on a periodic box in d <= 3 where L1 and L2 invert diagonally in
    Fourier space, so the converged pair is a stationary state of the
    semi-discrete flow to the requested residual.  The exact evolution of
    the returned data is (e^{it} phi, e^{2it} vphi).  The initial guess is
    INITIAL_AMPLITUDE * exp(-|x - c|^2 / 2) about the box centre c.
    """
    k2 = grid.k2()

    def multiplier(mult):
        return lambda f: np.real(grid.ifft(mult * grid.fft(f)))

    center = grid.L / 2.0
    rho2 = sum((c - center) ** 2 for c in grid.coords())
    guess = INITIAL_AMPLITUDE * np.exp(-rho2 / 2.0)
    phi, vphi, _, _, _ = _balanced_iteration(
        grid, multiplier(-k2), multiplier(1.0 / (1.0 + k2)),
        multiplier(1.0 / (2.0 + kappa * k2)), kappa, guess, guess.copy(), tol, max_iter,
    )
    return pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
