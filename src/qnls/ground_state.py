"""Ground state of the stationary system.

Solves  phi - Lap phi = phi * vphi,   2 vphi - kappa Lap vphi = phi^2
radially in R^5 by balanced fixed-point sweeps and a Newton finish.  The
result derives its constants from the profile when read: the ground-state
mass M_gs, the sharp Gagliardo-Nirenberg constant
C_GN = 4 * 5^(-5/4) * M_gs^(-1/2), and the threshold products M(Q)E(Q),
M(Q)H(Q).  The exact proportions M : H : R = 1 : 5 : 4 are the primary
correctness oracle.

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
of ``radial_ghosts``, assembled once per solve as a (5, m) band read off
those stencils and folds, for the factorizations and the Newton Jacobian;
residuals apply the stencil, which rounds better (see ``_lap4_apply``).
L1 and L2 are factored once per solve, one back-substitution per sweep: LAPACK
``gbtrf`` once, then ``gbtrs``, the two halves of the ``gbsv`` that
``scipy.linalg.solve_banded`` would run on every call, so the bits are
the same.  ``dgbtrf`` and ``dgbtrs`` come from scipy's compiled
``_flapack``, loaded by file with ``grid._scipy_extension``: they are the
objects ``scipy.linalg.lapack`` re-exports, without the 0.3 s of CPU that
importing ``scipy.linalg`` adds to every process's start-up.  When the
file cannot be loaded they come from ``scipy.linalg.lapack`` itself.
The package's only second-order radial operator is the tridiagonal one
of the independent oracle below, factored by LAPACK's ``dgttrf`` and
``dgttrs`` from the same module.

Both stationary solvers run one loop, ``_stationary_solve``.  The
balanced sweep contracts only linearly, by about 0.85 per sweep at
m = 2048, so when the caller hands the loop a Jacobian, as
:func:`petviashvili_solve` does, the loop sweeps only until the iterate is
inside Newton's basin, down to the residual ``NEWTON_SWITCH`` = 30, and
finishes with Newton steps on the full system (J. Yang, J. Comput.
Phys. 228 (2009) 7007); the torus Jacobian of
:func:`solve_periodic_profile` is not banded, so that solve only sweeps.
Newton from the Gaussian guess itself converges to phi = vphi = 0.  The
basin was mapped by running k sweeps and then Newton steps under the
floor rule below (every step must lower the residual); the first k from
which Newton reaches Q, with the residual after k sweeps at m = 2048,
r_max = 30:

    kappa       0.25   0.5   1    2     4
    k           11     8     4    1     1
    residual    113    81    78   144   258

k is the same for m from 64 to 4096 and r_max from 10 to 40 (the
residuals move by a few percent), and no larger k up to 30 failed, so the
switch at 30 sits at least 2.5 times inside the basin.  A much higher
switch would leave it: the first sweep residuals are not monotone (103,
89, 102, 95, 96 at kappa = 0.5), and at kappa = 0.25 the second sweep
already reads 97, nine sweeps before the basin.  At m = 2048,
r_max = 30, kappa = 0.5 the solve takes 17 sweeps and 4 Newton steps,
against 47 and 2 with a switch at 0.3.
With (phi_j, vphi_j) interleaved per node the Jacobian

    [[1 - L4 - diag vphi, -diag phi], [-2 diag phi, 2 - kappa L4]]

is a (4, 4) band, so a step is one O(m) banded solve: each Newton step
factors its Jacobian once.  Sweeps and Newton steps share one history and
one budget: ``iterations`` and ``residual_history`` count them together,
and ``max_iter`` bounds their sum.  The solve returns once the max-norm
residual of the fourth-order system falls below ``tol`` and raises
:class:`ConvergenceError` at the first Newton step that does not reduce
it: that is the float64 floor.
``GroundState.residual_floor`` estimates the floor as
eps * max_i sum_j |J_ij| |x_j|; the 4/r term at the first node makes it
grow like 1/dr^2 (about 5e-10 at m = 2048, r_max = 30).
The residuals reached sit below that bound, and whether one also falls
below tol = 1e-10 is a matter of rounding: at m = 2048, r_max = 30 the
solve reaches it for kappa = 0.25, 0.5 and 1 (9.9e-11, 6.2e-11, 6.0e-11)
but stalls at 1.2e-10 for kappa = 2, and at kappa = 0.5 m = 3072 and
4096 stall at 1.7e-10 and 3.5e-10.

A deliberately independent coarse solver (second-order tridiagonal
operators in O(m) memory, damped held-mass Picard) cross-checks M_gs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fields
from .fields import FieldPair, pair_from_arrays
from .grid import RadialGrid, UniformGrid, _centred_d1, _centred_d2, _scipy_extension, radial_ghosts

# LAPACK's banded and tridiagonal LU and their back-substitutions (solver notes above)
_lapack = _scipy_extension("scipy.linalg._flapack")
if _lapack is None:
    from scipy.linalg import lapack as _lapack

#: amplitude a of the Gaussian initial guess of every stationary solve
INITIAL_AMPLITUDE = 3.0

#: max-norm residual below which the stationary loop of
#: :func:`petviashvili_solve` takes Newton steps instead of balanced
#: sweeps: at least 2.5 times inside the basin from which every Newton
#: step lowers the residual (residuals 78-258 for kappa 0.25-4, solver
#: notes above)
NEWTON_SWITCH = 30.0


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested residual."""


@dataclass(frozen=True)
class GroundState:
    """Converged profile pair with the residuals its solve measured.

    Every constant of the ground state is a functional of ``pair`` and is
    derived from it when read: M, H and R once each, the rest from them.
    """

    pair: FieldPair
    residual_norm: float
    residual_floor: float                # round-off floor of the residual; NaN if not estimated
    iterations: int                      # sweeps plus Newton steps
    residual_history: tuple[float, ...]

    @property
    def grid(self):
        return self.pair.grid

    @property
    def phi(self) -> np.ndarray:
        return np.real(self.pair.u.values)

    @property
    def vphi(self) -> np.ndarray:
        return np.real(self.pair.v.values)

    @cached_property
    def mass(self) -> float:
        """M_gs."""
        return fields.mass(self.pair)

    @cached_property
    def kinetic(self) -> float:
        return fields.kinetic(self.pair)

    @cached_property
    def potential(self) -> float:
        return fields.potential(self.pair)

    @property
    def energy(self) -> float:
        return self.kinetic - self.potential

    @property
    def ratios(self) -> tuple[float, float, float]:
        """(1, H/M, R/M); exactly (1, 5, 4) in theory."""
        return (1.0, self.kinetic / self.mass, self.potential / self.mass)

    @property
    def gn_constant(self) -> float:
        """C_GN = 4 * 5^(-5/4) * M_gs^(-1/2)."""
        return 4.0 * 5.0 ** (-1.25) * self.mass ** (-0.5)

    @property
    def threshold_me(self) -> float:
        """M(Q) E(Q)."""
        return self.mass * self.energy

    @property
    def threshold_mh(self) -> float:
        """M(Q) H(Q)."""
        return self.mass * self.kinetic


def _lap4_apply(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """Fourth-order radial Laplacian d^2/dr^2 + (4/r) d/dr (solver-internal).

    Residuals and moments use this, not :func:`_lap4_band`, whose premultiplied
    coefficients round worse near the floor: with the band's matvec the solve
    at m = 2048, r_max = 30, tol 1e-10 stalls at 1.31e-10 (kappa = 0.25) and
    1.43e-10 (kappa = 1), which reach 9.9e-11 and 6.0e-11 here.  The band
    serves only the factorizations and the Newton Jacobian.
    """
    g = radial_ghosts(f)
    return _centred_d2(g, grid.dr) + (4.0 / grid.nodes()) * _centred_d1(g, grid.dr)


def _lap4_band(grid: RadialGrid) -> np.ndarray:
    """:func:`_lap4_apply` as a (5, m) band in ``solve_banded`` storage.

    ``band[2 + i - j, j]`` is the coefficient of f_j in row i.  The weights
    are ``_centred_d2`` and ``_centred_d1`` read off the unit vectors, and
    each padded node of :func:`radial_ghosts` goes, with its sign, to the
    node it mirrors.  For m >= 4 no entry sums more than two terms, so the
    fold order cannot change a bit.
    """
    m = grid.m
    d2, d1 = _centred_d2(np.eye(5), grid.dr)[:, 0], _centred_d1(np.eye(5), grid.dr)[:, 0]
    c = d2[:, None] + d1[:, None] * (4.0 / grid.nodes())   # c[k + 2, i]: f_{i+k} in row i
    i = np.arange(m)
    j = np.abs(sliding_window_view(radial_ghosts(i), m))    # [k + 2, i]: the node f_{i+k} is read from
    sign = sliding_window_view(radial_ghosts(np.ones(m)), m)
    return np.bincount(((2 + i - j) * m + j).ravel(), (sign * c).ravel(), 5 * m).reshape(5, m)


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


def _banded_solver(band: np.ndarray, l: int):
    """Factor a square band once; return the solve x = A^{-1} b it supports.

    ``band`` holds A in ``solve_banded`` storage with ``l`` diagonals on each
    side.  ``dgbtrf`` LU-factors it in the (3l + 1, n) layout that
    ``solve_banded`` builds (l extra rows for the fill-in of row pivoting)
    and the returned closure back-substitutes with ``dgbtrs``.  LAPACK's
    ``gbsv`` behind ``solve_banded`` is these same two calls, so every
    solve gives its bits without refactoring A.
    """
    ab = np.zeros((3 * l + 1, band.shape[1]), order="F")
    ab[l:] = band
    lu, piv, info = _lapack.dgbtrf(ab, l, l, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return _lapack.dgbtrs(lu, l, l, rhs, piv)[0]

    return solve


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


def _balanced_sweep(grid, lap, inv1, inv2, kappa, phi, vphi):
    """One balanced sweep from (phi, vphi); returns the new (phi, vphi).

    ``lap`` applies the Laplacian, ``inv1`` and ``inv2`` apply L1^{-1} and
    L2^{-1}.  The plain update phi~ = L1^{-1}(phi vphi), vphi~ = L2^{-1}(phi^2)
    is followed by the moment balance of the module docstring, which pins
    both Nehari identities and makes the result independent of the scale
    of (phi~, vphi~).
    """
    phi_t = inv1(phi * vphi)
    vphi_t = inv2(phi**2)
    e1, e2, rho = _moments(grid, lap, kappa, phi_t, vphi_t)
    if not np.isfinite(rho) or rho == 0 or e1 <= 0 or e2 <= 0:
        raise ConvergenceError("balance moments degenerated")
    return (np.sqrt(e1 * e2) / rho) * phi_t, (e1 / rho) * vphi_t


def _stationary_solve(grid, lap, inv1, inv2, kappa, guess, tol, max_iter, jacobian=None):
    """The iteration of both stationary solvers; returns (phi, vphi, residual history).

    Starts from phi = vphi = ``guess`` and takes a balanced sweep
    (:func:`_balanced_sweep`) while there is no ``jacobian`` or the
    residual is at least ``NEWTON_SWITCH``, otherwise a Newton step with
    the band ``jacobian(phi, vphi)``, which must lower the residual.
    Sweeps and steps share one history and one budget: the solve stops
    once both equation residuals drop below ``tol`` in max-norm and raises
    :class:`ConvergenceError` when ``max_iter`` iterations did not get there.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    phi = vphi = guess
    residual, history = np.inf, []
    while not residual < tol:
        if len(history) >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations (residual {residual:.3e})"
            )
        if jacobian is None or not residual < NEWTON_SWITCH:
            phi, vphi = _balanced_sweep(grid, lap, inv1, inv2, kappa, phi, vphi)
            res = _residuals(lap, kappa, phi, vphi)
            residual = _max_norm(res)
        else:
            jac = jacobian(phi, vphi)
            step = _banded_solver(jac, jac.shape[0] // 2)(_interleave(*res))
            phi_n, vphi_n = phi - step[0::2], vphi - step[1::2]
            res = _residuals(lap, kappa, phi_n, vphi_n)
            residual_n = _max_norm(res)
            if not residual_n < residual:
                raise ConvergenceError(
                    f"Newton step {len(history) + 1} did not reduce the residual "
                    f"({residual_n:.3e}); smallest residual {residual:.3e} against a "
                    f"round-off floor of about {_residual_floor(jac, phi, vphi):.1e}"
                )
            phi, vphi, residual = phi_n, vphi_n, residual_n
        history.append(residual)
    return phi, vphi, history


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


def petviashvili_solve(
    grid: RadialGrid, kappa: float = 0.5, tol: float = 1e-10, max_iter: int = 500
) -> GroundState:
    """Radial ground state: balanced sweeps, then a Newton finish.

    Starts from phi = vphi = INITIAL_AMPLITUDE * exp(-r^2) and runs
    :func:`_stationary_solve` with the solver's fourth-order radial
    operators and the Newton Jacobian: sweeps down to ``NEWTON_SWITCH`` = 30,
    at least 2.5 times inside Newton's measured basin (residuals 78-258 for
    kappa from 0.25 to 4), then Newton steps until the residual is below
    ``tol``; see the module docstring for the basin table.
    """
    l4 = _lap4_band(grid)
    lap = partial(_lap4_apply, grid)

    def inverse(alpha, beta):
        band = -beta * l4
        band[2] += alpha
        return _banded_solver(band, 2)

    guess = INITIAL_AMPLITUDE * np.exp(-(grid.nodes() ** 2))
    phi, vphi, history = _stationary_solve(
        grid, lap, inverse(1.0, 1.0), inverse(2.0, kappa), kappa, guess, tol, max_iter,
        partial(_newton_band, l4, kappa),
    )
    if float(np.min(phi)) < -1e-10 or float(np.min(vphi)) < -1e-10:
        raise ConvergenceError("converged to a sign-changing profile")
    floor = _residual_floor(_newton_band(l4, kappa, phi, vphi), phi, vphi)
    pair = pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
    return GroundState(pair, history[-1], floor, len(history), tuple(history))


def _oracle_operators(grid: RadialGrid, kappa: float):
    """The oracle's second-order radial Laplacian, L1 = 1 - lap and L2 = 2 - kappa lap.

    Each is a (lower, main, upper) triple of diagonals.  Row j of lap reads
    c_dn f_{j-1} + c_md f_j + c_up f_{j+1}; the even reflection at r = 0
    folds c_dn into the first main entry and the Dirichlet ghost at r_max
    folds -c_up into the last.  Assembled independently: no code shared
    with the fourth-order path of :func:`petviashvili_solve`.
    """
    r = grid.nodes()
    dr = grid.dr
    c_dn = 1.0 / dr**2 - 2.0 / (r * dr)
    c_md = -2.0 / dr**2
    c_up = 1.0 / dr**2 + 2.0 / (r * dr)
    main = np.full(grid.m, c_md)
    main[0] = c_dn[0] + c_md          # even reflection at r = 0
    main[-1] = c_md - c_up[-1]        # Dirichlet ghost at r_max
    lower, upper = c_dn[1:], c_up[:-1]
    l1 = (-lower, 1.0 - main, -upper)
    l2 = (-kappa * lower, 2.0 - kappa * main, -kappa * upper)
    return (lower, main, upper), l1, l2


def _tridiagonal_solver(lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
    """Factor a tridiagonal matrix once with ``dgttrf``; return x = A^{-1} b by ``dgttrs``."""
    dl, d, du, du2, ipiv, info = _lapack.dgttrf(lower, main, upper)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda rhs: _lapack.dgttrs(dl, d, du, du2, ipiv, rhs)[0]


def _tridiagonal_matvec(lower: np.ndarray, main: np.ndarray, upper: np.ndarray, x: np.ndarray):
    """A @ x for the tridiagonal A with the given diagonals."""
    y = main * x
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    return y


def oracle_coarse_solve(
    m: int = 512, r_max: float = 16.0, kappa: float = 0.5, tol: float = 1e-9
) -> GroundState:
    """Independent coarse verification solver.

    Picard iteration, damped by one half, on the integral form
    phi = L1^{-1}(phi vphi), vphi = L2^{-1}(phi^2), with the pair rescaled
    after every sweep so that int phi^2 is held at its running value.  The held-mass fixed point is a
    common rescaling (c phi*, c vphi*) of the true solution, so the measured
    scale c recovers it; the final profile is checked directly against the
    stationary equations.  Second-order tridiagonal operators
    (:func:`_oracle_operators`): L1 and L2 are LU-factored once by LAPACK
    ``gttrf`` and each sweep is one ``gttrs`` pair, so the solve costs O(m)
    memory and O(m) work per sweep.
    """
    if m > 512:
        raise ValueError("the oracle is a coarse solver; use m <= 512")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    grid = RadialGrid(m, r_max)
    r = grid.nodes()
    lap, l1, l2 = _oracle_operators(grid, kappa)
    inv_l1, inv_l2 = _tridiagonal_solver(*l1), _tridiagonal_solver(*l2)

    phi = INITIAL_AMPLITUDE * np.exp(-(r**2))
    vphi = phi.copy()
    held = float(grid.integrate(phi**2))

    c = 1.0
    for it in range(1, 6001):
        phi_t = inv_l1(phi * vphi)
        vphi_t = inv_l2(phi**2)
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
    res1 = phi - _tridiagonal_matvec(*lap, phi) - phi * vphi
    res2 = 2.0 * vphi - kappa * _tridiagonal_matvec(*lap, vphi) - phi**2
    residual = max(float(np.max(np.abs(res1))), float(np.max(np.abs(res2))))
    pair = pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
    return GroundState(pair, residual, np.nan, it, (residual,))


def solve_periodic_profile(
    grid: UniformGrid, kappa: float = 0.5, tol: float = 1e-12, max_iter: int = 2000
) -> FieldPair:
    """Torus analog of the ground-state solve for dynamics experiments.

    The loop of :func:`petviashvili_solve`, with balanced sweeps only (the
    torus Jacobian is not banded), on a periodic box in d <= 3 where L1 and
    L2 invert diagonally in Fourier space, so the converged pair is a
    stationary state of the semi-discrete flow to the requested residual.  The exact evolution of
    the returned data is (e^{it} phi, e^{2it} vphi).  The initial guess is
    INITIAL_AMPLITUDE * exp(-|x - c|^2 / 2) about the box centre c.
    """
    k2 = grid.k2()

    def multiplier(mult):
        return lambda f: np.real(grid.ifft(mult * grid.fft(f)))

    center = grid.L / 2.0
    rho2 = sum((c - center) ** 2 for c in grid.coords())
    guess = INITIAL_AMPLITUDE * np.exp(-rho2 / 2.0)
    phi, vphi, _ = _stationary_solve(
        grid, lambda f: np.real(grid.laplacian(f)), multiplier(1.0 / (1.0 + k2)),
        multiplier(1.0 / (2.0 + kappa * k2)), kappa, guess, tol, max_iter,
    )
    return pair_from_arrays(grid, phi.astype(complex), vphi.astype(complex), kappa)
