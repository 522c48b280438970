"""Time integration of the coupled system.

    i u_t + Lap u + v conj(u) = 0,
    i v_t + kappa Lap v + u^2  = 0,

by Strang splitting: exact spectral propagation of the linear part
(multipliers e^{-i |k|^2 dt}, e^{-i kappa |k|^2 dt}; the sign convention
is fixed by  i u_t + Lap u = 0  =>  uhat(t) = e^{-i |k|^2 t} uhat(0))
composed with a pointwise quadratic substep ODE

    u_t = i v conj(u),   v_t = i u^2,

integrated by classical RK4.  The substep flow conserves |u|^2 + |v|^2
pointwise, which gives a per-step accuracy monitor; substeps are refined
until the monitored drift is below tolerance.

One stepper, :class:`SplitStepper`, runs the flow for every caller
(:func:`strang_step`, :func:`evolve` and the interaction accumulator in
``morawetz``).  It holds (u, v) stacked as one ``(2, *shape)`` array, so
every transform and every RK4 operation takes both fields at once.
Adjacent linear half-steps compose exactly, L(dt/2) L(dt/2) = L(dt), so
between two steps that nobody observes the trailing half-step of the
first and the leading half-step of the second are applied as one
multiplier: an unobserved step is one forward and one inverse transform
around the substep.  The stepper un-fuses only when a caller asks for the
state (``sync``): ``evolve`` at its diagnostics rows, the accumulator at
its time samples.  Un-fusing costs one inverse transform of both L(dt/2)
and L(dt) applied to the spectrum of the post-substep state, which gives
the state now and the next step's pre-substep state.  That spectrum is
one forward transform, taken once and kept for whichever of the next
step and ``sync`` comes first, and both multiply it out of place in the
same operand order, so observing does not change the trajectory at any
grid size.

Between rows ``evolve`` still checks the resolution bound max |u|, |v| <=
``RESOLUTION_FACTOR / h``, but without un-fusing.  With the orthonormal
transform and |e^{-i |k|^2 s}| = 1, every sample of the synchronised state
has modulus at most B = max over the two fields of sum_k |w_k| / sqrt(N),
w the kept spectrum and N the number of grid points.  A step whose
B (1 + ``MODULUS_MARGIN``) is within the bound cannot trip it; any other
step is un-fused and checked exactly, so ``evolve`` makes the same
decisions, and records the same rows, as a check after every step would.

The per-step path works on arrays only.  Each stepper allocates, once,
the scratch of the array-level substep ``_substep``: the four RK4 stages,
one stage argument and two real arrays for the density monitor.  RK4 then
runs there with in-place ufuncs in the operation order of the
out-of-place formula, so its results are the same bits; the public
:func:`nonlinear_step` is a thin wrapper over the same substep.  Arrays
handed out by ``sync`` or ``pair`` are never written again: every step
returns its state in a new array, because ``evolve`` keeps snapshots and
callers keep what they were given.

Blow-up and substep failure are flagged outcomes, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields as fields_mod
from .fields import FieldPair, lp_norm, pair_lp_norm
from .grid import Field, UniformGrid

RESOLUTION_FACTOR = 1.0   # evolve flags blow-up once max |u|, |v| exceeds this / h
# relative slack on the l1 modulus bound for the rounding of the transforms
MODULUS_MARGIN = 1e-9


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of a single run.  The coupling lives on the FieldPair."""

    dt: float
    t_final: float
    cadence: int = 10                  # steps between diagnostics rows
    substep_tol: float = 1e-10         # pointwise |u|^2+|v|^2 drift per step
    blowup_growth: float = 100.0       # flag when H exceeds this multiple of H(0)
    store_fields: bool = False         # keep snapshots at cadence

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.cadence < 1:
            raise ValueError("cadence must be at least 1")
        _whole_steps(self.t_final, self.dt)


def _whole_steps(t: float, dt: float) -> int:
    """Number of steps dt in the span t; rejects spans that are not whole."""
    ratio = t / dt
    if not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * abs(ratio):
        raise ValueError(f"{t} is not a whole number of steps dt = {dt}")
    return int(round(ratio))


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    kinetic: float
    potential: float
    energy: float
    momentum: np.ndarray
    l3_u: float
    l3_pair: float
    max_modulus: float


@dataclass
class TimeSeries:
    """Diagnostics rows at cadence, plus optional field snapshots."""

    records: list[DiagnosticsRecord] = field(default_factory=list)
    snapshots: list[tuple[float, FieldPair]] = field(default_factory=list)
    outcome: str = "completed"       # or "blow-up", "substep-failure"

    @property
    def blown_up(self) -> bool:
        return self.outcome == "blow-up"

    @property
    def blow_up_time(self) -> float | None:
        return self.records[-1].t if self.blown_up else None

    def times(self) -> np.ndarray:
        return np.array([rec.t for rec in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])


class SubstepFailure(RuntimeError):
    """The pointwise substep missed its tolerance at the refinement limit."""


def _free_multiplier(grid: UniformGrid, kappa: float, t: float) -> np.ndarray:
    """Free flow over t for the stacked pair: e^{-i |k|^2 t} over e^{-i kappa |k|^2 t}."""
    coupling = np.array([1.0, kappa]).reshape((2,) + (1,) * grid.d)
    return np.exp(-1j * t * coupling * grid.k2())


def _stacked(p: FieldPair) -> np.ndarray:
    return np.array((p.u.values, p.v.values), dtype=complex)


def linear_step(p: FieldPair, dt: float) -> FieldPair:
    """Exact free flow: uhat *= e^{-i|k|^2 dt}, vhat *= e^{-i kappa |k|^2 dt}."""
    grid = p.grid
    if not isinstance(grid, UniformGrid):
        raise TypeError("time stepping is defined on uniform grids")
    w = grid.ifft(_free_multiplier(grid, p.kappa, dt) * grid.fft(_stacked(p)))
    return p.with_values(w[0], w[1])


def _substep_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Scratch for :func:`_substep` on a stacked pair of ``shape``.

    The four RK4 stages, one stage argument, |w|^2 per field and the
    initial density |u|^2 + |v|^2.
    """
    stages = tuple(np.empty(shape, dtype=complex) for _ in range(5))
    return stages + (np.empty(shape), np.empty(shape[1:]))


# data far past the substep's reach overflows on its way to the refinement
# limit: the outcome is then the labelled SubstepFailure, not a warning (the
# decorator costs about half of what a with block built per call does)
@np.errstate(over="ignore", invalid="ignore")
def _substep(w0: np.ndarray, dt: float, tol: float, buffers: tuple) -> np.ndarray:
    """RK4 of u_t = i v conj(u), v_t = i u^2 over dt on the stacked pair ``w0``.

    Substeps are refined until the exactly-conserved pointwise density
    |u|^2 + |v|^2 drifts less than ``tol`` (relative to its own scale) over
    the step; raises :class:`SubstepFailure` past 1024 substeps.  Every
    stage runs in ``buffers`` (from :func:`_substep_buffers`); ``w0`` is
    only read, and the result is a new array.
    """
    k1, k2, k3, k4, arg, sq, inv0 = buffers
    np.square(np.abs(w0, out=sq), out=sq)
    np.add(sq[0], sq[1], out=inv0)
    scale = max(float(inv0.max()), 1e-300)
    w = np.empty_like(w0)
    nsub = 1
    while True:
        h = dt / nsub
        prev = w0
        for _ in range(nsub):
            x = prev
            for k, c in ((k1, 0.5j * h), (k2, 0.5j * h), (k3, 1j * h), (k4, None)):
                # k = (v conj(u), u^2) at x: the right-hand side without its factor i
                np.conjugate(x[0], out=k[0])
                np.multiply(x[1], k[0], out=k[0])
                np.multiply(x[0], x[0], out=k[1])
                if c is not None:
                    x = np.add(prev, np.multiply(c, k, out=arg), out=arg)
            # w = prev + (i h / 6) (k1 + 2 (k2 + k3) + k4)
            np.multiply(2.0, np.add(k2, k3, out=k2), out=k2)
            np.add(np.add(k1, k2, out=k1), k4, out=k1)
            np.add(prev, np.multiply(1j * h / 6.0, k1, out=k1), out=w)
            prev = w
        np.square(np.abs(w, out=sq), out=sq)
        dens = np.add(sq[0], sq[1], out=sq[0])
        drift = float(np.abs(np.subtract(dens, inv0, out=dens), out=dens).max()) / scale
        if drift < tol:
            return w
        nsub *= 2
        if nsub > 1024:
            raise SubstepFailure(
                f"substep refinement limit reached (pointwise drift {drift:.3e})"
            )


def nonlinear_step(p: FieldPair, dt: float, tol: float = 1e-10) -> FieldPair:
    """Pointwise substep ODE u_t = i v conj(u), v_t = i u^2 over dt.

    RK4 on the stacked pair with substep refinement until the
    exactly-conserved pointwise density |u|^2 + |v|^2 drifts less than
    ``tol`` (relative to its own scale) over the step; raises
    :class:`SubstepFailure` past 1024 substeps.
    """
    w0 = _stacked(p)
    w = _substep(w0, dt, tol, _substep_buffers(w0.shape))
    return p.with_values(w[0], w[1])


class SplitStepper:
    """Strang flow L(dt/2) N(dt) L(dt/2) of one pair, with fused half-steps.

    L is the exact free flow and N the pointwise substep (``_substep``,
    the array-level core of :func:`nonlinear_step`).  After a step the
    stepper keeps the post-substep state with its trailing half-step
    pending; the next step applies it together with its own leading
    half-step as L(dt).  ``_ahead``, the next step's pre-substep state, is
    None exactly when ``_state`` is post-substep: the constructor computes
    the first one, L(dt/2) of the initial state, and :meth:`sync` the later
    ones together with the state itself.  The forward transform of the
    post-substep state is taken once and kept: the next step, :meth:`sync`
    or :meth:`_modulus_bound`, whichever asks first, computes it, and the
    others reuse it.  :meth:`sync` un-fuses (see the module docstring).
    """

    def __init__(self, p0: FieldPair, dt: float, tol: float = 1e-10) -> None:
        grid = p0.grid
        if not isinstance(grid, UniformGrid):
            raise TypeError("time stepping is defined on uniform grids")
        self.grid = grid
        self.dt = dt
        self.tol = tol
        self.steps = 0
        self._p0 = p0
        # L(dt/2) and L(dt), stacked so that sync applies both in one product
        self._free = np.array([_free_multiplier(grid, p0.kappa, t) for t in (0.5 * dt, dt)])
        self._state = _stacked(p0)
        self._buffers = _substep_buffers(self._state.shape)
        self._hat = None          # the forward transform of _state, once taken
        self._ahead = grid.ifft(self._free[0] * self._spectrum())

    def _spectrum(self) -> np.ndarray:
        if self._hat is None:
            self._hat = self.grid.fft(self._state)
        return self._hat

    def _modulus_bound(self) -> float:
        """B = max over both fields of sum_k |w_k| / sqrt(N), w the spectrum of the state.

        Through the orthonormal transform every sample of ifft(m w) with
        |m_k| = 1 has modulus at most B, so B bounds max |u|, |v| of the
        state that :meth:`sync` would return, up to ``MODULUS_MARGIN``.
        A non-finite state gives a non-finite B.
        """
        mod = np.abs(self._spectrum(), out=self._buffers[5])   # the substep's |w|^2 scratch
        return max(float(mod[0].sum()), float(mod[1].sum())) / np.sqrt(self.grid.size)

    def step(self) -> None:
        """Advance by dt; raises :class:`SubstepFailure` like the substep."""
        if self._ahead is None:
            # the cached spectrum is a named array, so numpy cannot evaluate
            # the product in place with its operands swapped: the product
            # rounds as sync's does, and observing stays bit-neutral
            self._ahead = self.grid.ifft(self._free[1] * self._spectrum())
        self._state = _substep(self._ahead, self.dt, self.tol, self._buffers)
        self._ahead = None
        self._hat = None
        self.steps += 1

    def sync(self) -> np.ndarray:
        """The stacked (u, v) at time ``steps * dt``; the stepper's own array."""
        if self._ahead is None:
            both = self.grid.ifft(self._free * self._spectrum())
            self._state, self._ahead = both[0], both[1]
            self._hat = None
        return self._state

    def pair(self) -> FieldPair:
        """The synchronised state as a pair."""
        w = self.sync()
        return self._p0.with_values(w[0], w[1])


def strang_step(p: FieldPair, dt: float, tol: float = 1e-10) -> FieldPair:
    """Second-order composition linear(dt/2) o nonlinear(dt) o linear(dt/2)."""
    stepper = SplitStepper(p, dt, tol)
    stepper.step()
    return stepper.pair()


def reference_rk4_step(p: FieldPair, dt: float) -> FieldPair:
    """Method-of-lines RK4 on the full right-hand side (splitting-free oracle)."""
    grid = p.grid
    k2 = grid.k2()
    kappa = p.kappa

    def rhs(u, v):
        lap_u = grid.ifft(-k2 * grid.fft(u))
        lap_v = grid.ifft(-k2 * grid.fft(v))
        return 1j * (lap_u + v * np.conj(u)), 1j * (kappa * lap_v + u * u)

    u, v = p.u.values, p.v.values
    k1u, k1v = rhs(u, v)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
    u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return p.with_values(u, v)


def _record(p: FieldPair, t: float) -> DiagnosticsRecord:
    c = fields_mod.conserved_set(p)
    maxmod = max(
        float(np.max(np.abs(p.u.values))), float(np.max(np.abs(p.v.values)))
    )
    return DiagnosticsRecord(
        t=t,
        mass=c.mass,
        kinetic=c.kinetic,
        potential=c.potential,
        energy=c.energy,
        momentum=c.momentum,
        l3_u=lp_norm(p.u, 3.0),
        l3_pair=pair_lp_norm(p, 3.0),
        max_modulus=maxmod,
    )


def evolve(p0: FieldPair, cfg: EvolutionConfig) -> TimeSeries:
    """Run Strang stepping, recording diagnostics every ``cadence`` steps.

    Terminates early with outcome ``"blow-up"``, recording the row that
    trips it, when the max modulus after any step exceeds
    ``RESOLUTION_FACTOR / h`` (certified between rows by the stepper's
    l1 bound, see the module docstring) or a
    row's kinetic energy exceeds ``blowup_growth`` times H(0); with outcome
    ``"substep-failure"`` when the substep misses its tolerance; NaN
    anywhere aborts with a diagnostic.  Early termination is a labeled
    outcome, not an error.
    """
    grid = p0.grid
    if not isinstance(grid, UniformGrid):
        raise TypeError("evolve requires a uniform grid")
    nsteps = _whole_steps(cfg.t_final, cfg.dt)
    stepper = SplitStepper(p0, cfg.dt, cfg.substep_tol)

    ts = TimeSeries()
    pair = stepper.pair()
    rec0 = _record(pair, 0.0)
    ts.records.append(rec0)
    if cfg.store_fields:
        ts.snapshots.append((0.0, pair))
    h0 = rec0.kinetic
    mod_bound = RESOLUTION_FACTOR / grid.h

    for step in range(1, nsteps + 1):
        try:
            stepper.step()
        except SubstepFailure:
            ts.outcome = "substep-failure"
            break
        row = step % cfg.cadence == 0 or step == nsteps
        # between rows the state stays fused while its spectrum certifies
        # that the modulus check would pass; a non-finite bound fails this
        # test and falls through to the exact check
        if not row and stepper._modulus_bound() * (1.0 + MODULUS_MARGIN) <= mod_bound:
            continue
        w = stepper.sync()
        t = step * cfg.dt

        maxmod = float(np.max(np.abs(w)))
        if not np.isfinite(maxmod):
            raise FloatingPointError(
                f"non-finite field at t = {t:.6g} (step {step}); "
                "reduce dt or check the initial data"
            )
        too_large = maxmod > mod_bound
        if too_large or row:
            rec = _record(stepper.pair(), t)
            ts.records.append(rec)
            if too_large or (h0 > 0 and rec.kinetic > cfg.blowup_growth * h0):
                ts.outcome = "blow-up"
                break
            if cfg.store_fields:
                # copy: the synchronised state shares its buffer with the
                # stepper's look-ahead
                ts.snapshots.append((t, p0.with_values(*w.copy())))
    return ts


def dispersive_decay_fit(f0, t_range: tuple[float, float], r: float = np.inf) -> float:
    """Fit the free-flow decay exponent of ||e^{it Lap} f0||_{L^r}.

    Evolves the single field linearly (one spectral multiplier at each of
    12 log-spaced times), fits log-norm against log-t, and returns the
    slope; the dispersive bound predicts -d(1/2 - 1/r).  Aborts when more than 1e-6
    of the mass sits near the box boundary at the final time (wrap-around
    contamination).
    """
    grid = f0.grid
    if not isinstance(grid, UniformGrid):
        raise TypeError("decay fit requires a uniform grid")
    t0, t1 = t_range
    if not 0 < t0 < t1:
        raise ValueError("need 0 < t_start < t_end")
    k2 = grid.k2()
    fhat = grid.fft(f0.values)
    times = np.geomspace(t0, t1, 12)
    norms = []
    for t in times:
        ft = grid.ifft(np.exp(-1j * k2 * t) * fhat)
        norms.append(lp_norm(Field(grid, ft), r))

    # wrap-around check on the loop's last (widest) profile
    dens = np.abs(ft) ** 2
    edge = np.zeros(grid.shape, dtype=bool)
    ax = grid.axis()
    margin = grid.L / 16.0
    near = (ax < margin) | (ax > grid.L - margin)
    for axis_idx in range(grid.d):
        shape = [1] * grid.d
        shape[axis_idx] = grid.n
        edge |= near.reshape(shape)
    frac = float(np.sum(dens[edge]) / np.sum(dens))
    if frac > 1e-6:
        raise RuntimeError(
            f"wrap-around contamination: boundary mass fraction {frac:.2e}"
        )
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    return float(slope)


def blow_up_detect(ts: TimeSeries) -> str:
    """Classify a finished series: 'blow-up', 'global-looking' or 'undecided'.

    Numerical proxy only: growth of H and resolution-bound violations, not
    a theorem check.  A run cut short by a substep failure is 'undecided'.
    """
    if ts.blown_up:
        return "blow-up"
    if ts.outcome != "completed":
        return "undecided"
    kin = ts.column("kinetic")
    if kin.size == 0 or not np.all(np.isfinite(kin)):
        return "undecided"
    h0 = kin[0]
    if h0 <= 1e-12:
        return "global-looking" if float(np.max(kin)) <= 1e-9 else "undecided"
    return "global-looking" if float(np.max(kin)) <= 2.0 * h0 else "undecided"
