"""Time integration of the coupled system.

    i u_t + Lap u + v conj(u) = 0,
    i v_t + kappa Lap v + u^2  = 0,

by Strang splitting: exact spectral propagation of the linear part
(multipliers e^{-i |k|^2 dt}, e^{-i kappa |k|^2 dt}; the sign convention
is fixed by  i u_t + Lap u = 0  =>  uhat(t) = e^{-i |k|^2 t} uhat(0))
composed with a pointwise quadratic substep ODE

    u_t = i v conj(u),   v_t = i u^2,

integrated by classical RK4.  The substep flow conserves the density
|u|^2 + |v|^2 and the Manley-Rowe invariant Re(conj(v) u^2) pointwise,
which gives a per-step accuracy monitor; substeps are refined until both
monitored drifts are below ``SUBSTEP_TOL``.

Where the monitor cannot fail, a proven bound skips it.  Scaling (u, v) by
1/sqrt(s), s the step's maximum density, maps the step to one on a state
with |u|, |v| <= 1 and step tau = |dt| sqrt(s); the right-hand side is
quadratic, so the RK4 step is a polynomial W(tau) of degree 15 whose
coefficients are majorized by those of the scalar RK4 step of y' = y^2
from y = 1.  RK4 has order 4 and the flow conserves both invariants, so
their relative drifts have no terms below tau^5 and are at most
P(tau) = sum_{k >= 5} [tau^k] max(2 W^2, W^3) tau^k.  A step with
tau <= tau* = 4.73e-3, the root of P(tau*) = SUBSTEP_TOL/2 - 100 eps
(``_TAU_STAR``, computed once at import), passes the monitor at one
substep; it is returned unchecked, and it is the same array the monitor
would accept, so certified steps keep their bits (see ``_substep``).

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

One private driver, ``_drive``, runs the stepper for both ``evolve`` and
the accumulator, and it alone decides what ends a run; its caller only
records the synchronised state it is handed at the stops of ``_stop_steps``
(step 0, every ``cadence``-th step and the last) and at a trip.  Input that
is not finite ends the run as ``blow-up`` before the first transform; a
:class:`SubstepFailure` ends it as ``substep-failure``; and after every
step it checks the resolution bound max |u|, |v| <= ``RESOLUTION_FACTOR /
h``, which it does not apply to the input.  Between stops that check does
not un-fuse.  With the orthonormal transform and |e^{-i |k|^2 s}| = 1,
every sample of the synchronised state has modulus at most a in u and b
in v, where (a, b) = sum_k |w_k| / sqrt(N) per field, w the kept spectrum
and N the number of grid points.  A step whose B = max(a, b) times
(1 + ``MODULUS_MARGIN``) is within the bound cannot trip it; any other
step is un-fused and checked exactly, so the driver stops at the same
step, and hands out the same states, as a check after every step would.

The per-step path works on arrays only, and pays for as few numpy calls
and as little memory as it can.  Each stepper allocates, once, the scratch
of the array-level substep ``_substep`` (``_SubstepBuffers``): three RK4
stages (the fourth reuses the third's) and one stage argument, each with
its two halves (u, v) bound once, and one real array of the density
monitor, whose second one comes with the first step that runs the exact
rule or the monitor; the stage factors i h/2, i h and i h/6 are 0-d
arrays, built once per h.  RK4 then runs there as one pass of in-place
ufuncs, with ``out`` passed positionally, in the operation order of the
out-of-place formula, so its results are the same bits; the public
:func:`nonlinear_step` is a thin wrapper over the same substep.
The stepper takes one reduction per step, the l1 sums (a, b) of the
spectrum it keeps anyway: they bound the modulus for the driver and, since
the next step's pre-substep state is the inverse transform of the same
spectrum times unimodular multipliers, its maximum density s <=
(a^2 + b^2) (1 + ``MODULUS_MARGIN``)^2 for the substep's certificate, so
a certified step makes no pass over the density.  Only the exact
fallback and the monitored refinement run under ``np.errstate``.

The substep returns its state in a new array.  Each free-flow product
(the constructor's L(dt/2), a fused step's L(dt), the stacked pair of
``sync``) is formed out of place in a new array and inverse-transformed in
place in it, with the out-of-place bits (``grid`` module docstring), and
the spectrum goes once its l1 sums are taken and its product formed.
Only the substep's buffers are ever written again, so arrays handed out by
``sync`` or ``pair`` are not: ``evolve`` keeps snapshots and callers keep
what they were given, and a complex initial pair's array is used as it is.
A stepper holds 8.5 stacked (u, v) arrays and peaks at 10.5 while it steps
and syncs.  A diagnostics row of ``evolve`` transforms the synchronised
stacked state once for both H and P (``_record``).

Blow-up and substep failure are flagged outcomes, never exceptions.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from . import fields as fields_mod
from .fields import FieldPair, lp_norm, pair_lp_norm
from .grid import Field, UniformGrid

RESOLUTION_FACTOR = 1.0   # a run ends in blow-up once max |u|, |v| exceeds this / h
# relative slack on the l1 modulus bound for the rounding of the transforms
MODULUS_MARGIN = 1e-9
SUBSTEP_TOL = 1e-10       # pointwise invariant drift per step


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of a single run.  The coupling lives on the FieldPair."""

    dt: float
    t_final: float
    cadence: int = 10                  # steps between diagnostics rows
    snapshot_every: int = 0            # keep every k-th row's state, from row 0; 0 keeps none

    def __post_init__(self) -> None:
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        _check_count("cadence", self.cadence, 1)
        _check_count("snapshot_every", self.snapshot_every, 0)
        _whole_steps(self.t_final, self.dt)


def _check_count(key: str, value, least: int) -> None:
    """Reject a ``value`` below ``least`` or not an integer; numpy integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{key} must be at least {least}, got {value}")


def _whole_steps(t: float, dt: float) -> int:
    """Number of steps dt in the span t; rejects a dt not finite and > 0, and a span not whole."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a finite positive number, got {dt}")
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
    momentum: np.ndarray
    l3_u: float
    l3_pair: float
    max_modulus: float

    @property
    def energy(self) -> float:
        return self.kinetic - self.potential


@dataclass
class TimeSeries:
    """Diagnostics rows at cadence, plus the (t, state) of rows 0, k, 2k, ... (k = snapshot_every).

    A row that ends the run as ``"blow-up"`` holds no state.
    """

    records: list[DiagnosticsRecord] = field(default_factory=list)
    snapshots: list[tuple[float, FieldPair]] = field(default_factory=list)
    outcome: str = "completed"       # or "blow-up", "substep-failure"

    @property
    def blown_up(self) -> bool:
        return self.outcome == "blow-up"

    @property
    def blow_up_time(self) -> float | None:
        """t of the last row of a blown-up run; 0.0 when input that was not finite left none."""
        if not self.blown_up:
            return None
        return self.records[-1].t if self.records else 0.0

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


class _SubstepBuffers:
    """Scratch of :func:`_substep` on a stacked pair of one shape.

    Three RK4 stages (:func:`_rk4` runs the fourth into ``k3``) and one
    stage argument, each with its halves (u, v) bound once as attributes;
    the two pointwise invariants (density, scaled Manley-Rowe) at the end
    and at the start of a step, each pair stacked like the fields; and the
    stage factors i h/2, i h and i h/6 as 0-d arrays, built once per h
    (:meth:`factors`).  A 0-d array costs a ufunc call about half of what
    a Python complex does, and every value is the same, so the products
    keep their bits.  The invariants at the end, ``inv``, are also the
    scratch of :meth:`SplitStepper._l1_sums`; those at the start are
    allocated by :meth:`monitor` on the first step that runs the exact
    rule or the monitor, so a stepper whose steps are all certified never
    holds them.
    """

    __slots__ = ("k1", "k1u", "k1v", "k2", "k2u", "k2v", "k3", "k3u", "k3v",
                 "arg", "argu", "argv", "inv", "_inv0", "_h", "_factors")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.k1, self.k2, self.k3, self.arg = (
            np.empty(shape, dtype=complex) for _ in range(4)
        )
        self.k1u, self.k1v = self.k1
        self.k2u, self.k2v = self.k2
        self.k3u, self.k3v = self.k3
        self.argu, self.argv = self.arg
        self.inv, self._inv0 = np.empty(shape), None
        self._h = None

    def monitor(self) -> tuple[np.ndarray, np.ndarray]:
        """The invariants (at the end, at the start); the second is allocated on first use."""
        if self._inv0 is None:
            self._inv0 = np.empty_like(self.inv)
        return self.inv, self._inv0

    def factors(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """i h/2, i h and i h/6 as 0-d arrays, rebuilt only when h changes."""
        if h != self._h:
            self._h = h
            self._factors = (np.array(0.5j * h), np.array(1j * h), np.array(1j * h / 6.0))
        return self._factors


# the 2 of the RK4 weights, a 0-d array like the stage factors
_TWO = np.array(2.0)


def _stage(u: np.ndarray, v: np.ndarray, ku: np.ndarray, kv: np.ndarray) -> None:
    """RK4 stage (ku, kv) = (v conj(u), u^2): the right-hand side without its factor i."""
    np.conjugate(u, ku)
    np.multiply(v, ku, ku)
    np.multiply(u, u, kv)


def _rk4(w0: np.ndarray, b: _SubstepBuffers, h: float, out: np.ndarray) -> np.ndarray:
    """One RK4 step of u_t = i v conj(u), v_t = i u^2 over h from ``w0`` into ``out``.

    The stages (:func:`_stage`) run in ``b`` with in-place ufuncs in the
    operation order of the out-of-place formula, so the result has its
    bits; ``out`` may be ``w0``.
    """
    half, full, sixth = b.factors(h)
    _stage(w0[0], w0[1], b.k1u, b.k1v)
    np.add(w0, np.multiply(half, b.k1, b.arg), b.arg)
    _stage(b.argu, b.argv, b.k2u, b.k2v)
    np.add(w0, np.multiply(half, b.k2, b.arg), b.arg)
    _stage(b.argu, b.argv, b.k3u, b.k3v)
    np.add(w0, np.multiply(full, b.k3, b.arg), b.arg)
    # out = w0 + (i h / 6) (k1 + 2 (k2 + k3) + k4), with k4 in k3's buffer
    np.multiply(_TWO, np.add(b.k2, b.k3, b.k2), b.k2)
    _stage(b.argu, b.argv, b.k3u, b.k3v)
    np.add(np.add(b.k1, b.k2, b.k1), b.k3, b.k1)
    return np.add(w0, np.multiply(sixth, b.k1, b.k1), out)


def _density(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|u|^2 + |v|^2 of the stacked pair ``w`` into ``out[0]``; ``out[1]`` is scratch."""
    np.square(np.abs(w, out=out), out=out)
    return np.add(out[0], out[1], out=out[0])


def _manley_rowe(w: np.ndarray, scratch: np.ndarray, factor: float, out: np.ndarray) -> np.ndarray:
    """``factor`` Re(conj(v) u^2) of the stacked pair ``w`` into ``out``.

    ``scratch`` is a complex array of the shape of ``w``.
    """
    np.multiply(w[0], w[0], out=scratch[0])
    np.multiply(np.conjugate(w[1], out=scratch[1]), scratch[0], out=scratch[0])
    return np.multiply(scratch[0].real, factor, out=out)


def _rk4_majorant() -> Polynomial:
    """W(tau): the RK4 step of y' = y^2 from y = 1, a polynomial of degree 15.

    The stages are :func:`_substep`'s with every coefficient replaced by its
    modulus, so W majorizes, coefficient by coefficient, each component of
    the substep on a state with |u|, |v| <= 1.
    """
    one, tau = Polynomial([1.0]), Polynomial([0.0, 1.0])
    k1 = one
    k2 = (one + 0.5 * tau * k1) ** 2
    k3 = (one + 0.5 * tau * k2) ** 2
    k4 = (one + tau * k3) ** 2
    return one + tau / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _drift_majorant() -> Polynomial:
    """P(tau) = sum_{k >= 5} [tau^k] max(2 W^2, W^3) tau^k.

    |u|^2 + |v|^2 of the step is majorized by 2 W^2 and Re(conj(v) u^2) by
    W^3; both drifts vanish below tau^5, so P bounds the larger one.
    """
    w = _rk4_majorant()
    density, manley_rowe = (2.0 * w**2).coef, (w**3).coef
    tail = np.maximum(np.pad(density, (0, manley_rowe.size - density.size)), manley_rowe)
    tail[:5] = 0.0
    return Polynomial(tail)


_DRIFT_MAJORANT = _drift_majorant()


def _certified_tau(tol: float) -> float:
    """tau*(tol): the largest tau found with P(tau) <= tol/2 - 100 eps.

    Bisection on [0, 1] keeps P(lower end) within the target, and P grows
    with tau.
    """
    target = 0.5 * tol - 100.0 * np.finfo(float).eps
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _DRIFT_MAJORANT(mid) <= target else (lo, mid)
    return lo


_TAU_STAR = _certified_tau(SUBSTEP_TOL)


def _substep(
    w0: np.ndarray, dt: float, buffers: _SubstepBuffers, l1: tuple[float, float] | None,
) -> np.ndarray:
    """RK4 of u_t = i v conj(u), v_t = i u^2 over dt on the stacked pair ``w0``.

    Substeps are refined until both exactly-conserved pointwise invariants
    drift less than ``SUBSTEP_TOL`` over the step: the density |u|^2 + |v|^2
    relative to its maximum s, and the Manley-Rowe invariant
    Re(conj(v) u^2) relative to s^(3/2), which bounds it.  The density
    alone misses error along its own level sets.  Raises
    :class:`SubstepFailure` past 1024 substeps.  Every stage runs in
    ``buffers`` (a :class:`_SubstepBuffers`); ``w0`` is only read, and the
    result is a new array.

    A step with tau = |dt| sqrt(s) <= tau* (``_TAU_STAR``) is
    returned after one RK4 substep without the drift check, because the
    check must pass.  In exact arithmetic the step on (u, v) is sqrt(s)
    times the step over tau on (u, v) / sqrt(s), whose components are at
    most 1 in modulus.  Each RK4 stage is then a polynomial in tau whose
    coefficients are at most those of the same stage for y' = y^2 from
    y = 1: the right-hand side (v conj(u), u^2) of two majorized series is
    majorized by the square of their majorant, and the factors i and
    conjugation keep moduli.  So the step is majorized by W(tau), the
    density by 2 W^2 and the Manley-Rowe invariant by W^3, coefficient by
    coefficient.  RK4 matches the exact flow through tau^4 and the flow
    keeps both invariants, so both relative drifts are polynomials with no
    terms below tau^5, bounded by P(tau) (``_drift_majorant``).

    ``l1``, unless None, is a pair (a, b) with |u| <= a (1 + ``MODULUS_MARGIN``)
    and |v| <= b (1 + ``MODULUS_MARGIN``) at every node of ``w0``: the l1
    sums of the spectrum the stepper takes anyway.  Then s <= (a^2 + b^2)
    (1 + ``MODULUS_MARGIN``)^2, and a step with |dt| sqrt(a^2 + b^2)
    (1 + ``MODULUS_MARGIN``) <= tau* is certified without a pass over the
    density.  A step that this bound misses, and every step with
    ``l1=None``, falls back to the exact rule on s.

    Rounding is what the two margins pay for.  Absolute errors: at
    tau <= tau* < 5e-3 the stages enter the step scaled by tau, so
    the computed step is within a few eps of the exact one on the unit
    scale, and forming and subtracting the invariants adds a few eps more:
    about 15 eps for either drift by a count over the operations (at most
    5 eps measured at tau = 1e-6 on random states), which 100 eps covers
    with room.  Relative errors: s, sqrt(s), tau, the coefficients of P
    and its value at tau* are each off by a few eps, which moves the bound
    by a factor 1 + O(50 eps); the factor 1/2 on ``SUBSTEP_TOL`` covers
    that.  So a certified step is the array the monitor accepts at
    nsub = 1, and trajectories keep their bits.  s NaN or inf fails the
    comparison and runs the monitor.

    A certified step cannot raise a floating-point warning, so it runs
    outside ``np.errstate``: its state is finite with sqrt(s) <= tau* / |dt|
    and tau* < 1, so every stage and product is at most about s, finite
    unless |dt| < 1e-150.  The exact rule and the monitor run under
    ``np.errstate``: data far past the substep's reach overflows on its way
    to the refinement limit, and the outcome is then the labelled
    :class:`SubstepFailure`, not a warning.
    """
    w = np.empty_like(w0)
    if l1 is not None and abs(dt) * math.hypot(*l1) * (1.0 + MODULUS_MARGIN) <= _TAU_STAR:
        return _rk4(w0, buffers, dt, w)
    with np.errstate(over="ignore", invalid="ignore"):
        inv, inv0 = buffers.monitor()
        scale = max(float(_density(w0, inv0).max()), 1e-300)
        if abs(dt) * math.sqrt(scale) <= _TAU_STAR:
            return _rk4(w0, buffers, dt, w)
        # Re(conj(v) u^2) / sqrt(s) drifts by less than SUBSTEP_TOL s iff it meets
        # its bound, so one maximum over both stacked invariants decides
        mr_factor = 1.0 / np.sqrt(scale)
        _manley_rowe(w0, buffers.k1, mr_factor, inv0[1])
        nsub = 1
        while True:
            h = dt / nsub
            prev = w0
            for _ in range(nsub):
                prev = _rk4(prev, buffers, h, w)
            _density(w, inv)
            _manley_rowe(w, buffers.k1, mr_factor, inv[1])
            drift = np.subtract(inv, inv0, out=inv)
            drift = float(np.abs(drift, out=drift).max()) / scale
            if drift < SUBSTEP_TOL:
                return w
            nsub *= 2
            if nsub > 1024:
                raise SubstepFailure(
                    f"substep refinement limit reached (pointwise drift {drift:.3e})"
                )


def _check_dt(dt: float) -> None:
    """Reject a ``dt`` that is not finite; a negative one steps backwards."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be a finite number, got {dt}")


def nonlinear_step(p: FieldPair, dt: float) -> FieldPair:
    """Pointwise substep ODE u_t = i v conj(u), v_t = i u^2 over dt.

    RK4 on the stacked pair with substep refinement until both
    exactly-conserved pointwise invariants, |u|^2 + |v|^2 and
    Re(conj(v) u^2), drift less than ``SUBSTEP_TOL`` (relative to their
    scales) over the step; raises :class:`SubstepFailure` past 1024
    substeps, and ``ValueError`` for a ``dt`` that is not finite.
    """
    _check_dt(dt)
    w0 = np.asarray(p.values, dtype=complex)
    return p.with_stack(_substep(w0, dt, _SubstepBuffers(w0.shape), None))


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
    or the driver's modulus certificate, whichever asks first, computes it,
    and the others reuse it; so do its l1 sums (:meth:`_l1_sums`), which
    :meth:`_propagate` takes before it lets the spectrum go, so that every
    step has them for its certificate.  :meth:`sync` un-fuses (see the
    module docstring).
    """

    def __init__(self, p0: FieldPair, dt: float) -> None:
        grid = p0.grid
        if not isinstance(grid, UniformGrid):
            raise TypeError("time stepping is defined on uniform grids")
        _check_dt(dt)
        self.grid = grid
        self.dt = dt
        self.steps = 0
        self._p0 = p0
        # L(dt/2) and L(dt), stacked so that sync applies both in one product
        self._free = np.array([_free_multiplier(grid, p0.kappa, t) for t in (0.5 * dt, dt)])
        self._state = np.asarray(p0.values, dtype=complex)
        self._buffers = _SubstepBuffers(self._state.shape)
        self._root_n = math.sqrt(grid.size)
        self._hat = None          # the forward transform of _state, once taken
        self._l1 = None           # its l1 sums per field, once taken
        self._ahead = self._propagate(self._free[0])

    def _spectrum(self) -> np.ndarray:
        if self._hat is None:
            self._hat = self.grid.fft(self._state)
        return self._hat

    def _propagate(self, free: np.ndarray) -> np.ndarray:
        """ifft(``free`` * spectrum), inverse-transformed in place in the new product.

        Takes the l1 sums first and then lets the spectrum go, which nothing
        reads afterwards.  The product is formed out of place, the same
        operands in the same order whichever of the step, :meth:`sync` and
        the constructor asks, so it rounds the same, and observing stays
        bit-neutral; the in-place transform has the out-of-place bits
        (``grid`` module docstring).
        """
        self._l1_sums()
        product = free * self._spectrum()
        self._hat = None
        return self.grid.ifft(product, out=product)

    def _l1_sums(self) -> tuple[float, float]:
        """(a, b) = sum_k |w_k| / sqrt(N) per field, w the kept spectrum.

        Through the orthonormal transform every sample of ifft(m w) with
        |m_k| = 1 has modulus at most a in u and b in v, up to
        ``MODULUS_MARGIN``: a bound on the state :meth:`sync` returns and
        on the next step's pre-substep state alike, both ifft(m w).  One
        reduction per spectrum serves the driver's modulus certificate
        (``_drive``) and the substep's.  A non-finite state gives
        non-finite sums.
        """
        if self._l1 is None:
            mod = np.abs(self._spectrum(), out=self._buffers.inv)
            a, b = np.add.reduce(mod.reshape(2, -1), 1).tolist()
            self._l1 = (a / self._root_n, b / self._root_n)
        return self._l1

    def step(self) -> None:
        """Advance by dt; raises :class:`SubstepFailure` like the substep."""
        if self._ahead is None:
            self._ahead = self._propagate(self._free[1])
        # the look-ahead is ifft(m w) of the spectrum whose sums _l1 holds
        self._state = _substep(self._ahead, self.dt, self._buffers, self._l1_sums())
        self._ahead = self._l1 = None
        self.steps += 1

    def sync(self) -> np.ndarray:
        """The stacked (u, v) at time ``steps * dt``; the stepper's own array."""
        if self._ahead is None:
            both = self._propagate(self._free)
            self._state, self._ahead = both[0], both[1]
        return self._state

    def pair(self) -> FieldPair:
        """The synchronised state as a pair holding the stepper's own array."""
        return self._p0.with_stack(self.sync())


def strang_step(p: FieldPair, dt: float) -> FieldPair:
    """Second-order composition linear(dt/2) o nonlinear(dt) o linear(dt/2)."""
    stepper = SplitStepper(p, dt)
    stepper.step()
    return stepper.pair()


def _record(p: FieldPair, t: float) -> DiagnosticsRecord:
    """The diagnostics row of ``p`` at ``t``; H and P from one transform (:func:`fields.kinetic_and_momentum`)."""
    h, mom = fields_mod.kinetic_and_momentum(p)
    return DiagnosticsRecord(
        t=t,
        mass=fields_mod.mass(p),
        kinetic=h,
        potential=fields_mod.potential(p),
        momentum=mom,
        l3_u=lp_norm(p.u, 3.0),
        l3_pair=pair_lp_norm(p, 3.0),
        max_modulus=pair_lp_norm(p, np.inf),
    )


def _stop_steps(span: float, dt: float, cadence: int) -> list[int]:
    """The stops of :func:`_drive` over ``span``: step 0, every ``cadence``-th step, the last."""
    nsteps = _whole_steps(span, dt)
    return sorted({*range(0, nsteps + 1, cadence), nsteps})


def _drive(
    p0: FieldPair, dt: float, stops: list[int], observe: Callable[[int, np.ndarray, bool], None],
) -> str:
    """Step ``p0`` to the last of ``stops`` (:func:`_stop_steps`); returns the outcome.

    ``observe(step, w, tripped)`` gets the synchronised stacked state, which
    it may keep, at each stop and at a finite trip; it cannot end the run.
    A trip is a step after which ``not max |u|, |v| <= RESOLUTION_FACTOR /
    h``, certified by the l1 sums and checked exactly where they miss
    (module docstring); it ends the run as ``"blow-up"``, as input that is
    not finite does before the first transform.  A :class:`SubstepFailure`
    ends it as ``"substep-failure"``; every other run is ``"completed"``.
    """
    if not np.isfinite(p0.values).all():
        return "blow-up"
    stepper = SplitStepper(p0, dt)
    bound = RESOLUTION_FACTOR / stepper.grid.h
    observe(0, stepper.sync(), False)
    stop_at = set(stops)
    for step in range(1, stops[-1] + 1):
        try:
            stepper.step()
        except SubstepFailure:
            return "substep-failure"
        # a non-finite bound fails this test and falls through to the exact check
        certified = max(stepper._l1_sums()) * (1.0 + MODULUS_MARGIN) <= bound
        if certified and step not in stop_at:
            continue
        w = stepper.sync()
        peak = 0.0 if certified else float(np.max(np.abs(w)))
        if not peak <= bound:
            if math.isfinite(peak):
                observe(step, w, True)
            return "blow-up"
        if step in stop_at:
            observe(step, w, False)
        # w shares its buffer with the look-ahead, which the next step frees
        del w
    return "completed"


def evolve(p0: FieldPair, cfg: EvolutionConfig) -> TimeSeries:
    """Run Strang stepping, recording diagnostics every ``cadence`` steps.

    :func:`_drive` ends the run; ``evolve`` records a row at each stop and
    at a finite trip, and a snapshot at every ``snapshot_every``-th row
    that does not trip.  Early termination is a labeled outcome, not an
    error.
    """
    if not isinstance(p0.grid, UniformGrid):
        raise TypeError("evolve requires a uniform grid")
    ts = TimeSeries()

    def observe(step: int, w: np.ndarray, tripped: bool) -> None:
        t = step * cfg.dt
        ts.records.append(_record(p0.with_stack(w), t))
        if not tripped and cfg.snapshot_every and (len(ts.records) - 1) % cfg.snapshot_every == 0:
            # copy: the synchronised state shares its buffer with the
            # stepper's look-ahead
            ts.snapshots.append((t, p0.with_stack(w.copy())))

    stops = _stop_steps(cfg.t_final, cfg.dt, cfg.cadence)
    ts.outcome = _drive(p0, cfg.dt, stops, observe)
    return ts


def dispersive_decay_fit(f0, t_range: tuple[float, float], r: float = np.inf) -> float:
    """Fit the free-flow decay exponent of ||e^{it Lap} f0||_{L^r}.

    Evolves the single field linearly (one spectral multiplier at each of
    12 log-spaced times), fits log-norm against log-t, and returns the
    slope; the dispersive bound predicts -d(1/2 - 1/r).  Aborts when more than 1e-6
    of the mass sits near the box boundary at the final time (wrap-around
    contamination).  Raises ``ValueError`` for a field that is not finite or
    is zero at every sample, and for one whose density sum or any fitted norm
    underflows to zero or whose fitted norm overflows: those norms have no
    finite logarithm.
    """
    grid = f0.grid
    if not isinstance(grid, UniformGrid):
        raise TypeError("decay fit requires a uniform grid")
    t0, t1 = t_range
    if not 0 < t0 < t1:
        raise ValueError("need 0 < t_start < t_end")
    if not np.isfinite(f0.values).all():
        raise ValueError("cannot fit the decay of a field that is not finite")
    if not f0.values.any():
        raise ValueError("cannot fit the decay of a field that is zero everywhere")
    k2 = grid.k2()
    fhat = grid.fft(f0.values)
    times = np.geomspace(t0, t1, 12)
    norms = []
    with np.errstate(over="ignore"):   # a norm that overflows is refused below
        for t in times:
            ft = grid.ifft(np.exp(-1j * k2 * t) * fhat)
            norms.append(lp_norm(Field(grid, ft), r))

    # wrap-around check on the loop's last (widest) profile
    dens = np.abs(ft) ** 2
    margin = grid.L / 16.0
    edge = np.any([(x < margin) | (x > grid.L - margin) for x in grid.coords()], axis=0)
    total = np.sum(dens)
    if not np.isfinite(norms).all():
        raise ValueError("cannot fit the decay of a field whose fitted norm overflows")
    if total == 0 or min(norms) == 0:
        raise ValueError("cannot fit the decay of a field whose density or norm underflows to zero")
    frac = float(np.sum(dens[edge]) / total)
    if frac > 1e-6:
        raise RuntimeError(
            f"wrap-around contamination: boundary mass fraction {frac:.2e}"
        )
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    return float(slope)


def blow_up_detect(ts: TimeSeries) -> str:
    """Classify a finished series: 'blow-up', 'global-looking' or 'undecided'.

    Numerical proxy only, not a theorem check.  A ``blow-up`` outcome is
    'blow-up', a substep failure 'undecided'.  A completed run is
    'global-looking' if max H <= 2 H(0), a test relative to H(0): a resolved
    run that starts with small H and grows, such as a nearly flat pair's
    modulational instability, is 'undecided'.
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
