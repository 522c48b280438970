"""Independent reference for the ``accumulator1d`` gate.

A short numpy re-implementation of the d = 1 time-and-scale averaged
interaction accumulator that ``qnls morawetz`` reports: Strang stepping
(exact free flow over half-steps around an RK4 solve of the pointwise ODE
u_t = i v conj(u), v_t = i u^2, refined until the pointwise invariant
|u|^2 + |v|^2 drifts less than 1e-10), with the window correlations
accumulated every ``cadence`` steps.  It imports nothing from ``qnls``, so
a wrong answer from the program's own stepping copy cannot cancel out.
It runs once per generated input, outside every timed section.
"""

from __future__ import annotations

import numpy as np


def _bump_squared(r: np.ndarray, eps: float) -> np.ndarray:
    """Gamma(r)^2: 1 for r <= 1 - eps, 0 for r >= 1, exp(-1/t) glue between."""
    out = (r <= 1.0 - eps).astype(float)
    trans = (r > 1.0 - eps) & (r < 1.0)
    t = (r[trans] - (1.0 - eps)) / eps
    g1, g2 = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    out[trans] = g2 / (g1 + g2)
    return out**2


def _ode_step(u0, v0, dt: float, tol: float = 1e-10):
    inv0 = np.abs(u0) ** 2 + np.abs(v0) ** 2
    scale = max(float(inv0.max()), 1e-300)
    nsub = 1
    while nsub <= 1024:
        u, v = u0, v0
        h = dt / nsub
        for _ in range(nsub):
            a1, b1 = 1j * v * u.conj(), 1j * u * u
            ut, vt = u + 0.5 * h * a1, v + 0.5 * h * b1
            a2, b2 = 1j * vt * ut.conj(), 1j * ut * ut
            ut, vt = u + 0.5 * h * a2, v + 0.5 * h * b2
            a3, b3 = 1j * vt * ut.conj(), 1j * ut * ut
            ut, vt = u + h * a3, v + h * b3
            a4, b4 = 1j * vt * ut.conj(), 1j * ut * ut
            u = u + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            v = v + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        if np.max(np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - inv0)) / scale < tol:
            return u, v
        nsub *= 2
    raise RuntimeError("reference ODE step did not converge")


def interaction_accumulator(u, v, L: float, kappa: float, dt: float, T0: float,
                            R0: float, J: float, eps: float,
                            n_R: int = 12, s_stride: int = 4, cadence: int = 25) -> float:
    """The averaged interaction accumulator of the 1-D pair (u, v) on [0, L)."""
    n = u.size
    h = L / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    kd = k.copy()
    kd[n // 2] = 0.0  # odd derivatives drop the Nyquist mode
    half_u = np.exp(-0.5j * dt * k**2)
    half_v = np.exp(-0.5j * dt * kappa * k**2)

    radii = R0 * np.exp(np.linspace(0.0, J, n_R))
    ln_w = np.full(n_R, J / (n_R - 1))
    ln_w[[0, -1]] *= 0.5
    z = np.arange(n) * h
    z = np.where(z >= L / 2, z - L, z)
    kernels = np.array([np.fft.fft(_bump_squared(np.abs(z) / R, eps)) for R in radii])

    nsteps = int(round(T0 / dt))
    samples = list(range(0, nsteps + 1, cadence))
    if samples[-1] != nsteps:
        samples.append(nsteps)
    t = np.array(samples, dtype=float) * dt
    t_w = np.zeros_like(t)
    t_w[1:] += 0.5 * np.diff(t)
    t_w[:-1] += 0.5 * np.diff(t)
    sample_w = dict(zip(samples, t_w))

    def shells(u, v) -> float:
        du = np.fft.ifft(1j * kd * np.fft.fft(u))
        dv = np.fft.ifft(1j * kd * np.fft.fft(v))
        dens = np.array([
            2.0 * np.abs(du) ** 2 + kappa * np.abs(dv) ** 2,
            np.imag(2.0 * u * du.conj() + v * dv.conj()),
            2.0 * kappa * np.abs(u) ** 2 + np.abs(v) ** 2,
        ])
        l_w, a_w, n_w = np.real(np.fft.ifft(np.fft.fft(dens)[:, None, :] * kernels, axis=-1)) * h
        cells = np.maximum(l_w * n_w - kappa * a_w**2, 0.0)[:, ::s_stride]
        return float(np.sum(ln_w / radii * cells.sum(axis=1))) * h * s_stride

    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    total = sample_w[0] * shells(u, v)
    for step in range(1, nsteps + 1):
        u, v = _ode_step(np.fft.ifft(half_u * np.fft.fft(u)), np.fft.ifft(half_v * np.fft.fft(v)), dt)
        u, v = np.fft.ifft(half_u * np.fft.fft(u)), np.fft.ifft(half_v * np.fft.fft(v))
        if step in sample_w:
            total += sample_w[step] * shells(u, v)
    return float(total / (J * T0))
