"""The four qnls benchmark workloads.

Each workload generates its inputs from the seed: snapshot files written
with ``qnls.cli.write_snapshot`` plus JSON configs in ``setup``, or, where
the checked functions have no CLI subcommand, fresh in-memory trial states
for each operation in ``prepare``.  ``prepare(i)`` runs outside every
timed and traced section and returns the input of operation ``i``;
``op`` runs it and checks it.  CLI operations go through
``qnls.cli.main`` in-process, the path users take.  Every operation's
outputs are checked at the tolerance of the acceptance criterion the
workload is drawn from; a failed check, a nonzero exit or an exception
fails the operation.

Operations are timed in process CPU time (see ``run.py``).  All qnls calls
go through module attributes (``F.mass``, not a name bound at import), so
the span wrappers installed for a traced pass see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import qnls.cli as C
import qnls.fields as F
import qnls.grid as G
import qnls.ground_state as GS
import qnls.morawetz as M
import qnls.threshold as TH
import accumulator_reference

#: the acceptance configuration of the 5-D ground state (criteria 1, 3, 12, 13)
GS_CONFIG = {"m": 2048, "r_max": 30.0, "kappa": 0.5, "tol": 1e-10}


@dataclass
class OpResult:
    """One operation: its input, timings, exact counts and check failures."""

    key: int                      # which generated input ran
    latency_s: float              # CPU time of the operation itself
    work: int                     # steps or checked states completed
    work_s: float                 # CPU time the work rate is taken over
    counts: dict = field(default_factory=dict)
    digest: str = ""              # hash of the outputs, equal for equal inputs
    failures: list = field(default_factory=list)


def run_cli(config_path: str) -> tuple[int, str]:
    """Run ``qnls CONFIG`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = C.main([config_path])
    return code, buf.getvalue()


def write_config(path: str, config: dict) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True)


def read_bytes(*paths: str) -> bytes:
    out = b""
    for path in paths:
        with open(path, "rb") as fh:
            out += fh.read()
    return out


def _cell(text: str) -> float:
    # qnls.cli writes numpy scalars with repr(), which numpy 2 renders as
    # "np.float64(x)" (the momentum columns); read the number inside
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def read_csv(data: bytes) -> np.ndarray:
    """Numeric rows of a qnls CSV (comment lines and header skipped)."""
    lines = data.decode().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")][1:]
    return np.array([[_cell(x) for x in ln.split(",")] for ln in body])


def envelope_pair(grid, rng, kappa=0.5, nmodes=6, amp=1.0, sigma=None, kmax=5):
    """Random band-limited pair under a Gaussian envelope centred in the box
    (the generator of the acceptance criteria 9 to 12)."""
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

    return F.pair_from_arrays(grid, one(), one(), kappa)


def radial_pair(grid, rng, kappa=0.5):
    """Random smooth decaying radial pair (the criterion-12 generator)."""
    r = grid.nodes()
    wu = rng.uniform(0.5, 3.0)
    wv = rng.uniform(0.5, 3.0)
    u = rng.uniform(0.2, 2.0) * np.exp(-((r / wu) ** 2)) * (
        1.0 + rng.uniform(-0.5, 0.5) * np.cos(rng.uniform(1.0, 3.0) * r)
    )
    v = rng.uniform(0.2, 2.0) * np.exp(-((r / wv) ** 2)) * (
        1.0 + rng.uniform(-0.5, 0.5) * np.sin(rng.uniform(1.0, 3.0) * r)
    )
    return F.pair_from_arrays(grid, u.astype(complex), v.astype(complex), kappa)


def reference_ground_state():
    """The acceptance-resolution ground state whose thresholds the checks use."""
    return GS.petviashvili_solve(
        G.RadialGrid(GS_CONFIG["m"], GS_CONFIG["r_max"]),
        kappa=GS_CONFIG["kappa"],
        tol=GS_CONFIG["tol"],
    )


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    """Base: seeded inputs in ``workdir``, numbered operations."""

    name = ""
    #: nominal seconds per operation; sizes the fixed schedule of a traced run
    nominal_op_s = 1.0
    #: the report's name for the work rate: steps_per_s or checks_per_s
    rate_name = ""
    #: the checks need the acceptance ground state's thresholds
    needs_reference = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        #: opens a named benchmark span; a traced run sets it to the tracer's
        self.span = lambda name: contextlib.nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        """The input of operation ``i``; by default the index of a set-up input."""
        return i % len(self.inputs)

    def op(self, inp) -> OpResult:
        raise NotImplementedError


class Evolve2D(Workload):
    """``qnls evolve`` on 2-D 64^2 boxes: criterion-13 sub-threshold data
    (L=20, dt=2e-3, cadence 50) and criterion 4's stationary soliton
    (L=16, dt=1e-3).  Every run takes the same number of steps."""

    name = "evolve2d"
    nominal_op_s = 0.4
    rate_name = "steps_per_s"
    needs_reference = True
    STEPS = 400
    CADENCE = 50
    N_TRAPPED = 4

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        grid = G.UniformGrid(2, 64, 20.0)
        xs = grid.coords()
        c = grid.L / 2
        rho2 = (xs[0] - c) ** 2 + (xs[1] - c) ** 2
        self.inputs = []
        for k in range(self.N_TRAPPED):
            amp = rng.uniform(0.1, 0.3)
            wid = rng.uniform(1.5, 3.0)
            kx = 2 * np.pi * rng.integers(-2, 3) / grid.L
            ky = 2 * np.pi * rng.integers(-2, 3) / grid.L
            u0 = amp * np.exp(-rho2 / (2 * wid**2)) * np.exp(1j * (kx * xs[0] + ky * xs[1]))
            if k % 2:
                v0 = np.zeros_like(u0)
            else:  # nonpositive potential term, as in criterion 13
                v0 = -0.3 * amp * u0**2 / np.max(np.abs(u0))
            self._add(f"trapped{k}", F.pair_from_arrays(grid, u0, v0, 0.5), 2e-3)
        soliton = GS.solve_periodic_profile(G.UniformGrid(2, 64, 16.0), kappa=0.5, tol=1e-12)
        self._add("soliton", soliton, 1e-3)

    def _add(self, name: str, pair, dt: float) -> None:
        snap, out, cfg = self.path(f"{name}.snap"), self.path(f"{name}.csv"), self.path(f"{name}.json")
        C.write_snapshot(pair, 0.0, snap)
        write_config(cfg, {
            "command": "evolve", "dimension": 2, "n": pair.grid.n, "L": pair.grid.L,
            "dt": dt, "t_final": self.STEPS * dt, "cadence": self.CADENCE,
            "initial": "file", "input_path": snap, "output": out,
        })
        self.inputs.append((name, cfg, out, dt))

    def op(self, key: int) -> OpResult:
        name, cfg, out, dt = self.inputs[key]
        t0 = time.process_time()
        code, stdout = run_cli(cfg)
        cpu = time.process_time() - t0
        csv = read_bytes(out)
        rows = read_csv(csv)
        steps = int(round(rows[-1, 0] / dt))
        res = OpResult(key, cpu, steps, cpu, digest=digest(csv, stdout), counts={
            "steps": steps, "rows": len(rows), "bytes": len(csv) + len(stdout.encode()),
        })
        fail = res.failures
        if code != 0:
            fail.append(f"exit code {code}")
        outcome = json.loads(stdout.splitlines()[-1])["outcome"]
        if outcome != "completed":
            fail.append(f"outcome {outcome}")
        if steps != self.STEPS or len(rows) != self.STEPS // self.CADENCE + 1:
            fail.append(f"{steps} steps, {len(rows)} rows")
        mass, kin, energy = rows[:, 1], rows[:, 2], rows[:, 4]
        if np.max(np.abs(mass - mass[0])) / abs(mass[0]) >= 1e-10:
            fail.append("mass drift >= 1e-10")
        if name == "soliton":  # criterion 4
            mom = rows[:, 5:7]
            if np.max(np.abs(energy - energy[0])) / abs(energy[0]) >= 1e-8:
                fail.append("energy drift >= 1e-8")
            p_scale = max(float(np.max(np.abs(mom[0]))), np.sqrt(mass[0] * kin[0]))
            if np.max(np.abs(mom - mom[0])) / p_scale >= 1e-8:
                fail.append("momentum drift >= 1e-8")
            modulus = rows[:, 9]
            if np.max(np.abs(modulus - modulus[0])) >= 1e-4 * modulus[0]:
                fail.append("soliton modulus not stationary to 1e-4")
        else:  # criterion 13: trapping below threshold on every row
            y = mass * kin / self.reference.threshold_mh
            me_ratio = mass * energy / self.reference.threshold_me
            if not me_ratio[0] < 1.0:
                fail.append("initial data not below threshold")
            if not np.all(y < 1.0):
                fail.append("y >= 1")
            if not np.all(5.0 * y - 4.0 * y**1.25 <= me_ratio + 1e-9):
                fail.append("5y - 4y^(5/4) > ME ratio")
        return res


class Accumulator1D(Workload):
    """``qnls morawetz`` on criterion 14's data: a 1-D Gaussian at n=256,
    rescaled to M=E, with seeded amplitude, width and wavenumber.  Each
    input's accumulator must match
    ``accumulator_reference.interaction_accumulator``."""

    name = "accumulator1d"
    nominal_op_s = 0.3
    rate_name = "steps_per_s"
    DT = 2e-3
    T0 = 2.0
    N_INPUTS = 4
    SAMPLE_CADENCE = M.InteractionParams.cadence
    #: relative agreement required with the independent reference
    REFERENCE_RTOL = 1e-8

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        grid = G.UniformGrid(1, 256, 512.0)
        x = grid.axis()
        c = grid.L / 2
        self.inputs = []
        self.expected = {}
        for k in range(self.N_INPUTS):
            amp = 0.08 * rng.uniform(0.9, 1.1)
            width = 6.0 * rng.uniform(0.9, 1.1)
            wave = 0.2 * rng.uniform(0.9, 1.1)
            u0 = amp * np.exp(-((x - c) ** 2) / (2 * width**2)) * np.cos(wave * (x - c))
            p0 = F.pair_from_arrays(grid, u0.astype(complex), np.zeros(grid.shape, complex), 0.5)
            scaled, _ = TH.rescale_to_E0(p0)
            snap, out, cfg = self.path(f"acc{k}.snap"), self.path(f"acc{k}"), self.path(f"acc{k}.json")
            C.write_snapshot(scaled, 0.0, snap)
            config = {
                "command": "morawetz", "n": grid.n, "L": scaled.grid.L, "dt": self.DT,
                "T0": self.T0, "R0": 2.5, "J": 4.0, "eps": 0.25,
                "initial": "file", "input_path": snap, "output": out,
            }
            write_config(cfg, config)
            self.inputs.append((cfg, out, scaled, config))
        nsteps = int(round(self.T0 / self.DT))
        self.nsteps = nsteps
        self.nsamples = len(range(0, nsteps + 1, self.SAMPLE_CADENCE)) + (nsteps % self.SAMPLE_CADENCE != 0)

    def prepare(self, i: int) -> int:
        key = i % len(self.inputs)
        if key not in self.expected:
            _, _, p, c = self.inputs[key]
            self.expected[key] = accumulator_reference.interaction_accumulator(
                p.u.values, p.v.values, p.grid.L, p.kappa,
                c["dt"], c["T0"], c["R0"], c["J"], c["eps"],
            )
        return key

    def op(self, key: int) -> OpResult:
        cfg, out, _, _ = self.inputs[key]
        t0 = time.process_time()
        code, stdout = run_cli(cfg)
        cpu = time.process_time() - t0
        data = read_bytes(out, out + ".csv", out + ".time.csv")
        report = json.loads(read_bytes(out))
        per_radius = read_csv(read_bytes(out + ".csv"))[:, 1]
        per_time = read_csv(read_bytes(out + ".time.csv"))
        steps = int(round(per_time[-1, 0] / self.DT))
        res = OpResult(key, cpu, steps, cpu, digest=digest(data, stdout), counts={
            "steps": steps, "samples": report["time_samples"],
            "bytes": len(data) + len(stdout.encode()),
        })
        fail = res.failures
        if code != 0:
            fail.append(f"exit code {code}")
        if report["outcome"] != "completed":
            fail.append(f"outcome {report['outcome']}")
        if not (np.isfinite(report["accumulator"]) and report["accumulator"] >= 0.0):
            fail.append(f"accumulator {report['accumulator']}")
        if not np.isfinite(report["ratio"]):
            fail.append("ratio not finite")
        acc = report["accumulator"]
        expected = self.expected[key]
        if not abs(acc - expected) <= self.REFERENCE_RTOL * abs(expected):
            fail.append(f"accumulator {acc!r} differs from the reference {expected!r}")
        for label, shares in (("radius", per_radius), ("time", per_time[:, 1])):
            if abs(np.sum(shares) - acc) > 1e-12 * abs(acc):
                fail.append(f"per-{label} shares do not sum to the accumulator")
        if steps != self.nsteps or report["time_samples"] != self.nsamples:
            fail.append(f"{steps} steps, {report['time_samples']} samples")
        return res


class GroundState5D(Workload):
    """Repeated ``qnls ground-state`` at the acceptance configuration, each
    solve followed by a batch of criterion-12 radial coercivity checks
    against the fresh thresholds, on trial states generated anew for every
    operation; the criterion-3 oracle runs in setup."""

    name = "groundstate5d"
    nominal_op_s = 1.2
    rate_name = "checks_per_s"
    BATCH = 250

    def setup(self) -> None:
        self.oracle_mass = GS.oracle_coarse_solve(m=512, r_max=16.0, kappa=0.5).mass
        self.grid = G.RadialGrid(1024, 24.0)
        self.cfg, self.out = self.path("gs.json"), self.path("gs")
        write_config(self.cfg, {"command": "ground-state", "output": self.out, **GS_CONFIG})

    def prepare(self, i: int) -> list:
        rng = np.random.default_rng((self.seed, i))
        return [
            (radial_pair(self.grid, rng), rng.uniform(0.05, 0.9), rng.uniform(0.0, 2.0))
            for _ in range(self.BATCH)
        ]

    def op(self, batch: list) -> OpResult:
        t0 = time.process_time()
        code, stdout = run_cli(self.cfg)
        cpu = time.process_time() - t0
        data = read_bytes(self.out, self.out + ".snap")
        report = json.loads(read_bytes(self.out))
        fail = []
        if code != 0:
            fail.append(f"exit code {code}")
        ratios = report["ratios"]
        if abs(ratios[1] - 5.0) >= 1e-3 or abs(ratios[2] - 4.0) >= 1e-3:
            fail.append(f"ratios {ratios}")
        if not report["residual"] < GS_CONFIG["tol"]:
            fail.append(f"residual {report['residual']}")
        if abs(self.oracle_mass - report["mass"]) / report["mass"] >= 1e-2:
            fail.append("oracle mass differs by >= 1e-2")

        t1 = time.process_time()
        thr_mh = report["threshold_mh"]
        bad = 0
        for p, delta, xi in batch:
            mh = F.mass(p) * F.kinetic(p)
            c = ((1 - delta) * thr_mh / mh) ** 0.25
            p = F.pair_from_arrays(p.grid, c * p.u.values, c * p.v.values, 0.5)
            hxi = TH.boosted_kinetic(p, xi)
            if TH.coercivity_gap(p, xi) < TH.delta_prime_from_delta(delta) * hxi - 1e-9 * hxi:
                bad += 1
        q, _ = C.read_snapshot(self.out + ".snap")
        if abs(TH.coercivity_gap(q, np.zeros(1))) >= 1e-3 * report["kinetic"]:
            bad += 1
        batch_s = time.process_time() - t1
        if bad:
            fail.append(f"{bad} coercivity checks failed")
        return OpResult(0, cpu, self.BATCH + 1, batch_s, digest=digest(data, stdout), counts={
            "sweeps": report["iterations"], "bytes": len(data) + len(stdout.encode()),
        }, failures=fail)


class Windows(Workload):
    """Cold weight tables for d=1 and d=2, then seeded states through
    criteria 9 to 11 (1-D n=256) and the ball coercivity of criterion 12 in
    1-D n=256 and 2-D 64^2.  Every operation gets new states, except that
    one in ``REPEAT_EVERY`` regenerates the states of the operation before
    it, so that the determinism check has pairs to compare."""

    name = "windows"
    nominal_op_s = 0.008
    rate_name = "checks_per_s"
    needs_reference = True
    EPS = 0.05
    REPEAT_EVERY = 16
    KAPPAS = (0.25, 0.5, 1.0, 2.0)

    def setup(self) -> None:
        # users pay the table build once per process; clear it so every
        # repetition of the set-up is cold
        M._TABLE_CACHE.clear()
        for d in (1, 2):
            with self.span(f"bench.tables_d{d}"):
                M.build_weights(d, 8.0, self.EPS)
        self.g1 = G.UniformGrid(1, 256, 40.0)
        self.g2 = G.UniformGrid(2, 64, 20.0)

    def prepare(self, i: int) -> tuple:
        key = i - 1 if i % self.REPEAT_EVERY == 1 else i
        rng = np.random.default_rng((self.seed, key))
        g1 = self.g1
        return (
            key,
            envelope_pair(g1, rng, nmodes=4),
            envelope_pair(g1, rng, sigma=1.8, amp=0.4),
            envelope_pair(self.g2, rng, sigma=1.4, amp=0.4),
            g1.L / 2 + rng.uniform(-4.0, 4.0), rng.uniform(3.0, 12.0),
            rng.normal(scale=2.0), g1.L / 2 + rng.uniform(-3.0, 3.0), rng.uniform(4.0, 10.0),
        )

    def op(self, inp: tuple) -> OpResult:
        key, p, p_ball, p_ball2, s9, r9, xi10, s10, r10 = inp
        t0 = time.process_time()
        w = M.build_weights(1, 8.0, self.EPS)
        choice = M.boost_xi(p, [s9], r9, w)
        post = M.weighted_momentum(F.galilean_boost(p, choice.xi), [s9], r9, w)
        scale9 = F.mass(p) * (1.0 + float(np.abs(choice.xi[0])))
        kappa = self.KAPPAS[key % len(self.KAPPAS)]
        dev = M.galilean_invariance_check(
            F.FieldPair(p.u, p.v, kappa), [xi10], [s10], r10, w
        )
        margin = M.cauchy_schwarz_margin(
            p, n_pairs=10_000, rng=np.random.default_rng((self.seed, key))
        )
        ball1 = TH.coercivity_on_balls(p_ball, [20.0], 12.0, self.reference)
        ball2 = TH.coercivity_on_balls(p_ball2, [10.0, 10.0], 8.0, self.reference)
        cpu = time.process_time() - t0
        fail = []
        if not np.max(np.abs(post)) < 1e-10 * scale9:
            fail.append("criterion 9: post-boost weighted momentum")
        if not dev < 1e-10:
            fail.append(f"criterion 10: pairing deviation {dev:.3e}")
        if not margin >= -1e-12:
            fail.append(f"criterion 11: margin {margin:.3e}")
        for rep, label in ((ball1, "1-D"), (ball2, "2-D")):
            if not rep.identity_error < 1e-10:
                fail.append(f"criterion 12 {label}: identity error {rep.identity_error:.3e}")
        out = (choice.xi, post, dev, margin, ball1, ball2)
        return OpResult(key, cpu, 3, cpu, digest=digest(*out), failures=fail)


WORKLOADS = {w.name: w for w in (Evolve2D, Accumulator1D, GroundState5D, Windows)}
