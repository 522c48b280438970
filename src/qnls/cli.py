"""Reproducible entry points.

One flat JSON config drives one run; subcommands: ground-state, evolve,
morawetz, classify, disperse.  Every artifact embeds the echoed config,
CSV rows carry a versioned schema comment, snapshots are a little-endian
binary format with magic "NLSS", and fixed seed + config give
byte-identical outputs on one platform.

Exit codes: 0 success (including a flagged blow-up outcome), 1 usage
error, 2 numeric failure.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .evolution import EvolutionConfig, _whole_steps, blow_up_detect, dispersive_decay_fit, evolve
from .fields import Field, FieldPair, galilean_boost, pair_from_arrays
from .grid import RadialGrid, UniformGrid
from .ground_state import petviashvili_solve, solve_periodic_profile
from .morawetz import InteractionParams, interaction_lhs
from .threshold import classify_data

SNAPSHOT_MAGIC = b"NLSS"
SNAPSHOT_VERSION = 1
_GRID_UNIFORM = 0
_GRID_RADIAL = 1


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _is_number(x) -> bool:
    """A finite JSON number: no bool, NaN, Infinity or int beyond a double."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _at_least(k: int) -> tuple:
    return (lambda x: x >= k, f">= {k}")


# each check is (predicate, description); a failed check reads
# "config key 'k' must be <description>, got <value>"
_INTEGER = (lambda x: type(x) is int, "an integer")
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda x: _is_number(x) and x > 0, "a positive number")
# a string or null: an int would reach ``open`` as a file descriptor
_PATH = (lambda x: x is None or isinstance(x, str), "a path string or null")

_INITIALS = ("gaussian", "soliton", "boosted-soliton", "file")

# key: (default, type check, range check or None), in echo order
_KEYS: dict[str, tuple] = {
    "kappa": (0.5, _POSITIVE, None),
    "cadence": (10, _INTEGER, _at_least(1)),
    "dt": (1e-3, _POSITIVE, None),
    "t_final": (1.0, _POSITIVE, None),
    # echo-only: nothing reads it, every initial condition is deterministic
    "seed": (0, _INTEGER, None),
    "n": (256, _INTEGER, (lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8")),
    "L": (40.0, _POSITIVE, None),
    # m and n ** dimension are capped so that a typo such as 2**40 is a usage
    # error, not an allocation
    "m": (2048, _INTEGER, (lambda m: 4 <= m <= 2**20, "in [4, 2**20]")),
    "r_max": (30.0, _POSITIVE, None),
    "tol": (1e-10, _POSITIVE, None),
    "max_iter": (500, _INTEGER, _at_least(1)),
    "dimension": (1, _INTEGER, (lambda d: d in (1, 2, 3), "1, 2 or 3")),
    "initial": ("gaussian", (lambda x: x in _INITIALS, f"one of {', '.join(_INITIALS)}"), None),
    "amplitude": (1.0, _POSITIVE, None),
    "width": (2.0, _POSITIVE, None),
    "center": (None, (lambda x: x is None or _is_number(x), "a finite number or null"), None),
    "phase_velocity": (0.0, _NUMBER, None),
    "xi": (0.5, _NUMBER, None),
    "input_path": (None, _PATH, None),
    "output": (None, _PATH, None),
    "snapshot_every": (0, _INTEGER, _at_least(0)),
    "R0": (2.5, _POSITIVE, None),
    "J": (4.0, _POSITIVE, None),
    "T0": (50.0, _POSITIVE, None),
    "eps": (0.25, _NUMBER, (lambda x: 0 < x <= 0.5, "in (0, 1/2]")),
    "decay_exponent": (
        "inf", (lambda r: r == "inf" or (_is_number(r) and r >= 1), '"inf" or a number >= 1'), None
    ),
    "t_fit_start": (8.0, _POSITIVE, None),
    "t_fit_end": (25.0, _POSITIVE, None),
}

# the span each command steps through with dt
_SPAN_KEYS = {"evolve": "t_final", "morawetz": "T0"}

_COMMANDS = ("ground-state", "evolve", "morawetz", "classify", "disperse")


@dataclass(frozen=True)
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        try:
            return self.options[name]
        except KeyError as exc:
            raise AttributeError(name) from exc

    def echo(self) -> dict:
        return {"command": self.command, **self.options}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat JSON config, filling documented defaults."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:   # ints past 4300 digits raise ValueError
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(_KEYS) - {"command"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "command" not in raw:
        raise ConfigError("missing required key: command")
    if raw["command"] not in _COMMANDS:
        raise ConfigError(
            f"unknown command {raw['command']!r}; expected one of {', '.join(_COMMANDS)}"
        )
    options = {key: raw.get(key, spec[0]) for key, spec in _KEYS.items()}
    for key, (_, kind, limit) in _KEYS.items():
        for check in (kind, limit):
            if check is not None and not check[0](options[key]):
                raise ConfigError(f"config key {key!r} must be {check[1]}, got {options[key]!r}")
    if options["n"] ** options["dimension"] > 2**22:
        raise ConfigError(
            f"config key 'n' must keep n ** dimension <= 2**22, got "
            f"{options['n']!r} ** {options['dimension']!r}"
        )
    if options["t_fit_start"] >= options["t_fit_end"]:
        raise ConfigError(
            f"config key 't_fit_start' must be below 't_fit_end', got "
            f"{options['t_fit_start']!r} >= {options['t_fit_end']!r}"
        )
    span = _SPAN_KEYS.get(raw["command"])
    if span is not None:
        try:
            _whole_steps(options[span], options["dt"])
        except ValueError as exc:
            raise ConfigError(f"config key {span!r}: {exc}") from exc
    return RunConfig(command=raw["command"], options=options)


def write_snapshot(p: FieldPair, t: float, path: str) -> None:
    """Binary snapshot: header then u then v as little-endian complex128 (re, im)."""
    grid = p.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        if isinstance(grid, UniformGrid):
            fh.write(struct.pack("<II", _GRID_UNIFORM, grid.d))
            fh.write(struct.pack("<" + "I" * grid.d, *([grid.n] * grid.d)))
            fh.write(struct.pack("<d", grid.L))
        else:
            fh.write(struct.pack("<II", _GRID_RADIAL, 5))
            fh.write(struct.pack("<I", grid.m))
            fh.write(struct.pack("<d", grid.r_max))
        fh.write(struct.pack("<ddI", p.kappa, t, 2))
        fh.write(np.array((p.u.values, p.v.values), dtype="<c16").tobytes())


def read_snapshot(path: str) -> tuple[FieldPair, float]:
    """Inverse of :func:`write_snapshot`, bit for bit: signed zeros, inf and NaN too."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot (bad magic)")
    off = 4

    def unpack(fmt: str) -> tuple:
        nonlocal off
        end = off + struct.calcsize(fmt)
        if end > len(data):
            raise ValueError(
                f"truncated snapshot: the header needs at least {end} bytes, got {len(data)}"
            )
        values = struct.unpack_from(fmt, data, off)
        off = end
        return values

    (version,) = unpack("<I")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    kind, dim = unpack("<II")
    if kind == _GRID_UNIFORM:
        if not 1 <= dim <= 3:
            raise ValueError(f"uniform snapshot of dimension {dim}, expected 1, 2 or 3")
        counts = unpack("<" + "I" * dim)
        (length,) = unpack("<d")
        grid: UniformGrid | RadialGrid = UniformGrid(dim, counts[0], length)
    elif kind == _GRID_RADIAL:
        if dim != 5:
            raise ValueError(f"radial snapshot of dimension {dim}, expected 5")
        m, r_max = unpack("<Id")
        grid = RadialGrid(m, r_max)
    else:
        raise ValueError(f"unknown grid kind {kind}")
    kappa, t, nfields = unpack("<ddI")
    if nfields != 2:
        raise ValueError(f"expected 2 fields, header says {nfields}")
    size = grid.size
    payload = 2 * size * 2 * 8
    if len(data) - off != payload:
        raise ValueError(
            f"truncated snapshot: expected {payload} payload bytes, got {len(data) - off}"
        )
    # astype copies the read-only buffer into native, writable complex
    w = np.frombuffer(data, "<c16", count=2 * size, offset=off).astype(complex)
    return pair_from_arrays(grid, *w.reshape((2,) + grid.shape), kappa), t


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))   # numpy scalars repr as "np.float64(...)"
    return str(x)


def _write_csv(path: str, cfg: RunConfig, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        fh.write(f"# config={json.dumps(cfg.echo(), sort_keys=True)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: str | None, cfg: RunConfig, payload: dict) -> None:
    doc = {"config": cfg.echo(), **payload}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _initial_pair(cfg: RunConfig, grid: UniformGrid) -> FieldPair:
    kind = cfg.initial
    if kind == "file":
        if cfg.input_path is None:
            raise ConfigError("initial = file requires input_path")
        try:
            pair, _ = read_snapshot(cfg.input_path)
        except OSError as exc:
            raise ConfigError(f"cannot read input_path: {exc}") from exc
        snap = pair.grid
        if not isinstance(snap, UniformGrid):
            raise ConfigError("input_path holds a radial profile, not a state on a periodic box")
        want = {"dimension": grid.d, "n": grid.n, "L": grid.L, "kappa": cfg.kappa}
        got = {"dimension": snap.d, "n": snap.n, "L": snap.L, "kappa": pair.kappa}
        differ = [
            f"{key!r} ({want[key]!r} in the config, {got[key]!r} in the snapshot)"
            for key in want if got[key] != want[key]
        ]
        if differ:
            raise ConfigError(f"the input_path snapshot disagrees with config keys {', '.join(differ)}")
        return pair
    if kind == "gaussian":
        center = cfg.center if cfg.center is not None else grid.L / 2.0
        rho2 = sum((c - center) ** 2 for c in grid.coords())
        env = cfg.amplitude * np.exp(-rho2 / (2.0 * cfg.width**2))
        phase = cfg.phase_velocity * sum(grid.coords())
        u = env * np.exp(1j * phase)
        v = np.zeros(grid.shape, dtype=complex)
        return pair_from_arrays(grid, u, v, cfg.kappa)
    pair = solve_periodic_profile(grid, kappa=cfg.kappa, tol=1e-12)
    if kind == "soliton":
        return pair
    return galilean_boost(pair, [cfg.xi] * grid.d)   # boosted-soliton


def run_command(cfg: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit code.

    The seed is part of the config echo in every artifact; the built-in
    initial conditions are deterministic, so reruns are byte-identical.
    """
    out = cfg.output
    # checked before any work: the CSV is evolve's only product
    if cfg.command == "evolve" and out is None:
        raise ConfigError("evolve requires an output path for the CSV series")
    if out is not None and (not os.path.basename(out) or os.path.isdir(out)):
        raise ConfigError(f"config key 'output' must name a file, not a directory, got {out!r}")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"config key 'output' must be in an existing directory, got {out!r}")

    if cfg.command == "ground-state":
        grid = RadialGrid(cfg.m, cfg.r_max)
        gs = petviashvili_solve(grid, kappa=cfg.kappa, tol=cfg.tol, max_iter=cfg.max_iter)
        if out is not None:
            write_snapshot(gs.pair, 0.0, out + ".snap")
        _write_json(
            out,
            cfg,
            {
                "ratios": list(gs.ratios),
                "mass": gs.mass,
                "kinetic": gs.kinetic,
                "potential": gs.potential,
                "energy": gs.energy,
                "gn_constant": gs.gn_constant,
                "threshold_me": gs.threshold_me,
                "threshold_mh": gs.threshold_mh,
                "residual": gs.residual_norm,
                "residual_floor": gs.residual_floor,
                "iterations": gs.iterations,
            },
        )
        return 0

    if cfg.command == "evolve":
        grid = UniformGrid(cfg.dimension, cfg.n, cfg.L)
        pair = _initial_pair(cfg, grid)
        run_cfg = EvolutionConfig(
            dt=cfg.dt, t_final=cfg.t_final, cadence=cfg.cadence,
            store_fields=bool(cfg.snapshot_every),
        )
        ts = evolve(pair, run_cfg)
        header = ["t", "mass", "kinetic", "potential", "energy"]
        header += [f"momentum_{j}" for j in range(grid.d)]
        header += ["l3_u", "l3_pair", "max_modulus"]
        rows = []
        for rec in ts.records:
            row = [rec.t, rec.mass, rec.kinetic, rec.potential, rec.energy]
            row += list(rec.momentum)
            row += [rec.l3_u, rec.l3_pair, rec.max_modulus]
            rows.append(row)
        _write_csv(out, cfg, header, rows)
        if cfg.snapshot_every:
            for idx, (t, snap_pair) in enumerate(ts.snapshots):
                if idx % cfg.snapshot_every == 0:
                    write_snapshot(snap_pair, t, f"{out}.{idx:06d}.snap")
        print(json.dumps({"outcome": ts.outcome, "classification": blow_up_detect(ts)}))
        return 0

    if cfg.command == "morawetz":
        grid = UniformGrid(1, cfg.n, cfg.L)
        pair = _initial_pair(cfg, grid)
        params = InteractionParams(R0=cfg.R0, J=cfg.J, T0=cfg.T0, eps=cfg.eps)
        res = interaction_lhs(pair, cfg.dt, params)
        rows = [[float(r), float(acc)] for r, acc in zip(res.radii, res.per_radius)]
        if out is not None:
            _write_csv(out + ".csv", cfg, ["R", "accumulator"], rows)
            t_rows = [
                [float(t), float(acc)] for t, acc in zip(res.times, res.per_time)
            ]
            _write_csv(out + ".time.csv", cfg, ["t", "accumulator"], t_rows)
        _write_json(
            out,
            cfg,
            {
                "accumulator": res.accumulator,
                "nu": res.nu,
                "E0": res.e0,
                "ratio": res.ratio,
                "outcome": res.outcome,
                "time_samples": res.n_time_samples,
            },
        )
        return 0

    if cfg.command == "classify":
        grid = UniformGrid(cfg.dimension, cfg.n, cfg.L)
        pair = _initial_pair(cfg, grid)
        gs = petviashvili_solve(
            RadialGrid(cfg.m, cfg.r_max), kappa=cfg.kappa, tol=cfg.tol, max_iter=cfg.max_iter
        )
        rep = classify_data(pair, gs)
        _write_json(out, cfg, asdict(rep))
        return 0

    if cfg.command == "disperse":
        grid = UniformGrid(cfg.dimension, cfg.n, cfg.L)
        pair = _initial_pair(cfg, grid)
        r = np.inf if cfg.decay_exponent == "inf" else float(cfg.decay_exponent)
        slope = dispersive_decay_fit(
            Field(grid, pair.u.values), (cfg.t_fit_start, cfg.t_fit_end), r=r
        )
        predicted = -grid.d * (0.5 - (0.0 if r == np.inf else 1.0 / r))
        _write_json(out, cfg, {"slope": slope, "predicted": predicted})
        return 0

    raise ConfigError(f"unhandled command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: qnls CONFIG.json", file=sys.stderr)
        return 1
    try:
        with open(argv[0]) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_command(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric failure: structured nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
