"""Reproducible entry points.

One flat JSON config drives one run; subcommands: ground-state, evolve,
morawetz, classify, disperse.  Every artifact embeds the echoed config,
CSV rows carry a versioned schema comment, snapshots are a little-endian
binary format with magic "NLSS", and a fixed config gives byte-identical
outputs on one platform.

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
from .fields import FieldPair, galilean_boost, kinetic, mass, pair_from_arrays, potential
from .grid import RadialGrid, UniformGrid
from .ground_state import GroundState, petviashvili_solve, solve_periodic_profile
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
# the largest max |u|, |v| of an initial state: classify's M H and the
# accumulator grow as its fourth power, which overflows from about 1e77 on
# an L = 20 box
_AMPLITUDE_CAP = 1e50
# the keys that build each kind of initial state, as its refusal names them
_BUILT_BY = {"gaussian": ("amplitude", "width", "phase_velocity", "L"), "file": ("input_path",),
             "soliton": ("kappa", "n", "L"), "boosted-soliton": ("kappa", "xi", "n", "L")}

# key: (default, type check, range check or None), in echo order
_KEYS: dict[str, tuple] = {
    "kappa": (0.5, _POSITIVE, None),
    "cadence": (10, _INTEGER, _at_least(1)),
    "dt": (1e-3, _POSITIVE, None),
    "t_final": (1.0, _POSITIVE, None),
    "n": (256, _INTEGER, (lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8")),
    "L": (40.0, _POSITIVE, None),
    # m and n ** dimension are capped so that a typo such as 2**40 is a usage
    # error, not an allocation
    "m": (2048, _INTEGER, (lambda m: 4 <= m <= 2**20, "in [4, 2**20]")),
    "r_max": (30.0, _POSITIVE, None),
    # variational_thresholds refuses a residual above 1e-6, and a looser stop
    # could return a profile that no iteration has refined
    "tol": (1e-10, _POSITIVE, (lambda t: t <= 1e-6, "at most 1e-6")),
    "max_iter": (500, _INTEGER, _at_least(1)),
    "dimension": (1, _INTEGER, (lambda d: d in (1, 2, 3), "1, 2 or 3")),
    "initial": ("gaussian", (lambda x: x in _INITIALS, f"one of {', '.join(_INITIALS)}"), None),
    "amplitude": (1.0, _POSITIVE, (lambda a: a <= _AMPLITUDE_CAP, "at most 1e50")),
    # 2 width^2 stays a finite normal float, so the Gaussian is not 0/0 at its centre
    "width": (2.0, _POSITIVE, (lambda w: 1e-150 <= w <= 1e150, "in [1e-150, 1e150]")),
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

# the keys each command reads, and so accepts, fills and echoes
_INITIAL_KEYS = ("kappa", "n", "L", "initial", "amplitude", "width", "center", "phase_velocity",
                 "xi", "input_path")
_SOLVER_KEYS = ("kappa", "m", "r_max", "tol", "max_iter")
_READS: dict[str, frozenset] = {
    command: frozenset(("output", *keys)) for command, keys in {
        "ground-state": _SOLVER_KEYS,
        "evolve": (*_INITIAL_KEYS, "dimension", "dt", "t_final", "cadence", "snapshot_every"),
        "morawetz": (*_INITIAL_KEYS, "dt", "R0", "J", "T0", "eps"),
        "classify": (*_INITIAL_KEYS, *_SOLVER_KEYS, "dimension"),
        "disperse": (*_INITIAL_KEYS, "dimension", "decay_exponent", "t_fit_start", "t_fit_end"),
    }.items()
}

# why a command does not read a key, where "<command> does not read it" would not say
_UNREAD = {("morawetz", "cadence"): f"morawetz samples every {InteractionParams.cadence}th step"}

# the span each command steps through with dt
_SPAN_KEYS = {"evolve": "t_final", "morawetz": "T0"}

_COMMANDS = tuple(_READS)


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
    """Parse and validate a flat JSON config, filling documented defaults.

    Every key given is checked against its value rules first; then a key
    that the command does not read is refused, naming the commands that do.
    The returned config holds the command's own keys (``_READS``) only, so
    that is also what every artifact echoes.
    """
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
    command = raw["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}")
    for key, (_, kind, limit) in _KEYS.items():
        for check in (kind, limit):
            if key in raw and check is not None and not check[0](raw[key]):
                raise ConfigError(f"config key {key!r} must be {check[1]}, got {raw[key]!r}")
    reads = _READS[command]
    for key in _KEYS:
        if key in raw and key not in reads:
            readers = ", ".join(c for c in _COMMANDS if key in _READS[c])
            why = _UNREAD.get((command, key), f"{command} does not read it")
            raise ConfigError(f"config key {key!r} is read by {readers} only; {why}")
    options = {key: raw.get(key, spec[0]) for key, spec in _KEYS.items() if key in reads}
    dimension = options.get("dimension", 1)   # morawetz runs in one dimension
    if "n" in options and options["n"] ** dimension > 2**22:
        raise ConfigError(
            f"config key 'n' must keep n ** dimension <= 2**22, got "
            f"{options['n']!r} ** {dimension!r}"
        )
    if command == "disperse" and options["t_fit_start"] >= options["t_fit_end"]:
        raise ConfigError(
            f"config key 't_fit_start' must be below 't_fit_end', got "
            f"{options['t_fit_start']!r} >= {options['t_fit_end']!r}"
        )
    span = _SPAN_KEYS.get(command)
    if span is not None:
        try:
            nsteps = _whole_steps(options[span], options["dt"])
        except ValueError as exc:
            raise ConfigError(f"config key {span!r}: {exc}") from exc
        # the stops (evolve's rows, morawetz's samples) are capped so that a dt
        # typo is a usage error, not a list of 10^8 stops: step 0, every
        # cadence-th step and the last
        cadence = options.get("cadence", InteractionParams.cadence)
        stops = -(-nsteps // cadence) + 1
        if stops > 2**20:
            raise ConfigError(
                f"config key {span!r} must give at most 2**20 stops, got {stops} "
                f"({nsteps} steps dt, a stop every {cadence})"
            )
    return RunConfig(command=command, options=options)


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
        fh.write(np.asarray(p.values, dtype="<c16").tobytes())


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
        if len(set(counts)) != 1:
            raise ValueError(
                f"uniform snapshot with axis counts {counts}, expected one n on every axis"
            )
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
    return FieldPair.from_stack(grid, w.reshape((2,) + grid.shape), kappa), t


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


def _initial_pair(cfg: RunConfig) -> FieldPair:
    """The command's initial state on its periodic box (``morawetz``: d = 1), inside the domain."""
    try:
        grid = UniformGrid(cfg.options.get("dimension", 1), cfg.n, cfg.L)
    except ValueError as exc:   # the grid's own numeric domain
        raise ConfigError(f"config keys 'L', 'n' and 'dimension': {exc}") from None
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
        if "dimension" not in cfg.options and snap.d != grid.d:
            raise ConfigError(
                f"input_path holds a {snap.d}-D state; {cfg.command} runs on a {grid.d}-D grid"
            )
        want = {"dimension": grid.d, "n": grid.n, "L": grid.L, "kappa": cfg.kappa}
        got = {"dimension": snap.d, "n": snap.n, "L": snap.L, "kappa": pair.kappa}
        differ = [
            f"{key!r} ({want[key]!r} in the config, {got[key]!r} in the snapshot)"
            for key in want if got[key] != want[key]
        ]
        if differ:
            raise ConfigError(f"the input_path snapshot disagrees with config keys {', '.join(differ)}")
    elif kind == "gaussian":
        center = cfg.center if cfg.center is not None else grid.L / 2.0
        # far from a narrow Gaussian the exponent overflows, and exp(-inf) = 0;
        # a phase that overflows gives NaN samples, which the check below refuses
        with np.errstate(over="ignore", invalid="ignore"):
            rho2 = sum((c - center) ** 2 for c in grid.coords())
            env = cfg.amplitude * np.exp(-rho2 / (2.0 * cfg.width**2))
            u = env * np.exp(1j * (cfg.phase_velocity * sum(grid.coords())))
        pair = pair_from_arrays(grid, u, np.zeros(grid.shape, dtype=complex), cfg.kappa)
    else:
        pair = solve_periodic_profile(grid, kappa=cfg.kappa, tol=1e-12)
        if kind == "boosted-soliton":
            with np.errstate(over="ignore", invalid="ignore"):
                pair = galilean_boost(pair, [cfg.xi] * grid.d)
    # a snapshot that is not finite keeps its own outcome (blow-up, or a refusal); the
    # caps keep the reports' quadratic products (M H, M E, E0^2) finite
    keys = ", ".join(map(repr, _BUILT_BY[kind]))
    if not np.isfinite(pair.values).all():
        if kind == "file":
            return pair
        raise ConfigError(f"the initial state from config keys {keys} is not finite")
    with np.errstate(all="ignore"):   # |z| of a finite z, and the sums, may be inf
        peak = float(np.max(np.abs(pair.values)))
        size = mass(pair) + kinetic(pair) + abs(potential(pair))
    if peak > _AMPLITUDE_CAP or not size <= 1e150:
        raise ConfigError(
            f"the initial state from config keys {keys} has max |u|, |v| = {peak:.3g} and "
            f"M + H + |R| = {size:.3g} at t = 0; the caps are 1e50 and 1e150"
        )
    return pair


def _ground_state(cfg: RunConfig) -> GroundState:
    """The radial ground state at the config's solver keys."""
    try:
        grid = RadialGrid(cfg.m, cfg.r_max)
    except ValueError as exc:   # the grid's own numeric domain
        raise ConfigError(f"config keys 'm' and 'r_max': {exc}") from None
    return petviashvili_solve(grid, kappa=cfg.kappa, tol=cfg.tol, max_iter=cfg.max_iter)


def run_command(cfg: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit code.

    Every artifact echoes the config; the built-in initial conditions are
    deterministic, so reruns are byte-identical.
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
        gs = _ground_state(cfg)
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
        pair = _initial_pair(cfg)
        run_cfg = EvolutionConfig(
            dt=cfg.dt, t_final=cfg.t_final, cadence=cfg.cadence, snapshot_every=cfg.snapshot_every,
        )
        ts = evolve(pair, run_cfg)
        header = ["t", "mass", "kinetic", "potential", "energy"]
        header += [f"momentum_{j}" for j in range(pair.grid.d)]
        header += ["l3_u", "l3_pair", "max_modulus"]
        rows = []
        for rec in ts.records:
            row = [rec.t, rec.mass, rec.kinetic, rec.potential, rec.energy]
            row += list(rec.momentum)
            row += [rec.l3_u, rec.l3_pair, rec.max_modulus]
            rows.append(row)
        _write_csv(out, cfg, header, rows)
        for j, (t, snap_pair) in enumerate(ts.snapshots):
            write_snapshot(snap_pair, t, f"{out}.{j * cfg.snapshot_every:06d}.snap")
        print(json.dumps({"outcome": ts.outcome, "classification": blow_up_detect(ts)}))
        return 0

    if cfg.command == "morawetz":
        try:
            params = InteractionParams(R0=cfg.R0, J=cfg.J, T0=cfg.T0, eps=cfg.eps)
        except ValueError as exc:   # the radii's numeric domain
            raise ConfigError(f"config keys 'R0', 'J' and 'T0': {exc}") from None
        pair = _initial_pair(cfg)   # refuses a box outside the grid's domain first
        # the windows divide distances up to L / 2 by R0: keep that ratio, and its square, finite
        if not cfg.L <= 1e150 * cfg.R0:
            raise ConfigError(
                f"config keys 'R0' and 'L' must keep L / R0 <= 1e150, got L {cfg.L!r}, R0 {cfg.R0!r}"
            )
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
        rep = classify_data(_initial_pair(cfg), _ground_state(cfg))
        _write_json(out, cfg, asdict(rep))
        return 0

    if cfg.command == "disperse":
        u = _initial_pair(cfg).u
        r = np.inf if cfg.decay_exponent == "inf" else float(cfg.decay_exponent)
        slope = dispersive_decay_fit(u, (cfg.t_fit_start, cfg.t_fit_end), r=r)
        predicted = -u.grid.d * (0.5 - (0.0 if r == np.inf else 1.0 / r))
        _write_json(out, cfg, {"slope": slope, "predicted": predicted})
        return 0

    raise ConfigError(f"unhandled command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: qnls CONFIG.json", file=sys.stderr)
        return 1
    try:
        with open(argv[0], encoding="utf-8") as fh:   # JSON is UTF-8
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8: {exc}", file=sys.stderr)
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
