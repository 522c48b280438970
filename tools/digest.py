"""Output digest of the qnls CLI: one sha256 per artifact of a fixed manifest.

Usage:
    python3 tools/digest.py                 # print the digest as JSON
    python3 tools/digest.py --against FILE  # list the entries that differ

The manifest below has 23 CLI runs.  They run every command, in d = 1, 2 and
3, with snapshots written and read back (``initial: "file"``); every
outcome of ``evolve`` and ``morawetz`` (``completed``, ``blow-up`` and
``substep-failure`` of each, and a completed ``evolve`` whose nearly flat
state grows by modulational instability); four usage errors and a numeric
error.  Each run is ``python -m qnls.cli CONFIG`` in its own process, from
the ``src/`` next to this script, inside one temporary directory with
relative paths, so artifacts never embed a location.  Runs go in manifest order, because the
``file`` runs read snapshots that earlier runs wrote.  A 24th run builds
the Morawetz weight tables, which no command writes, in one more process:
``phi``, ``phi1``, ``psi``, ``a`` and ``dphi`` for d = 1, 2 and 5 at
eps = 0.05.  A 25th process evaluates the pair functionals, which no
command prints on its own: ``kinetic``, ``momentum``, ``boosted_kinetic``,
``coercivity_gap``, ``boost_xi``, ``weighted_momentum``,
``galilean_pairing`` and ``cauchy_schwarz_margin`` on two seeded torus
pairs each in d = 1, 2 and 3, ``coercivity_on_balls`` and
``morawetz_action`` on those in d = 1 and 2, and ``kinetic``,
``boosted_kinetic`` and ``coercivity_gap`` on two seeded radial pairs.

The digest maps ``<run>/stdout``, ``<run>/stderr`` and ``<run>/exit`` of
each CLI run, ``files/<name>`` of every file left in the directory,
``tables/d<d>/<name>`` of each table, and ``functionals/<name>/<case>`` of
each functional value (its float64 bytes), to the sha256 of its bytes:
140 entries for the CLI runs and tables and 62 for the functionals.  Outputs are
byte-identical per platform only (numpy's SIMD kernels may round
differently on other CPUs), so compare digests taken on one machine.  With ``--against`` the script prints the
entries that differ or that only one digest has, and exits 1 if there are
any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (run name, config); "output" names are relative to the run directory
MANIFEST: list[tuple[str, dict]] = [
    ("ground-state", {"command": "ground-state", "m": 256, "r_max": 20.0, "output": "gs"}),
    ("evolve-1d-gaussian", {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1e-3, "t_final": 0.06,
        "cadence": 10, "amplitude": 0.6, "width": 1.5, "phase_velocity": 0.4,
        "snapshot_every": 2, "output": "e1.csv",
    }),
    ("evolve-1d-soliton", {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 2e-3, "t_final": 0.1,
        "cadence": 25, "initial": "soliton", "output": "e1s.csv",
    }),
    ("evolve-2d-boosted-soliton", {
        "command": "evolve", "dimension": 2, "n": 64, "L": 16.0, "dt": 2e-3, "t_final": 0.04,
        "cadence": 5, "initial": "boosted-soliton", "xi": 0.3, "snapshot_every": 4,
        "output": "e2.csv",
    }),
    ("evolve-3d-gaussian", {
        "command": "evolve", "dimension": 3, "n": 16, "L": 10.0, "dt": 1e-3, "t_final": 0.01,
        "cadence": 5, "amplitude": 0.5, "width": 1.5, "output": "e3.csv",
    }),
    ("evolve-2d-file", {
        "command": "evolve", "dimension": 2, "n": 64, "L": 16.0, "dt": 2e-3, "t_final": 0.02,
        "cadence": 5, "initial": "file", "input_path": "e2.csv.000004.snap",
        "output": "e2f.csv",
    }),
    # max |u| = 1.875 of the torus soliton exceeds 1/h = 0.5 after one step
    ("evolve-blow-up", {
        "command": "evolve", "dimension": 1, "n": 256, "L": 512.0, "dt": 1e-3, "t_final": 0.01,
        "initial": "soliton", "output": "blow.csv",
    }),
    # the same run with a snapshot at every row: the row that trips writes none
    ("evolve-blow-up-snapshots", {
        "command": "evolve", "dimension": 1, "n": 256, "L": 512.0, "dt": 1e-3, "t_final": 0.01,
        "cadence": 1, "initial": "soliton", "snapshot_every": 1, "output": "blows.csv",
    }),
    # a nearly flat u: H grows to 3.1e4 H(0) while max |u|, |v| stays below
    # 1/h = 3.2 (at most 1.55); completed, and "undecided" by H(0)-relative growth
    ("evolve-modulational", {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1e-3, "t_final": 20.0,
        "cadence": 100, "amplitude": 1.0, "width": 40.0, "output": "modulational.csv",
    }),
    ("evolve-substep-failure", {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1.0, "t_final": 1.0,
        "amplitude": 1000.0, "width": 0.7071067811865476, "output": "fail.csv",
    }),
    ("morawetz-gaussian", {
        "command": "morawetz", "n": 128, "L": 64.0, "dt": 2e-3, "T0": 0.5,
        "amplitude": 0.3, "width": 3.0, "phase_velocity": 0.2, "output": "mw",
    }),
    ("morawetz-1d-soliton", {
        "command": "morawetz", "n": 256, "L": 512.0, "dt": 1e-3, "T0": 0.5,
        "initial": "soliton", "output": "mws",
    }),
    ("morawetz-file", {
        "command": "morawetz", "n": 64, "L": 20.0, "dt": 1e-3, "T0": 0.1, "R0": 1.0, "J": 2.0,
        "initial": "file", "input_path": "e1.csv.000002.snap", "output": "mwf",
    }),
    ("morawetz-substep-failure", {
        "command": "morawetz", "n": 64, "L": 20.0, "dt": 1.0, "T0": 1.0,
        "amplitude": 1000.0, "width": 0.7071067811865476, "output": "mwfail",
    }),
    ("classify-1d", {"command": "classify", "dimension": 1, "n": 64, "L": 20.0, "m": 256,
                     "r_max": 20.0, "amplitude": 0.5, "output": "cl1"}),
    ("classify-2d-stdout", {"command": "classify", "dimension": 2, "n": 32, "L": 16.0,
                            "m": 256, "r_max": 20.0, "initial": "soliton"}),
    ("disperse-1d", {"command": "disperse", "dimension": 1, "n": 512, "L": 200.0,
                     "t_fit_start": 4.0, "t_fit_end": 12.0, "output": "d1"}),
    ("disperse-2d-l4", {"command": "disperse", "dimension": 2, "n": 128, "L": 120.0,
                        "decay_exponent": 4, "t_fit_start": 4.0, "t_fit_end": 12.0,
                        "output": "d2"}),
    ("usage-error", {"command": "evolve", "kapa": 1.0}),
    # morawetz samples every 25th step whatever the config says, so setting cadence is an error
    ("usage-error-morawetz-cadence", {"command": "morawetz", "cadence": 10}),
    # 2 width^2 underflows to 0 here, which would make the Gaussian 0/0 at its centre
    ("usage-error-width", {"command": "evolve", "width": 1e-300}),
    # morawetz writes no snapshot, so it refuses snapshot_every as a key it does not read
    ("usage-error-unread-key", {
        "command": "morawetz", "n": 128, "L": 64.0, "dt": 2e-3, "T0": 0.5,
        "amplitude": 0.3, "width": 3.0, "phase_velocity": 0.2, "snapshot_every": 3,
        "output": "mwu",
    }),
    ("numeric-error", {"command": "ground-state", "m": 128, "r_max": 10.0, "tol": 1e-15,
                       "max_iter": 2}),
]

# prints {"tables/d<d>/<name>": sha256 of the float64 bytes} as JSON
TABLES = """
import hashlib, json
from qnls.morawetz import build_weights
print(json.dumps({
    f"tables/d{d}/{name}": hashlib.sha256(getattr(build_weights(d, 1.0, 0.05), name).tobytes()).hexdigest()
    for d in (1, 2, 5) for name in ("phi", "phi1", "psi", "a", "dphi")
}))
"""

# prints {"functionals/<name>/<case>": sha256 of the float64 bytes} as JSON
FUNCTIONALS = """
import hashlib, json
import numpy as np
from qnls import fields as F, morawetz as M, threshold as TH
from qnls.grid import RadialGrid, UniformGrid
from qnls.ground_state import petviashvili_solve

out = {}

def put(name, case, *values):
    data = np.concatenate([np.asarray(v, dtype=float).ravel() for v in values]).tobytes()
    out[f"functionals/{name}/{case}"] = hashlib.sha256(data).hexdigest()

# two random plane waves under a Gaussian whose centre is off the box centre
def bump(g, rng):
    x = g.coords()
    env = np.exp(-sum((xj - g.L * rng.uniform(0.35, 0.65)) ** 2 for xj in x) / 4.0)
    return env * sum(rng.normal() * np.exp(1j * sum(rng.normal() * xj for xj in x)) for _ in range(2))

gs = petviashvili_solve(RadialGrid(256, 20.0))
weights = {d: M.build_weights(d, 2.0, 0.05) for d in (1, 2)}
for d, n, L in ((1, 64, 20.0), (2, 32, 15.0), (3, 16, 10.0)):
    g = UniformGrid(d, n, L)
    s, xi = np.full(d, L / 2), np.full(d, 0.3)
    w = weights[min(d, 2)]   # windows read only eps; the action needs its own d
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        p = F.pair_from_arrays(g, bump(g, rng), bump(g, rng))
        case = f"torus-d{d}-seed{seed}"
        put("kinetic", case, F.kinetic(p))
        put("momentum", case, F.momentum(p))
        put("boosted_kinetic", case, TH.boosted_kinetic(p, xi))
        put("coercivity_gap", case, TH.coercivity_gap(p, xi))
        choice = M.boost_xi(p, s, 2.0, w)
        put("boost_xi", case, choice.xi, choice.denominator)
        put("weighted_momentum", case, M.weighted_momentum(p, s, 2.0, w))
        put("galilean_pairing", case, M.galilean_pairing(p, s, 2.0, w))
        put("cauchy_schwarz_margin", case, M.cauchy_schwarz_margin(p, 1000))
        if d <= 2:
            rep = TH.coercivity_on_balls(p, s, 3.0, gs)
            put("coercivity_on_balls", case, rep.localized_kinetic, rep.localized_potential,
                rep.delta_prime, rep.identity_error, rep.kinetic_excess_constant)
            put("morawetz_action", case, M.morawetz_action(p, w))
for seed in (0, 1):
    rng = np.random.default_rng(seed)
    r = gs.pair.grid.nodes()
    p = gs.pair.with_values(*(rng.uniform(0.3, 2.0) * np.exp(-(r / rng.uniform(0.5, 3.0)) ** 2)
                              + 0j for _ in range(2)))
    case = f"radial-seed{seed}"
    put("kinetic", case, F.kinetic(p))
    put("boosted_kinetic", case, TH.boosted_kinetic(p, 0.7))
    put("coercivity_gap", case, TH.coercivity_gap(p, 0.7))
print(json.dumps(out))
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="qnls-digest-") as work:
        for name, config in MANIFEST:
            config_path = f"{name}.json"
            with open(os.path.join(work, config_path), "w") as fh:
                json.dump(config, fh, sort_keys=True)
            proc = subprocess.run(
                [sys.executable, "-m", "qnls.cli", config_path],
                cwd=work, env=env, capture_output=True, check=False,
            )
            out[f"{name}/stdout"] = _sha(proc.stdout)
            out[f"{name}/stderr"] = _sha(proc.stderr)
            out[f"{name}/exit"] = _sha(str(proc.returncode).encode())
        for fname in sorted(os.listdir(work)):
            with open(os.path.join(work, fname), "rb") as fh:
                out[f"files/{fname}"] = _sha(fh.read())
    tables = subprocess.run(
        [sys.executable, "-c", TABLES], env=env, capture_output=True, check=True, text=True,
    )
    out.update(json.loads(tables.stdout))
    functionals = subprocess.run(
        [sys.executable, "-c", FUNCTIONALS], env=env, capture_output=True, check=True, text=True,
    )
    out.update(json.loads(functionals.stdout))
    return out


def differences(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """One line per entry that differs or that only one of the digests has."""
    lines = []
    for key in sorted(set(ours) | set(theirs)):
        if key not in theirs:
            lines.append(f"only in this tree: {key}")
        elif key not in ours:
            lines.append(f"only in the earlier digest: {key}")
        elif ours[key] != theirs[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE", help="an earlier digest to compare with")
    args = parser.parse_args(argv)
    ours = digest()
    if args.against is None:
        print(json.dumps(ours, indent=1, sort_keys=True))
        return 0
    with open(args.against) as fh:
        theirs = json.load(fh)
    lines = differences(ours, theirs)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(set(ours) | set(theirs))} entries differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
