import json
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qnls.evolution import EvolutionConfig, evolve
from qnls.grid import RadialGrid, UniformGrid
from qnls.fields import galilean_boost, pair_from_arrays
from qnls.ground_state import petviashvili_solve, solve_periodic_profile
from qnls.cli import (
    _COMMANDS,
    _KEYS,
    _READS,
    ConfigError,
    RunConfig,
    _initial_pair,
    main,
    parse_config,
    read_snapshot,
    run_command,
    write_snapshot,
)

from conftest import random_envelope_pair, run_python


def test_parse_minimal_evolve_fills_defaults():
    cfg = parse_config(json.dumps({
        "command": "evolve", "dimension": 1, "n": 64, "L": 10.0,
        "dt": 1e-3, "t_final": 0.1,
    }))
    assert cfg.command == "evolve"
    assert cfg.kappa == 0.5
    assert cfg.cadence == 10


def test_parse_rejects_bad_input():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(json.dumps({"command": "evolve", "n": 100}))
    with pytest.raises(ConfigError, match="kapa"):
        parse_config(json.dumps({"command": "evolve", "kapa": 1.0}))
    with pytest.raises(ConfigError, match="command"):
        parse_config(json.dumps({"n": 64}))
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(json.dumps({"command": "explode"}))


def test_unparsable_json_is_a_config_error():
    for text in ("1" * 5000, "[" * 100_000, '{"command": "evolve", "n": ' + "9" * 5000 + "}"):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(text)


def test_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    g = UniformGrid(2, 16, 7.0)
    p = random_envelope_pair(g, rng)
    path = str(tmp_path / "pair.snap")
    write_snapshot(p, 1.25, path)
    q, t = read_snapshot(path)
    assert t == 1.25
    assert q.kappa == p.kappa
    assert q.grid == p.grid
    assert np.array_equal(q.u.values, p.u.values)
    assert np.array_equal(q.v.values, p.v.values)


def test_snapshot_round_trip_keeps_every_bit(tmp_path):
    # np.array_equal calls -0.0 equal to 0.0 and cannot compare NaNs, so
    # compare the bytes: signed zeros, infinities and NaN payloads included
    g = UniformGrid(1, 8, 3.0)
    nan_payload = np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_0000_0001], dtype=np.uint64).view(float)
    re = np.array([-0.0, 0.0, 1.0, np.inf, -np.inf, nan_payload[0], nan_payload[1], -2.5])
    im = np.array([np.inf, -0.0, -np.inf, nan_payload[1], 0.0, -0.0, nan_payload[0], np.nan])
    u = re + 0j
    u.imag = im
    v = u[::-1].copy()
    v.real = -v.real
    p = pair_from_arrays(g, u, v)
    path = str(tmp_path / "special.snap")
    write_snapshot(p, 0.0, path)
    q, _ = read_snapshot(path)
    assert q.u.values.tobytes() == u.tobytes()
    assert q.v.values.tobytes() == v.tobytes()
    q.u.values[0] = 1.0   # the read arrays are writable


def test_snapshot_radial_round_trip(tmp_path):
    g = RadialGrid(64, 12.0)
    r = g.nodes()
    p = pair_from_arrays(g, np.exp(-r) + 0j, np.exp(-2 * r) + 0j, 0.5)
    path = str(tmp_path / "radial.snap")
    write_snapshot(p, 0.0, path)
    q, _ = read_snapshot(path)
    assert q.grid == g
    assert np.array_equal(q.u.values, p.u.values)


def test_snapshot_payload_size(tmp_path):
    g = UniformGrid(1, 256, 10.0)
    z = np.zeros(g.shape, complex)
    p = pair_from_arrays(g, z, z)
    path = str(tmp_path / "size.snap")
    write_snapshot(p, 0.0, path)
    header = 4 + 4 + 8 + 4 * 1 + 8 + 8 + 8 + 4
    payload = 2 * 256 * 2 * 8
    with open(path, "rb") as fh:
        data = fh.read()
    assert len(data) == header + payload
    assert payload == 8192


def test_snapshot_truncation_detected(tmp_path):
    g = UniformGrid(1, 16, 1.0)
    z = np.zeros(g.shape, complex)
    path = str(tmp_path / "trunc.snap")
    write_snapshot(pair_from_arrays(g, z, z), 0.0, path)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(path)
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + data[4:])
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


@pytest.mark.parametrize("radial", [False, True])
@pytest.mark.parametrize("dim", [0, 2**20])
def test_snapshot_header_dimension_checked_before_sizing(tmp_path, capsys, radial, dim):
    # the header's uint32 dimension sizes the grid-count format string, so
    # it is checked against the grid kind first
    g = RadialGrid(16, 5.0) if radial else UniformGrid(1, 16, 5.0)
    z = np.zeros(g.shape, complex)
    path = tmp_path / "dim.snap"
    write_snapshot(pair_from_arrays(g, z, z), 0.0, str(path))
    data = bytearray(path.read_bytes())
    data[12:16] = dim.to_bytes(4, "little")   # after magic, version and grid kind
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"dimension {dim},"):
        read_snapshot(str(path))
    conf = tmp_path / "file.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 16, "L": 5.0, "dt": 1e-3, "t_final": 0.002,
        "initial": "file", "input_path": str(path), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError" and f"dimension {dim}," in err["message"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("size", [10, 16])
def test_short_snapshot_header_is_truncated(tmp_path, capsys, size):
    # cut inside the version-kind-dimension words, then after them
    g = UniformGrid(1, 16, 5.0)
    z = np.zeros(g.shape, complex)
    path = tmp_path / "short.snap"
    write_snapshot(pair_from_arrays(g, z, z), 0.0, str(path))
    path.write_bytes(path.read_bytes()[:size])
    conf = tmp_path / "file.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 16, "L": 5.0, "dt": 1e-3, "t_final": 0.002,
        "initial": "file", "input_path": str(path), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError" and "truncated snapshot" in err["message"]
    assert "unpack" not in err["message"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("second, rows", [(32, 64), (7, 64), (32, 32)])
def test_snapshot_axis_counts_must_agree(tmp_path, capsys, second, rows):
    # a 2-D header whose second axis count differs from the first, over the
    # full 64 x 64 payload or a 64 x 32 one
    g = UniformGrid(2, 64, 5.0)
    z = np.zeros(g.shape, complex)
    path = tmp_path / "counts.snap"
    write_snapshot(pair_from_arrays(g, z, z), 0.0, str(path))
    data = bytearray(path.read_bytes())
    data[20:24] = second.to_bytes(4, "little")   # after magic, version, kind, dimension, n
    header = len(data) - 2 * g.size * 16
    path.write_bytes(bytes(data[:header + 2 * 64 * rows * 16]))
    with pytest.raises(ValueError, match=rf"axis counts \(64, {second}\)"):
        read_snapshot(str(path))
    conf = tmp_path / "file.json"
    conf.write_text(json.dumps({
        "command": "evolve", "dimension": 2, "n": 64, "L": 5.0, "dt": 1e-3, "t_final": 0.002,
        "initial": "file", "input_path": str(path), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError" and f"axis counts (64, {second})" in err["message"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("field, offset", [("L", 20), ("kappa", 28)])
def test_snapshot_header_with_an_infinite_size_is_a_numeric_failure(tmp_path, capsys, field,
                                                                    offset):
    # a 1-D header: magic, version, kind, dimension and n, then L, kappa and t as doubles
    g = UniformGrid(1, 16, 5.0)
    z = np.zeros(g.shape, complex)
    path = tmp_path / "inf.snap"
    write_snapshot(pair_from_arrays(g, z, z), 0.0, str(path))
    data = bytearray(path.read_bytes())
    data[offset:offset + 8] = np.array(inf, "<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="must be a finite positive number, got inf"):
        read_snapshot(str(path))
    conf = tmp_path / "file.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 16, "L": 5.0, "dt": 1e-3, "t_final": 0.002,
        "initial": "file", "input_path": str(path), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "ValueError" and "got inf" in err["message"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    ("version", 2, "unsupported snapshot version 2"),
    ("kind", 7, "unknown grid kind 7"),
    ("count", 3, "expected 2 fields, header says 3"),
])
def test_snapshot_header_rejections(tmp_path, capsys, field, value, message):
    g = UniformGrid(1, 16, 5.0)
    z = np.zeros(g.shape, complex)
    path = tmp_path / "bad.snap"
    write_snapshot(pair_from_arrays(g, z, z), 0.0, str(path))
    data = bytearray(path.read_bytes())
    # version and grid kind follow the magic; the field count ends the header
    offset = {"version": 4, "kind": 8, "count": len(data) - 2 * g.size * 16 - 4}[field]
    data[offset:offset + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message):
        read_snapshot(str(path))
    conf = tmp_path / "file.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 16, "L": 5.0, "dt": 1e-3, "t_final": 0.002,
        "initial": "file", "input_path": str(path), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    err = json.loads(out)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not (tmp_path / "run.csv").exists()


def test_evolve_writes_every_third_snapshot(tmp_path, monkeypatch):
    # the run holds only the states it writes: 4 of its 11 rows
    held = []

    def recording_evolve(p0, cfg):
        ts = evolve(p0, cfg)
        held.append(len(ts.snapshots))
        return ts

    monkeypatch.setattr("qnls.cli.evolve", recording_evolve)
    out = tmp_path / "run.csv"
    cfg = parse_config(json.dumps({
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1e-3,
        "t_final": 0.02, "cadence": 2, "initial": "gaussian", "amplitude": 0.5,
        "snapshot_every": 3, "output": str(out),
    }))
    assert run_command(cfg) == 0
    assert held == [4]
    pair = _initial_pair(cfg)
    ts = evolve(pair, EvolutionConfig(dt=1e-3, t_final=0.02, cadence=2, snapshot_every=1))
    assert len(ts.snapshots) == 11
    names = [f"run.csv.{idx:06d}.snap" for idx in range(0, 11, 3)]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.csv", *names]
    for name, (t, snap) in zip(names, ts.snapshots[::3]):
        q, t_read = read_snapshot(str(tmp_path / name))
        assert t_read == t
        assert q.u.values.tobytes() == snap.u.values.tobytes()
        assert q.v.values.tobytes() == snap.v.values.tobytes()


def test_boosted_soliton_starts_from_the_boosted_profile(tmp_path):
    out = str(tmp_path / "boost.csv")
    assert run_command(parse_config(json.dumps({
        "command": "evolve", "dimension": 2, "n": 32, "L": 16.0, "dt": 1e-3,
        "t_final": 0.002, "initial": "boosted-soliton", "xi": 0.7,
        "snapshot_every": 1, "output": out,
    }))) == 0
    grid = UniformGrid(2, 32, 16.0)
    want = galilean_boost(solve_periodic_profile(grid, 0.5, tol=1e-12), [0.7, 0.7])
    q, t = read_snapshot(out + ".000000.snap")
    assert t == 0.0
    assert q.u.values.tobytes() == want.u.values.tobytes()
    assert q.v.values.tobytes() == want.v.values.tobytes()


def test_ground_state_command_reports_ratios(tmp_path):
    out = str(tmp_path / "gs.json")
    cfg = parse_config(json.dumps({
        "command": "ground-state", "m": 512, "r_max": 20.0, "tol": 1e-9,
        "output": out,
    }))
    assert run_command(cfg) == 0
    doc = json.loads(open(out).read())
    assert doc["ratios"][1] == pytest.approx(5.0, abs=1e-3)
    assert doc["ratios"][2] == pytest.approx(4.0, abs=1e-3)
    assert doc["config"]["m"] == 512
    assert 0.0 < doc["residual_floor"] < 1e-8
    pair, t = read_snapshot(out + ".snap")
    assert pair.grid == RadialGrid(512, 20.0)


def test_evolve_command_deterministic_csv(tmp_path):
    conf = {
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0,
        "dt": 1e-3, "t_final": 0.05, "cadence": 10,
        "initial": "gaussian", "amplitude": 0.5, "width": 2.0,
    }
    out1 = str(tmp_path / "run1.csv")
    out2 = str(tmp_path / "run2.csv")
    run_command(parse_config(json.dumps({**conf, "output": out1})))
    run_command(parse_config(json.dumps({**conf, "output": out2})))
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1.replace(b"run1", b"run2") == b2
    text = b1.decode()
    assert text.startswith("# schema=1\n")
    assert "# config=" in text


def test_evolve_csv_cells_are_plain_floats(tmp_path):
    out = str(tmp_path / "cells.csv")
    run_command(parse_config(json.dumps({
        "command": "evolve", "dimension": 2, "n": 16, "L": 10.0,
        "dt": 1e-3, "t_final": 0.02, "cadence": 10, "initial": "gaussian",
        "amplitude": 0.3, "phase_velocity": 0.5, "output": out,
    })))
    rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
    header = rows[0].split(",")
    assert "momentum_1" in header
    for row in rows[1:]:
        cells = row.split(",")
        assert len(cells) == len(header)
        for cell in cells:
            float(cell)


def test_evolve_energy_drift_on_soliton(tmp_path):
    out = str(tmp_path / "sol.csv")
    cfg = parse_config(json.dumps({
        "command": "evolve", "dimension": 1, "n": 128, "L": 40.0,
        "dt": 1e-3, "t_final": 1.0, "cadence": 100, "initial": "soliton",
        "output": out,
    }))
    assert run_command(cfg) == 0
    rows = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
    header = rows[0].split(",")
    e_idx = header.index("energy")
    energies = np.array([float(r.split(",")[e_idx]) for r in rows[1:]])
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-8


def test_classify_command(tmp_path):
    out = str(tmp_path / "cls.json")
    cfg = parse_config(json.dumps({
        "command": "classify", "dimension": 1, "n": 64, "L": 20.0,
        "m": 384, "r_max": 16.0, "tol": 1e-8,
        "initial": "gaussian", "amplitude": 0.1, "width": 2.0, "output": out,
    }))
    assert run_command(cfg) == 0
    doc = json.loads(open(out).read())
    assert doc["classification"] == "below"


def test_morawetz_command(tmp_path):
    out = str(tmp_path / "mor.json")
    cfg = parse_config(json.dumps({
        "command": "morawetz", "n": 256, "L": 100.0, "dt": 5e-3,
        "initial": "gaussian", "amplitude": 0.05, "width": 4.0,
        "R0": 2.0, "J": 4.0, "T0": 2.0, "eps": 0.25, "output": out,
    }))
    assert run_command(cfg) == 0
    doc = json.loads(open(out).read())
    assert doc["accumulator"] >= 0.0
    assert doc["outcome"] == "completed"
    rows = [ln for ln in open(out + ".csv").read().splitlines() if not ln.startswith("#")]
    assert rows[0] == "R,accumulator"


def test_both_stepping_commands_end_the_torus_soliton_at_step_one(tmp_path, capsys):
    # max |u| = 1.875 of the torus soliton passes 1/h = 0.5 after one step;
    # the accumulator's one step ends it before its second sample
    base = {"n": 256, "L": 512.0, "dt": 1e-3, "initial": "soliton"}
    csv = str(tmp_path / "ev.csv")
    assert run_command(parse_config(json.dumps(
        {**base, "command": "evolve", "t_final": 0.01, "output": csv}))) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "blow-up"
    rows = [ln for ln in open(csv).read().splitlines() if not ln.startswith("#")][1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 1e-3]
    out = str(tmp_path / "mw.json")
    assert run_command(parse_config(json.dumps(
        {**base, "command": "morawetz", "T0": 1e-3, "output": out}))) == 0
    doc = json.loads(open(out).read())
    assert doc["outcome"] == "blow-up" and doc["time_samples"] == 1


def test_disperse_command(tmp_path):
    out = str(tmp_path / "disp.json")
    cfg = parse_config(json.dumps({
        "command": "disperse", "dimension": 1, "n": 2048, "L": 400.0,
        "initial": "gaussian", "amplitude": 1.0, "width": 1.5, "center": 200.0,
        "t_fit_start": 8.0, "t_fit_end": 30.0, "output": out,
    }))
    assert run_command(cfg) == 0
    doc = json.loads(open(out).read())
    assert doc["slope"] == pytest.approx(-0.5, rel=0.05)
    assert doc["predicted"] == -0.5


@pytest.mark.parametrize("command", ["classify", "disperse"])
def test_a_state_that_is_not_finite_is_a_numeric_failure(tmp_path, capfd, command):
    # classify's NaN ratios would fall through every comparison to "above",
    # and disperse would fit a NaN slope: both refuse the state instead
    grid = UniformGrid(1, 64, 20.0)
    u = np.exp(-(grid.axis() - 10.0) ** 2) + 0j
    u[5] = nan
    snap = str(tmp_path / "nan.snap")
    write_snapshot(pair_from_arrays(grid, u, np.zeros(64, complex)), 0.0, snap)
    conf = tmp_path / "run.json"
    out = tmp_path / "out.json"
    conf.write_text(json.dumps({
        "command": command, "n": 64, "L": 20.0, "initial": "file", "input_path": snap,
        "output": str(out), **({"m": 128, "r_max": 12.0, "tol": 1e-8} if command == "classify"
                               else {"t_fit_start": 1.0, "t_fit_end": 2.0}),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 2
    stdout, err = capfd.readouterr()
    doc = json.loads(stdout)
    assert doc["error"] == "ValueError" and "not finite" in doc["message"]
    assert err == "" and caught == [] and not out.exists()


def test_disperse_refuses_a_zero_field(tmp_path, capfd):
    # the norms of a zero field have no logarithm: the fit would divide
    # by zero and print a NaN slope, so the field is refused instead
    grid = UniformGrid(1, 64, 20.0)
    zero = np.zeros(64, complex)
    snap = str(tmp_path / "zero.snap")
    write_snapshot(pair_from_arrays(grid, zero, zero), 0.0, snap)
    conf = tmp_path / "run.json"
    out = tmp_path / "out.json"
    conf.write_text(json.dumps({
        "command": "disperse", "n": 64, "L": 20.0, "initial": "file", "input_path": snap,
        "output": str(out),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 2
    stdout, err = capfd.readouterr()
    doc = json.loads(stdout)
    assert doc["error"] == "ValueError" and "zero everywhere" in doc["message"]
    assert err == "" and caught == [] and not out.exists()


def test_evolve_prints_completed_and_undecided_for_a_nearly_flat_state(tmp_path, capsys):
    # the modulational instability of a nearly flat u: H grows to 3.1e4 H(0),
    # so blow_up_detect's test relative to H(0) cannot call it global, while
    # max |u|, |v| stays below 1/h = 3.2 (at most 1.55) to the end
    csv = tmp_path / "flat.csv"
    conf = tmp_path / "flat.json"
    conf.write_text(json.dumps({
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1e-3, "t_final": 20.0,
        "cadence": 100, "amplitude": 1.0, "width": 40.0, "output": str(csv),
    }))
    assert main([str(conf)]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line == {"outcome": "completed", "classification": "undecided"}
    rows = [ln.split(",") for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    modulus = np.array([float(row[rows[0].index("max_modulus")]) for row in rows[1:]])
    assert float(rows[-1][0]) == pytest.approx(20.0) and np.all(modulus < 64 / 20.0)


def test_main_usage_and_numeric_failure(tmp_path, capsys):
    assert main([]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "evolve", "kapa": 1.0}))
    assert main([str(bad)]) == 1
    # unconvergeable solve: structured numeric failure, exit 2
    fail = tmp_path / "fail.json"
    fail.write_text(json.dumps({
        "command": "ground-state", "m": 128, "r_max": 10.0,
        "tol": 1e-15, "max_iter": 2,
    }))
    assert main([str(fail)]) == 2
    out = capsys.readouterr().out
    assert "ConvergenceError" in out


def test_a_config_that_is_not_utf8_is_a_one_line_usage_error(tmp_path, capsys):
    # JSON is UTF-8; these UTF-16 bytes must not escape main as a decode error
    conf = tmp_path / "utf16.json"
    conf.write_bytes(b"\xff\xfe{}")
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: config is not UTF-8: ")
    assert "Traceback" not in err


def test_non_integer_size_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "float_n.json"
    conf.write_text(json.dumps({"command": "evolve", "n": 64.0, "output": "x.csv"}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'n' must be an integer" in err
    for key, value in (("cadence", 2.5), ("dimension", True), ("m", "2048")):
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
            parse_config(json.dumps({"command": "evolve", key: value}))


def test_classify_solves_the_ground_state_at_the_config_kappa(tmp_path, monkeypatch):
    seen = []
    iters = []

    def recording_solve(grid, **kwargs):
        seen.append(kwargs["kappa"])
        iters.append(kwargs["max_iter"])
        return petviashvili_solve(grid, **kwargs)

    monkeypatch.setattr("qnls.cli.petviashvili_solve", recording_solve)
    out = str(tmp_path / "cls.json")
    cfg = parse_config(json.dumps({
        "command": "classify", "dimension": 1, "n": 64, "L": 20.0, "kappa": 1.0,
        "m": 384, "r_max": 16.0, "tol": 1e-8, "max_iter": 400,
        "initial": "gaussian", "amplitude": 0.1, "width": 2.0, "output": out,
    }))
    assert run_command(cfg) == 0
    assert seen == [1.0]
    assert iters == [400]
    assert json.loads(open(out).read())["classification"] == "below"


@pytest.mark.parametrize("key, value", [
    ("m", 2),
    ("cadence", 0),
    ("max_iter", 0),
    ("snapshot_every", -1),
    ("R0", 0.0),
    ("J", -1.0),
    ("T0", 0),
    ("eps", 0.0),
    ("eps", 0.9),
    ("kappa", 0),
    ("kappa", -0.5),
    ("dt", True),
    ("kappa", True),
    ("xi", "fast"),
    ("T0", 0.0105),
    ("decay_exponent", "fast"),
    ("decay_exponent", 0),
    ("decay_exponent", True),
    ("kappa", nan),
    ("R0", nan),
    ("tol", nan),
    ("L", inf),
    ("center", inf),
    ("xi", nan),
    pytest.param("dt", 10**400, id="dt-1e400"),
    pytest.param("T0", 10**400, id="T0-1e400"),
    ("initial", 7),
    ("n", 2**40),
    ("m", 2**40),
    # 2 width^2 underflows to 0, and the Gaussian is 0/0 at the centre node
    ("width", 1e-300),
    ("width", 1e-151),
    # the density overflows, and the quartic quantities long before it
    ("amplitude", 1e150),
    ("amplitude", 1.1e50),
])
def test_out_of_range_keys_are_usage_errors(tmp_path, capsys, key, value):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"command": "morawetz", key: value}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}'" in err


@pytest.mark.parametrize("key, value, outcome", [
    ("width", 1e-150, "completed"), ("amplitude", 1e50, "substep-failure"),
])
def test_the_gaussian_key_bounds_build_and_run_quiet(tmp_path, capfd, key, value, outcome):
    conf = tmp_path / "edge.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 64, "L": 20.0, "dt": 1e-3, "t_final": 0.01, key: value,
        "output": str(tmp_path / "edge.csv"),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 0
    out, err = capfd.readouterr()
    assert json.loads(out)["outcome"] == outcome
    assert err == "" and caught == []


def test_a_narrow_gaussian_on_a_large_box_builds_quietly(tmp_path, capfd):
    # rho2 / (2 width^2) overflows away from the centre; exp(-inf) = 0 there
    conf = tmp_path / "narrow.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 64, "L": 1e6, "width": 1e-150, "t_final": 0.01,
        "output": str(tmp_path / "narrow.csv"),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 0
    out, err = capfd.readouterr()
    # one unit-height node on a box of spacing 1.6e4 is far past 1/h
    assert json.loads(out)["outcome"] == "blow-up"
    assert err == "" and caught == []


def _quiet_main(conf):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(conf)])
    assert caught == []
    return code


def test_a_plane_wave_phase_beyond_the_float_range_is_a_usage_error(tmp_path, capfd):
    # phase_velocity * x overflowed, exp(1j * inf) gave NaN, and the run
    # labelled the NaN state it built "blow-up" after three RuntimeWarnings
    conf = tmp_path / "phase.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 8, "L": 1e300, "phase_velocity": 1e10, "t_final": 0.001,
        "output": str(tmp_path / "phase.csv"),
    }))
    assert _quiet_main(conf) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "'phase_velocity'" in err and "'L'" in err
    assert not (tmp_path / "phase.csv").exists()


def test_a_width_whose_square_overflows_is_a_usage_error(tmp_path, capfd):
    # 2 width^2 raised a bare OverflowError (exit 2) that named no key
    conf = tmp_path / "wide.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 8, "L": 1e300, "width": 1e300, "t_final": 0.001,
        "output": str(tmp_path / "wide.csv"),
    }))
    assert _quiet_main(conf) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1 and "'width'" in err
    # the upper bound itself builds a flat state and runs quietly
    conf.write_text(json.dumps({
        "command": "evolve", "n": 64, "L": 20.0, "width": 1e150, "t_final": 0.01,
        "output": str(tmp_path / "wide.csv"),
    }))
    assert _quiet_main(conf) == 0
    out, err = capfd.readouterr()
    assert json.loads(out)["outcome"] == "completed" and err == ""


@pytest.mark.parametrize("dimension, L", [(3, 1e308), (2, 1e200)])
def test_a_cell_volume_beyond_the_float_range_is_a_usage_error(tmp_path, capfd, dimension, L):
    # the quadratures' h^d raised a bare OverflowError (exit 2) that named no key
    conf = tmp_path / "huge.json"
    conf.write_text(json.dumps({
        "command": "evolve", "dimension": dimension, "n": 8, "L": L, "t_final": 0.001,
        "output": str(tmp_path / "huge.csv"),
    }))
    assert _quiet_main(conf) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "'L'" in err and "'n'" in err and "'dimension'" in err
    assert not (tmp_path / "huge.csv").exists()


@pytest.mark.parametrize("r_max", [1e300, 1e80, 1e-160, 1e-300])
def test_a_radial_grid_beyond_the_float_range_is_a_usage_error(tmp_path, capfd, r_max):
    # 1e300 raised a bare OverflowError (exit 2) that named no key; the
    # others printed RuntimeWarnings from r^4 or 1/dr^2 and then raised
    # ConvergenceError (exit 2)
    conf = tmp_path / "radial.json"
    conf.write_text(json.dumps({
        "command": "ground-state", "m": 64, "r_max": r_max, "output": str(tmp_path / "gs.json"),
    }))
    assert _quiet_main(conf) == 1
    out, err = capfd.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "'m'" in err and "'r_max'" in err
    assert not (tmp_path / "gs.json").exists()


@pytest.mark.parametrize("r_max, message", [
    (1e6, "balance moments degenerated"), (1e3, "converged to a sign-changing profile"),
])
def test_a_radial_grid_inside_the_float_range_keeps_its_convergence_error(capfd, tmp_path, r_max, message):
    conf = tmp_path / "radial.json"
    conf.write_text(json.dumps({"command": "ground-state", "m": 64, "r_max": r_max}))
    assert _quiet_main(conf) == 2
    out, err = capfd.readouterr()
    assert json.loads(out) == {"error": "ConvergenceError", "message": message} and err == ""


@pytest.mark.parametrize("command", ["morawetz", "classify"])
def test_a_snapshot_above_the_amplitude_cap_is_a_usage_error(tmp_path, capfd, command):
    # at |u| about 1e80 morawetz overflowed to an OverflowError after a
    # RuntimeWarning, and classify reported "above" with a gap of 5e160
    grid = UniformGrid(1, 64, 20.0)
    u = 1e80 * np.exp(-(grid.axis() - 10.0) ** 2) + 0j
    snap = str(tmp_path / "big.snap")
    write_snapshot(pair_from_arrays(grid, u, np.zeros(64, complex)), 0.0, snap)
    conf = tmp_path / "run.json"
    out = tmp_path / "out.json"
    conf.write_text(json.dumps({
        "command": command, "n": 64, "L": 20.0, "initial": "file", "input_path": snap,
        "output": str(out), **({"m": 128, "r_max": 12.0, "tol": 1e-8} if command == "classify"
                               else {"T0": 0.05}),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 1
    stdout, err = capfd.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert "input_path" in err and "1e50" in err
    assert caught == [] and not out.exists()


def test_morawetz_cadence_is_a_usage_error(tmp_path, capsys):
    # the accumulator samples every 25th step whatever the config says
    conf = tmp_path / "mw.json"
    conf.write_text(json.dumps({"command": "morawetz", "cadence": 10}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'cadence'" in err and "every 25th step" in err


@pytest.mark.parametrize("conf, span, stops", [
    # 10^9 steps dt at the default cadence 10: the stop list alone took gigabytes
    ({"command": "evolve", "n": 64, "L": 20.0, "dt": 1e-9, "t_final": 1.0, "output": "x.csv"},
     "t_final", 10**8 + 1),
    ({"command": "evolve", "dt": 1.0, "t_final": 2.0**20, "cadence": 1}, "t_final", 2**20 + 1),
    ({"command": "morawetz", "dt": 1.0, "T0": 25.0 * 2**20}, "T0", 2**20 + 1),
])
def test_a_span_of_more_than_2_to_the_20_stops_is_a_usage_error(conf, span, stops):
    message = f"'{span}' must give at most 2\\*\\*20 stops, got {stops} "
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(conf))


def test_a_span_of_2_to_the_20_stops_is_accepted():
    # step 0, then every cadence-th step up to the last
    parse_config(json.dumps({"command": "evolve", "dt": 1.0, "t_final": 2.0**20 - 1, "cadence": 1}))
    parse_config(json.dumps({"command": "morawetz", "dt": 1.0, "T0": 25.0 * (2**20 - 1)}))


_MORAWETZ = {"command": "morawetz", "n": 128, "L": 64.0, "dt": 2e-3, "T0": 0.5,
             "amplitude": 0.3, "width": 3.0, "phase_velocity": 0.2}


@pytest.mark.parametrize("conf, readers", [
    # morawetz writes no snapshot, so snapshot_every would do nothing there
    ({**_MORAWETZ, "snapshot_every": 3}, "evolve"),
    ({**_MORAWETZ, "dimension": 1}, "evolve, classify, disperse"),
    ({"command": "ground-state", "m": 256, "n": 64}, "evolve, morawetz, classify, disperse"),
    ({"command": "classify", "n": 64, "cadence": 10}, "evolve"),
    ({"command": "disperse", "n": 64, "dt": 1e-3}, "evolve, morawetz"),
    ({"command": "evolve", "n": 64, "t_final": 0.01, "decay_exponent": 4}, "disperse"),
], ids=["morawetz-snapshot_every", "morawetz-dimension", "ground-state-n", "classify-cadence",
        "disperse-dt", "evolve-decay_exponent"])
def test_a_key_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, conf, readers):
    key = list(conf)[-1]   # each case ends with the key the command does not read
    path = tmp_path / "unread.json"
    path.write_text(json.dumps({**conf, "output": str(tmp_path / "out")}))
    assert main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}' is read by {readers} only" in err
    assert [p.name for p in tmp_path.iterdir()] == ["unread.json"]


def test_each_command_accepts_and_echoes_only_the_keys_it_reads():
    sizes = {}
    for command in _COMMANDS:
        cfg = parse_config(json.dumps({"command": command, "output": "out"}))
        assert cfg.output == "out"
        sizes[command] = len(cfg.echo()) - 1
        # nothing reads a seed: every initial condition is deterministic
        with pytest.raises(ConfigError, match="^unknown config keys: seed$"):
            parse_config(json.dumps({"command": command, "seed": 0}))
    assert sizes == {"ground-state": 6, "evolve": 16, "morawetz": 16, "classify": 16, "disperse": 15}
    cfg = parse_config(json.dumps({"command": "ground-state"}))
    assert set(cfg.echo()) == {"command", "output", "kappa", "m", "r_max", "tol", "max_iter"}
    with pytest.raises(AttributeError):
        cfg.n
    with pytest.raises(AttributeError):
        parse_config(json.dumps({"command": "morawetz"})).dimension


@pytest.mark.parametrize("command", ["evolve", "morawetz", "classify", "disperse"])
def test_every_initial_kind_builds_from_each_commands_config(tmp_path, command):
    # a key missing from the command's row would surface here as an AttributeError
    grid = UniformGrid(1, 16, 10.0)
    x = grid.axis()
    snap = str(tmp_path / "state.snap")
    write_snapshot(pair_from_arrays(grid, np.exp(-(x - 5.0) ** 2) + 0j, np.zeros(16, complex)),
                   0.0, snap)
    for kind in ("gaussian", "soliton", "boosted-soliton", "file"):
        cfg = parse_config(json.dumps({
            "command": command, "n": 16, "L": 10.0, "initial": kind, "input_path": snap,
        }))
        pair = _initial_pair(cfg)
        assert pair.grid == grid and pair.kappa == cfg.kappa
        assert np.all(np.isfinite(pair.u.values)) and np.max(np.abs(pair.u.values)) > 0


def test_morawetz_names_its_one_dimensional_grid_for_a_snapshot_of_another(tmp_path, capsys):
    grid = UniformGrid(2, 16, 10.0)
    snap = str(tmp_path / "plane.snap")
    write_snapshot(pair_from_arrays(grid, np.ones(grid.shape, complex), np.zeros(grid.shape, complex)),
                   0.0, snap)
    conf = tmp_path / "mw.json"
    conf.write_text(json.dumps({
        "command": "morawetz", "n": 16, "L": 10.0, "dt": 1e-3, "T0": 0.1, "initial": "file",
        "input_path": snap, "output": str(tmp_path / "mw"),
    }))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "2-D state" in err and "1-D grid" in err and "'dimension'" not in err
    assert not (tmp_path / "mw").exists()


@pytest.mark.parametrize("key", ["output", "input_path"])
def test_path_keys_must_be_strings(tmp_path, capsys, key):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"command": "ground-state", "m": 64, key: 7}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}'" in err


def test_evolve_without_output_does_no_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("qnls.cli.evolve", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr("qnls.evolution.evolve", lambda *args, **kw: calls.append(args))
    conf = tmp_path / "no_output.json"
    conf.write_text(json.dumps({"command": "evolve", "n": 64, "L": 10.0, "t_final": 0.01}))
    assert main([str(conf)]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "output" in err


def test_unreadable_input_path_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "missing.json"
    conf.write_text(json.dumps({
        "command": "evolve", "n": 64, "L": 10.0, "t_final": 0.01, "initial": "file",
        "input_path": str(tmp_path / "absent.snap"), "output": str(tmp_path / "run.csv"),
    }))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "input_path" in err
    assert not (tmp_path / "run.csv").exists()


def test_snapshot_that_disagrees_with_the_config_is_a_usage_error(tmp_path, capsys, monkeypatch):
    g = UniformGrid(1, 64, 20.0)
    x = g.axis()
    snap = str(tmp_path / "state.snap")
    write_snapshot(pair_from_arrays(g, np.exp(-(x - 10.0) ** 2) + 0j, np.zeros(64, complex)), 0.0, snap)
    base = {
        "command": "evolve", "dt": 1e-3, "t_final": 0.002, "initial": "file",
        "input_path": snap, "output": str(tmp_path / "run.csv"),
    }
    calls = []
    monkeypatch.setattr("qnls.cli.evolve", lambda *args, **kw: calls.append(args))
    conf = tmp_path / "mismatch.json"
    conf.write_text(json.dumps({**base, "dimension": 2, "n": 256, "L": 40.0, "kappa": 2.0}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert all(f"'{key}'" in err for key in ("dimension", "n", "L", "kappa"))
    conf.write_text(json.dumps({**base, "n": 64, "L": 20.0, "kappa": 0.75}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert "'kappa'" in err and "'n'" not in err and "'L'" not in err
    radial = str(tmp_path / "radial.snap")
    r = RadialGrid(64, 12.0).nodes()
    write_snapshot(pair_from_arrays(RadialGrid(64, 12.0), np.exp(-r) + 0j, np.exp(-r) + 0j), 0.0, radial)
    conf.write_text(json.dumps({**base, "input_path": radial}))
    assert main([str(conf)]) == 1
    assert "radial" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "run.csv").exists()

    monkeypatch.undo()
    conf.write_text(json.dumps({**base, "n": 64, "L": 20.0}))
    assert main([str(conf)]) == 0
    assert (tmp_path / "run.csv").exists()


def test_disperse_fit_window_must_be_ordered(tmp_path, capsys):
    conf = tmp_path / "window.json"
    conf.write_text(json.dumps({
        "command": "disperse", "n": 64, "L": 40.0, "t_fit_start": 30.0, "t_fit_end": 8.0,
    }))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'t_fit_start'" in err and "'t_fit_end'" in err


def test_missing_output_directory_does_no_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("qnls.cli.evolve", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr("qnls.cli.petviashvili_solve", lambda *args, **kw: calls.append(args))
    absent = str(tmp_path / "absent" / "x.csv")
    for conf in (
        {"command": "evolve", "n": 64, "L": 10.0, "t_final": 0.01, "output": absent},
        {"command": "ground-state", "m": 64, "r_max": 10.0, "output": absent},
    ):
        path = tmp_path / "bad_dir.json"
        path.write_text(json.dumps(conf))
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'output'" in err
    assert calls == []


def test_output_that_is_not_a_file_name_does_no_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("qnls.cli.evolve", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr("qnls.cli.petviashvili_solve", lambda *args, **kw: calls.append(args))
    (tmp_path / "sub").mkdir()
    for out in (str(tmp_path / "sub"), "", str(tmp_path) + "/"):
        for conf in (
            {"command": "evolve", "n": 64, "L": 10.0, "t_final": 0.01, "output": out},
            {"command": "ground-state", "m": 256, "r_max": 16.0, "tol": 1e-8, "output": out},
        ):
            path = tmp_path / "bad_output.json"
            path.write_text(json.dumps(conf))
            assert main([str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "'output'" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad_output.json", "sub"]


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {
        line.split("|")[1].strip(): line
        for line in readme.splitlines() if line.startswith("| `")
    }
    for key, (default, _, _) in _KEYS.items():
        assert f"`{key}`" in rows, key
        assert f"`{json.dumps(default)}`" in rows[f"`{key}`"], key


def test_readme_names_the_commands_that_read_each_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for line in readme.splitlines():
        if line.startswith("| `") and not line.startswith("| `command`"):
            key, _, cell = (c.strip() for c in line.split("|")[1:4])
            readers = [c for c in _COMMANDS if key.strip("`") in _READS[c]]
            if cell == "all":
                assert readers == list(_COMMANDS), key
            elif cell == "all but `ground-state`":
                assert readers == list(_COMMANDS[1:]), key
            else:
                assert cell == ", ".join(f"`{c}`" for c in readers), key


def test_readme_cli_examples_run(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    # each example is an indented block that opens with "{"
    examples = [json.loads(block) for block in section.split("\n\n") if block.startswith("    {")]
    assert len(examples) >= 3
    for idx, conf in enumerate(examples):
        conf["output"] = str(tmp_path / f"example{idx}.out")
        path = tmp_path / f"example{idx}.json"
        path.write_text(json.dumps(conf))
        assert main([str(path)]) == 0, (conf, capsys.readouterr())
        assert (tmp_path / f"example{idx}.out").stat().st_size > 0


def test_substep_failure_from_the_cli_is_quiet(tmp_path, capfd):
    # the substep overflows on its way to the refinement limit; the run
    # ends with the labelled outcome and no numpy warning
    g = UniformGrid(1, 64, 20.0)
    x = g.axis()
    bump = 1e3 * np.exp(-(x - 10.0) ** 2) + 0j
    snap = str(tmp_path / "state.snap")
    write_snapshot(pair_from_arrays(g, bump, bump.copy()), 0.0, snap)
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "command": "evolve", "dimension": 1, "n": 64, "L": 20.0, "dt": 1.0,
        "t_final": 1.0, "initial": "file", "input_path": snap,
        "output": str(tmp_path / "run.csv"),
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(conf)]) == 0
    out, err = capfd.readouterr()
    assert json.loads(out)["outcome"] == "substep-failure"
    assert err == ""
    assert caught == []


# scipy subpackages whose package imports cost start-up time: scipy.fft and
# scipy.special load scipy's array-API layer, scipy.linalg its Python
# wrappers, scipy.interpolate loads scipy.optimize; qnls loads pocketfft and
# LAPACK from their compiled modules instead, and imports none of the rest
_HEAVY_SCIPY = ("scipy.fft", "scipy.linalg", "scipy.special", "scipy._lib._array_api",
                "scipy.interpolate", "scipy.optimize")


def test_importing_the_cli_leaves_out_the_spline_stack():
    # nothing in qnls imports scipy.interpolate or scipy.optimize: the
    # weight tables integrate by morawetz._cumulative
    code = f"import sys, qnls.cli; print(sorted(m for m in {_HEAVY_SCIPY!r} if m in sys.modules))"
    assert run_python(code).strip() == "[]"


def test_cli_runs_import_no_scipy_package(tmp_path):
    # evolve and morawetz transform through pocketfft's compiled module, the
    # ground-state solve factors through LAPACK's: none of them imports a
    # scipy package, so the module table holds no scipy entry at any point
    runs = {
        "evolve": {"command": "evolve", "dimension": 2, "n": 16, "L": 10.0, "dt": 1e-3,
                   "t_final": 0.01, "initial": "gaussian", "amplitude": 0.3},
        "morawetz": {"command": "morawetz", "n": 64, "L": 40.0, "dt": 5e-3, "initial": "gaussian",
                     "amplitude": 0.05, "width": 4.0, "R0": 2.0, "J": 2.0, "T0": 0.1, "eps": 0.25},
        "ground-state": {"command": "ground-state", "m": 256, "r_max": 12.0, "tol": 1e-8},
    }
    paths = {}
    for name, conf in runs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({**conf, "output": str(tmp_path / f"{name}.out")}))
    code = f"""
import contextlib, io, json, sys
import qnls.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {{"import": scipy_modules()}}
for name, path in {paths!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = qnls.cli.main([path])
    seen[name] = (code, scipy_modules())
print(json.dumps(seen))
"""
    seen = json.loads(run_python(code))
    assert seen == {"import": [], **{name: [0, []] for name in runs}}


# JSON values, non-finite and past-double numbers included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10**400, -10**400, nan, inf, -inf, "inf", "file"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# values for table keys: edge numbers, any JSON, and values valid for many
# keys, so that checks past the first key are reached
_VALUES = (
    st.sampled_from([10**400, nan, inf, -inf, 1e308, 5e-324])
    | _JSON
    | st.floats(0.0, exclude_min=True)
    | st.sampled_from([1, 8, 0.5, None])
)


def _passes(key, value) -> bool:
    return all(check is None or check[0](value) for check in _KEYS[key][1:])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON | st.dictionaries(st.sampled_from(list(_KEYS)), _VALUES, max_size=6))
def test_parse_config_returns_a_config_or_a_config_error(value):
    if isinstance(value, dict):
        docs = [{"command": c, **value} for c in _COMMANDS + ("explode",)]
    else:
        docs = [value]
    for doc in docs:
        try:
            assert isinstance(parse_config(json.dumps(doc)), RunConfig)
        except ConfigError:
            pass


@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(_COMMANDS), st.sampled_from(list(_KEYS)), _JSON)
def test_one_bad_key_is_a_one_line_usage_error(tmp_path, capsys, command, key, value):
    assume(not _passes(key, value))
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"command": command, key: value}))
    capsys.readouterr()
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}'" in err


@settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    dimension=st.sampled_from([1, 2]),
    n=st.sampled_from([8, 16, 32]),
    L=st.floats(4.0, 40.0),
    dt=st.sampled_from([1e-3, 2.5e-3, 5e-3]),
    steps=st.integers(1, 6),
    cadence=st.integers(1, 3),
    kappa=st.floats(0.25, 2.0),
    amplitude=st.floats(0.01, 2.0),
    width=st.floats(0.5, 4.0),
    phase_velocity=st.floats(-1.0, 1.0),
)
def test_valid_evolve_configs_rerun_byte_identical(tmp_path, capsys, steps, **conf):
    conf.update(command="evolve", t_final=steps * conf["dt"])
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**conf, "output": str(out)}))
        capsys.readouterr()
        assert main([str(path)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0][0].replace(b"a.csv", b"b.csv") == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
