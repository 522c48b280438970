import json
import os
import subprocess
import sys
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qnls.grid import RadialGrid, UniformGrid
from qnls.fields import pair_from_arrays
from qnls.ground_state import petviashvili_solve
from qnls.cli import (
    _COMMANDS,
    _KEYS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    read_snapshot,
    run_command,
    write_snapshot,
)

from conftest import random_envelope_pair


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
        "dt": 1e-3, "t_final": 0.05, "cadence": 10, "seed": 7,
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
])
def test_out_of_range_keys_are_usage_errors(tmp_path, capsys, key, value):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"command": "morawetz", key: value}))
    assert main([str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"'{key}'" in err


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


def test_importing_the_cli_leaves_out_the_spline_stack():
    # only the weight-table build needs scipy.interpolate, and it imports
    # scipy.optimize with it
    import qnls

    src = str(Path(qnls.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, qnls.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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
