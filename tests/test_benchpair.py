"""The verdict rule and the runs of tools/benchpair.py, on synthetic samples; no benchmark runs."""

import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "benchpair", Path(__file__).resolve().parents[1] / "tools" / "benchpair.py"
)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)
summarize = benchpair.summarize

BASE = [50.0, 51.0, 52.0, 51.5, 50.5, 51.2, 52.5, 50.8, 51.7, 51.1]   # quartiles 50.85, 51.65


def test_a_gain_needs_nine_of_ten_wins_and_a_median_shift_past_the_base_spread():
    head = [b - 5.0 for b in BASE]
    r = summarize(BASE, head, "lower", 0.2)
    assert (r["head_wins"], r["verdict"]) == (10, "gain")
    assert r["base"]["median"] == pytest.approx(51.15)
    assert (r["base"]["q1"], r["base"]["q3"]) == pytest.approx((50.85, 51.65))
    assert r["head"]["values"] == head

    # 8 wins of 10 are not enough, however large the shift
    eight = head[:8] + [b + 1.0 for b in BASE[8:]]
    r = summarize(BASE, eight, "lower", 0.2)
    assert (r["head_wins"], r["verdict"]) == (8, "within bound")

    # 10 wins, but the medians differ by less than base's interquartile range
    r = summarize(BASE, [b - 0.1 for b in BASE], "lower", 0.2)
    assert (r["head_wins"], r["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    head = list(BASE)
    head[0] -= 1.0
    r = summarize(BASE, head, "lower", 0.2)
    assert r["head_wins"] == 1
    assert r["verdict"] == "within bound"


def test_higher_is_better_turns_the_comparison_around():
    up = [b * 1.5 for b in BASE]
    assert summarize(BASE, up, "higher", 0.25)["verdict"] == "gain"
    assert summarize(BASE, up, "lower", 0.25)["verdict"] == "regression"
    down = [b * 0.7 for b in BASE]
    assert summarize(BASE, down, "higher", 0.25)["verdict"] == "regression"
    assert summarize(BASE, down, "higher", 0.35)["verdict"] == "within bound"


def test_a_regression_is_a_median_worse_by_more_than_the_bound():
    assert summarize(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["verdict"] == "regression"
    assert summarize(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["verdict"] == "within bound"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]   # IQR 4.5 around a median of 5.5
    head = [5.5] * 10
    r = summarize(wide, head, "lower", 0.25)
    assert r["head_wins"] == 5
    assert r["verdict"] == "unresolved"
    # a median worse by more than the bound is a regression whatever the spread
    assert summarize(wide, [9.0] * 10, "lower", 0.25)["verdict"] == "regression"
    # a gain by the win rule still shows through a wide spread
    assert summarize(wide, [w - 5.0 for w in wide], "lower", 0.25)["verdict"] == "gain"


def test_one_pair_gives_each_side_its_single_value():
    r = summarize([4.0], [3.0], "lower", 0.25)
    assert r["base"] == {"values": [4.0], "median": 4.0, "q1": 4.0, "q3": 4.0}
    assert (r["head_wins"], r["verdict"]) == (1, "gain")


def test_setup_parts_split_each_run_into_imports_and_the_median_set_up():
    details = [
        {"import_s": 0.142, "setup_runs_s": [0.004, 0.002, 0.008], "section_cpu_s": 9.9},
        {"import_s": 0.150, "setup_runs_s": [0.003, 0.005, 0.004]},
        {"import_s": 0.139, "setup_runs_s": [0.006, 0.007, 0.002]},
    ]
    parts = benchpair.setup_parts(details)
    assert parts["import_s"] == {"values": [0.142, 0.150, 0.139], "median": 0.142}
    assert parts["setups_s"] == {"values": [0.004, 0.004, 0.006], "median": 0.004}


def test_a_run_without_bytecode_writes_is_warned_about(monkeypatch):
    monkeypatch.setattr(benchpair.sys, "dont_write_bytecode", False)
    assert benchpair.bytecode_warning() is None
    monkeypatch.setattr(benchpair.sys, "dont_write_bytecode", True)
    assert "dont_write_bytecode" in benchpair.bytecode_warning()


def test_only_the_warm_up_runs_drop_the_no_bytecode_flag(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    calls = []

    def fake_run(cmd, cwd, env=None, **kwargs):
        calls.append((cmd[cmd.index("--seconds") + 1], cwd, env))
        results = Path(cwd, ".perfbench_work", "results")
        results.mkdir(parents=True, exist_ok=True)
        (results / "w-seed3-trace0.json").write_text(
            json.dumps({"details": {"import_s": 0.1, "setup_runs_s": [0.01]}}))
        line = {"attempted": 4, "failed": 0, "metrics": {"op_ms": {"value": 2.0}}}
        return SimpleNamespace(returncode=0, stdout=json.dumps(line) + "\n", stderr="")

    monkeypatch.setattr(benchpair.subprocess, "run", fake_run)
    monkeypatch.setattr(benchpair, "ROOT", str(tmp_path / "head"))
    spec = {"end_to_end": [{"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}
    report = benchpair.compare(str(tmp_path / "base"), spec, ["w"], 2, 1.0, 3)
    assert report["w"]["attempted"] == {"base": 8, "head": 8}

    warm = [call for call in calls if call[0] == "0.0"]
    recorded = [call for call in calls if call[0] == "1.0"]
    assert sorted(cwd for _, cwd, _ in warm) == [str(tmp_path / "base"), str(tmp_path / "head")]
    expected = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    assert all(env == expected for _, _, env in warm)
    # the recorded runs inherit the caller's environment, flag included
    assert len(recorded) == 4 and all(env is None for _, _, env in recorded)
    assert calls[:2] == warm
