"""Alternating before/after pairs of the qnls benchmark, written as one JSON report.

Usage:
    python3 tools/benchpair.py --base REV --pairs N --seconds S --seed K \\
        [--workload W ...] --out FILE

Compares the working tree this script sits in ("head") with the commit REV
("base").  REV's committed files are extracted with ``git archive`` into a
temporary directory, which is removed afterwards; the repository itself
is not touched.  Each pair runs

    python3 perfbench/run.py --workload W --seed K --seconds S --trace 0

once from each tree's root, base first in the first pair, head first in the
second, and so on, and reads the JSON object on the last line of each
run's output.  Without ``--workload`` every workload of ``BENCHMARK.json``
runs.  Both sides use this interpreter.  Each side first makes one
unrecorded warm-up run per workload, whose environment is the caller's
without ``PYTHONDONTWRITEBYTECODE``, so that it writes the tree's bytecode
cache (``__pycache__``, which git ignores; the base tree is a temporary
extraction).  The recorded runs keep the caller's environment: with that
variable set they write no cache, but they read the one the warm-up wrote,
so no recorded run compiles ``src/`` inside its ``setup_s``.  (A separate
cache through ``PYTHONPYCACHEPREFIX`` is no substitute: it raised windows'
``peak_rss_mib`` by about 1.5 MiB.)  When ``sys.dont_write_bytecode`` is
set, the script says on stderr which runs write the cache.

The report holds both shas (head's with a flag for uncommitted changes), the
numpy, scipy and Python versions and the core count.  For each workload it
holds each side's attempted and failed operations, summed over its runs, and
for each end-to-end metric of ``BENCHMARK.json`` each side's values, median
and quartiles, head's wins (a tie counts for neither) and a verdict.
Next to ``setup_s`` it holds that metric's two parts, read from each run's
``.perfbench_work/results/<workload>-seed<K>-trace0.json`` ``details``:
``import_s``, the CPU of interpreter start-up and imports, and the median
of the run's ``setup_runs_s``, the workload's own set-ups.  The verdicts:

- ``gain``: head wins at least 9 of 10 pairs, and the medians differ in
  head's favour by more than base's interquartile range;
- ``regression``: head's median is worse than base's by more than the
  metric's bound, a fraction of base's median;
- ``unresolved``: base's interquartile range exceeds that bound, so the
  runs cannot tell a change of that size;
- ``within bound`` otherwise.

A run that exits non-zero or ends without a result stops the script with
exit status 1; the extracted tree is removed either way.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9   # the share of pairs head must win for a gain


def summarize(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric's pairs: each side's values, median and quartiles, head's wins and the verdict.

    ``base[i]`` and ``head[i]`` are the two runs of pair i; ``better`` is
    ``"lower"`` or ``"higher"``; ``bound`` is the worsening, as a fraction
    of base's median, that counts as a regression.
    """
    sign = 1.0 if better == "lower" else -1.0   # sign * (head - base) < 0 is a win for head
    sides = {}
    for name, values in (("base", base), ("head", head)):
        q1, median, q3 = (float(x) for x in np.percentile(values, (25, 50, 75)))
        sides[name] = {"values": list(values), "median": median, "q1": q1, "q3": q3}
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b_med, h_med = sides["base"]["median"], sides["head"]["median"]
    iqr = sides["base"]["q3"] - sides["base"]["q1"]
    gain = sign * (b_med - h_med)   # > 0 when head's median is better
    if wins >= GAIN_SHARE * len(base) and gain > iqr:
        verdict = "gain"
    elif -gain > bound * abs(b_med):
        verdict = "regression"
    elif iqr > bound * abs(b_med):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {**sides, "head_wins": wins, "verdict": verdict}


def setup_parts(details: list[dict]) -> dict:
    """``setup_s`` of one side's runs taken apart, from each run's ``details``.

    ``import_s`` holds each run's start-up and import CPU, ``setups_s`` the
    median of each run's ``setup_runs_s``; each with its median over runs.
    """
    parts = {"import_s": [d["import_s"] for d in details],
             "setups_s": [float(np.median(d["setup_runs_s"])) for d in details]}
    return {name: {"values": values, "median": float(np.median(values))}
            for name, values in parts.items()}


def bytecode_warning() -> str | None:
    """The warning to print when the caller writes no bytecode cache, else None."""
    if not sys.dont_write_bytecode:
        return None
    return ("benchpair: warning: sys.dont_write_bytecode is set; the warm-up runs drop "
            "PYTHONDONTWRITEBYTECODE and write each tree's bytecode cache, and the recorded runs "
            "keep the caller's environment and read that cache")


def _git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(tree: str, workload: str, seed: int, seconds: float, env: dict | None = None) -> dict:
    """One ``perfbench/run.py --trace 0`` run from ``tree``'s root, in ``env`` (default: the caller's).

    Returns the JSON of its last line, with the ``details`` of the result
    file the run wrote added under that key.
    """
    cmd = (sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = os.path.join(tree, ".perfbench_work", "results", f"{workload}-seed{seed}-trace0.json")
    with open(result) as fh:
        return {**json.loads(lines[-1]), "details": json.load(fh)["details"]}


def compare(base_tree: str, spec: dict, workloads: list[str], pairs: int, seconds: float,
            seed: int) -> dict:
    """Runs the pairs and returns the report's per-workload part."""
    trees = {"base": base_tree, "head": ROOT}
    metrics = spec["end_to_end"]
    # the caller's environment without the flag, so that a warm-up run writes bytecode
    warm_up_env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    report = {}
    for workload in workloads:
        for tree in trees.values():   # warm-up: writes each tree's bytecode cache
            _run(tree, workload, seed, 0.0, warm_up_env)
        runs = {"base": [], "head": []}
        for i in range(pairs):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(_run(trees[side], workload, seed, seconds))
                print(f"benchpair: {workload} pair {i + 1}/{pairs} {side} done", file=sys.stderr)
        report[workload] = {
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "setup_parts": {side: setup_parts([r["details"] for r in rs]) for side, rs in runs.items()},
            "metrics": {
                m["name"]: {
                    "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    **summarize([r["metrics"][m["name"]]["value"] for r in runs["base"]],
                                [r["metrics"][m["name"]]["value"] for r in runs["head"]],
                                m["better"], m["bound"]),
                }
                for m in metrics
            },
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV", help="the commit to compare with")
    parser.add_argument("--pairs", required=True, type=int, metavar="N")
    parser.add_argument("--seconds", required=True, type=float, metavar="S",
                        help="each run's --seconds")
    parser.add_argument("--seed", required=True, type=int, metavar="K")
    parser.add_argument("--workload", action="append", metavar="W",
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    warning = bytecode_warning()
    if warning:
        print(warning, file=sys.stderr)
    if args.pairs < 1 or not args.seconds >= 0:
        parser.error("--pairs must be at least 1 and --seconds not negative")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    if set(workloads) - set(names):
        parser.error(f"unknown workloads {sorted(set(workloads) - set(names))}; known: {names}")

    try:
        base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base} names no commit")
    report = {
        "command": "perfbench/run.py --trace 0",
        "base": {"rev": args.base, "sha": base_sha},
        "head": {"sha": _git("rev-parse", "HEAD"),
                 "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cores": os.cpu_count(),
        "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
    }
    scratch = tempfile.mkdtemp(prefix="benchpair-")
    base_tree = os.path.join(scratch, "base")
    try:
        archive = subprocess.run(("git", "archive", "--format=tar", base_sha), cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        report["workloads"] = compare(base_tree, spec, workloads, args.pairs, args.seconds,
                                      args.seed)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchpair: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.6g} head {m['head']['median']:.6g} "
                  f"{m['unit']}, head wins {m['head_wins']}/{args.pairs}, {m['verdict']}")
        parts = entry["setup_parts"]
        print(f"{workload} setup_s parts: " + ", ".join(
            f"{side} imports {parts[side]['import_s']['median']:.4g} s + set-ups "
            f"{parts[side]['setups_s']['median']:.4g} s" for side in ("base", "head")))
        print(f"{workload} failed/attempted: base {entry['failed']['base']}/{entry['attempted']['base']}"
              f", head {entry['failed']['head']}/{entry['attempted']['head']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
