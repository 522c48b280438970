"""qnls benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads: evolve2d, accumulator1d, groundstate5d, windows (see
``workloads.py`` and ``WORKLOADS.md``).

``--trace 0`` measures the end-to-end metrics: the workload sets up three
times (the median is reported), then runs operations for ``--seconds``
seconds of wall time.  Operations and set-ups are timed in process CPU
time: every workload is single-threaded (BLAS/OpenMP threads are set to 1
whatever the environment says), so on an idle
core CPU time equals wall time, while on a shared virtual machine wall
time also counts the stretches in which the process was not running.

``--trace 1`` sets up once under tracing, runs a fixed schedule of
operations sized from ``--seconds`` once untraced and once traced, and
reports the per-layer metrics from the traced pass together with the
tracing overhead.  Every operation's outputs are checked.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units are those listed in
``BENCHMARK.json``; a run whose metrics differ from that list fails.  The run record, the result and (traced runs) the spans are
written under ``.perfbench_work/`` in the working directory.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

SETUP_REPEATS = 3
MIN_OPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKDIR = ".perfbench_work"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("evolve2d", "accumulator1d", "groundstate5d", "windows"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(root: str, trace: int) -> dict:
    """name -> unit of the metrics a run reports, from ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def source_sha256(root: str, *dirs: str) -> str:
    """Digest of the Python sources in ``dirs`` (relative to ``root``)."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(root, d, "*.py"))):
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return h.hexdigest()


def cache_sizes() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out or {"unavailable": "no cache information"}


def run_record(args, root: str, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy builds differ in what they report
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root, "src/qnls"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in BLAS_ENV},
        "caches": cache_sizes(),
        "working_sets": (
            "every working set is cache-resident: a 64^2 field is 64 KiB, an n=256 "
            "field 4 KiB, an m=2048 radial profile 16 KiB, the largest d=2 weight-table "
            "temporary about 25 MiB, against a shared L3 of the size above; no "
            "bandwidth-roofline metric is claimed"
        ),
    }


def latency_line(values_s: list) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(values_s)
    med = statistics.median(values_s)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"median {med * 1e3:.4g} ms, p{p:g} {np.percentile(values_s, p) * 1e3:.4g} ms, n={n}"
    return f"median {med * 1e3:.4g} ms, n={n} (too few samples for a tail percentile)"


def run_op(wl, inp):
    from workloads import OpResult

    try:
        return wl.op(inp)
    except Exception as exc:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        return OpResult(-1, 0.0, 0, 0.0, failures=[f"raised {type(exc).__name__}: {exc}"])


def determinism_failures(results) -> None:
    """The same input must give byte-identical outputs and the same counts."""
    first = {}
    for res in results:
        if res.key < 0:
            continue
        ref = first.setdefault(res.key, res)
        if (res.digest, res.counts) != (ref.digest, ref.counts):
            res.failures.append("outputs differ from an earlier run of the same input")


def run_untraced(wl, args, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        wl.setup()
        setups.append(time.process_time() - t0)
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    while len(results) < MIN_OPS or time.perf_counter() - t0 < args.seconds:
        inp = wl.prepare(len(results))
        results.append(run_op(wl, inp))
    section_wall, section_cpu = time.perf_counter() - t0, time.process_time() - c0
    determinism_failures(results)
    done = [r for r in results if r.key >= 0]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_s = sum(r.work_s for r in done)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_ms": 1e3 * statistics.median(r.latency_s for r in done) if done else float("nan"),
        "work_per_s": sum(r.work for r in done) / work_s if work_s > 0 else float("nan"),
        "peak_rss_mib": peak_rss_mib,
    }
    lines = [
        f"setup_s {metrics['setup_s']:.4f} s (imports {import_s:.4f} s + median of "
        f"{SETUP_REPEATS} set-ups {', '.join(f'{s:.4f}' for s in setups)})",
        f"op latency (CPU): {latency_line([r.latency_s for r in done])}" if done else "op latency: none",
        f"timed section {section_wall:.4f} s wall, {section_cpu:.4f} s CPU",
    ]
    lines.append(f"{wl.rate_name} {metrics['work_per_s']:.6g} 1/s")
    if wl.name == "groundstate5d":
        lines.append(f"gs_solve_s {metrics['op_ms'] / 1e3:.6g} s (median of {len(done)} solves)")
    lines.append(f"peak_rss_mib {peak_rss_mib:.2f} MiB")
    return results, metrics, lines, {"setup_runs_s": setups, "import_s": import_s,
                                     "section_wall_s": section_wall, "section_cpu_s": section_cpu}


def run_traced(wl, args, root: str):
    import layers
    from spans import SETUP_OP, Tracer

    tracer = Tracer()
    wl.span = tracer.span
    with tracer.installed(), tracer.span("bench.setup"):
        wl.setup()
    n_ops = max(MIN_OPS, int(round(0.5 * args.seconds / wl.nominal_op_s)))

    # untraced and traced runs of each operation alternate, so drift in the
    # machine's speed falls on both sides of the overhead ratio
    plain, traced = [], []
    plain_s = traced_s = 0.0
    tracer.fft_elements = 0
    for i in range(n_ops):
        inp = wl.prepare(i)
        t0 = time.process_time()
        plain.append(run_op(wl, inp))
        plain_s += time.process_time() - t0
        inp = wl.prepare(i)
        with tracer.installed():
            tracer.op_id = i
            t0 = time.process_time()
            traced.append(run_op(wl, inp))
            traced_s += time.process_time() - t0
        tracer.op_id = SETUP_OP

    # a traced operation shares its input key with its untraced twin, so
    # this also checks that tracing leaves outputs and counts unchanged
    results = plain + traced
    determinism_failures(results)

    metrics = layers.layer_metrics(tracer, traced, traced_s / plain_s - 1.0)
    exact = {k: metrics[k] for k in layers.EXACT_COUNTS}
    # one record per program and benchmark source, seed and run length
    workdir = os.path.join(root, WORKDIR)
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    code = source_sha256(root, "src/qnls", bench_dir)[:16]
    counts_path = os.path.join(
        workdir, "counts", f"{wl.name}-seed{args.seed}-s{args.seconds:g}-{code}.json"
    )
    os.makedirs(os.path.dirname(counts_path), exist_ok=True)
    lines = []
    if os.path.isfile(counts_path):
        with open(counts_path) as fh:
            earlier = json.load(fh)
        if earlier != exact:
            traced[-1].failures.append(f"exact counts differ from an earlier run: {earlier} vs {exact}")
        else:
            lines.append(f"exact counts match the earlier run with this seed ({counts_path})")
    else:
        with open(counts_path, "w") as fh:
            json.dump(exact, fh, indent=1, sort_keys=True)
        lines.append(f"exact counts recorded for later runs with this seed ({counts_path})")

    trace_path = os.path.join(workdir, "traces", f"{wl.name}-seed{args.seed}.npz")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.save(trace_path)
    lines.append(
        f"{len(tracer)} spans written to {trace_path}; {n_ops} operations each untraced "
        f"({plain_s:.4f} s) and traced ({traced_s:.4f} s)"
    )
    extra = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s, "ops_per_pass": n_ops,
             "spans_file": trace_path, "span_count": len(tracer), "layer_shares": layers.shares(tracer)}
    return results, metrics, lines, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qnls", "__init__.py")):
        print("perfbench: src/qnls not found; run from the repository root", file=sys.stderr)
        return 2
    units = metric_units(root, args.trace)
    # one process, one thread: the CPU-time metrics assume it
    for var in BLAS_ENV:
        os.environ[var] = "1"
    nproc = os.cpu_count() or 1
    sys.path.insert(0, src)
    import qnls
    import workloads

    if not os.path.abspath(qnls.__file__).startswith(os.path.join(src, "")):
        print(f"perfbench: qnls imported from {qnls.__file__}, not {src}", file=sys.stderr)
        return 2
    # CPU time since the process started: interpreter start-up plus imports
    import_s = time.process_time()

    workdir = os.path.join(root, WORKDIR)
    rundir = os.path.join(workdir, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, rundir)
        if wl.needs_reference:
            wl.reference = workloads.reference_ground_state()
        if args.trace:
            results, metrics, lines, extra = run_traced(wl, args, root)
        else:
            results, metrics, lines, extra = run_untraced(wl, args, import_s)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = [r for r in results if r.failures]
    attempted = len(results)
    record = run_record(args, root, nproc)
    print(f"run record: {json.dumps(record, sort_keys=True)}")
    for line in lines:
        print(f"{args.workload} {line}")
    if args.trace:
        for name, unit in units.items():
            print(f"{args.workload} {name} {metrics.get(name, float('nan')):.6g} {unit}")
    print(f"{args.workload} error_rate {len(failed) / attempted:.6g} "
          f"(failed/attempted = {len(failed)}/{attempted})")
    for res in failed[:10]:
        print(f"{args.workload} FAILED operation (input {res.key}): {'; '.join(res.failures)}")

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not both reported "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    out = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    result_path = os.path.join(workdir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump({"record": record, "result": out, "details": extra,
                   "op_latency_s": [r.latency_s for r in results if r.key >= 0]},
                  fh, indent=1, sort_keys=True, default=float)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
