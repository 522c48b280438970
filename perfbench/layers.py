"""Per-layer metrics from a traced pass.

Layers are the modules of ``src/qnls/``.  Counts and self times of the
operations come from spans with an operation id; set-up costs (the torus
soliton solve, the oracle, the cold weight tables, ``rescale_to_E0``)
come from the set-up spans.  The exact counts are derived from the
program's outputs or from call counts, so they repeat exactly for one
seed and run length.
"""

from __future__ import annotations

from spans import FFT_SPANS, LAYERS

#: computed bytes per transformed element: a complex128 read plus a write
FFT_BYTES_PER_ELEMENT = 32

GRADIENT_SPANS = ("grid.UniformGrid.gradient", "grid.RadialGrid.gradient")
WINDOW_SPANS = tuple(
    f"morawetz.{f}"
    for f in ("bump_gamma", "boost_xi", "weighted_momentum", "galilean_pairing",
              "galilean_invariance_check", "cauchy_schwarz_margin")
)

#: counts that must be identical across runs with one seed and run length
EXACT_COUNTS = ("evolution.steps", "evolution.rows", "grid.fft_calls_per_step",
                "ground_state.sweeps", "morawetz.samples", "cli.bytes_written")


def _sum(summary: dict, names, field: int):
    """Sum one field (0 calls, 1 inclusive s, 2 self s) over span names."""
    return sum(summary[n][field] for n in names if n in summary)


def _layer_names(summary: dict, layer: str):
    return [n for n in summary if n.split(".", 1)[0] == layer]


def layer_metrics(tracer, traced_ops, overhead_frac: float) -> dict:
    """name -> value for every per-layer metric."""
    ops = tracer.summary("ops")
    setup = tracer.summary("setup")
    counts = {}
    for res in traced_ops:
        for key, value in res.counts.items():
            counts[key] = counts.get(key, 0) + value
    steps = counts.get("steps", 0)

    fft_calls = _sum(ops, FFT_SPANS, 0)
    fft_self = _sum(ops, FFT_SPANS, 2)
    sweeps = counts.get("sweeps", 0)
    out = {}
    for layer in LAYERS:
        names = _layer_names(ops, layer)
        out[f"{layer}.calls"] = _sum(ops, names, 0)
        out[f"{layer}.self_s"] = _sum(ops, names, 2)
    out.update({
        "grid.fft_calls": fft_calls,
        "grid.fft_calls_per_step": fft_calls / steps if steps else 0.0,
        "grid.fft_self_s": fft_self,
        "grid.fft_us_per_call": 1e6 * fft_self / fft_calls if fft_calls else 0.0,
        "grid.fft_bytes_computed": FFT_BYTES_PER_ELEMENT * tracer.fft_elements,
        "grid.gradient_calls": _sum(ops, GRADIENT_SPANS, 0),
        "grid.gradient_self_s": _sum(ops, GRADIENT_SPANS + ("grid.gradient",), 2),
        "grid.helmholtz_calls": _sum(ops, ["grid.radial_helmholtz_solve"], 0),
        "grid.helmholtz_self_s": _sum(ops, ["grid.radial_helmholtz_solve"], 2),
        "evolution.steps": steps,
        "evolution.rows": counts.get("rows", 0),
        "evolution.nonlinear_calls": _sum(ops, ["evolution.nonlinear_step"], 0),
        "evolution.nonlinear_self_s": _sum(ops, ["evolution.nonlinear_step"], 2),
        "evolution.evolve_self_s": _sum(ops, ["evolution.evolve"], 2),
        "ground_state.sweeps": sweeps,
        "ground_state.solve_self_s": _sum(ops, ["ground_state.petviashvili_solve"], 2),
        "ground_state.ms_per_sweep": (
            1e3 * _sum(ops, ["ground_state.petviashvili_solve"], 1) / sweeps if sweeps else 0.0
        ),
        "ground_state.profile_s": _sum(setup, ["ground_state.solve_periodic_profile"], 1),
        "ground_state.oracle_s": _sum(setup, ["ground_state.oracle_coarse_solve"], 1),
        "morawetz.tables_d1_s": _sum(setup, ["bench.tables_d1"], 1),
        "morawetz.tables_d2_s": _sum(setup, ["bench.tables_d2"], 1),
        "morawetz.interaction_self_s": _sum(ops, ["morawetz.interaction_lhs"], 2),
        "morawetz.samples": counts.get("samples", 0),
        "morawetz.window_calls": _sum(ops, WINDOW_SPANS, 0),
        "morawetz.window_self_s": _sum(ops, WINDOW_SPANS, 2),
        "threshold.rescale_calls": _sum(setup, ["threshold.rescale_to_E0"], 0),
        "threshold.rescale_s": _sum(setup, ["threshold.rescale_to_E0"], 1),
        "cli.bytes_written": counts.get("bytes", 0),
        "trace.overhead_frac": overhead_frac,
        "trace.spans": len(tracer),
    })
    return out


def shares(tracer) -> dict:
    """Each layer's share of the self time recorded in the traced operations."""
    ops = tracer.summary("ops")
    own = {layer: _sum(ops, _layer_names(ops, layer), 2) for layer in LAYERS}
    total = sum(own.values())
    return {layer: own[layer] / total if total else 0.0 for layer in LAYERS}
