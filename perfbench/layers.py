"""Which lyapedit functions the traced run wraps, and the per-layer metrics.

The callers inside lyapedit bind names with ``from .x import y``, so each
function is wrapped where its caller looks it up: ``harness.solve_lyaplock``
is what ``harness.run`` calls, ``cli.run`` is what ``verify`` calls.  The
entry points the benchmark calls (``harness.run``, ``harness.compare``,
``harness.sweep_alpha``, ``cli.main``) are wrapped too, so every traced call
has one root span per entry point and the self times of one call add up to
its wall time.

A span is named ``<layer>.<operation>``; the layer is the lyapedit module
the time is spent in.
"""
from __future__ import annotations

import statistics

from spans import Target, self_times

LAYERS = ("stream", "memory", "editors", "controller", "harness", "oracle", "cli")

# The editors' documented contract: residual <= 1e-8 whenever no ridge was applied.
RESIDUAL_CONTRACT = 1e-8


def _steps(args, kwargs, result):
    return result.summary.steps


def _batch_key(args, kwargs, result):
    stream = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    return (stream.spec.seed, t)


def _solve(args, kwargs, result):
    dims = args[0].dims
    return (result.ridge_applied, result.residual, dims.d0, dims.d1)


def _memory_dims(args, kwargs, result):
    dims = args[0].dims
    return (dims.d0, dims.d1)


_H = "lyapedit.harness"
_C = "lyapedit.cli"
_O = "lyapedit.oracle"

TARGETS = (
    Target(_H, "run", "harness.run", _steps),
    Target(_H, "compare", "harness.compare"),
    Target(_H, "sweep_alpha", "harness.sweep"),
    Target(_H, "estimate_d_base", "harness.probe"),
    Target(_H, "new_memory", "memory.new_memory"),
    Target(_H, "solve_lyaplock", "editors.lyaplock", _solve),
    Target(_H, "solve_baseline", "editors.baseline", _solve),
    Target(_H, "solve_edit_only", "editors.edit_only", _solve),
    Target(_H, "editing_loss", "memory.el"),
    Target(_H, "preservation_loss", "memory.pl", _memory_dims),
    Target(_H, "backlog_loss", "memory.bl"),
    Target(_H, "absorb", "memory.absorb"),
    Target(_H, "update_queue", "controller.update"),
    Target("lyapedit.stream:EditStream", "batch", "stream.batch", _batch_key),
    Target("lyapedit.stream:EditStream", "generate_preserved", "stream.preserved"),
    Target("lyapedit.memory:AssociativeMemory", "with_weights", "memory.with_weights"),
    Target(_C, "main", "cli.main"),
    Target(_C, "run", "harness.run", _steps),
    Target(_C, "solve_lyaplock", "editors.lyaplock", _solve),
    Target(_C, "minimize_iteratively", "oracle.minimize"),
    Target(_C, "check_inequality_fuzz", "oracle.fuzz"),
    Target(_C, "verify_normal_equations", "oracle.normal_eq"),
    Target(_C, "check_sufficiency_empirical", "oracle.sufficiency"),
    Target(_C, "quadratic_objective", "oracle.objective"),
    Target(_C, "objective_gradient", "oracle.gradient"),
    Target(_O, "quadratic_objective", "oracle.objective"),
    Target(_O, "objective_gradient", "oracle.gradient"),
)

# Spans timed per call: (span name, metric unit, whether a p99 is reported).
_PER_CALL = (
    ("stream.batch", "ms", True),
    ("memory.pl", "ms", False),
    ("memory.bl", "ms", False),
    ("memory.absorb", "ms", False),
    ("memory.el", "ms", False),
    ("memory.with_weights", "ms", False),
    ("editors.lyaplock", "ms", True),
    ("editors.baseline", "ms", False),
    ("editors.edit_only", "ms", False),
    ("controller.update", "us", False),
)
# Spans reported as total seconds per workload call.
_TOTALS = ("stream.preserved", "memory.new_memory", "harness.probe",
           "oracle.minimize", "oracle.fuzz")
_SCALE = {"ms": 1e3, "us": 1e6}
# A p99 needs ten samples beyond it.
P99_MIN_CALLS = 1000


def _catalogue() -> dict[str, str]:
    units = {}
    for name, unit, tail in _PER_CALL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.{unit}_p50"] = unit
        if tail:
            units[f"{name}.{unit}_p99"] = unit
    for name in _TOTALS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "stream.batch.unique_frac": "ratio",
        "memory.pl.gflop_per_s": "GFLOP/s",
        "editors.lyaplock.gflop_per_s": "GFLOP/s",
        "editors.ridge_frac": "ratio",
        "editors.residual_max": "ratio",
        "harness.run.calls": "count",
        "harness.run.self_ms_per_step": "ms",
        "oracle.objective.calls": "count",
        "oracle.gradient.calls": "count",
        "cli.verify.self_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "ratio"
    units.update({
        "trace.calls": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_frac": "ratio",
        "trace.missing_targets": "count",
    })
    return units


METRIC_UNITS = _catalogue()

# Counts that repeat exactly for a given workload and seed, so a change may
# cite them as counts.
EXACT_COUNTERS = ("stream.batch.calls", "stream.batch.unique_frac",
                  "harness.probe.calls", "oracle.objective.calls",
                  "oracle.gradient.calls", "editors.ridge_frac")


def lyaplock_flops(d0: int, d1: int) -> float:
    """Computed, not counted: assembly and residual products plus Cholesky."""
    return 8.0 * d1 * d0 * d0 + d0 ** 3 / 3.0


def pl_flops(d0: int, d1: int) -> float:
    """Computed: ``W @ K0K0^T`` and the two trace contractions."""
    return 2.0 * d1 * d0 * d0 + 4.0 * d1 * d0


def _rate(spans, flops) -> float:
    busy = sum(s.end - s.start for s in spans)
    work = sum(flops(*s.attrs[-2:]) for s in spans)
    return work / busy / 1e9 if busy > 0.0 else 0.0


def layer_metrics(spans, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one or more traced workload calls.

    ``walls`` holds the wall time of each traced call; the spans carry the
    call's index as their run id.  Counts and ``.s`` totals are per call;
    percentiles pool the samples of all calls.  A layer the workload never
    enters reads 0, and so does a p99 of fewer than ``P99_MIN_CALLS``
    samples; the matching ``.calls`` says how many samples stand behind each
    timing.
    """
    spans = list(spans)
    calls = len(walls)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    names = {span.sid: span.name for span in spans}
    selfs = self_times(spans)
    m: dict[str, float] = {}

    for name, unit, tail in _PER_CALL:
        durations = [s.end - s.start for s in by_name.get(name, ())]
        scale = _SCALE[unit]
        m[f"{name}.calls"] = len(durations) / calls
        m[f"{name}.{unit}_p50"] = statistics.median(durations) * scale if durations else 0.0
        if tail:
            m[f"{name}.{unit}_p99"] = (
                statistics.quantiles(durations, n=100, method="inclusive")[98] * scale
                if len(durations) >= P99_MIN_CALLS else 0.0)

    # Calls of generate_preserved made inside stream.batch return the cached
    # preserved set; only the others generate it.
    generating = [s for s in by_name.get("stream.preserved", ())
                  if names.get(s.parent) != "stream.batch"]
    for name in _TOTALS:
        chosen = generating if name == "stream.preserved" else by_name.get(name, ())
        m[f"{name}.calls"] = len(chosen) / calls
        m[f"{name}.s"] = sum(s.end - s.start for s in chosen) / calls

    keys = [(s.run, s.attrs) for s in by_name.get("stream.batch", ())]
    m["stream.batch.unique_frac"] = len(set(keys)) / len(keys) if keys else 0.0

    solves = [s for s in spans if s.name.startswith("editors.") and s.attrs]
    m["memory.pl.gflop_per_s"] = _rate(
        [s for s in by_name.get("memory.pl", ()) if s.attrs], pl_flops)
    m["editors.lyaplock.gflop_per_s"] = _rate(
        [s for s in solves if s.name == "editors.lyaplock"], lyaplock_flops)
    m["editors.ridge_frac"] = (sum(1 for s in solves if s.attrs[0] > 0.0) / len(solves)
                               if solves else 0.0)
    m["editors.residual_max"] = max((s.attrs[1] for s in solves), default=0.0)

    runs = by_name.get("harness.run", ())
    steps = sum(s.attrs for s in runs if s.attrs)
    m["harness.run.calls"] = len(runs) / calls
    m["harness.run.self_ms_per_step"] = (
        sum(selfs[s.sid] for s in runs) / steps * 1e3 if steps else 0.0)
    m["oracle.objective.calls"] = len(by_name.get("oracle.objective", ())) / calls
    m["oracle.gradient.calls"] = len(by_name.get("oracle.gradient", ())) / calls
    m["cli.verify.self_s"] = sum(selfs[s.sid] for s in by_name.get("cli.main", ())) / calls

    total_self = sum(selfs.values())
    for layer in LAYERS:
        layer_self = sum(t for sid, t in selfs.items()
                         if names[sid].partition(".")[0] == layer)
        m[f"{layer}.self_frac"] = layer_self / total_self if total_self > 0.0 else 0.0
    m["trace.self_sum_frac"] = total_self / sum(walls) if sum(walls) > 0.0 else 0.0
    return m


def residual_breaches(spans) -> list[str]:
    """Solves that applied no ridge yet report a residual above the contract."""
    return [f"{s.name} residual {s.attrs[1]!r} with ridge 0"
            for s in spans
            if s.name.startswith("editors.") and s.attrs
            and s.attrs[0] == 0.0 and not s.attrs[1] <= RESIDUAL_CONTRACT]
