"""One benchmark process: a measured repetition, a traced run, or the environment record.

``run.py`` starts this script with BLAS pinned to one thread in the
environment, so the setting holds before numpy is first imported, and with
``src`` of the checkout on ``PYTHONPATH``.  It prints one JSON object as its
last line of standard output.

Modes:
- ``measure``: time the import plus set-up, then the workload's call once,
  check the outputs, and report the process's peak resident set.
- ``trace``: alternate untraced and traced calls until ``--seconds`` have
  passed, check that both give bit-identical outputs, and report the
  per-layer metrics of the traced calls.  Spans go to ``--spans``.
- ``env``: the environment record (BLAS, versions, thread settings).
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_TRACE_PAIRS = 5


def _failure() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def measure(w, seed: int) -> dict:
    errors = []
    started = time.perf_counter()
    workloads.import_modules(w)
    workloads.setup(w, seed)
    setup_s = time.perf_counter() - started
    wall_s = steps = None
    summaries = []
    started = time.perf_counter()
    try:
        output = workloads.call(w, seed)
    except Exception:  # noqa: BLE001 - any error is a failed operation to report
        errors.append(_failure())
    else:
        wall_s = time.perf_counter() - started
        steps = workloads.steps_done(w, output)
        summaries = workloads.summary_dicts(w, output)
        errors += workloads.check(w, seed, output)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "wall_s": wall_s, "steps": steps,
            "peak_rss_mib": peak, "summaries": summaries, "errors": errors,
            "attempted": 1, "failed": int(bool(errors))}


def _timed_call(w, seed):
    started = time.perf_counter()
    output = workloads.call(w, seed)
    return output, time.perf_counter() - started


def trace(w, seed: int, seconds: float, spans_path: str) -> dict:
    import layers
    from spans import Tracer

    workloads.import_modules(w)
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    walls = {False: [], True: []}
    traced_runs = []
    repeats = {name: set() for name in layers.EXACT_COUNTERS}
    errors = []
    attempted = failed = 0
    missing = []
    pair = 0
    pair_s = 0.0
    # Start another pair only if one more still fits before the deadline.
    while pair == 0 or (pair < MAX_TRACE_PAIRS
                        and time.perf_counter() + pair_s <= deadline):
        pair_start = time.perf_counter()
        outputs = {}
        # Alternate which side runs first so neither always pays the cold call.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            attempted += 1
            tracer.run = pair
            try:
                if traced:
                    with tracer.installed(layers.TARGETS):
                        outputs[traced], wall = _timed_call(w, seed)
                    missing = tracer.missing
                else:
                    outputs[traced], wall = _timed_call(w, seed)
            except Exception:  # noqa: BLE001 - any error is a failed operation to report
                failed += 1
                errors.append(_failure())
                continue
            walls[traced].append(wall)
            call_errors = workloads.check(w, seed, outputs[traced])
            if traced:
                traced_runs.append(pair)
                spans = [s for s in tracer.spans if s.run == pair]
                call_errors += layers.residual_breaches(spans)
                counts = layers.layer_metrics(spans, [wall])
                for name in layers.EXACT_COUNTERS:
                    repeats[name].add(counts[name])
                if w.kind == "verify":
                    steps = sum(s.attrs or 0 for s in spans if s.name == "harness.run")
                    if steps != workloads.VERIFY_STEPS:
                        call_errors.append(
                            f"verify stepped {steps} times, not "
                            f"{workloads.VERIFY_STEPS}; update VERIFY_STEPS")
            failed += bool(call_errors)
            errors += call_errors
        if len(outputs) == 2:
            if (workloads.fingerprint(w, outputs[False])
                    != workloads.fingerprint(w, outputs[True])):
                failed += 1
                errors.append(f"traced and untraced outputs differ (pair {pair})")
        pair_s = max(pair_s, time.perf_counter() - pair_start)
        pair += 1

    metrics = {}
    if traced_runs:
        metrics = layers.layer_metrics(
            [s for s in tracer.spans if s.run in traced_runs], walls[True])
        metrics["trace.wall_s"] = statistics.median(walls[True])
    if walls[True] and walls[False]:
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    metrics["trace.calls"] = len(walls[True])
    metrics["trace.missing_targets"] = len(missing)
    with gzip.open(spans_path, "wt", encoding="utf-8") as out:
        for s in tracer.spans:
            out.write(json.dumps([s.run, s.sid, s.parent, s.name, s.start, s.end,
                                  s.failed]) + "\n")
    return {"metrics": metrics, "errors": errors, "attempted": attempted,
            "failed": failed, "missing_targets": missing,
            "exact_counters_repeat": {k: len(v) == 1 for k, v in repeats.items()},
            "attr_errors": tracer.attr_errors,
            "untraced_wall_s": walls[False], "traced_wall_s": walls[True]}


def environment() -> dict:
    import numpy
    import scipy
    import lyapedit
    import lyapedit.cli  # noqa: F401 - compiles its bytecode before timing

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "LYAPEDIT_THREADS": os.environ.get("LYAPEDIT_THREADS", "unset"),
        "lyapedit": lyapedit.__file__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "trace", "env"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args()
    if args.mode == "env":
        result = environment()
    elif args.mode == "measure":
        result = measure(workloads.WORKLOADS[args.workload], args.seed)
    else:
        result = trace(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
