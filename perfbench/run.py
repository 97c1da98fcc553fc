"""Benchmark of lyapedit through its public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload accept-d64 --seed 188 --seconds 28 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` each
repetition is a fresh process that imports lyapedit, sets up and makes the
workload's call once, until ``--seconds`` have passed; the end-to-end metrics
are medians over the repetitions.  With ``--trace 1`` one process alternates
untraced and traced calls and reports per-layer metrics.  Every output is
checked; a failed check, a raised error or a non-zero exit counts as a
failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the environment record and every sample goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
              "peak_rss_mib": "MiB"}
MIN_REPS = 3
# Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for name in child.BLAS_ENV:
        env[name] = "1"
    # Ensemble members run serially: the pool is off unless this is set.
    env.pop("LYAPEDIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], started: float) -> tuple[dict | None, str]:
    """Run child.py to completion; return its JSON result, or None and why not."""
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    if budget <= 0:
        return None, "no time left in the run"
    try:
        proc = subprocess.run([sys.executable, child.__file__, *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {budget:.0f} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"child exited {proc.returncode}: {tail}"
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(w, seed: int, seconds: float, started: float) -> dict:
    samples, errors = [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        # Start another repetition only if a typical one still fits the window.
        elapsed = time.perf_counter() - t0
        typical = statistics.median(s["elapsed"] for s in samples) if samples else 0.0
        if attempted >= MIN_REPS and (not samples or elapsed + typical > seconds):
            break
        rep_start = time.perf_counter()
        result, why = run_child(["measure", "--workload", w.name, "--seed", str(seed)],
                                started)
        attempted += 1
        if result is None:
            failed += 1
            errors.append(why)
            if why == "no time left in the run":
                break
            continue
        result["elapsed"] = time.perf_counter() - rep_start
        samples.append(result)
        failed += result["failed"]
        errors += result["errors"]
    good = [s for s in samples if not s["failed"]]
    series = {
        "setup_s": [s["setup_s"] for s in good],
        "wall_s": [s["wall_s"] for s in good],
        "steps_per_s": [s["steps"] / s["wall_s"] for s in good],
        "peak_rss_mib": [s["peak_rss_mib"] for s in good],
    }
    metrics = {}
    spread = {}
    for name, unit in END_TO_END.items():
        values = series[name]
        if values:
            q1, median, q3 = quartiles(values)
            spread[name] = {"q1": q1, "median": median, "q3": q3, "n": len(values)}
        else:
            median = 0.0
        metrics[name] = {"value": median, "unit": unit}
    return {"metrics": metrics, "spread": spread, "samples": samples,
            "errors": errors, "attempted": attempted, "failed": failed}


def trace(w, seed: int, seconds: float, started: float, stem: str) -> dict:
    spans_path = RESULTS / f"{stem}.spans.jsonl.gz"
    result, why = run_child(["trace", "--workload", w.name, "--seed", str(seed),
                             "--seconds", str(seconds), "--spans", str(spans_path)],
                            started)
    if result is None:
        result = {"metrics": {}, "errors": [why], "attempted": 1, "failed": 1}
    for where in result.get("missing_targets", ()):
        print(f"warning: {where} not found; its layer reads as zero calls",
              file=sys.stderr)
    if result.get("attr_errors"):
        print(f"warning: {result['attr_errors']} spans lost their attributes; "
              "a wrapped signature changed", file=sys.stderr)
    result["metrics"] = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
                         for name, unit in layers.METRIC_UNITS.items()}
    return result


def run_workload(w, seed: int, seconds: float, traced: bool, env: dict) -> dict:
    started = time.perf_counter()
    stem = f"{w.name}-seed{seed}-trace{int(traced)}"
    if traced:
        result = trace(w, seed, seconds, started, stem)
    else:
        result = measure(w, seed, seconds, started)
    result.update(workload=w.name, seed=seed, seconds=seconds, trace=int(traced),
                  env=env, elapsed_s=time.perf_counter() - started)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        line = f"{w.name} {name} = {metric['value']:.6g} {metric['unit']}"
        if name in result.get("spread", {}):
            s = result["spread"][name]
            line += f" (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    fail_frac = result["failed"] / max(result["attempted"], 1)
    print(f"{w.name} fail_frac = {fail_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in result["errors"]:
        print(f"{w.name} CHECK FAILED: {error}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not (SRC / "lyapedit" / "__init__.py").is_file():
        print(f"error: no lyapedit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    env, why = run_child(["env"], time.perf_counter())
    if env is None or not env["lyapedit"].startswith(str(SRC)):
        print(f"error: cannot import lyapedit from {SRC}: {why or env['lyapedit']}",
              file=sys.stderr)
        return 2
    env.update(nproc=os.cpu_count(), cpu_model=cpu_model(), seed=args.seed)
    print("env " + json.dumps(env))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace), env) for name in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
