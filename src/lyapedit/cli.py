"""Command-line entry point.

Commands
--------
- simulate: one sequential-editing run, per-step records to CSV
- compare:  several editors over the identical stream, one CSV row per editor
- sweep:    rerun across threshold multipliers, one CSV row per alpha
- verify:   independent oracle suite, plain-text PASS/FAIL report
- dbase:    print the probed threshold base for a stream

Configuration documents are flat ``key = value`` text files; ``#`` starts a
comment.  Recognized keys:

    dims.d0                int >= 1   (required)
    dims.d1                int >= 1   (required)
    stream.n_per_batch     int >= 1   (required)
    stream.total_batches   int >= 1   (required)
    stream.seed            u64        (required)
    stream.mode            planted-teacher | random-target  (default planted-teacher)
    stream.m0              int >= d0  (default 4 * d0)
    stream.key_scale       float > 0  (default 1.0)
    stream.teacher_drift   float >= 0 (default 0.1)
    alpha                  float > 0  (required)
    editor                 lyaplock | baseline | edit-only  (required)
    record_every           int >= 1   (default 1)
    v_weight               float > 0  (default 1.0)
    ridge.max_lambda       float >= 0 (default 1e-6)
    sweep.alphas           comma-separated floats > 0 (required by sweep)
    compare.editors        comma-separated editor names
                           (default lyaplock,baseline,edit-only)

Unknown keys are errors.  Exit status: 0 on success, 1 on configuration or
verification failure, 2 when a solver aborts a run (the partial CSV is
flushed with a final ``# status=aborted`` row).

CSV output uses ``.`` as the decimal separator, ``\\n`` line endings and 17
significant digits.  Wall-clock columns are written as 0 so that identical
inputs yield byte-identical files; live timings appear in the console summary
instead.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .editors import solve_lyaplock
from .errors import ConfigError, InputError, LyapeditError, RunAborted
from .harness import (
    EDITOR_NAMES,
    RunConfig,
    StepRecord,
    compare,
    estimate_d_base,
    run,
    sweep_alpha,
)
from .memory import BacklogAccumulator, Dims, EditBatch, absorb, new_memory
from .oracle import (
    check_inequality_fuzz,
    check_sufficiency_empirical,
    minimize_iteratively,
    objective_gradient,
    quadratic_objective,
    verify_normal_equations,
)
from .stream import (
    VALUE_MODES,
    EditStream,
    StreamSpec,
    load_matrix_file,
    save_matrix_file,
)

RECORD_HEADER = "t,el,pl,bl,z,avg_pl,avg_el,delta_fro,ridge,wall_ms"
COMPARE_HEADER = "editor,final_avg_pl,final_avg_el,constraint_satisfied,mean_wall_ms"
SWEEP_HEADER = ("alpha,d_threshold,final_avg_pl,final_avg_el,"
                "constraint_satisfied,final_z,mean_wall_ms")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _bool(value: bool) -> str:
    return "true" if value else "false"


# --- configuration document --------------------------------------------------

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_INT_KEYS = {
    "dims.d0": (1, None),
    "dims.d1": (1, None),
    "stream.n_per_batch": (1, None),
    "stream.total_batches": (1, None),
    "stream.seed": (0, _U64_MAX),
    "stream.m0": (1, None),
    "record_every": (1, None),
}
_FLOAT_KEYS = {
    "stream.key_scale": "positive",
    "stream.teacher_drift": "nonnegative",
    "alpha": "positive",
    "v_weight": "positive",
    "ridge.max_lambda": "nonnegative",
}
_CHOICE_KEYS = {
    "stream.mode": VALUE_MODES,
    "editor": EDITOR_NAMES,
}
_LIST_KEYS = ("sweep.alphas", "compare.editors")
_REQUIRED = ("dims.d0", "dims.d1", "stream.n_per_batch", "stream.total_batches",
             "stream.seed", "alpha", "editor")
_ALL_KEYS = (set(_INT_KEYS) | set(_FLOAT_KEYS) | set(_CHOICE_KEYS)
             | set(_LIST_KEYS))


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} has no value")
        values[key] = value
    return values


def _get_int(values: dict, key: str) -> int:
    lo, hi = _INT_KEYS[key]
    try:
        parsed = int(values[key], 0)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from exc
    if parsed < lo or (hi is not None and parsed > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{key} must be {bound}, got {parsed}")
    return parsed


def _get_float(values: dict, key: str) -> float:
    kind = _FLOAT_KEYS[key]
    try:
        parsed = float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {values[key]!r}") from exc
    if not np.isfinite(parsed):
        raise ConfigError(f"{key} must be finite, got {parsed!r}")
    if kind == "positive" and parsed <= 0.0:
        raise ConfigError(f"{key} must be positive, got {parsed!r}")
    if kind == "nonnegative" and parsed < 0.0:
        raise ConfigError(f"{key} must be nonnegative, got {parsed!r}")
    return parsed


def _get_choice(values: dict, key: str) -> str:
    choices = _CHOICE_KEYS[key]
    value = values[key]
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def load_config(path, seed_override: int | None = None) -> dict:
    """Read, validate and materialize a configuration document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = parse_config_text(text, origin=str(path))
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key}")

    d0 = _get_int(values, "dims.d0")
    d1 = _get_int(values, "dims.d1")
    seed = seed_override if seed_override is not None else _get_int(values, "stream.seed")
    spec = StreamSpec(
        dims=Dims(d0=d0, d1=d1),
        n_per_batch=_get_int(values, "stream.n_per_batch"),
        total_batches=_get_int(values, "stream.total_batches"),
        key_scale=_get_float(values, "stream.key_scale") if "stream.key_scale" in values else 1.0,
        value_mode=_get_choice(values, "stream.mode") if "stream.mode" in values else "planted-teacher",
        teacher_drift=_get_float(values, "stream.teacher_drift") if "stream.teacher_drift" in values else 0.1,
        seed=seed,
        m0=_get_int(values, "stream.m0") if "stream.m0" in values else 4 * d0,
    )
    config = RunConfig(
        stream=spec,
        editor=_get_choice(values, "editor"),
        alpha=_get_float(values, "alpha"),
        v_weight=_get_float(values, "v_weight") if "v_weight" in values else 1.0,
        ridge_max_lambda=_get_float(values, "ridge.max_lambda") if "ridge.max_lambda" in values else 1e-6,
        record_every=_get_int(values, "record_every") if "record_every" in values else 1,
    )

    alphas = None
    if "sweep.alphas" in values:
        alphas = []
        for part in values["sweep.alphas"].split(","):
            try:
                alpha = float(part.strip())
            except ValueError as exc:
                raise ConfigError(f"sweep.alphas must be comma-separated numbers, got {part.strip()!r}") from exc
            if not np.isfinite(alpha) or alpha <= 0.0:
                raise ConfigError(f"sweep.alphas entries must be positive, got {alpha!r}")
            alphas.append(alpha)

    editors = list(EDITOR_NAMES)
    if "compare.editors" in values:
        editors = [part.strip() for part in values["compare.editors"].split(",")]
        for editor in editors:
            if editor not in EDITOR_NAMES:
                raise ConfigError(
                    f"compare.editors must name editors among {', '.join(EDITOR_NAMES)}, got {editor!r}"
                )
        if not editors:
            raise ConfigError("compare.editors must name at least one editor")

    return {"run": config, "sweep_alphas": alphas, "compare_editors": editors}


# --- CSV emission -------------------------------------------------------------

def records_to_csv(records: list[StepRecord], status: str | None = None) -> str:
    lines = [RECORD_HEADER]
    for r in records:
        lines.append(",".join((
            str(r.t), _fmt(r.el), _fmt(r.pl), _fmt(r.bl), _fmt(r.z),
            _fmt(r.avg_pl), _fmt(r.avg_el), _fmt(r.delta_fro), _fmt(r.ridge),
            _fmt(0.0),
        )))
    if status is not None:
        lines.append(f"# status={status}")
    return "\n".join(lines) + "\n"


def summaries_to_csv(summaries, header: str) -> str:
    lines = [header]
    for s in summaries:
        if header == COMPARE_HEADER:
            lines.append(",".join((
                s.editor, _fmt(s.final_avg_pl), _fmt(s.final_avg_el),
                _bool(s.constraint_satisfied), _fmt(0.0),
            )))
        else:
            lines.append(",".join((
                _fmt(s.alpha), _fmt(s.d_threshold), _fmt(s.final_avg_pl),
                _fmt(s.final_avg_el), _bool(s.constraint_satisfied),
                _fmt(s.final_z), _fmt(0.0),
            )))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="")


def _say(args, message: str) -> None:
    if not args.quiet:
        stream = sys.stderr if args.out is None else sys.stdout
        print(message, file=stream)


def _summary_line(s) -> str:
    return (
        f"editor={s.editor} steps={s.steps} alpha={_fmt(s.alpha)} "
        f"d_base={_fmt(s.d_base)} d={_fmt(s.d_threshold)} "
        f"avg_pl={_fmt(s.final_avg_pl)} avg_el={_fmt(s.final_avg_el)} "
        f"constraint_satisfied={_bool(s.constraint_satisfied)} "
        f"z_final={_fmt(s.final_z)} stability={_fmt(s.stability)} "
        f"mean_wall_ms={s.mean_wall_ms:.3f}"
    )


# --- commands ------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    loaded = load_config(args.config, args.seed)
    try:
        result = run(loaded["run"])
    except RunAborted as exc:
        _emit(records_to_csv(exc.records, status=f"aborted step={exc.step} reason={exc}"),
              args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(records_to_csv(result.records), args.out)
    _say(args, _summary_line(result.summary))
    return 0


def _cmd_compare(args) -> int:
    loaded = load_config(args.config, args.seed)
    configs = [replace(loaded["run"], editor=name) for name in loaded["compare_editors"]]
    try:
        summaries = compare(configs)
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(summaries_to_csv(summaries, COMPARE_HEADER), args.out)
    for s in summaries:
        _say(args, _summary_line(s))
    return 0


def _cmd_sweep(args) -> int:
    loaded = load_config(args.config, args.seed)
    if loaded["sweep_alphas"] is None:
        raise ConfigError("missing required key sweep.alphas")
    try:
        summaries = sweep_alpha(loaded["run"], loaded["sweep_alphas"])
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(summaries_to_csv(summaries, SWEEP_HEADER), args.out)
    for s in summaries:
        _say(args, _summary_line(s))
    return 0


def _cmd_dbase(args) -> int:
    loaded = load_config(args.config, args.seed)
    config = loaded["run"]
    stream = EditStream(config.stream)
    w0, k0 = stream.generate_preserved()
    mem = new_memory(w0, k0)
    d_base = estimate_d_base(stream, mem, max_ridge=config.ridge_max_lambda)
    line = f"d_base={_fmt(d_base)}"
    if args.out is not None:
        _emit(f"d_base\n{_fmt(d_base)}\n", args.out)
    print(line)
    return 0


def _verify_checks(seed: int):
    rng = np.random.default_rng(seed)

    def random_instance(d0, d1, n, m0, absorbed=0):
        mem = new_memory(rng.standard_normal((d1, d0)),
                         rng.standard_normal((d0, m0)))
        bk = BacklogAccumulator.empty(mem.dims)
        for _ in range(absorbed):
            absorb(bk, EditBatch(k1=rng.standard_normal((d0, 2)),
                                 v1=rng.standard_normal((d1, 2))))
        batch = EditBatch(k1=rng.standard_normal((d0, n)),
                          v1=rng.standard_normal((d1, n)))
        return mem, bk, batch

    def check_fuzz():
        report = check_inequality_fuzz(100_000, seed)
        return report.passed, f"{report.samples} samples, {report.violations} violations"

    def check_normal_equations():
        worst = 0.0
        for i in range(25):
            mem, bk, batch = random_instance(6, 4, 3, 24, absorbed=i % 3)
            report = solve_lyaplock(mem, bk, batch, v_weight=1.0, az=0.5 + i * 0.1)
            worst = max(worst, verify_normal_equations(
                mem, bk, batch, 1.0, 0.5 + i * 0.1, report.delta))
        return worst <= 1e-8, f"worst relative residual {worst:.3e}"

    def check_optimality():
        worst = 0.0
        for i in range(10):
            mem, bk, batch = random_instance(5, 4, 2, 20, absorbed=i % 2)
            report = solve_lyaplock(mem, bk, batch, v_weight=1.0, az=1.0)
            closed = quadratic_objective(mem, bk, batch, 1.0, 1.0, report.delta)
            _, iterated = minimize_iteratively(mem, bk, batch, 1.0, 1.0, steps=2000)
            worst = max(worst, (closed - iterated) / max(abs(iterated), 1e-30))
        return worst <= 1e-6, f"worst objective excess {worst:.3e}"

    def check_gradient():
        worst = 0.0
        for _ in range(5):
            mem, bk, batch = random_instance(3, 4, 2, 12, absorbed=1)
            delta = rng.standard_normal(mem.w.shape) * 0.1
            grad = objective_gradient(mem, bk, batch, 1.0, 0.7, delta)
            eps = 1e-6
            fd = np.zeros_like(grad)
            for idx in np.ndindex(grad.shape):
                bump = np.zeros_like(delta)
                bump[idx] = eps
                hi = quadratic_objective(mem, bk, batch, 1.0, 0.7, delta + bump)
                lo = quadratic_objective(mem, bk, batch, 1.0, 0.7, delta - bump)
                fd[idx] = (hi - lo) / (2 * eps)
            worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(fd)))
        return worst <= 1e-5, f"worst gradient mismatch {worst:.3e}"

    def check_sufficiency():
        spec = StreamSpec(dims=Dims(d0=16, d1=12), n_per_batch=4,
                          total_batches=300, key_scale=1.0,
                          value_mode="planted-teacher", teacher_drift=0.1,
                          seed=seed, m0=64)
        result = run(RunConfig(stream=spec, editor="lyaplock", alpha=60.0))
        report = check_sufficiency_empirical(result.pl_history, result.z_history,
                                             result.params)
        return report.passed, (
            f"avg_pl={report.measured_avg_pl:.6g} <= bound={report.implied_bound:.6g}"
        )

    def check_round_trip():
        import tempfile
        with tempfile.TemporaryDirectory() as tmpdir:
            path = Path(tmpdir) / "m.kvmx"
            for i in range(50):
                matrix = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
                save_matrix_file(path, matrix)
                back = load_matrix_file(path)
                if back.shape != matrix.shape or not np.array_equal(back, matrix):
                    return False, f"round trip {i} diverged"
        return True, "50 random matrices bit-exact"

    return (
        ("queue-inequality-fuzz", check_fuzz),
        ("normal-equations", check_normal_equations),
        ("closed-form-optimality", check_optimality),
        ("gradient-finite-difference", check_gradient),
        ("telescoped-queue-bound", check_sufficiency),
        ("kvmx-round-trip", check_round_trip),
    )


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    all_ok = True
    for name, check in _verify_checks(seed):
        try:
            ok, detail = check()
        except LyapeditError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapedit",
        description="Constrained sequential editing of linear associative memories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_config in (
        ("simulate", _cmd_simulate, True),
        ("compare", _cmd_compare, True),
        ("sweep", _cmd_sweep, True),
        ("dbase", _cmd_dbase, True),
        ("verify", _cmd_verify, False),
    ):
        cmd = sub.add_parser(name)
        if needs_config:
            cmd.add_argument("--config", required=True, help="run-configuration document")
            cmd.add_argument("--out", default=None, help="CSV output path (default stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override stream.seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress summary lines")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and not 0 <= args.seed <= _U64_MAX:
        # Checked here, not by an argparse type, whose usage errors exit 2.
        print(f"error: --seed must be in [0, {_U64_MAX}], got {args.seed}",
              file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LyapeditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
