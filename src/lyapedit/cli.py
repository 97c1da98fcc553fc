"""Command-line entry point.

Commands
--------
- simulate: one sequential-editing run, one CSV row per sampled step
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
    sweep.alphas           comma-separated floats > 0 (required by sweep)
    compare.editors        comma-separated editor names
                           (default lyaplock,baseline,edit-only)

Unknown keys are errors, and every key present is checked, even
``stream.seed`` under ``--seed``.  Exit status: 0 on success, 1 on
configuration or verification failure or an ``--out`` that cannot be
written, 2 when a run aborts (``simulate`` flushes the partial CSV with a
final ``# status=aborted`` row).

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

from . import oracle
from .errors import ConfigError, InputError, LyapeditError, RunAborted
from .harness import (
    EDITOR_NAMES,
    RunConfig,
    compare,
    estimate_d_base,
    run,
    running_average,
    sweep_alpha,
)
from .memory import Dims
from .stream import VALUE_MODES, EditStream, StreamSpec

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
_REQUIRED = object()


def _integer(lo: int, hi: int | None = None):
    def parse(key: str, text: str) -> int:
        try:
            value = int(text, 0)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from exc
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{key} must be {bound}, got {value}")
        return value
    return parse


def _number(positive: bool):
    def parse(key: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {text!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if value < 0.0 or (positive and value == 0.0):
            kind = "positive" if positive else "nonnegative"
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
        return value
    return parse


def _choice(choices):
    def parse(key: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(
                f"{key} must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def _list_of(item):
    def parse(key: str, text: str) -> list:
        return [item(f"{key} entries", part.strip()) for part in text.split(",")]
    return parse


# key -> (parser with its bound, default).  ``_REQUIRED`` marks a key that
# must be present; ``None`` leaves the value to ``load_config`` (stream.m0
# defaults to 4 * d0) or to the command (sweep.alphas).
_SCHEMA = {
    "dims.d0": (_integer(1), _REQUIRED),
    "dims.d1": (_integer(1), _REQUIRED),
    "stream.n_per_batch": (_integer(1), _REQUIRED),
    "stream.total_batches": (_integer(1), _REQUIRED),
    "stream.seed": (_integer(0, _U64_MAX), _REQUIRED),
    "stream.mode": (_choice(VALUE_MODES), "planted-teacher"),
    "stream.m0": (_integer(1), None),
    "stream.key_scale": (_number(positive=True), 1.0),
    "stream.teacher_drift": (_number(positive=False), 0.1),
    "alpha": (_number(positive=True), _REQUIRED),
    "editor": (_choice(EDITOR_NAMES), _REQUIRED),
    "record_every": (_integer(1), 1),
    "v_weight": (_number(positive=True), 1.0),
    "sweep.alphas": (_list_of(_number(positive=True)), None),
    "compare.editors": (_list_of(_choice(EDITOR_NAMES)), EDITOR_NAMES),
}


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
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{origin}:{lineno}: key {key!r} has no value")
        values[key] = value
    return values


def load_config(path, seed_override: int | None = None) -> dict:
    """Read, validate and materialize a configuration document.

    Every key present is parsed before ``seed_override`` replaces
    ``stream.seed``, so an invalid seed in the file is an error either way.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    present = parse_config_text(text, origin=str(path))
    for key, (_, default) in _SCHEMA.items():
        if default is _REQUIRED and key not in present:
            raise ConfigError(f"missing required key {key}")
    values = {key: parse(key, present[key]) if key in present else default
              for key, (parse, default) in _SCHEMA.items()}
    if seed_override is not None:
        values["stream.seed"] = seed_override

    d0 = values["dims.d0"]
    m0 = 4 * d0 if values["stream.m0"] is None else values["stream.m0"]
    if m0 < d0:
        raise ConfigError(
            f"stream.m0 must be >= dims.d0 to keep the preserved Gram full "
            f"rank, got {m0} with dims.d0 = {d0}")
    spec = StreamSpec(
        dims=Dims(d0=d0, d1=values["dims.d1"]),
        n_per_batch=values["stream.n_per_batch"],
        total_batches=values["stream.total_batches"],
        key_scale=values["stream.key_scale"],
        value_mode=values["stream.mode"],
        teacher_drift=values["stream.teacher_drift"],
        seed=values["stream.seed"],
        m0=m0,
    )
    config = RunConfig(
        stream=spec,
        editor=values["editor"],
        alpha=values["alpha"],
        v_weight=values["v_weight"],
        record_every=values["record_every"],
    )
    return {"run": config, "sweep_alphas": values["sweep.alphas"],
            "compare_editors": list(values["compare.editors"])}


# --- CSV emission -------------------------------------------------------------

def _csv(header: str, row, items, status: str | None = None) -> str:
    lines = [header] + [row(item) for item in items]
    if status is not None:
        lines.append(f"# status={status}")
    return "\n".join(lines) + "\n"


def _step_csv(h: dict, config: RunConfig, status: str | None = None) -> str:
    """The ``simulate`` CSV of histories ``h`` (RunResult field name to steps
    1..s of a run or of an aborted run): its steps t that are multiples of
    ``record_every`` or are T.  Column z is Z(t), which step t's solve read."""
    pl, el = h["pl_history"], h["el_history"]
    columns = (el, pl, h["bl_history"], h["z_history"], running_average(pl),
               running_average(el), h["delta_fro_history"], h["ridge_history"],
               np.zeros(pl.size))  # wall_ms
    steps = [t for t in range(1, pl.size + 1)
             if t % config.record_every == 0 or t == config.stream.total_batches]
    return _csv(RECORD_HEADER, lambda t: ",".join(
        [str(t)] + [_fmt(column[t - 1]) for column in columns]), steps, status)


def _compare_row(s) -> str:
    return ",".join((
        s.editor, _fmt(s.final_avg_pl), _fmt(s.final_avg_el),
        _bool(s.constraint_satisfied), _fmt(0.0),
    ))


def _sweep_row(s) -> str:
    return ",".join((
        _fmt(s.alpha), _fmt(s.d_threshold), _fmt(s.final_avg_pl),
        _fmt(s.final_avg_el), _bool(s.constraint_satisfied),
        _fmt(s.final_z), _fmt(0.0),
    ))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out_path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc


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
        f"z_final={_fmt(s.final_z)} stability={_fmt(s.stability)}"
    )


# --- commands ------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = load_config(args.config, args.seed)["run"]
    try:
        result = run(config)
    except RunAborted as exc:
        _emit(_step_csv(exc.histories, config,
                        status=f"aborted step={exc.step} reason={exc}"), args.out)
        raise  # main reports it and exits 2
    # A RunResult's fields include its histories under the same names.
    _emit(_step_csv(vars(result), config), args.out)
    _say(args, _summary_line(result.summary))
    return 0


def _summary_table(args, header: str, row, summaries) -> int:
    """Write one CSV row and one summary line per summary."""
    _emit(_csv(header, row, summaries), args.out)
    for s in summaries:
        _say(args, _summary_line(s))
    return 0


def _cmd_compare(args) -> int:
    loaded = load_config(args.config, args.seed)
    configs = [replace(loaded["run"], editor=name) for name in loaded["compare_editors"]]
    return _summary_table(args, COMPARE_HEADER, _compare_row, compare(configs))


def _cmd_sweep(args) -> int:
    loaded = load_config(args.config, args.seed)
    if loaded["sweep_alphas"] is None:
        raise ConfigError("missing required key sweep.alphas")
    return _summary_table(args, SWEEP_HEADER, _sweep_row,
                          sweep_alpha(loaded["run"], loaded["sweep_alphas"]))


def _cmd_dbase(args) -> int:
    loaded = load_config(args.config, args.seed)
    stream = EditStream(loaded["run"].stream)
    d_base = estimate_d_base(stream, stream.preserved_memory())
    if args.out is not None:
        _emit(_csv("d_base", _fmt, [d_base]), args.out)
    print(f"d_base={_fmt(d_base)}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    all_ok = True
    for name, check in oracle.suite(seed):
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
