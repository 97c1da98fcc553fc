"""The four workloads: their inputs, the user-facing call, and the output checks.

Every workload calls lyapedit through module attributes (``harness.run``,
not a name imported earlier), so the wrappers of a traced run see the call.
lyapedit is imported inside the functions here: the caller times the import
as part of set-up.

The stepping workloads use the planted-teacher stream with teacher drift
0.1, key scale 1, 8 edits per batch and d1 = 3/4 d0; the workload seed is
the stream seed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
from pathlib import Path

DEFAULT_SEED = 188
EDITORS = ("lyaplock", "baseline", "edit-only")
ALPHAS = (20.0, 60.0, 100.0)
ALPHA = 60.0
RECORD_EVERY = 10
# `verify` steps through one run: the 300-step telescoped-queue-bound check.
# The traced run checks this count against the harness.run spans.
VERIFY_STEPS = 300
VERIFY_CHECKS = 6
CERTIFICATE_RTOL = 1e-10
REFERENCE_RTOL = 1e-10
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "run", "ensemble" or "verify"
    d0: int = 0
    m0: int = 0
    steps: int = 0   # stream horizon T

    @property
    def d1(self) -> int:
        return 3 * self.d0 // 4


WORKLOADS = {w.name: w for w in (
    Workload("accept-d64", "run", d0=64, m0=2048, steps=2000),
    Workload("wide-d1024", "run", d0=1024, m0=4096, steps=8),
    Workload("ensemble-d256", "ensemble", d0=256, m0=1024, steps=40),
    Workload("verify", "verify"),
)}


def import_modules(w: Workload) -> None:
    """The imports a user of this workload waits for."""
    importlib.import_module("lyapedit.cli" if w.kind == "verify" else "lyapedit")


def _spec(w: Workload, seed: int):
    from lyapedit import memory, stream
    return stream.StreamSpec(
        dims=memory.Dims(d0=w.d0, d1=w.d1), n_per_batch=8,
        total_batches=w.steps, key_scale=1.0, value_mode="planted-teacher",
        teacher_drift=0.1, seed=seed, m0=w.m0)


def _config(w: Workload, seed: int):
    from lyapedit import harness
    return harness.RunConfig(stream=_spec(w, seed), editor="lyaplock",
                             alpha=ALPHA, record_every=RECORD_EVERY)


def setup(w: Workload, seed: int) -> None:
    """What a run does before step 1: preserved set, memory, threshold probe."""
    if w.kind == "verify":
        return
    from lyapedit import harness, stream
    edit_stream = stream.EditStream(_spec(w, seed))
    w0, k0 = edit_stream.generate_preserved()
    mem = harness.new_memory(w0, k0)
    harness.estimate_d_base(edit_stream, mem)


def call(w: Workload, seed: int):
    """The user-facing call; returns its output."""
    if w.kind == "run":
        from lyapedit import harness
        return harness.run(_config(w, seed))
    if w.kind == "ensemble":
        from lyapedit import harness
        base = _config(w, seed)
        compared = harness.compare([dataclasses.replace(base, editor=e) for e in EDITORS])
        return compared + harness.sweep_alpha(base, ALPHAS)
    from lyapedit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--seed", str(seed)])
    return code, out.getvalue()


def _summaries(w: Workload, output) -> list:
    if w.kind == "run":
        return [output.summary]
    if w.kind == "ensemble":
        return list(output)
    return []


def summary_dicts(w: Workload, output) -> list[dict]:
    fields = ("editor", "alpha", "steps", "d_base", "d_threshold", "final_avg_pl",
              "final_avg_el", "constraint_satisfied", "final_z", "stability")
    return [{f: getattr(s, f) for f in fields} for s in _summaries(w, output)]


def steps_done(w: Workload, output) -> int:
    if w.kind == "verify":
        return VERIFY_STEPS
    return sum(s.steps for s in _summaries(w, output))


def fingerprint(w: Workload, output):
    """Everything the call returns, in a form where equality means bit-identical."""
    if w.kind == "verify":
        return output
    summaries = json.dumps(summary_dicts(w, output))
    if w.kind == "ensemble":
        return summaries
    arrays = (output.pl_history, output.el_history, output.bl_history,
              output.z_history, output.w_final)
    return summaries, tuple(a.tobytes() for a in arrays)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _certificate(s) -> list[str]:
    """avg PL <= D + sqrt(D)(Z(T+1) - sqrt(D))/T, the telescoped queue bound."""
    losses = (s.final_avg_pl, s.final_avg_el, s.final_z)
    if not all(math.isfinite(x) for x in losses):
        return [f"{s.editor} alpha={s.alpha}: non-finite summary {losses}"]
    root = math.sqrt(s.d_threshold)
    bound = s.d_threshold + root * (s.final_z - root) / s.steps
    if s.final_avg_pl <= bound + CERTIFICATE_RTOL * abs(bound):
        return []
    return [f"{s.editor} alpha={s.alpha}: avg_pl {s.final_avg_pl!r} above "
            f"certified bound {bound!r}"]


def _reference_errors(w: Workload, output) -> list[str]:
    expected = json.loads(REFERENCE_FILE.read_text())[w.name]
    got = summary_dicts(w, output)
    if len(got) != len(expected):
        return [f"{len(got)} summaries, reference has {len(expected)}"]
    errors = []
    for g, e in zip(got, expected):
        for key, want in e.items():
            have = g[key]
            same = (_close(have, want, REFERENCE_RTOL)
                    if isinstance(want, float) else have == want)
            if not same:
                errors.append(f"{g['editor']} alpha={g['alpha']}: {key} {have!r} "
                              f"differs from reference {want!r}")
    return errors


def check(w: Workload, seed: int, output) -> list[str]:
    """Output checks; an empty list means the call's outputs are correct."""
    if w.kind == "verify":
        code, text = output
        passes = [line for line in text.splitlines() if line.startswith("PASS ")]
        errors = [] if code == 0 else [f"verify exited {code}"]
        if len(passes) != VERIFY_CHECKS:
            errors.append(f"verify printed {len(passes)} PASS lines, "
                          f"expected {VERIFY_CHECKS}: {text!r}")
        return errors
    from lyapedit import oracle
    errors = []
    for s in _summaries(w, output):
        errors += _certificate(s)
    if w.kind == "ensemble":
        order = [s.editor for s in output[:len(EDITORS)]]
        alphas = tuple(s.alpha for s in output[len(EDITORS):])
        if order != list(EDITORS) or alphas != ALPHAS:
            errors.append(f"ensemble members out of order: {order} {alphas}")
    else:
        histories = (output.pl_history, output.el_history, output.bl_history,
                     output.z_history)
        if not all(map(math.isfinite, (float(h.sum()) for h in histories))):
            errors.append("non-finite loss or queue history")
        report = oracle.check_sufficiency_empirical(
            output.pl_history, output.z_history, output.params)
        if not report.passed:
            errors.append(f"check_sufficiency_empirical failed: {report}")
    if seed == DEFAULT_SEED:
        errors += _reference_errors(w, output)
    return errors
