"""End-to-end sequential editing runs.

One run executes, per timestamp t: read the queue value Z(t) and the current
weights, solve the configured editor's perturbation, apply it, measure the
three losses at the post-edit weights, update the queue with the preservation
loss, and absorb the batch into the backlog.  Before the loop, the threshold
base is probed by applying one bi-objective edit to the first batch against
the original weights and measuring its preservation loss; the probe edit is
then discarded and appears in neither the records nor the backlog.

All losses are measured at the post-edit weights, one convention applied
everywhere.  The queue value entering a step's solve is Z(t), before that
step's update.

Runs over one stream share one step loop.  ``run`` is its one-member case;
``compare`` and ``sweep_alpha`` step all their members together.  Set-up
happens once: one stream, one preserved Gram (formed and checked by the
stream, then kept by the memory; the raw keys are dropped), one memory and
one probe.  The one dense set-up product W0 K0K0^T is the memory's V0 K0^T,
since V0 = W0 K0; the probe and every member start from a copy of it.  Each
batch is generated once per step and absorbed once into the one backlog, which
depends only on the batches.  Each member keeps its queue value as a plain
float; the PL and Z histories a run returns hold all its certificate and
drift samples need.

Every member carries the products ``W K0K0^T`` and ``W KpKp^T`` of its
current weights: the solve leaves them at the post-edit weights, the losses
read them, and the next step's target starts from them.  Whenever a step's
edit is rank n (n = the batch size) the solve moves them by rank-n updates
instead of two dense d1 x d0^2 passes: on every baseline and edit-only
step, and on a lyaplock step when the part of its target beyond the batch
term, v (Vp Kp^T - W KpKp^T) + az (V0 K0^T - W K0K0^T), is round-off (at
step 1 it is exactly 0; on a step whose az equals the previous one it is the
previous step's residual).  A Freivalds check after each rank-n update
recomputes the products densely if they drift (see ``lyapedit.editors``).
The absorb adds the rank-n term ``(W' K1) K1^T`` to ``W KpKp^T``.  The
probe reads its PL from the ``W' K0K0^T`` that its own solve left.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import (
    QueueParams,
    derive_params,
    stability_ratio,
    update_queue,
)
# solve_lyaplock, solve_baseline, solve_edit_only, backlog_loss, new_memory
# and preservation_loss have no caller here but stay importable from it:
# perfbench's traced run wraps them here (so oracle calls
# harness.solve_lyaplock), and its measured set-up (workloads.setup) calls
# harness.new_memory.
from .editors import (  # noqa: F401
    add_outer,
    baseline_step,
    edit_only_step,
    lyaplock_step,
    solve_baseline,
    solve_edit_only,
    solve_lyaplock,
)
from .errors import (
    InputError,
    LyapeditError,
    NonFiniteError,
    NumericalInstabilityError,
    RunAborted,
    SingularSystemError,
)
from .memory import (  # noqa: F401
    AssociativeMemory,
    BacklogAccumulator,
    absorb,
    backlog_loss,
    editing_loss,
    gram_loss,
    new_memory,
    preservation_loss,
)
from .stream import EditStream, StreamSpec

EDITOR_NAMES = ("lyaplock", "baseline", "edit-only")

# Floor for the probed base loss of an exactly representable stream, which
# probes to a preservation loss of 0 that the schedule cannot accept.
_D_BASE_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on; equal configs produce identical runs."""

    stream: StreamSpec
    editor: str
    alpha: float
    v_weight: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.editor not in EDITOR_NAMES:
            raise InputError(
                f"editor must be one of {EDITOR_NAMES}, got {self.editor!r}"
            )
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise InputError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.v_weight > 0.0) or not math.isfinite(self.v_weight):
            raise InputError(
                f"v_weight must be positive and finite, got {self.v_weight!r}"
            )
        if self.record_every < 1:
            raise InputError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class StepRecord:
    t: int
    el: float
    pl: float
    bl: float
    z: float          # queue value Z(t) read before this step's solve
    avg_pl: float
    avg_el: float
    delta_fro: float
    ridge: float


@dataclass(frozen=True)
class RunSummary:
    editor: str
    alpha: float
    steps: int
    d_base: float
    d_threshold: float
    final_avg_pl: float
    final_avg_el: float
    constraint_satisfied: bool
    final_z: float
    stability: float  # Z(T)/T
    mean_wall_ms: float = field(compare=False, default=0.0)


@dataclass
class RunResult:
    config: RunConfig
    params: QueueParams
    d_base: float
    records: list[StepRecord]
    summary: RunSummary
    pl_history: np.ndarray
    el_history: np.ndarray
    bl_history: np.ndarray
    z_history: np.ndarray  # Z(1) .. Z(T+1)
    w_initial: np.ndarray
    w_final: np.ndarray


def estimate_d_base(stream: EditStream, mem: AssociativeMemory) -> float:
    """Preservation loss after one probe bi-objective edit of the first batch.

    The probe edits the original weights ``mem.w0``, whatever ``mem.w`` is,
    starting from W0 K0K0^T = ``mem.v0k0t``, and is then thrown away; only
    the measured loss survives.  An exactly representable stream (planted
    teacher, no drift) probes to a loss of 0, floored at the smallest
    positive normal so it still yields a usable threshold.  On any other
    stream a loss of 0 or a non-finite one means the losses are not
    representable at its key scale, and NumericalInstabilityError is raised.
    """
    spec = stream.spec
    m0 = mem.v0k0t.copy()
    _, w_probe = baseline_step(replace(mem, w=mem.w0),
                               BacklogAccumulator.empty(mem.dims), stream.batch(1),
                               m0, np.zeros_like(m0))
    # The solve left m0 = W' K0K0^T, the product PL needs.
    pl = gram_loss(w_probe, m0, mem.v0k0t, mem.tr_v0v0)
    exact = spec.value_mode == "planted-teacher" and spec.teacher_drift == 0.0
    if math.isfinite(pl) and (exact or pl > 0.0):
        return max(pl, _D_BASE_FLOOR) if exact else pl
    raise NumericalInstabilityError(
        f"the d_base probe's preservation loss is {pl!r} at "
        f"key_scale={spec.key_scale!r}; the losses at this key scale are not "
        f"representable in double precision"
    )


def _solve_step(config: RunConfig, mem: AssociativeMemory,
                backlog: BacklogAccumulator, batch, params: QueueParams,
                z: float, m0: np.ndarray, mp: np.ndarray):
    """One member's solve: the report and W' = W + delta.

    ``m0`` and ``mp`` hold W K0K0^T and W KpKp^T on entry and W' K0K0^T and
    W' KpKp^T on return, whichever editor ran.
    """
    if config.editor == "lyaplock":
        return lyaplock_step(mem, backlog, batch, params.v_weight,
                             params.a * z, m0, mp)
    if config.editor == "baseline":
        return baseline_step(mem, backlog, batch, m0, mp)
    return edit_only_step(mem, backlog, batch, m0, mp)


class _Member:
    """One configuration's queue value, weights, products and records."""

    def __init__(self, config: RunConfig, mem: AssociativeMemory, d_base: float):
        params = derive_params(config.alpha, d_base)
        if config.v_weight != 1.0:
            params = replace(params, v_weight=config.v_weight)
        total = config.stream.total_batches
        self.config = config
        self.params = params
        self.z = params.z_init
        self.mem = mem
        self.m0 = mem.v0k0t.copy()      # W0 K0K0^T
        self.mp = np.zeros_like(mem.w)  # W KpKp^T of the empty backlog
        self.records: list[StepRecord] = []
        self.pl_hist = np.empty(total)
        self.el_hist = np.empty(total)
        self.bl_hist = np.empty(total)
        self.z_hist = np.empty(total + 1)
        self.z_hist[0] = self.z
        self.sum_pl = 0.0
        self.sum_el = 0.0
        self.sum_wall = 0.0

    def step(self, t: int, batch, backlog: BacklogAccumulator) -> None:
        """Solve, apply and measure step t against the backlog of steps < t."""
        started = time.perf_counter()
        config, params, records = self.config, self.params, self.records
        z = self.z
        try:
            report, w_new = _solve_step(config, self.mem, backlog, batch, params,
                                        z, self.m0, self.mp)
        except SingularSystemError as exc:
            raise RunAborted(
                f"solver aborted at step {t}: {exc}", step=t, records=records
            ) from exc
        try:
            self.mem = mem = self.mem.with_weights(w_new)
            el = editing_loss(w_new, batch)
            pl = gram_loss(w_new, self.m0, mem.v0k0t, mem.tr_v0v0)
            bl = gram_loss(w_new, self.mp, backlog.vpkpt, backlog.tr_vpvp)
        except (NonFiniteError, NumericalInstabilityError) as exc:
            raise RunAborted(
                f"loss measurement failed at step {t}: {exc}; z={z!r} "
                f"|delta|={float(np.linalg.norm(report.delta))!r}",
                step=t, records=records,
            ) from exc
        if not (math.isfinite(el) and math.isfinite(pl) and math.isfinite(bl)):
            raise RunAborted(
                f"non-finite loss at step {t}: el={el!r} pl={pl!r} bl={bl!r} "
                f"z={z!r} |delta|={float(np.linalg.norm(report.delta))!r}",
                step=t, records=records,
            )
        self.z = update_queue(z, params, pl)

        self.sum_pl += pl
        self.sum_el += el
        self.pl_hist[t - 1] = pl
        self.el_hist[t - 1] = el
        self.bl_hist[t - 1] = bl
        self.z_hist[t] = self.z
        self.sum_wall += time.perf_counter() - started
        total = config.stream.total_batches
        if t % config.record_every == 0 or t == total:
            records.append(StepRecord(
                t=t, el=el, pl=pl, bl=bl, z=z,
                avg_pl=self.sum_pl / t, avg_el=self.sum_el / t,
                delta_fro=float(np.linalg.norm(report.delta)),
                ridge=report.ridge_applied,
            ))

    def absorbed(self, batch) -> None:
        """Carry W KpKp^T across the absorb of ``batch``: a rank-n update."""
        add_outer(self.mp, self.mem.w @ batch.k1, batch.k1)

    def result(self) -> RunResult:
        config, params = self.config, self.params
        total = config.stream.total_batches
        summary = RunSummary(
            editor=config.editor,
            alpha=config.alpha,
            steps=total,
            d_base=params.d_base,
            d_threshold=params.d_threshold,
            final_avg_pl=self.sum_pl / total,
            final_avg_el=self.sum_el / total,
            constraint_satisfied=(self.sum_pl / total) <= params.d_threshold,
            final_z=float(self.z_hist[-1]),
            stability=stability_ratio(self.z_hist[:total]),
            mean_wall_ms=self.sum_wall * 1e3 / total,
        )
        return RunResult(
            config=config, params=params, d_base=params.d_base,
            records=self.records, summary=summary, pl_history=self.pl_hist,
            el_history=self.el_hist, bl_history=self.bl_hist,
            z_history=self.z_hist, w_initial=self.mem.w0, w_final=self.mem.w,
        )


def _run_lockstep(configs: list[RunConfig]) -> list[RunResult]:
    """Run configurations that share one stream specification, in lockstep.

    The results equal ``[run(c) for c in configs]`` bit for bit.  Errors do
    too: a member that fails is dropped together with every later member,
    earlier members keep stepping, and at the end the failure of the lowest
    index is raised, which is the one serial execution would have raised.
    """
    spec = configs[0].stream
    stream = EditStream(spec)
    mem = stream.preserved_memory()
    # Every member shares the probe and the threshold base it yields, and a
    # validated config fails set-up only on that base; so a set-up failure is
    # the first one that serial execution would raise too.
    d_base = estimate_d_base(stream, mem)
    members = [_Member(config, mem, d_base) for config in configs]
    failure = None

    backlog = BacklogAccumulator.empty(mem.dims)
    for t in range(1, spec.total_batches + 1):
        if not members:
            break
        batch = stream.batch(t)
        for i, member in enumerate(members):
            try:
                member.step(t, batch, backlog)
            except LyapeditError as exc:
                failure = exc
                del members[i:]
                break
        absorb(backlog, batch)
        for member in members:
            member.absorbed(batch)

    if failure is not None:
        raise failure
    return [member.result() for member in members]


def run(config: RunConfig) -> RunResult:
    """Execute one full sequential-editing run.

    Raises :class:`RunAborted` (carrying the partial records) if a solve comes
    out singular or a loss goes non-finite mid-run.
    """
    return _run_lockstep([config])[0]


def compare(configs: list[RunConfig]) -> list[RunSummary]:
    """Run several editors over the identical stream and tabulate summaries."""
    if not configs:
        raise InputError("compare needs at least one run configuration")
    first = configs[0].stream
    for cfg in configs[1:]:
        if cfg.stream != first:
            raise InputError(
                "compare requires every configuration to share one stream "
                f"specification; {cfg.editor!r} differs"
            )
    return [result.summary for result in _run_lockstep(configs)]


def sweep_alpha(config: RunConfig, alphas) -> list[RunSummary]:
    """Rerun one configuration across threshold multipliers, ordered by alpha."""
    values = list(alphas)
    if not values:
        raise InputError("sweep needs at least one alpha")
    # RunConfig checks each alpha.
    configs = [replace(config, alpha=a) for a in sorted(values)]
    return [result.summary for result in _run_lockstep(configs)]
