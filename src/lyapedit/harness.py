"""End-to-end sequential editing runs.

One run executes, per timestamp t: read the queue value Z(t) and the current
weights, solve the configured editor's perturbation, apply it, measure the
three losses at the post-edit weights, update the queue with the preservation
loss, and absorb the batch into the backlog.  Before the loop, the threshold
base is probed by applying one bi-objective edit to the first batch against
the original weights and measuring its preservation loss; the probe edit is
then discarded and appears in neither the histories nor the backlog.

All losses are measured at the post-edit weights, one convention applied
everywhere.  The queue value entering a step's solve is Z(t), before that
step's update.

Runs over one stream share one step loop.  ``run`` is its one-member case;
``compare`` and ``sweep_alpha`` step all their members together.  Set-up
happens once: one stream, one preserved Gram (formed and factored once by
``new_memory``, which keeps both, and checked by the stream; the raw keys
are dropped), one memory and one probe.  Set-up forms no d1 x d0^2
product: the losses and solves work in deviation coordinates D = W - W0,
where the preserved values V0 = W0 K0 drop out, and the probe and the first
path start from D = 0.  Each batch is generated once per step, its residual
at W0, U0 = V1 - W0 K1, is formed once, and the batch is absorbed once into
the one backlog, which depends only on the batches.  The
step loop runs inside ``EditStream.ahead``, so on a long run a forked child
may have made the batch, with the same code and the same bits, while the
loop solved the steps before it; set-up and the probe never fork.  Each member keeps its queue in weight units, the
preservation weight a*Z as a plain float, floored at exactly 1 (see
``controller.in_weight_units``), and fills one per-step table of EL, PL,
BL, Z = (a*Z) * z_max, |delta|, ridge, and the solve's condition estimate
and residual; the CSV rows, running averages, summary and an aborted run's
output derive from it.

Members share paths.  A path is a weight trajectory: the memory at its
current weights and one ``editors.Carry``.  Every member starts on one path.
Before each step, the members of a path are split by their solve key, what
their solve reads beyond the path: lyaplock's v and a*Z, compared by their
exact bits, or the editor's name alone.  The first key keeps the path and
each other key gets a fork with a copy of the carry; paths never merge.  So
the members of an alpha sweep solve once per step while their queues sit on
the floor, where a*Z is exactly 1 for all of them, and a baseline or
edit-only sweep solves once per step throughout.  A path's solve is the very
one each member would make alone, so sharing changes no output bit.  A path
is solved lazily, by its lowest-index member, which also raises its error;
each member still runs its own overflow check, queue update and table.  With
one member no split is made.

A carry holds the products ``D K0K0^T`` and ``D KpKp^T`` of its path's
deviation D = W - W0, the backlog Gram the latter is carried against, D
itself, and ``D' K1`` and the post-edit residual ``W' K1 - V1`` on the
step's batch.  Each step calls the editor's public solver,
``solve_lyaplock``, ``solve_baseline`` or ``solve_edit_only``, with the
path's carry, and the solve leaves the carry at the post-edit deviation
D'; so the loop runs exactly what a one-shot caller runs.  A preserving
path carries D' alone: its memory stays at W0, whose ``w`` the solves do
not read, and its weights W0 + D are formed once, as the result's
``w_final``.  A non-finite D' still aborts the step it appears in, since
its PL <D K0K0^T, D> is then not finite.  Edit-only, which solves at the
absolute weights, moves its path's memory to W + delta, with the memory's
finiteness check, every step.  Baseline's solve is lyaplock's at
v = a*Z = 1, anchored at the current weights and without the backlog.
PL is the form <D K0K0^T, D>, BL reads ``D KpKp^T`` against the backlog's sums
anchored at W0, EL reads the post-edit residual, and ``Carry.absorbed``,
which the loop calls once per live path after the absorb, adds the rank-n
term ``(D' K1) K1^T`` to ``D KpKp^T``.  Lyaplock forms the part of its
target beyond the batch term, v (B - D KpKp^T) - az D K0K0^T with B the
backlog's sum of U0 K1^T, from these products on every step; it is exactly
0 at step 1, and round-off whenever a*Z did not change.  Whenever a step's
edit is rank n (n = the batch size) the solve moves the products by rank-n
updates instead of two dense d1 x d0^2 passes: on every baseline and
edit-only step, and on a lyaplock step whose target part beyond the batch
term is round-off, as it is whenever az did not change.  A Freivalds check
after each rank-n update recomputes the products densely if they drift
(see ``lyapedit.editors``).  The carry also keeps its last solve's
unridged factor: while a*Z and v hold, a lyaplock rank-n step solves by a
Woodbury correction over the batches absorbed since, with no
factorization, and its condition estimate is an upper estimate from the
kept one.  Every solve at a*Z = 1 without a backlog seeds the carry's with
the preserved Gram's factor: every path's step 1 at a*Z = 1, every
baseline step and the probe, whose systems are K0K0^T with the step's
batch pending.  A baseline step reseeds it each time, so its batches never
join its next system.  A fork's carry copies the pending batches and
shares the factors, so a path forked in such a stretch solves as it would
alone.  The probe reads its PL from the ``D' K0K0^T`` that its own solve
left.

A solve's working set is bounded (see ``lyapedit.editors``): it factors C
in place and keeps no copy, drops baseline's target U K1^T once the snap
rule has its norm, before C is formed, and forms it again only if the
full target is solved for, leaves ``D KpKp^T`` untouched at 0 while the
backlog is empty, and assembles its residual ``D' C - RHS_D`` in the
buffer that held RHS_D.  So a kept lyaplock step holds four d1 x d0
arrays beside the carry's three (RHS_D, the remainder, the edit and D'),
and the probe holds the fresh carry's three, RHS_D, the edit, D' and the
empty backlog's Gram, and C too on a memory without the preserved Gram's
factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .controller import (
    QueueParams,
    derive_params,
    in_weight_units,
    stability_ratio,
    update_queue,
)
from .editors import Carry, solve_baseline, solve_edit_only, solve_lyaplock
from .errors import (
    InputError,
    LyapeditError,
    NonFiniteError,
    NumericalInstabilityError,
    RunAborted,
    SingularSystemError,
)
from .memory import (
    AssociativeMemory,
    BacklogAccumulator,
    _psd_loss,
    absorb,
    fit_loss,
    gram_loss,
)
# No caller here: perfbench/workloads.setup calls harness.new_memory.
from .memory import new_memory  # noqa: F401
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


@dataclass
class RunResult:
    config: RunConfig
    params: QueueParams
    d_base: float
    summary: RunSummary
    pl_history: np.ndarray
    el_history: np.ndarray
    bl_history: np.ndarray
    z_history: np.ndarray  # Z(1) .. Z(T+1); Z(t) is read by step t's solve
    delta_fro_history: np.ndarray
    ridge_history: np.ndarray
    # pocon's condition estimate, NaN where the edit snapped to zero; on a
    # step solved by a kept factor, the kept estimate times
    # 1 + v sum ||K_j||_F^2 / (tr(C(s))/d0), an upper estimate for C(t).
    # Every baseline step reads pocon(K0K0^T) (1 + ||K1||_F^2 / (tr(K0K0^T)/d0))
    # when the memory carries the preserved Gram's factor: each reseeds its
    # path's kept factor from it.
    cond_history: np.ndarray
    residual_history: np.ndarray  # the solve's relative residual
    w_initial: np.ndarray
    w_final: np.ndarray


def running_average(history: np.ndarray) -> np.ndarray:
    """The mean of steps 1..t at every t, summed in step order by ``cumsum``
    (``np.sum`` is pairwise and ``math.fsum`` exact: either changes bits).
    A sum beyond the range of double precision reads inf, as in the CSV of
    a run that aborted on a loss near that range."""
    with np.errstate(over="ignore"):
        return np.cumsum(history) / np.arange(1, history.size + 1)


def estimate_d_base(stream: EditStream, mem: AssociativeMemory) -> float:
    """Preservation loss after one probe bi-objective edit of the first batch.

    The probe edits the original weights ``mem.w0``, whatever ``mem.w`` is,
    starting from a carry at D = 0, which the solve reads in place of
    ``mem.w``, and is then thrown away; only the measured loss survives.  An exactly representable stream, one whose
    values are exactly W0 K1 in every batch (a planted teacher at no drift,
    or at one that W0 + drift N rounds away at every entry), probes to a
    loss of 0, floored at the smallest positive normal so it still yields a
    usable threshold.  On any other stream a loss of 0 or a non-finite one
    means the losses are not representable at its key scale, and
    NumericalInstabilityError is raised.
    So does a subnormal loss there: it carries fewer than 52 bits, and so
    would every loss measured against it.
    """
    spec = stream.spec
    carry = Carry.start(mem, BacklogAccumulator.empty(mem.w0))
    solve_baseline(mem, stream.batch(1), carry)
    # The solve left D' and carry.e0 = D' K0K0^T, the product PL needs.
    pl = _psd_loss(carry.e0, carry.d)
    if math.isfinite(pl) and pl >= _D_BASE_FLOOR:
        return pl
    if math.isfinite(pl) and stream._exact():
        return _D_BASE_FLOOR
    if 0.0 < pl < _D_BASE_FLOOR:
        raise NumericalInstabilityError(
            f"d_base = {pl!r} at key_scale={spec.key_scale!r} is below the "
            f"smallest normal double {_D_BASE_FLOOR!r}; the losses at this key "
            f"scale carry fewer than 52 bits"
        )
    cause = "it overflowed: " if pl == math.inf else ""
    raise NumericalInstabilityError(
        f"the d_base probe's preservation loss is {pl!r} at "
        f"key_scale={spec.key_scale!r}; {cause}the losses at this key scale are "
        f"not representable in double precision"
    )


def _solve_step(config: RunConfig, mem: AssociativeMemory,
                backlog: BacklogAccumulator, batch, params: QueueParams,
                weight: float, carry: Carry):
    """One path's solve: the report and, for edit-only, the post-edit
    weights W'; None for the editors that solve in deviation coordinates,
    whose path carries D' alone and whose ``mem.w`` is not read.

    ``config``, ``params`` and the preservation weight ``weight`` = a*Z are
    those of the path's first member; every other member of the path would
    pass the same solve inputs.  ``carry`` is at D = W - W0 on entry and at
    D' on return, whichever editor ran.
    """
    if config.editor == "lyaplock":
        report = solve_lyaplock(mem, backlog, batch, params.v_weight, weight, carry)
    elif config.editor == "baseline":
        report = solve_baseline(mem, batch, carry)
    else:
        # Edit-only solves at the absolute weights (see solve_edit_only).
        report = solve_edit_only(mem, batch, carry)
        return report, mem.w + report.delta
    return report, None


# The per-step columns one solve on a path yields, in the order of _Path.row.
_COLUMNS = ("pl_history", "el_history", "bl_history", "delta_fro_history",
            "ridge_history", "cond_history", "residual_history")


class _Path:
    """Weights and a carry shared by members whose solves coincide.

    ``row`` holds step ``t``'s values of ``_COLUMNS``, measured once by the
    path's first member to reach step t.  A path refers to no member.
    """

    def __init__(self, mem: AssociativeMemory, carry: Carry):
        self.mem, self.carry, self.t, self.row = mem, carry, 0, ()


def _split(members: list["_Member"]) -> None:
    """Give each solve key among the members of one path a path of its own.

    The first key met in member order keeps the path and every other key
    gets a fork of it, so members share a path exactly while their solves
    read the same inputs.  Paths never merge back.
    """
    paths, kept = {}, set()
    for member in members:
        path = member.path
        slot = (path, member.key())
        if slot not in paths:
            paths[slot] = _Path(path.mem, path.carry.copy()) if path in kept else path
            kept.add(path)
        member.path = paths[slot]


class _Member:
    """One configuration's queue, path and per-step table.

    The queue is kept in weight units, ``weight`` = a*Z, which is what the
    solve reads; it starts and is floored at exactly 1.  The table records
    Z = weight * z_max.
    """

    def __init__(self, config: RunConfig, path: _Path, d_base: float):
        params = derive_params(config.alpha, d_base)
        if config.v_weight != 1.0:
            params = replace(params, v_weight=config.v_weight)
        total = config.stream.total_batches
        self.config = config
        self.params = params
        self.queue = in_weight_units(params)
        self.weight = self.queue.z_init
        self.path = path
        # The per-step table, keyed by RunResult field name: entry t-1 of a
        # column is step t's, and z_history also holds Z(T+1).
        self.table = {name: np.empty(total) for name in _COLUMNS}
        self.table["z_history"] = np.full(total + 1, self.z)

    @property
    def z(self) -> float:
        """The queue value Z = weight * z_max, as the table records it."""
        return self.weight * self.params.z_max

    def key(self) -> tuple:
        """What this member's solve reads beyond its path's weights and carry;
        the queue weight is compared by its exact bits."""
        if self.config.editor == "lyaplock":
            return ("lyaplock", self.params.v_weight, self.weight)
        return (self.config.editor,)

    def aborted(self, t: int, message: str) -> RunAborted:
        """Step t's error, carrying the table of steps 1..t-1 and Z(1)..Z(t)."""
        done = {name: column[:t if name == "z_history" else t - 1]
                for name, column in self.table.items()}
        return RunAborted(message, step=t, histories=done)

    def step(self, t: int, batch, backlog: BacklogAccumulator) -> None:
        """Step t against the backlog of steps < t.

        The first member of the path to reach step t solves, applies and
        measures it; the others read its row.
        """
        config, params, weight, path = self.config, self.params, self.weight, self.path
        if config.editor == "lyaplock" and not math.isfinite(weight):
            raise self.aborted(t, (
                f"queue overflow at step {t}: the preservation weight a*Z = "
                f"{weight!r} is not finite; Z={self.z!r} a={params.a!r} "
                f"D={params.d_threshold!r}"))
        if path.t != t:
            carry = path.carry
            try:
                report, w_new = _solve_step(config, path.mem, backlog, batch,
                                            params, weight, carry)
            except SingularSystemError as exc:
                raise self.aborted(t, f"solver aborted at step {t}: {exc}") from exc
            delta_fro = float(np.linalg.norm(report.delta))
            try:
                if w_new is not None:
                    path.mem = path.mem.with_weights(w_new)
                # A non-finite D' makes PL = <E0, D'> non-finite.
                el = fit_loss(carry.fit)
                pl = _psd_loss(carry.e0, carry.d)
                bl = gram_loss(carry.d, carry.ep, backlog.u0kpt, backlog.tr_u0u0)
            except (NonFiniteError, NumericalInstabilityError) as exc:
                raise self.aborted(t, (
                    f"loss measurement failed at step {t}: {exc}; z={self.z!r} "
                    f"|delta|={delta_fro!r}")) from exc
            path.t, path.row = t, (pl, el, bl, delta_fro, report.ridge_applied,
                                   report.condition_estimate, report.residual)
        pl, el, bl, delta_fro, ridge, cond, residual = path.row
        if not (math.isfinite(el) and math.isfinite(pl) and math.isfinite(bl)):
            raise self.aborted(t, (
                f"non-finite loss at step {t}: el={el!r} pl={pl!r} bl={bl!r} "
                f"z={self.z!r} |delta|={delta_fro!r}"))
        self.weight = update_queue(weight, self.queue, pl)

        table = self.table
        table["pl_history"][t - 1] = pl
        table["el_history"][t - 1] = el
        table["bl_history"][t - 1] = bl
        table["delta_fro_history"][t - 1] = delta_fro
        table["ridge_history"][t - 1] = ridge
        table["cond_history"][t - 1] = cond
        table["residual_history"][t - 1] = residual
        table["z_history"][t] = self.weight * params.z_max

    def result(self) -> RunResult:
        config, params, table = self.config, self.params, self.table
        total = config.stream.total_batches
        avg_pl = float(running_average(table["pl_history"])[-1])
        summary = RunSummary(
            editor=config.editor,
            alpha=config.alpha,
            steps=total,
            d_base=params.d_base,
            d_threshold=params.d_threshold,
            final_avg_pl=avg_pl,
            final_avg_el=float(running_average(table["el_history"])[-1]),
            constraint_satisfied=avg_pl <= params.d_threshold,
            final_z=float(table["z_history"][-1]),
            stability=stability_ratio(table["z_history"][:total]),
        )
        mem = self.path.mem
        # A preserving path's weights are W0 + D, formed here once.
        w_final = mem.w if config.editor == "edit-only" else mem.w0 + self.path.carry.d
        return RunResult(
            config=config, params=params, d_base=params.d_base, summary=summary,
            w_initial=mem.w0, w_final=w_final, **table,
        )


def _run_lockstep(configs: list[RunConfig]) -> list[RunResult]:
    """Run configurations that share one stream specification, in lockstep.

    The results equal ``[run(c) for c in configs]`` bit for bit.  Errors do
    too: a member that fails is dropped together with every later member,
    earlier members keep stepping, and at the end the failure of the lowest
    index is raised, which is the one serial execution would have raised.
    A path's solve is made by its lowest-index member, so a failing solve
    is that member's failure.
    """
    spec = configs[0].stream
    stream = EditStream(spec)
    mem = stream.preserved_memory()
    # Every member shares the probe and the threshold base it yields, so a
    # probe failure is the first one serial execution would raise too; a
    # member whose D = alpha * d_base is not representable fails as at step 1.
    d_base = estimate_d_base(stream, mem)
    # Every carry holds the backlog Gram, which absorb grows in place.
    backlog = BacklogAccumulator.empty(mem.w0)
    # Every member starts on one path: W0 and one carry.
    start = _Path(mem, Carry.start(mem, backlog))
    members, failure = [], None
    for config in configs:
        try:
            members.append(_Member(config, start, d_base))
        except InputError as exc:
            failure = exc
            break

    with stream.ahead():
        for t in range(1, spec.total_batches + 1):
            if not members:
                break
            batch = stream.batch(t)
            if len(members) > 1:
                _split(members)
            for i, member in enumerate(members):
                try:
                    member.step(t, batch, backlog)
                except LyapeditError as exc:
                    failure = exc
                    del members[i:]
                    break
            absorb(backlog, batch)
            for path in {member.path: None for member in members}:
                path.carry.absorbed(batch)

    if failure is not None:
        raise failure
    return [member.result() for member in members]


def run(config: RunConfig) -> RunResult:
    """Execute one full sequential-editing run.

    Raises :class:`RunAborted` (carrying the histories of the steps before
    it) if a solve comes out singular, a loss goes non-finite or lyaplock's
    preservation weight a*Z overflows mid-run.
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
