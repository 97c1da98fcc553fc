"""One plain reference loop for a whole run, with explicit matrices.

``reference_run(config)`` replays what ``lyapedit.run(config)`` computes, in
the most direct form: the memory is built from the stream's raw preserved
keys K0, which the loop keeps, each step calls the editor's public one-shot
solver with no carry, so nothing is kept from one step's solve to the
next (no carried products, no kept factor, no lockstep, no shared paths and
no forked stream child), and every loss comes from explicit matrices:

- PL = ||(W - W0) K0||_F^2
- EL = ||W K1 - V1||_F^2
- BL = ||W Kp - Vp||_F^2, over the hstacked keys and values of every
  earlier batch

The queue runs in weight units, lambda = a*Z (``controller.in_weight_units``),
as a run's does.  The run and this loop differ only in rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from lyapedit import (
    BacklogAccumulator,
    EditStream,
    RunConfig,
    absorb,
    derive_params,
    estimate_d_base,
    new_memory,
    solve_baseline,
    solve_edit_only,
    solve_lyaplock,
    update_queue,
)
from lyapedit.controller import in_weight_units


def fro2(x: np.ndarray) -> float:
    """||X||_F^2 of an explicit matrix."""
    return float(np.sum(x * x))


@dataclass
class ReferenceRun:
    """Per-step losses and queue, named as ``RunResult``'s histories."""

    d_base: float
    pl_history: np.ndarray
    el_history: np.ndarray
    bl_history: np.ndarray
    z_history: np.ndarray  # Z(1) .. Z(T+1)
    w_final: np.ndarray


def reference_run(config: RunConfig) -> ReferenceRun:
    """Replay ``run(config)`` with one-shot solves and explicit losses."""
    stream = EditStream(config.stream)
    w0, k0 = stream.generate_preserved()
    mem = new_memory(w0, k0)
    d_base = estimate_d_base(stream, mem)
    params = replace(derive_params(config.alpha, d_base), v_weight=config.v_weight)
    queue = in_weight_units(params)
    lam = queue.z_init
    bk = BacklogAccumulator.empty(w0)
    kp = np.zeros((w0.shape[1], 0))
    vp = np.zeros((w0.shape[0], 0))
    history = {"pl": [], "el": [], "bl": [], "z": [lam * params.z_max]}
    for t in range(1, config.stream.total_batches + 1):
        batch = stream.batch(t)
        if config.editor == "lyaplock":
            report = solve_lyaplock(mem, bk, batch, params.v_weight, lam)
        elif config.editor == "baseline":
            report = solve_baseline(mem, batch)
        else:
            report = solve_edit_only(mem, batch)
        mem = mem.with_weights(mem.w + report.delta)
        w = mem.w
        pl = fro2((w - w0) @ k0)
        history["pl"].append(pl)
        history["el"].append(fro2(w @ batch.k1 - batch.v1))
        history["bl"].append(fro2(w @ kp - vp))
        lam = update_queue(lam, queue, pl)
        history["z"].append(lam * params.z_max)
        absorb(bk, batch)
        kp = np.hstack([kp, batch.k1])
        vp = np.hstack([vp, batch.v1])
    return ReferenceRun(d_base=d_base, w_final=mem.w,
                        **{f"{name}_history": np.array(values)
                           for name, values in history.items()})
