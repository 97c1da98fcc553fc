"""Constrained sequential editing of linear associative memories.

Per step, a closed-form perturbation trades the current batch's editing loss
against backlog and preservation losses, with the preservation weight driven
by a virtual queue that accumulates constraint violation.  A bounded queue
certifies that the long-run average preservation loss stays within its
threshold while editing loss stays low.
"""

from .controller import (
    QueueParams,
    derive_params,
    stability_ratio,
    update_queue,
)
from .editors import SolveReport, solve_baseline, solve_edit_only, solve_lyaplock
from .harness import (
    EDITOR_NAMES,
    RunConfig,
    RunResult,
    RunSummary,
    StepRecord,
    compare,
    estimate_d_base,
    run,
    sweep_alpha,
)
from .memory import (
    AssociativeMemory,
    BacklogAccumulator,
    Dims,
    EditBatch,
    absorb,
    backlog_loss,
    editing_loss,
    new_memory,
    preservation_loss,
)
from .stream import (
    EditStream,
    SplitMix64,
    StreamSpec,
    derive_seed,
    load_matrix_file,
    save_matrix_file,
)

__version__ = "0.1.0"

__all__ = [
    "AssociativeMemory",
    "BacklogAccumulator",
    "Dims",
    "EDITOR_NAMES",
    "EditBatch",
    "EditStream",
    "QueueParams",
    "RunConfig",
    "RunResult",
    "RunSummary",
    "SolveReport",
    "SplitMix64",
    "StepRecord",
    "StreamSpec",
    "absorb",
    "backlog_loss",
    "compare",
    "derive_params",
    "derive_seed",
    "editing_loss",
    "estimate_d_base",
    "load_matrix_file",
    "new_memory",
    "preservation_loss",
    "run",
    "save_matrix_file",
    "solve_baseline",
    "solve_edit_only",
    "solve_lyaplock",
    "stability_ratio",
    "sweep_alpha",
    "update_queue",
]
