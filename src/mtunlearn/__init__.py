"""Interference-aware multi-task machine unlearning over low-rank edits."""

from .data import (
    GenConfig,
    MultiTaskDataset,
    PartitionSpec,
    SyntheticProblem,
    default_forget_split,
    generate_synthetic,
    partition,
)
from .evaluation import EvalReport, UISInput, evaluate, mia_auc, uis
from .model import (
    LowRankEdit,
    MultiTaskModel,
    Subset,
    TrainConfig,
    flattened_hessian,
    subset_gradient,
    subset_loss,
    train_reference,
)
from .subspace import TaskSubspace, alignment, init_subspaces, regularize_step
from .surgery import (
    GradientPair,
    apply_update,
    orthogonalize,
    project_task,
    sequential_orthogonalize,
)
from .unlearn import UnlearnConfig, UnlearnTrace, run_unlearning

__version__ = "0.1.0"

__all__ = [
    "GenConfig",
    "MultiTaskDataset",
    "PartitionSpec",
    "SyntheticProblem",
    "default_forget_split",
    "generate_synthetic",
    "partition",
    "EvalReport",
    "UISInput",
    "evaluate",
    "mia_auc",
    "uis",
    "LowRankEdit",
    "MultiTaskModel",
    "Subset",
    "TrainConfig",
    "flattened_hessian",
    "subset_gradient",
    "subset_loss",
    "train_reference",
    "TaskSubspace",
    "alignment",
    "init_subspaces",
    "regularize_step",
    "GradientPair",
    "apply_update",
    "orthogonalize",
    "project_task",
    "sequential_orthogonalize",
    "UnlearnConfig",
    "UnlearnTrace",
    "run_unlearning",
]
