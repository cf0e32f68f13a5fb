"""Model merging with representation surgery, at desk scale.

Train small expert MLPs from a shared pretrained backbone, merge them
with weight averaging / task arithmetic / ties / layer-wise adaptive
coefficients, quantify the per-layer representation bias of the merged
model against each expert, and close that bias with task-private
low-rank adapter stacks trained on unlabeled inputs.
"""

from .bias import (
    BiasReport,
    LossKind,
    alignment_loss_and_grad,
    layerwise_bias_report,
    pca_project,
    representation_bias,
)
from .checkpoint import CheckpointError, load_paramset, save_paramset
from .config import RunConfig, worker_count
from .datasets import Dataset, TaskSuite, gen_task_suite, save_csv
from .evaluation import EvalResult, collect_heads, emit_report, evaluate
from .merging import (
    AdaMergeResult,
    MergeRecipe,
    ada_merge,
    grid_search_scale,
    task_arithmetic,
    ties_merge,
    weight_average,
)
from .network import (
    Adam,
    ModelSpec,
    TrainConfig,
    TrainResult,
    head_logits,
    pretrain,
    train_expert,
    train_experts,
)
from .surgery import (
    ALL_LAYERS,
    SurgeryMode,
    SurgeryPart,
    SurgeryResult,
    SurgeryStack,
    corrected_forward,
    init_stack,
    join_parts,
    sequential_batches,
    stream_train_surgery,
    trace_layers,
    train_surgery,
)
from .tensors import ParamSet

__version__ = "0.1.0"
