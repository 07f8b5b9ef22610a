"""promptlab: visual-prompt transfer learning on frozen source classifiers.

A desk-scale laboratory built on a small reverse-mode autodiff engine:
train standard or adversarially-robust convolutional sources, learn
additive border-frame prompts over them with random or iterative label
mapping, optionally loosen decision boundaries by block-max logit
reduction, attack everything with the single-step sign method, and
drive it all from reproducible JSON-configured experiments.

Importing the package pins the BLAS NumPy links to one thread for the
whole process (see ``promptlab.blas``), so that results do not depend on
the machine's core count.
"""

from . import blas

blas.pin_one_thread()

from .attack import (
    AttackConfig,
    EvalReport,
    adversarial_accuracies,
    adversarial_accuracy,
    fgsm,
    standard_accuracy,
)
from .checkpoint import (
    load_model,
    load_prompt,
    load_tensors,
    save_model,
    save_prompt,
    save_tensors,
)
from .data import (
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_raw,
    peek_raw_header,
    save_raw,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    GraphError,
    NumericsError,
    PromptLabError,
    ShapeError,
)
from .harness import (
    ExperimentConfig,
    default_config,
    export_prompt_image,
    run_ablation_grid,
    run_experiment,
    sweep_temperature,
)
from .mapping import (
    FrequencyMatrix,
    LabelMapping,
    PblConfig,
    block_reduce,
    ilm_update,
    map_labels,
    prediction_frequencies,
    rlm_init,
)
from .metrics import MetricsRecord, WorkMeter, read_metrics, write_metrics
from .nets import ConvNetSpec, ModelParams, forward, init_params
from .optim import SgdOptimizer, sgd_step, zero_grad
from .pipelines import PromptedClassifier, SourceClassifier
from .prompt import VisualPrompt, apply_prompt
from .tensor import (
    Graph,
    Tensor,
    add,
    add_channel_bias,
    add_row_bias,
    clamp01,
    conv2d,
    matmul,
    record_op,
    relu,
    reshape,
    softmax_cross_entropy,
    tensor_sum,
)
from .train import TrainHyper, train_adversarial, train_prompt, train_standard

__version__ = "0.1.0"
