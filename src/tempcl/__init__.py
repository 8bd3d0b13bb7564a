"""tempcl: a desk-scale contrastive learning laboratory.

Implements the InfoNCE objective with per-anchor temperatures, dynamic
temperature schedules, long-tail dataset construction, a small unit-sphere
MLP encoder with manual backpropagation, kNN / linear-probe evaluation, and
embedding-space diagnostics (coverage, negative-contribution curves, PCA).
"""

from tempcl.loss import (
    LossBreakdown,
    info_nce,
    info_nce_distance_form,
    info_nce_symmetrized,
    similarity_matrix,
)
from tempcl.schedule import (
    ScheduleConfig,
    per_anchor_tau,
    recommended_eval_epoch,
    tau_at,
)
from tempcl.data import (
    AugmentationPolicy,
    GroupPartition,
    LongTailDataset,
    head_mid_tail_split,
    load_cifar10_bin,
    load_cifar100_bin,
    load_dataset,
    longtail_sizes,
    save_dataset,
    serialize_cifar10_bin,
    serialize_cifar100_bin,
    subsample_longtail,
    synth_balanced,
    synth_mixture,
)
from tempcl.encoder import (
    EncoderParams,
    NegativeSource,
    OptimState,
    backward,
    forward,
    init_encoder,
    init_optim_state,
    lr_at,
    momentum_update,
    queue_push,
    sgd_step,
    train_epoch,
)
from tempcl.evaluation import (
    EvalReport,
    MetricBreakdown,
    ProbeConfig,
    fewshot_subset,
    knn_classify,
    knn_report,
    linear_probe,
)
from tempcl.analysis import (
    ContributionCurves,
    CoverageHistogram,
    aggregate_contribution_curves,
    contribution_curves,
    coverage_histogram,
    pca_project,
    uniformity_stat,
)

__version__ = "0.1.0"
