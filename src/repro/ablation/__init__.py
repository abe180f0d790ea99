"""Strategy-ablation engine with importance ranking.

The paper's results are driven by a handful of interacting policy
components — the grace-period rule, the backoff family, Corollary 2's
B-growth, the (B, k, µ) estimator, and the fallback path.  This package
answers *which component earns its keep*: it declares the ablatable
axes (:mod:`repro.ablation.axes`), generates the
baseline-plus-one-component-flipped run matrix over a workload set
(:mod:`repro.ablation.cells`), measures every cell on the HTM simulator
*and* the adversarial arenas (:mod:`repro.ablation.runner`), scores each
flip's importance with paired deltas and bootstrap confidence intervals
(:mod:`repro.ablation.score`), and renders schema-validated JSON / CSV /
Markdown reports (:mod:`repro.ablation.report`).

``python -m repro ablate`` (:mod:`repro.ablation.cli`) is the operator
entry point; each cell is addressable as an experiment id
(``ablate/<flip>/<workload>``) so the matrix executes through the
existing :class:`repro.parallel.SupervisedPool` and the
content-addressed ``.repro-cache/`` — warm reruns replay every
unchanged cell.  See docs/ABLATION.md.
"""

from repro.ablation.axes import (
    AXES,
    PolicyConfig,
    baseline_config,
    config_from_flip,
    flip_labels,
    iter_flips,
)
from repro.ablation.cells import WORKLOADS, cell_id, parse_cell_id
from repro.ablation.runner import run_ablate_rank, run_ablation_cell
from repro.ablation.score import FlipScore, score_matrix

__all__ = [
    "AXES",
    "PolicyConfig",
    "baseline_config",
    "config_from_flip",
    "flip_labels",
    "iter_flips",
    "WORKLOADS",
    "cell_id",
    "parse_cell_id",
    "run_ablation_cell",
    "run_ablate_rank",
    "FlipScore",
    "score_matrix",
]
