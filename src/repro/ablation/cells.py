"""Matrix cells as experiment ids: ``ablate/<flip>/<workload>``.

Every cell of the ablation matrix is addressable through the experiment
registry (``repro.experiments.registry``), which resolves ``ablate/``
ids dynamically via :func:`spec_args`.  That gives each cell

* a task id for :class:`repro.parallel.SupervisedPool` (the
  ablate CLI keys outcomes by experiment id),
* its own content-addressed ``.repro-cache/`` entry
  (``key = canonical config | seed | source fingerprint``), and
* spawn-safety: worker processes rebuild the spec from the id alone, so
  no runtime registration has to cross a process boundary.
"""

from __future__ import annotations

import functools

from repro.ablation import axes
from repro.errors import ExperimentError, InvalidParameterError
from repro.workloads import QueueWorkload, StackWorkload, TxAppWorkload

__all__ = [
    "WORKLOADS",
    "DEFAULT_WORKLOADS",
    "cell_id",
    "parse_cell_id",
    "spec_args",
]

#: Workload table for the matrix: name -> picklable zero-arg factory.
WORKLOADS = {
    "stack": StackWorkload,
    "queue": QueueWorkload,
    "txapp": functools.partial(TxAppWorkload, work_cycles=100),
    "bimodal": functools.partial(TxAppWorkload, work_cycles=100, bimodal=True),
}

#: The workload set `python -m repro ablate` sweeps by default.
DEFAULT_WORKLOADS = ("queue", "txapp")

_PREFIX = "ablate/"


def cell_id(flip: str, workload: str) -> str:
    """The experiment id of one matrix cell."""
    return f"{_PREFIX}{flip}/{workload}"


def parse_cell_id(exp_id: str) -> tuple[str, str]:
    """Split ``ablate/<flip>/<workload>`` and validate both parts.

    Raises :class:`~repro.errors.ExperimentError` on malformed ids so
    the registry reports them like any other unknown experiment.
    """
    if not exp_id.startswith(_PREFIX):
        raise ExperimentError(f"not an ablation cell id: {exp_id!r}")
    rest = exp_id[len(_PREFIX):]
    flip, sep, workload = rest.rpartition("/")
    if not sep or not flip or not workload:
        raise ExperimentError(
            f"malformed ablation cell id {exp_id!r}; expected "
            f"'ablate/<flip>/<workload>'"
        )
    try:
        axes.config_from_flip(flip)
    except InvalidParameterError as exc:
        raise ExperimentError(f"bad flip in {exp_id!r}: {exc}") from exc
    if workload not in WORKLOADS:
        raise ExperimentError(
            f"unknown ablation workload {workload!r} in {exp_id!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}"
        )
    return flip, workload


#: Per-cell scale knobs (the registry merges quick/full + overrides).
_FULL_KWARGS = dict(
    replicates=5,
    horizon=120_000.0,
    n_cores=8,
    arena_conflicts=400,
    attempt_trials=48,
    attempt_cap=128,
)
_QUICK_KWARGS = dict(
    replicates=2,
    horizon=24_000.0,
    n_cores=4,
    arena_conflicts=120,
    attempt_trials=24,
    attempt_cap=64,
)


def spec_args(exp_id: str) -> dict:
    """Constructor kwargs for the registry's ``_Spec`` of one cell.

    Returned as a plain dict (not a ``_Spec``) so this module never
    imports the registry — the registry imports us, lazily, when it
    sees an ``ablate/`` id.
    """
    from repro.ablation.runner import run_ablation_cell

    flip, workload = parse_cell_id(exp_id)
    return dict(
        title=f"Ablation cell: {flip} on {workload}",
        runner=functools.partial(
            run_ablation_cell, flip=flip, workload=workload
        ),
        full_kwargs=dict(_FULL_KWARGS),
        quick_kwargs=dict(_QUICK_KWARGS),
        notes="baseline-plus-one-flip matrix cell (docs/ABLATION.md)",
    )
