"""Regime sweep (extension): where each strategy wins, as a curve.

Figures 2a and 2b are two points (B/µ = 4 and B/µ = 0.4) of an
underlying curve; this experiment sweeps the ratio ``B/µ`` continuously
and reports each policy's mean cost relative to OPT, exposing:

* where DET's near-OPT plateau ends (it aborts once lengths routinely
  exceed B),
* where the mean-constrained policies detach from their unconstrained
  counterparts (the regime thresholds of Theorems 2/5), and
* the RW/RA ordering flip as B/µ shrinks.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.distributions import ExponentialLengths
from repro.rngutil import stream_for
from repro.synthetic import SyntheticHarness

__all__ = ["run_ext_regimes"]


def _cell_worker(
    mu: float, ratio: float, trials: int, seed: int | None
) -> dict[str, object]:
    """One B/µ point — the unit of parallel fan-out.

    Module-level (picklable) with its seed as an argument (simlint
    DET004); the cell's stream depends only on ``(seed, ratio)``, so
    the row is identical wherever it executes.
    """
    B = mu * ratio
    dist = ExponentialLengths(mu)
    harness = SyntheticHarness(B, mu)
    result = harness.run(
        dist, trials, stream_for(seed, "ext_regimes", int(ratio * 100))
    )
    normalized = result.normalized()
    row: dict[str, object] = {"B/mu": ratio}
    for label in ("DET", "RRW", "RRW(mu)", "RRA", "RRA(mu)"):
        row[label] = round(normalized[label], 4)
    row["best"] = min(
        (label for label in normalized if label != "OPT"),
        key=lambda lbl: normalized[lbl],
    )
    return row


def run_ext_regimes(
    *,
    mu: float = 500.0,
    b_over_mu: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    trials: int = 100_000,
    seed: int | None = None,
    pool=None,
) -> list[dict[str, object]]:
    """One row per B/µ point with each policy's cost normalized to OPT.

    ``pool`` (an object with ``starmap``, e.g.
    :class:`repro.parallel.SupervisedPool`) fans the sweep cells out over
    worker processes; each cell's stream is derived from its own
    coordinates, so rows are identical with or without a pool.
    """
    cells = [(mu, ratio, trials, seed) for ratio in b_over_mu]
    if pool is None:
        rows = [_cell_worker(*cell) for cell in cells]
    else:
        rows = pool.starmap(_cell_worker, cells)
    # Theory overlay: the mean-constrained policies' worst-case
    # guarantees across the whole B/µ axis, one batched kernel call per
    # column (the MC columns above are empirical vs-OPT under one
    # specific distribution; the bounds hold against *any* adversary
    # with that mean).  Computed after the MC pass so RNG draw order is
    # untouched.
    Bs = mu * np.asarray(b_over_mu, dtype=float)
    rw_bound = kernels.rw_best_ratio(Bs, mu)
    ra_bound = kernels.ra_best_ratio(Bs, mu)
    for row, rw_b, ra_b in zip(rows, rw_bound, ra_bound):
        row["RRW(mu)_bound"] = round(float(rw_b), 4)
        row["RRA(mu)_bound"] = round(float(ra_b), 4)
    return rows
