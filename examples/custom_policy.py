"""Write your own delay policy and evaluate it against the optima.

Demonstrates the extension surface: subclass
:class:`~repro.core._continuous.ContinuousDelayPolicy`, give it a
vectorized density and its CDF on the support (``_cdf_inside``), and
the verification machinery prices it against any adversary — no
closed-form analysis needed; sampling inverts the CDF numerically.

The example policy is a triangular density peaking at B/2 ("hedge
toward the middle").  Spoiler: it is worse than the uniform optimum,
which is the point — Theorem 5 says nothing beats uniform.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ConflictKind,
    ConflictModel,
    UniformRW,
    competitive_ratio,
    constrained_competitive_ratio,
)
from repro.core._continuous import ContinuousDelayPolicy
from repro.experiments.report import render_table


class TriangularDelay(ContinuousDelayPolicy):
    """Triangular density on [0, B], peak at B/2."""

    def __init__(self, B: float) -> None:
        self.B = float(B)
        self._lo, self._hi = 0.0, float(B)
        self.name = "TRIANGULAR"

    def pdf_vec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        half = self.B / 2.0
        up = x / half * (2.0 / self.B)
        down = (self.B - x) / half * (2.0 / self.B)
        vals = np.where(x <= half, up, down)
        return np.where(self._in_support(x), vals, 0.0)

    def _cdf_inside(self, x: np.ndarray) -> np.ndarray:
        half = self.B / 2.0
        left = x**2 / (half * self.B)
        right = 1.0 - (self.B - x) ** 2 / (half * self.B)
        return np.where(x <= half, left, right)


def main() -> None:
    B = 1000.0
    model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
    contenders = [TriangularDelay(B), UniformRW(B, 2)]
    rows = []
    for policy in contenders:
        uncon = competitive_ratio(policy, model)
        con = constrained_competitive_ratio(policy, model, mu=0.1 * B)
        rows.append(
            {
                "policy": policy.name,
                "sup ratio": round(uncon.ratio, 4),
                "worst D": round(uncon.worst_remaining, 1),
                "ratio @ mean mu=0.1B": round(con.ratio, 4),
            }
        )
    print(render_table(rows, title=f"custom policy vs Theorem 5 (B={B:g})"))
    print(
        "\nthe triangular hedge loses: uniform equalizes the adversary's "
        "options\n(every D costs exactly 2*OPT), any reshaping opens a "
        "worse pocket somewhere."
    )


if __name__ == "__main__":
    main()
