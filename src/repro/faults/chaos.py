"""Process-level chaos: seeded worker kills and cache-entry corruption.

PR 1's injectors misbehave *inside* the simulated machine; this module
misbehaves at the level the machine runs on — worker processes and the
files the run trusts.  Everything is derived from one seed with
counter-less hash draws, so a chaos schedule is a pure function of
``(seed, exp_id, attempt)``: two runs with the same seed kill the same
workers at the same points, which is what lets the chaos CI gate assert
byte-identical rows against the fault-free run.

Two injector families:

* **Worker kills** — :meth:`ChaosPlan.should_kill` /
  :meth:`ChaosPlan.should_stop` decide whether the worker executing
  ``(exp_id, attempt)`` SIGKILLs or SIGSTOPs itself at its seeded
  injection point (:func:`apply_worker_chaos`, called by the supervised
  pool right before the task body runs).  Draws are suppressed from
  ``safe_attempt`` on, so a task survives chaos after at most
  ``safe_attempt`` re-executions — chaos may slow a run down, never
  wedge it.
* **Bit rot** — :func:`corrupt_bytes` flips deterministically chosen
  bytes in a result-cache entry, the scenario the entry checksum (and
  ``repro cache verify``) must detect.

Nothing here runs unless explicitly armed (``--chaos SEED`` on the CLI
or a plan handed to a ``SupervisedPool``); an unarmed run never imports a
single hash draw.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import signal
from dataclasses import asdict, dataclass, fields

from repro.errors import FaultInjectionError

__all__ = ["ChaosPlan", "apply_worker_chaos", "corrupt_bytes"]


def _draw(seed: int, *parts: object) -> float:
    """Deterministic uniform in [0, 1) from a hash of the parts."""
    payload = "|".join(str(p) for p in (seed, *parts)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded process-level fault schedule (picklable, serializable)."""

    seed: int
    #: probability the worker running ``(exp_id, attempt)`` is SIGKILLed.
    kill_rate: float = 0.25
    #: probability the worker is SIGSTOPped instead (heartbeat loss).
    stop_rate: float = 0.0
    #: attempts >= this are never chaosed, so every task terminates.
    safe_attempt: int = 2

    def __post_init__(self) -> None:
        for name in ("kill_rate", "stop_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(f"{name} is a probability, got {value}")
        if self.safe_attempt < 1:
            raise FaultInjectionError(
                f"safe_attempt must be >= 1, got {self.safe_attempt}"
            )

    # ------------------------------------------------------------------
    def should_kill(self, exp_id: str, attempt: int) -> bool:
        return (
            attempt < self.safe_attempt
            and _draw(self.seed, "kill", exp_id, attempt) < self.kill_rate
        )

    def should_stop(self, exp_id: str, attempt: int) -> bool:
        return (
            attempt < self.safe_attempt
            and not self.should_kill(exp_id, attempt)
            and _draw(self.seed, "stop", exp_id, attempt) < self.stop_rate
        )

    # -- (de)serialization (crosses the worker process boundary) --------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, config: dict) -> "ChaosPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(config) - known
        if unknown:
            raise FaultInjectionError(
                f"unknown chaos-plan keys: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**config)


def apply_worker_chaos(plan: ChaosPlan, exp_id: str, attempt: int) -> None:
    """The worker-side injection point: maybe die, maybe freeze.

    SIGKILL models an OOM kill / operator ``kill -9`` — the parent sees
    the pipe close and the exit status carry the signal.  SIGSTOP models
    a wedged-but-alive process — heartbeats cease and only the
    supervisor's heartbeat timeout can recover the slot.
    """
    if plan.should_kill(exp_id, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.should_stop(exp_id, attempt):
        os.kill(os.getpid(), signal.SIGSTOP)


def corrupt_bytes(
    path: pathlib.Path | str, *, seed: int, n_flips: int = 4
) -> int:
    """Flip ``n_flips`` deterministically chosen bytes in ``path``;
    returns how many were flipped (0 for an empty file)."""
    path = pathlib.Path(path)
    raw = bytearray(path.read_bytes())
    if not raw:
        return 0
    flipped = 0
    for i in range(n_flips):
        offset = int(_draw(seed, "corrupt", path.name, i) * len(raw))
        raw[offset] ^= 0xFF
        flipped += 1
    path.write_bytes(bytes(raw))  # simlint: disable=FLOW005 -- chaos-harness artifact damage: corrupt_bytes flips deterministically chosen bytes in a result-cache entry to exercise checksum rejection; harness-only, never on the simulation path
    return flipped
