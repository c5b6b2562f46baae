"""Per-run correctness checks.

Every check maps to a number of failed epochs out of the epochs the run
attempted, which is what ``failed_frac`` counts:

* an epoch whose cumulative spend exceeds the budget C (3a), whose
  recorded spend is not the summed price of the clients the policy
  selected, or that selected fewer than n clients (3b), fails on its
  own.  The runner already refuses an epoch it cannot pay, and each
  workload's budget outlasts its run, so the (3a) check is a tripwire
  for that guard; the price check is the one that can bind;
* epochs the run never completed (it raised or stopped early) fail;
* a check on the whole experiment that fails -- non-finite ``final_w``,
  a ``final_w`` digest that differs from the recorded one, or a
  ``final_w`` that differs from its reference run -- fails every epoch;
* a benchmark run whose ``final_test_accuracy`` (the mean over its
  experiments) is at or below the workload's floor fails every epoch
  (:func:`accuracy_verdict`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: Spend may exceed C by float rounding only.
SPEND_TOLERANCE = 1e-9


def digest(w: np.ndarray) -> str:
    """sha256 of the model vector's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(w, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, epochs: int, reason: str) -> None:
        self.failed = min(self.attempted, self.failed + epochs)
        self.reasons.append(reason)


def check_run(
    records: Sequence,
    final_w: np.ndarray,
    *,
    budget: float,
    charges: Sequence[float],
    min_participants: int,
    epochs: int,
    expected_digest: Optional[str] = None,
    reference_w: Optional[np.ndarray] = None,
    reference_name: str = "the reference run",
) -> Verdict:
    """Check one completed run of ``epochs`` planned epochs."""
    v = Verdict(attempted=epochs)
    if len(records) < epochs:
        v.fail(epochs - len(records), f"completed {len(records)} of {epochs} epochs")
    spend = np.cumsum([r.cost_spent for r in records]) if records else np.zeros(0)
    over = int((spend > budget + SPEND_TOLERANCE).sum())
    if over:
        v.fail(over, f"cumulative spend above C={budget:g} on {over} epochs (3a)")
    mischarged = sum(
        1 for r, c in zip(records, charges)
        if abs(r.cost_spent - c) > SPEND_TOLERANCE * max(1.0, abs(c))
    )
    if len(charges) < len(records):
        mischarged += len(records) - len(charges)
    if mischarged:
        v.fail(mischarged, f"spend differs from the selected clients' prices on {mischarged} epochs")
    short = sum(1 for r in records if r.num_selected < min_participants)
    if short:
        v.fail(short, f"fewer than n={min_participants} selected on {short} epochs (3b)")
    if not np.isfinite(final_w).all():
        v.fail(epochs, "final_w is not finite")
    if expected_digest is not None and digest(final_w) != expected_digest:
        v.fail(epochs, "final_w digest differs from the recorded digest")
    if reference_w is not None and not (
        reference_w.shape == final_w.shape
        and reference_w.tobytes() == np.asarray(final_w, dtype=np.float64).tobytes()
    ):
        v.fail(epochs, f"final_w differs from {reference_name}")
    return v


def accuracy_verdict(accuracy: float, floor: float, attempted: int) -> Verdict:
    """A benchmark run's ``final_test_accuracy`` against its floor.

    The floor applies to the run's mean, not to each experiment: at
    these run lengths one seed can still be learning slowly (one
    ``byzantine-des`` seed climbed from 0.08 to 0.147 in 10 epochs)."""
    v = Verdict(attempted=attempted)
    if not accuracy > floor:
        v.fail(attempted, f"final_test_accuracy {accuracy:.4f} not above floor {floor}")
    return v
