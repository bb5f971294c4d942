"""Per-step benchmark metrics and the driver loop shared by both engines.

The combination counter is the single instrumentation point both engines
increment, once per attempted (hypothesis, insertion point, candidate)
validity check, so cross-engine comparisons are like-for-like.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .grammar import ObservationError
from .trees import EMPTY_HYPOTHESIS


class CombinationCounter:
    """Mutable counter of attempted combination validity checks."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


@dataclass(frozen=True)
class StepMetrics:
    """Measurements for incorporating one observation."""

    step: int
    hypotheses: int
    combinations: int
    frontier: int  # open-frontier nodes summed over all hypotheses
    max_depth: int  # deepest plan across all hypotheses
    predicted_bound: float
    elapsed_us: int


@dataclass
class RunRecord:
    """One (instance, algorithm) recognition run."""

    instance: str
    algorithm: str
    steps: tuple[StepMetrics, ...] = ()
    final_hypotheses: int = 0
    goal_rooted: int = 0
    topdown_us: int = 0
    status: str = "ok"

    @property
    def total_elapsed_us(self) -> int:
        return sum(s.elapsed_us for s in self.steps) + self.topdown_us


def predicted_bound(algorithm: str, w: int, b: int, h: int) -> float:
    """Theoretical combination-count bound for one step.

    ``(w*b)**h`` for phatt; ``(w*b)**log2(h+w)`` for slim. Reported alongside
    the measured counts for qualitative comparison only, never asserted.
    """
    if w < 1 or b < 1 or h < 1:
        raise ValueError("w, b and h must all be >= 1")
    if algorithm == "phatt":
        return float(w * b) ** h
    if algorithm == "slim":
        return float(w * b) ** math.log2(h + w)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def snapshot(step: int, hypotheses, algorithm: str, b: int,
             combinations: int, elapsed_us: int) -> StepMetrics:
    """Assemble a StepMetrics row from a hypothesis collection."""
    frontier = 0
    depth = 0
    count = 0
    for h in hypotheses:
        count += 1
        for plan in h.plans:
            frontier += plan.open_count
            if plan.height > depth:
                depth = plan.height
    algo = "slim" if algorithm.startswith("slim") else "phatt"
    bound = predicted_bound(algo, max(1, frontier), max(1, b), max(1, depth))
    return StepMetrics(step, count, combinations, frontier, depth, bound, elapsed_us)


def drive(lib, obs_names, step, counter: CombinationCounter, algorithm: str,
          steps: list[StepMetrics], hook=None) -> tuple:
    """Feed ``obs_names`` one at a time through ``step(hyps, sym, ts) -> hyps``
    from the empty hypothesis, appending a :class:`StepMetrics` row (timing
    ``step`` alone) to ``steps`` and calling ``hook(ts, hyps)`` after each.
    Returns the final hypotheses. A ``RecognitionFailure``, or an
    :class:`ObservationError` for a token the library does not know,
    propagates and leaves the earlier steps' rows in ``steps``."""
    hyps = (EMPTY_HYPOTHESIS,)
    b = lib.max_or_branching
    for ts, name in enumerate(obs_names, start=1):
        sym = lib.by_name.get(name)
        if sym is None:
            raise ObservationError(ts, name, "is not in the library")
        before = counter.n
        t0 = time.perf_counter_ns()
        hyps = step(hyps, sym, ts)
        elapsed = (time.perf_counter_ns() - t0) // 1000
        steps.append(snapshot(ts, hyps, algorithm, b, counter.n - before, elapsed))
        if hook is not None:
            hook(ts, hyps)
    return hyps
