"""Recognition runs, hypothesis dumps, and the benchmark harness.

:func:`_run` is the one place in the package that builds an engine and
drives it: it feeds one engine through :func:`planrec.metrics.drive`, and
one SLIM engine per instance serves every top-down ``k``, sharing its memos.

Emits one metrics CSV row per (instance, algorithm, step) with the fixed
schema ``instance,algorithm,step,hypotheses,combinations,frontier,max_depth,
predicted_bound,elapsed_us,status``. Rows are byte-identical across repeated
runs with equal inputs, except for the elapsed timing columns.
"""

from __future__ import annotations

import csv
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .grammar import ObservationError, PlanLibrary, parse_library
from .metrics import RunRecord, drive
from .phatt import HypothesisSet, PhattConfig, PhattEngine, RecognitionFailure
from .slim import SlimEngine, TopDownConfig, k_best
from .trees import Hypothesis, rank_key

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_OBSERVATION = 5
EXIT_RECOGNITION = 6

CSV_COLUMNS = (
    "instance", "algorithm", "step", "hypotheses", "combinations",
    "frontier", "max_depth", "predicted_bound", "elapsed_us", "status",
)

# called after every engine step with (instance, algorithm, step, hypotheses)
StepHook = Callable[[str, str, int, tuple[Hypothesis, ...]], None]


def load_library(path: str | Path) -> PlanLibrary:
    return parse_library(_read_text(path))


def read_observations(path: str | Path) -> list[str]:
    return _read_text(path).split()


def _read_text(path: str | Path) -> str:
    """The file's text; a file that is not UTF-8 is an I/O error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise OSError(f"{path}: not UTF-8 text ({err})") from err


def parse_k(value: "int | str | None") -> int | None:
    """CLI-facing ``k``: an integer or the string ``all`` (compile everything)."""
    if value is None or value == "all":
        return None
    k = int(value)
    if k < 0:
        raise ValueError("k must be >= 0 or 'all'")
    return k


def algorithm_tag(algorithm: str, k: int | None) -> str:
    if algorithm == "phatt":
        return "phatt"
    return "slim-all" if k is None else f"slim-{k}"


def run_recognition(library_path: str | Path, obs_path: str | Path, algorithm: str,
                    k: int | str | None = 0, max_depth: int | None = None,
                    emit_path: str | Path | None = None,
                    csv_path: str | Path | None = None, instance: str | None = None,
                    step_hook: StepHook | None = None) -> RunRecord:
    """Run one engine over one observation file, recording per-step metrics.

    Raises the engine's :class:`RecognitionFailure` when some observation
    cannot be explained, and an :class:`ObservationError` naming
    ``obs_path`` when one is unknown or not a terminal (after writing the
    CSV rows of the steps before it and of the failure).
    """
    lib = load_library(library_path)
    obs = read_observations(obs_path)
    instance = instance or Path(obs_path).stem
    records, failure = _run(lib, obs, algorithm, [parse_k(k)], max_depth,
                            instance, step_hook, emit_path)
    if csv_path is not None:
        write_metrics_csv(records, csv_path)
    if isinstance(failure, ObservationError):
        failure.source = str(obs_path)
    if failure is not None:
        raise failure
    return records[0]


def _run(lib: PlanLibrary, obs: list[str] | None, algorithm: str, k_values: list[int | None],
         max_depth: int | None, instance: str,
         hook: StepHook | None = None, emit_path: str | Path | None = None
         ) -> tuple[list[RunRecord], RecognitionFailure | ObservationError | None]:
    """One engine over one sequence: a record per variant (PHATT, or each SLIM
    ``k`` compiled by the same engine), and the failure that stopped it, if
    any: status ``fail@<step>`` when no hypothesis explains an observation,
    ``error@<step>`` when it is unknown or not a terminal, and ``error@0``
    when ``obs`` is None, a file that could not be read. An empty sequence
    has no goal-rooted hypothesis: the empty hypothesis explains nothing."""
    if algorithm == "phatt":
        engine = PhattEngine(lib, PhattConfig.for_library(lib, max_depth))

        def step(hyps, sym, ts):
            return engine.step(HypothesisSet(ts - 1, hyps), sym).hypotheses

        variants = [("phatt", 0)]  # goal-rooted already: nothing to compile
    elif algorithm == "slim":
        engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=None, max_depth=max_depth))
        step = engine.step
        variants = [(algorithm_tag("slim", k), k) for k in k_values]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if obs is None:
        return [RunRecord(instance, tag, status="error@0") for tag, _ in variants], None
    steps = []
    try:
        hyps = drive(lib, obs, step, engine.counter, algorithm, steps,
                     None if hook is None else partial(hook, instance, algorithm))
    except (RecognitionFailure, ObservationError) as failure:
        status = "fail" if isinstance(failure, RecognitionFailure) else "error"
        return [RunRecord(instance, tag, tuple(steps), status=f"{status}@{failure.step}")
                for tag, _ in variants], failure
    out = []
    for tag, k in variants:
        goal_rooted, topdown_us = [], 0
        if obs and algorithm == "phatt":
            goal_rooted = hyps
        elif obs and (k is None or k > 0):
            goal_rooted, topdown_us = engine.compile_top_down(k_best(hyps, k))
        out.append(RunRecord(instance, tag, tuple(steps), final_hypotheses=len(hyps),
                             goal_rooted=len(goal_rooted), topdown_us=topdown_us))
        if emit_path is not None:
            emit_hypotheses(goal_rooted if goal_rooted else hyps, emit_path)
    return out, None


def emit_hypotheses(hyps: Iterable[Hypothesis], path: str | Path):
    """One hypothesis per line: ``weight<TAB>plan{;plan}``, ordered by weight
    descending then canonical form ascending (:func:`~planrec.trees.rank_key`:
    the lines need every ``canon``, so sorting by the built strings is
    cheaper than :func:`~planrec.trees.ranked`). Byte-deterministic."""
    lines = [f"{h.weight!r}\t{h.canon}" for h in sorted(hyps, key=rank_key)]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_metrics_csv(records: Iterable[RunRecord], path: str | Path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            if not record.steps:
                writer.writerow([record.instance, record.algorithm, 0, 0, 0, 0, 0,
                                 repr(0.0), 0, record.status])
            for sm in record.steps:
                writer.writerow([
                    record.instance, record.algorithm, sm.step, sm.hypotheses,
                    sm.combinations, sm.frontier, sm.max_depth,
                    repr(sm.predicted_bound), sm.elapsed_us, record.status,
                ])


def run_benchmark(library_path: str | Path, obs_dir: str | Path,
                  algorithms: list[str], k_values: list[int | None],
                  csv_path: str | Path | None = None,
                  max_depth: int | None = None,
                  step_hook: StepHook | None = None) -> dict:
    """Run every (instance, algorithm variant) pair and summarize.

    One SLIM engine per instance makes the bottom-up pass and serves every k;
    each k adds its own top-down timing, reported per instance as
    ``topdown_us``. Per-instance failures, including observations that are
    unknown or not terminals and files that cannot be read, are recorded in
    the CSV status column, not raised.
    """
    lib = load_library(library_path)
    obs_files = sorted(Path(obs_dir).glob("*.txt"))
    if not obs_files:
        raise FileNotFoundError(f"no .txt observation files under {obs_dir}")
    records: list[RunRecord] = []
    for obs_file in obs_files:
        try:
            obs = read_observations(obs_file)
        except OSError:
            obs = None
        for algorithm in algorithms:
            records.extend(_run(lib, obs, algorithm, k_values, max_depth,
                                obs_file.stem, step_hook)[0])
    if csv_path is not None:
        write_metrics_csv(records, csv_path)
    return summarize(records)


def summarize(records: list[RunRecord]) -> dict:
    """Per-algorithm per-step means plus per-instance totals."""
    by_algo: dict[str, dict[int, list]] = {}
    totals: dict[str, list[tuple[str, int, int]]] = {}
    for record in records:
        steps = by_algo.setdefault(record.algorithm, {})
        for sm in record.steps:
            steps.setdefault(sm.step, []).append(sm)
        totals.setdefault(record.algorithm, []).append(
            (record.instance, record.total_elapsed_us, record.topdown_us)
        )
    summary: dict = {"algorithms": {}, "records": records}
    for algo, per_step in sorted(by_algo.items()):
        rows = {}
        for step, sms in sorted(per_step.items()):
            rows[step] = {
                "hypotheses": _mean([s.hypotheses for s in sms]),
                "combinations": _mean([s.combinations for s in sms]),
                "frontier": _mean([s.frontier for s in sms]),
                "elapsed_us": _mean([s.elapsed_us for s in sms]),
            }
        summary["algorithms"][algo] = {
            "steps": rows,
            "instances": totals.get(algo, []),
            "mean_total_us": _mean([t[1] for t in totals.get(algo, [])]),
            "mean_topdown_us": _mean([t[2] for t in totals.get(algo, [])]),
        }
    return summary


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def format_summary(summary: dict) -> str:
    lines = []
    for algo, info in summary["algorithms"].items():
        lines.append(f"algorithm {algo}  (mean total {info['mean_total_us'] / 1e6:.3f} s, "
                     f"mean top-down {info['mean_topdown_us'] / 1e6:.3f} s)")
        lines.append("  step  hypotheses  combinations  frontier  elapsed_us")
        for step, row in info["steps"].items():
            lines.append(
                f"  {step:>4}  {row['hypotheses']:>10.1f}  {row['combinations']:>12.1f}"
                f"  {row['frontier']:>8.1f}  {row['elapsed_us']:>10.0f}"
            )
    return "\n".join(lines)
