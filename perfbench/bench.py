"""Workload passes, output checks and end-to-end metrics of the planrec benchmark.

A workload is a seeded library from :mod:`planrec.domains`, a fixed list of
simulated instances and a mode:

* ``paper``: per instance, PHATT over the whole sequence, then one SLIM
  bottom-up pass (slim-0), then a top-down compile with a fresh engine for
  each ``k`` of the workload. This is the paper's comparison.
* ``online``: per instance, one SLIM engine that compiles the k best local
  hypotheses after every observation (its memos carry over between
  queries), then PHATT over the same sequence as the eager baseline.

Every (instance, variant) unit is timed on its own; its outputs are reduced
to digests outside the timed region and its results dropped before the next
unit starts. The loops below mirror ``planrec.runner``'s, but use only
public names of the package. Timed regions are measured with a
:class:`hostspeed.SpeedProbe`, which reports reference seconds while it runs
and plain wall seconds otherwise.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

from planrec import metrics, runner
from planrec.domains import DomainParams, generate_domain, simulate_agent
from planrec.grammar import serialize_library
from planrec.metrics import RunRecord
from planrec.phatt import HypothesisSet, PhattConfig, PhattEngine, RecognitionFailure
from planrec.slim import SlimEngine, TopDownConfig
from planrec.trees import EMPTY_HYPOTHESIS

HERE = Path(__file__).resolve().parent
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
REFERENCES_PATH = HERE / "references.json"

SETUP_SAMPLES_PER_INSTANCE = 3  # set-up samples spread over the pass
PERCENTILES = (50, 75, 80, 90, 95, 99)
ELAPSED_COLUMN = runner.CSV_COLUMNS.index("elapsed_us")


@dataclass(frozen=True)
class Workload:
    name: str
    domain: DomainParams
    instances: tuple[int, ...]
    mode: str  # "paper" or "online"
    ks: tuple[int | None, ...]  # None compiles every local hypothesis
    bottom_up_repeats: int = 1  # paper mode: bottom-up runs per instance and pass


def load_workload(name: str) -> Workload:
    spec = DESIGN["workloads"].get(name)
    if spec is None:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(DESIGN['workloads'])}")
    return Workload(name, DomainParams(**spec["domain"]), tuple(spec["instances"]),
                    spec["mode"], tuple(runner.parse_k(k) for k in spec["k"]),
                    spec.get("bottom_up_repeats", 1))


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------


def materialize(workload: Workload, work_dir: Path) -> tuple[Path, dict[str, Path]]:
    """Write the workload's library and one observation file per instance."""
    lib = generate_domain(workload.domain)
    lib_path = work_dir / "library.txt"
    lib_path.write_text(serialize_library(lib), encoding="utf-8")
    obs_paths = {}
    for seed in workload.instances:
        path = work_dir / f"inst_{seed}.txt"
        path.write_text(" ".join(simulate_agent(lib, seed)) + "\n", encoding="utf-8")
        obs_paths[path.stem] = path
    return lib_path, obs_paths


def setup(lib_path: Path, probe: hostspeed.SpeedProbe):
    """Parse the library file and build the engines, up to the first
    observation. Returns the library and the seconds it took."""
    token = probe.start()
    lib = runner.load_library(lib_path)
    PhattEngine(lib, PhattConfig.for_library(lib))
    SlimEngine(lib, TopDownConfig.for_library(lib, k=0))
    return lib, probe.stop(token)


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emitted_digest(hyps, scratch: Path) -> str:
    """Digest of the hypothesis file ``runner.emit_hypotheses`` writes."""
    path = scratch / "emit.txt"
    runner.emit_hypotheses(hyps, path)
    return _sha(path.read_bytes())


def csv_digest(record: RunRecord, scratch: Path) -> str:
    """Digest of the record's metrics-CSV rows with ``elapsed_us`` removed."""
    path = scratch / "metrics.csv"
    runner.write_metrics_csv([record], path)
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        cols = line.split(",")
        rows.append(",".join(cols[:ELAPSED_COLUMN] + cols[ELAPSED_COLUMN + 1:]))
    return _sha("\n".join(rows).encode())


def canon_set_digest(hyps) -> str:
    return _sha("\n".join(sorted(h.canon for h in hyps)).encode())


# ---------------------------------------------------------------------------
# Recognition loops (timed)
# ---------------------------------------------------------------------------


def _no_span(name: str, **attrs):
    return contextlib.nullcontext()


def drive_phatt(lib, obs: list[str], instance: str):
    """PHATT over one sequence with per-step snapshots, as the runner does."""
    engine = PhattEngine(lib, PhattConfig.for_library(lib))
    hset = HypothesisSet.initial()
    steps = []
    b = lib.max_or_branching
    status = "ok"
    try:
        for name in obs:
            sym = lib.sym(name)
            before = engine.counter.n
            t0 = time.perf_counter_ns()
            hset = engine.step(hset, sym)
            elapsed = (time.perf_counter_ns() - t0) // 1000
            steps.append(metrics.snapshot(hset.step, hset.hypotheses, "phatt", b,
                                          engine.counter.n - before, elapsed))
    except RecognitionFailure as failure:
        status = f"fail@{failure.step}"
    n = len(hset.hypotheses)
    return RunRecord(instance, "phatt", tuple(steps), final_hypotheses=n,
                     goal_rooted=n, status=status), hset.hypotheses


def drive_bottom_up(lib, obs: list[str], instance: str, updates_ms: list[float],
                    probe: hostspeed.SpeedProbe):
    """SLIM bottom-up over one sequence; appends each step's milliseconds
    to ``updates_ms``."""
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=0))
    hyps = (EMPTY_HYPOTHESIS,)
    steps = []
    b = lib.max_or_branching
    status = "ok"
    try:
        for ts, name in enumerate(obs, start=1):
            sym = lib.sym(name)
            before = engine.counter.n
            token = probe.start()
            t0 = time.perf_counter_ns()
            hyps = engine.step(hyps, sym, ts)
            elapsed = time.perf_counter_ns() - t0
            updates_ms.append(probe.stop(token) * 1e3)
            steps.append(metrics.snapshot(ts, hyps, "slim", b,
                                          engine.counter.n - before, elapsed // 1000))
    except RecognitionFailure as failure:
        status = f"fail@{failure.step}"
    return RunRecord(instance, "slim-0", tuple(steps), final_hypotheses=len(hyps),
                     status=status), hyps


def drive_online(lib, obs: list[str], instance: str, k: int | None,
                 updates_ms: list[float], probe: hostspeed.SpeedProbe, span=_no_span):
    """One SLIM engine over one sequence, compiling the k best local
    hypotheses after every observation. Returns the bottom-up record, each
    query's goal-rooted list, and the seconds spent in bottom-up (steps and
    snapshots) and in the queries."""
    token = probe.start()
    engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=k))
    hyps = (EMPTY_HYPOTHESIS,)
    steps = []
    answers = []
    b = lib.max_or_branching
    status = "ok"
    bu_s = probe.stop(token)
    td_s = 0.0
    try:
        for ts, name in enumerate(obs, start=1):
            sym = lib.sym(name)
            with span("update", ts=ts):
                before = engine.counter.n
                token = probe.start()
                t0 = time.perf_counter_ns()
                hyps = engine.step(hyps, sym, ts)
                elapsed = time.perf_counter_ns() - t0
                step_s = probe.stop(token)
                after = engine.counter.n
                token = probe.start()
                goal_rooted, _ = engine.compile_top_down(hyps)
                query_s = probe.stop(token)
            updates_ms.append((step_s + query_s) * 1e3)
            token = probe.start()
            steps.append(metrics.snapshot(ts, hyps, "slim", b, after - before,
                                          elapsed // 1000))
            bu_s += step_s + probe.stop(token)
            td_s += query_s
            answers.append(goal_rooted)
    except RecognitionFailure as failure:
        status = f"fail@{failure.step}"
    record = RunRecord(instance, runner.algorithm_tag("slim", k), tuple(steps),
                       final_hypotheses=len(hyps), status=status)
    return record, answers, bu_s, td_s


# ---------------------------------------------------------------------------
# One pass over a workload
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    scratch: Path | None  # where outputs are written for digests; None skips them
    probe: hostspeed.SpeedProbe
    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    check_s: float = 0.0  # part of wall_s spent computing output digests
    times: dict[str, float] = field(
        default_factory=lambda: {"phatt_s": 0.0, "slim_bu_s": 0.0, "slim_td_s": 0.0})
    variant_s: dict[str, float] = field(default_factory=dict)
    updates_ms: dict[tuple[str, int], float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # "instance/variant" -> why
    digests: dict[str, dict[str, dict]] = field(default_factory=dict)
    zero_yield: dict[str, list[int]] = field(default_factory=dict)  # variant -> [zero, total]

    def add_time(self, metric: str, variant: str, seconds: float):
        self.times[metric] += seconds
        self.variant_s[variant] = self.variant_s.get(variant, 0.0) + seconds

    def add_updates(self, instance: str, updates_ms: list[float]):
        for ts, ms in enumerate(updates_ms, start=1):
            self.updates_ms[(instance, ts)] = ms

    def store(self, instance: str, variant: str, make_digest):
        """Keep one unit's output digests, unless this pass skips them."""
        if self.scratch is not None:
            t0 = time.perf_counter()
            self.digests.setdefault(instance, {})[variant] = make_digest(self.scratch)
            self.check_s += time.perf_counter() - t0

    def fail(self, instance: str, variant: str, why: str):
        self.failures.setdefault(f"{instance}/{variant}", why)

    def count_yield(self, variant: str, goal_rooted):
        tally = self.zero_yield.setdefault(variant, [0, 0])
        tally[0] += not goal_rooted
        tally[1] += 1


def _attempt(result: PassResult, instance: str, variant: str, unit):
    """Run one (instance, variant) unit and return its value. Any exception,
    and any status other than ``ok``, is recorded as that unit's failure, so
    one bad instance never aborts the pass."""
    result.attempted += 1
    try:
        value = unit()
    except Exception as exc:  # noqa: BLE001 - the pass must go on
        result.fail(instance, variant, f"raised {type(exc).__name__}: {exc}")
        return None
    record = value[0]
    if record.status != "ok":
        result.fail(instance, variant, f"status {record.status}")
    return value


def run_pass(workload: Workload, lib_path: Path, obs_paths: dict[str, Path],
             order: list[str], scratch: Path | None, span=_no_span,
             probe: hostspeed.SpeedProbe | None = None) -> PassResult:
    """Set up, then run every variant of every instance in ``order``. Output
    digests are written under ``scratch``; with None the pass skips them.
    Times are taken with ``probe``; without one they are wall seconds."""
    probe = probe or hostspeed.SpeedProbe()
    result = PassResult(scratch, probe)
    t_start = time.perf_counter()
    with span("setup"):
        lib, seconds = setup(lib_path, probe)
    result.setup_s.append(seconds)
    run_instance = _paper_instance if workload.mode == "paper" else _online_instance
    for instance in order:
        # extra set-ups between instances sample set-up time across the
        # whole pass, not only at its start; their libraries are discarded
        for _ in range(SETUP_SAMPLES_PER_INSTANCE):
            with span("setup"):
                result.setup_s.append(setup(lib_path, probe)[1])
        run_instance(workload, lib, instance, obs_paths[instance], result, span)
        gc.collect()
    result.wall_s = time.perf_counter() - t_start
    return result


def _phatt_unit(lib, instance, obs_path, result, span):
    def unit():
        obs = runner.read_observations(obs_path)
        with span("drive", instance=instance, variant="phatt"):
            token = result.probe.start()
            record, hyps = drive_phatt(lib, obs, instance)
            seconds = result.probe.stop(token)
        result.add_time("phatt_s", "phatt", seconds)
        result.store(instance, "phatt", lambda scratch: {
            "hypotheses": emitted_digest(hyps, scratch),
            "csv": csv_digest(record, scratch),
            "canon": canon_set_digest(hyps),
        })
        return (record,)

    _attempt(result, instance, "phatt", unit)


def _paper_instance(workload, lib, instance, obs_path, result, span):
    _phatt_unit(lib, instance, obs_path, result, span)
    gc.collect()

    def bottom_up():
        # a short bottom-up pass is repeated and its median taken, so that
        # its time is steady; each repeat starts from a fresh engine
        obs = runner.read_observations(obs_path)
        runs = []
        for _ in range(workload.bottom_up_repeats):
            updates = []
            record = hyps = None
            with span("drive", instance=instance, variant="slim-0"):
                token = result.probe.start()
                record, hyps = drive_bottom_up(lib, obs, instance, updates, result.probe)
                seconds = result.probe.stop(token)
            runs.append((seconds, updates))
        result.add_time("slim_bu_s", "slim-0", statistics.median(r[0] for r in runs))
        result.add_updates(instance, [statistics.median(step)
                                      for step in zip(*(r[1] for r in runs))])
        result.store(instance, "slim-0", lambda scratch: {
            "hypotheses": emitted_digest(hyps, scratch),
            "csv": csv_digest(record, scratch),
        })
        return record, hyps

    bottom = _attempt(result, instance, "slim-0", bottom_up)
    for k in workload.ks:
        tag = runner.algorithm_tag("slim", k)
        if bottom is None or bottom[0].status != "ok":
            result.attempted += 1
            result.fail(instance, tag, "no bottom-up result to compile")
            continue
        record, hyps = bottom

        def top_down(k=k, tag=tag):
            with span("drive", instance=instance, variant=tag):
                token = result.probe.start()
                engine = SlimEngine(lib, TopDownConfig.for_library(lib, k=k))
                goal_rooted, topdown_us = engine.compile_top_down(hyps)
                seconds = result.probe.stop(token)
            result.add_time("slim_td_s", tag, seconds)
            result.count_yield(tag, goal_rooted)
            compiled = RunRecord(instance, tag, record.steps,
                                 final_hypotheses=len(hyps),
                                 goal_rooted=len(goal_rooted), topdown_us=topdown_us)

            def digest(scratch):
                out = {  # the runner emits the locals when nothing compiles
                    "hypotheses": emitted_digest(goal_rooted or hyps, scratch),
                    "csv": csv_digest(compiled, scratch),
                }
                if k is None:
                    out["canon"] = canon_set_digest(goal_rooted)
                return out

            result.store(instance, tag, digest)
            return (compiled,)

        _attempt(result, instance, tag, top_down)
        gc.collect()


def _online_instance(workload, lib, instance, obs_path, result, span):
    (k,) = workload.ks
    tag = runner.algorithm_tag("slim", k)

    def online():
        obs = runner.read_observations(obs_path)
        updates = []
        with span("drive", instance=instance, variant=tag):
            record, answers, bu_s, td_s = drive_online(lib, obs, instance, k, updates,
                                                       result.probe, span)
        result.add_time("slim_bu_s", tag, bu_s)
        result.add_time("slim_td_s", tag, td_s)
        result.add_updates(instance, updates)
        for goal_rooted in answers:
            result.count_yield(tag, goal_rooted)
        result.store(instance, tag, lambda scratch: {
            "queries": [emitted_digest(a, scratch) for a in answers],
            "csv": csv_digest(record, scratch),
        })
        return (record,)

    _attempt(result, instance, tag, online)
    gc.collect()
    _phatt_unit(lib, instance, obs_path, result, span)


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def load_references() -> dict:
    if not REFERENCES_PATH.is_file():
        return {}
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


def check_outputs(workload: Workload, result: PassResult, references: dict):
    """Compare every unit's digests with the recorded references, and on
    paper workloads the slim-all goal-rooted set with PHATT's final set.
    Each mismatch is recorded as that unit's failure."""
    expected = references.get(workload.name, {})
    for instance, by_variant in result.digests.items():
        for variant, digest in by_variant.items():
            want = expected.get(instance, {}).get(variant)
            if want is None:
                result.fail(instance, variant, "no reference recorded")
            elif want != digest:
                keys = sorted(k for k in digest if digest[k] != want.get(k))
                result.fail(instance, variant, f"output differs from reference: {keys}")
        phatt, slim_all = by_variant.get("phatt"), by_variant.get("slim-all")
        if phatt and slim_all and phatt["canon"] != slim_all["canon"]:
            result.fail(instance, "slim-all", "goal-rooted set differs from PHATT's")


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """The highest percentile in :data:`PERCENTILES` with at least ten of
    ``n`` samples beyond it."""
    allowed = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if not allowed:
        raise ValueError(f"{n} samples leave fewer than ten beyond the median")
    return allowed[-1]


def tail_mean(samples: list[float], p: int) -> float:
    """Mean of the samples beyond the ``p``-th percentile (at least ten by
    :func:`tail_percentile`). Averaging them keeps the figure steady where a
    single order statistic of few, unlike samples would jump."""
    beyond = int(len(samples) * (100 - p) / 100)
    return sum(sorted(samples)[-beyond:]) / beyond


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def shuffled(instances, rng: random.Random) -> list[str]:
    order = [f"inst_{seed}" for seed in instances]
    rng.shuffle(order)
    return order
