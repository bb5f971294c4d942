#!/usr/bin/env python3
"""planrec benchmark: PHATT and SLIM over the paper's workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload a3-paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --record-references     # rewrite references.json

With ``--trace 0`` the run repeats passes over the workload until
``--seconds`` is used up (at least one) and reports the end-to-end metrics,
medians over passes; times are reference seconds, scaled to a fixed host
speed by :mod:`hostspeed`. With ``--trace 1`` it runs one untraced pass and one
traced pass and reports the per-layer metrics. Outputs are checked against
references recorded from the seed commit: on the first pass of a run, and on
both passes of a traced run. The last line of standard output is one JSON object; the lines before it are a readable summary.
Exits 1 when an output check fails, 2 when the checkout has no planrec
sources.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"


def _import_planrec():
    if not (SRC / "planrec" / "__init__.py").is_file():
        print(f"perfbench: no planrec sources under {SRC}; "
              "run from the root of a planrec checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


END_TO_END_UNITS = {
    "setup_s": "s", "phatt_s": "s", "slim_bu_s": "s", "slim_td_s": "s",
    "update_ms_mean": "ms", "update_ms_tail_mean": "ms", "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(passes) -> tuple[dict, list[str]]:
    """Medians over passes; each update's latency is averaged over passes
    before the mean and tail are taken."""
    import bench

    setups = [s for p in passes for s in p.setup_s]
    per_update = {}
    for p in passes:
        for key, ms in p.updates_ms.items():
            per_update.setdefault(key, []).append(ms)
    samples = [sum(v) / len(v) for v in per_update.values()]
    tail = bench.tail_percentile(len(samples))
    median = statistics.median
    values = {
        "setup_s": median(setups),
        "phatt_s": median([p.times["phatt_s"] for p in passes]),
        "slim_bu_s": median([p.times["slim_bu_s"] for p in passes]),
        "slim_td_s": median([p.times["slim_td_s"] for p in passes]),
        "update_ms_mean": sum(samples) / len(samples),
        "update_ms_tail_mean": bench.tail_mean(samples, tail),
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = [f"passes: {len(passes)}, wall " + ", ".join(f"{p.wall_s:.2f}" for p in passes)
             + " s; outputs checked on the first",
             f"setup_s: median of {len(setups)} set-ups",
             f"update_ms_tail_mean: mean of the {int(len(samples) * (100 - tail) / 100)} "
             f"updates beyond p{tail} of {len(samples)}, which is "
             f"{bench.percentile(samples, tail):.4g} ms"]
    per_variant = {}
    for p in passes:
        for tag, seconds in p.variant_s.items():
            per_variant.setdefault(tag, []).append(seconds)
    notes.append("per variant (median s): " + ", ".join(
        f"{tag} {median(v):.3f}" for tag, v in per_variant.items()))
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import bench
    import hostspeed
    import tracing

    workload = bench.load_workload(name)
    references = bench.load_references()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        lib_path, obs_paths = bench.materialize(workload, work)
        rng = random.Random(seed)
        passes = []
        if trace:
            untraced = bench.run_pass(workload, lib_path, obs_paths,
                                      bench.shuffled(workload.instances, rng), work)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = bench.run_pass(workload, lib_path, obs_paths,
                                        bench.shuffled(workload.instances, rng), work,
                                        span=tracer.span)
            passes = [untraced, traced]
            if untraced.digests != traced.digests:
                traced.fail("*", "*", "traced outputs differ from untraced outputs")
            layers = tracing.layer_metrics(tracer, traced.zero_yield,
                                           untraced.wall_s, traced.wall_s)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            mapping = bench.DESIGN["per_layer_to_end_to_end"]
            notes = [f"traced pass {traced.wall_s:.2f} s, untraced {untraced.wall_s:.2f} s, "
                     f"{len(tracer.spans)} spans"]
            notes += [f"{k:36s} {v:>16.6g} {u:6s} -> {mapping[k]}"
                      for k, (v, u) in layers.items()]
            spans_path = WORK_ROOT / f"spans-{name}.json"
            spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            start = time.perf_counter()
            probe = hostspeed.SpeedProbe()
            with probe.running():
                while True:  # outputs are checked on the first pass of every run
                    passes.append(bench.run_pass(workload, lib_path, obs_paths,
                                                 bench.shuffled(workload.instances, rng),
                                                 None if passes else work, probe=probe))
                    last = passes[-1]
                    if time.perf_counter() - start + last.wall_s - last.check_s > seconds:
                        break
            metrics, notes = end_to_end(passes)
            samples, kernel_s = probe.summary()
            notes.append(f"host speed: {samples} probe samples, median kernel "
                         f"{kernel_s * 1e3:.3f} ms against {probe.reference_s * 1e3:.3f} ms "
                         "reference; times below are reference seconds")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for p in passes:
        bench.check_outputs(workload, p, references)
        attempted += p.attempted
        failed += len(p.failures)
    print(f"workload {name} (seed {seed}, trace {int(trace)})")
    for note in notes:
        print(f"  {note}")
    if not trace:
        for metric, entry in metrics.items():
            print(f"  {metric:16s} {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          "(instance, variant) runs)")
    for p in passes:
        for label, why in sorted(p.failures.items()):
            print(f"  FAILED {label}: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, so memory and set-up are its own."""
    import bench

    status = 0
    for name in bench.DESIGN["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status = status or proc.returncode
    return status


def record_references() -> int:
    """Run one pass of every workload and store its output digests."""
    import bench

    refs = {}
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    for name in bench.DESIGN["workloads"]:
        workload = bench.load_workload(name)
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        try:
            lib_path, obs_paths = bench.materialize(workload, work)
            order = bench.shuffled(workload.instances, random.Random(0))
            result = bench.run_pass(workload, lib_path, obs_paths, order, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result.failures:
            print(f"{name}: not recorded, failures {result.failures}", file=sys.stderr)
            return 1
        refs[name] = {inst: result.digests[inst] for inst in sorted(result.digests)}
        print(f"{name}: {result.attempted} (instance, variant) digests in "
              f"{result.wall_s:.1f} s")
    bench.REFERENCES_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload name from design.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1,
                    help="orders the instances within each pass")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    _import_planrec()
    if args.record_references:
        return record_references()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
