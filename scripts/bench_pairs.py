#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Pair i runs ``perfbench/run.py --workload W --seed B+i --seconds S --trace 0``
once in each checkout, the parent first on even pairs and the change first
on odd ones, so drift in host load falls on both sides. Each run's last
standard-output line is its JSON result. Per end-to-end metric the script
prints each side's median and quartiles, the change/parent ratio of the
medians, how many pairs the change won, whether a gain claim holds (at
least 10 pairs, the change better in at least 9 of 10, the gap between the
medians larger than the parent's quartile distance, every run on both sides
correct, and the change's failed share of operations no higher than the
parent's), and whether the change regressed: its median worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, a
fraction of the parent's median.
It also prints each side's failed share, ``failed / attempted`` summed over
its runs.

With ``--labels PARENT_LABEL CHANGE_LABEL`` it also records each side in
the repository's ``bench/BENCH_<label>.json``, one entry per workload, so
runs of several workloads fill one file per side. An entry holds the
checkout's commit (None outside git, ``+dirty`` when tracked files differ
from it), the Python version, the seeds, whether every run was correct, the
median host-probe kernel time, each metric's quartiles, and the quartiles
of each engine variant's median seconds (``variants``).

Usage:
    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload b4-online \
        --pairs 10 --seconds 40 --seed-base 71 [--labels 62acd95 a1b2c3d]
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
MIN_WIN_FRAC = 0.9
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failed_share(runs: list[dict]) -> float:
    """The share of the runs' attempted operations that failed, 0.0 when
    they attempted none."""
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / attempted if attempted else 0.0


def summarize(parent: list[dict], change: list[dict],
              better: dict[str, str] | None = None,
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric present in every run of both sides, in the order
    of the first parent run. ``parent[i]`` and ``change[i]`` are the JSON
    results of pair i; ``better`` maps a metric to "lower" (the default) or
    "higher", and ``bounds`` to the share of the parent's median by which
    the change's may be worse (a metric without one gets ``regressed``
    None). No metric carries a claim unless every run is correct and the
    change's :func:`failed_share` is no higher than the parent's."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs on each side")
    better = better or {}
    bounds = bounds or {}
    names = [name for name in parent[0]["metrics"]
             if all(name in run["metrics"] for run in parent + change)]
    trusted = (all(run.get("correct") for run in parent + change)
               and failed_share(change) <= failed_share(parent))
    rows = []
    for name in names:
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        wins = sum(sign * (n - o) < 0 for o, n in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        gap = sign * (old_q[1] - new_q[1])  # > 0 when the change is better
        bound = bounds.get(name)
        rows.append({
            "metric": name,
            "unit": parent[0]["metrics"][name].get("unit", ""),
            "parent": old_q,
            "change": new_q,
            "ratio": new_q[1] / old_q[1] if old_q[1] else float("nan"),
            "wins": wins,
            "pairs": len(old),
            "claim": (trusted and len(old) >= MIN_PAIRS and wins >= MIN_WIN_FRAC * len(old)
                      and gap > old_q[2] - old_q[0]),
            "regressed": None if bound is None else -gap > bound * abs(old_q[1]),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    head = (f"{'metric':20s} {'parent q1/med/q3':>26s} {'change q1/med/q3':>26s} "
            f"{'ratio':>7s} {'wins':>6s} claim regressed")
    lines = [head]
    for r in rows:
        old = "/".join(f"{v:.4g}" for v in r["parent"])
        new = "/".join(f"{v:.4g}" for v in r["change"])
        regressed = "-" if r["regressed"] is None else "yes" if r["regressed"] else "no"
        lines.append(f"{r['metric']:20s} {old:>26s} {new:>26s} {r['ratio']:7.3f} "
                     f"{r['wins']:>3d}/{r['pairs']:<2d} {'yes' if r['claim'] else 'no':5s} "
                     f"{regressed}")
    return "\n".join(lines)


_KERNEL = re.compile(r"median kernel ([0-9.]+) ms")
_VARIANTS = re.compile(r"per variant \(median s\): (.*)")
_VARIANT = re.compile(r"([^\s,]+) ([0-9.]+)")


def parse_run(stdout: str) -> dict:
    """A perfbench run's JSON result, with two values from its notes added:
    ``kernel_ms``, the host probe's median kernel time (None when it printed
    none), and ``variants``, each engine variant's median seconds (empty
    when it printed none)."""
    result = last_json(stdout)
    match = _KERNEL.search(stdout)
    result["kernel_ms"] = float(match.group(1)) if match else None
    match = _VARIANTS.search(stdout)
    result["variants"] = {tag: float(seconds) for tag, seconds
                          in _VARIANT.findall(match.group(1) if match else "")}
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run's :func:`parse_run` result. A run that exits with
    neither 0 nor 1, or that is still running after ``20 * seconds + 600``
    seconds (far beyond its passes, set-up and output check), raises
    :class:`RuntimeError`."""
    limit = 20 * seconds + 600
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired as err:
        raise RuntimeError(f"{checkout}: perfbench did not exit within {limit:g} s") from err
    if proc.returncode not in (0, 1):  # 1: an output check failed; still a result
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


def commit_of(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``, with ``+dirty`` when tracked
    files differ from it; None unless ``checkout`` is a git work tree's top."""
    git = ["git", "-C", str(checkout)]
    top = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = top.stdout.split()
    if top.returncode or Path(lines[0]).resolve() != checkout.resolve():
        return None
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return lines[1] + ("+dirty" if dirty else "")


def bench_entry(runs: list[dict], seeds: list[int], commit: str | None) -> dict:
    """One workload's entry of a ``BENCH_<label>.json``: ``runs`` are one
    side's :func:`parse_run` results, over ``seeds``."""
    names = [name for name in runs[0]["metrics"]
             if all(name in run["metrics"] for run in runs)]
    metrics = {}
    for name in names:
        q1, median, q3 = quartiles([run["metrics"][name]["value"] for run in runs])
        metrics[name] = {"unit": runs[0]["metrics"][name].get("unit", ""),
                         "q1": q1, "median": median, "q3": q3}
    variants = {}
    for tag in runs[0]["variants"]:
        if all(tag in run["variants"] for run in runs):
            q1, median, q3 = quartiles([run["variants"][tag] for run in runs])
            variants[tag] = {"q1": q1, "median": median, "q3": q3}
    kernels = [run["kernel_ms"] for run in runs if run.get("kernel_ms") is not None]
    return {"commit": commit, "python": platform.python_version(), "seeds": seeds,
            "runs": len(runs), "correct": all(run.get("correct") for run in runs),
            "kernel_ms": round(statistics.median(kernels), 4) if kernels else None,
            "metrics": metrics, "variants": variants}


def write_bench(directory: Path, label: str, workload: str, entry: dict) -> Path:
    """Put ``entry`` in ``directory/BENCH_<label>.json`` as ``workload``'s,
    keeping the other workloads' entries the file holds."""
    path = directory / f"BENCH_{label}.json"
    record = {"label": label, "workloads": {}}
    if path.is_file():
        record = json.loads(path.read_text(encoding="utf-8"))
    record["workloads"][workload] = entry
    record["workloads"] = dict(sorted(record["workloads"].items()))
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def _design(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """``better`` and ``bound`` of each end-to-end metric of the checkout's
    ``BENCHMARK.json``; empty when it has none."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}, {}
    metrics = json.loads(path.read_text(encoding="utf-8")).get("end_to_end", ())
    return ({m["name"]: m.get("better", "lower") for m in metrics},
            {m["name"]: m["bound"] for m in metrics if "bound" in m})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--labels", nargs=2, metavar=("PARENT_LABEL", "CHANGE_LABEL"),
                    help="write bench/BENCH_<label>.json for each side")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{checkout}: no perfbench/run.py")

    parent, change = [], []
    for i in range(args.pairs):
        seed = args.seed_base + i
        sides = [(args.parent, parent), (args.change, change)]
        for checkout, runs in (sides if i % 2 == 0 else sides[::-1]):
            result = run_once(checkout.resolve(), args.workload, seed, args.seconds)
            runs.append(result)
            status = "correct" if result.get("correct") else "NOT CORRECT"
            print(f"pair {i + 1} seed {seed} {checkout}: {status}, "
                  f"{result.get('failed', '?')} failed", flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs, seeds "
          f"{args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"failed share: parent {failed_share(parent):.4g}, "
          f"change {failed_share(change):.4g}")
    print(format_rows(summarize(parent, change, *_design(args.change))))
    if args.labels:
        seeds = list(range(args.seed_base, args.seed_base + args.pairs))
        for label, checkout, runs in zip(args.labels, (args.parent, args.change),
                                         (parent, change)):
            path = write_bench(BENCH_DIR, label, args.workload,
                               bench_entry(runs, seeds, commit_of(checkout)))
            print(f"wrote {path}")
    return 0 if all(run.get("correct") for run in parent + change) else 1


if __name__ == "__main__":
    sys.exit(main())
